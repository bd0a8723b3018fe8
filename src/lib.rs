//! # ExES — Explaining Expert Search and Team Formation Systems
//!
//! A Rust reproduction of *"Explaining Expert Search and Team Formation
//! Systems with ExES"* (ICDE 2025). This facade crate re-exports the public
//! API of the workspace so that downstream users can depend on a single crate:
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`graph`] | Collaboration-network substrate: [`graph::CollabGraph`], queries, perturbations |
//! | [`datasets`] | Synthetic DBLP-like / GitHub-like dataset generators and query workloads |
//! | [`embedding`] | Skill embeddings (PPMI + truncated SVD) — Pruning Strategy 4 |
//! | [`linkpred`] | Link prediction (DeepWalk-style encoder + heuristics) — Pruning Strategy 5 |
//! | [`expert_search`] | Expert-search black boxes (TF-IDF, propagation, PageRank, GCN-style) |
//! | [`team`] | Team-formation black boxes (greedy cover, min-distance) |
//! | [`shap`] | Shapley-value engine (exact enumeration, budgeted permutation sampling) |
//! | [`core`] | The ExES explainer: factual + counterfactual explanations with pruning |
//! | [`server`] | Networked serving front-end: HTTP/1.1, micro-batching, admission control |
//!
//! ```
//! use exes::prelude::*;
//!
//! // Build a small collaboration network.
//! let mut b = CollabGraphBuilder::new();
//! let ada = b.add_person("Ada", ["databases", "xai"]);
//! let bob = b.add_person("Bob", ["graphs", "xai"]);
//! let cleo = b.add_person("Cleo", ["vision"]);
//! b.add_edge(ada, bob);
//! b.add_edge(bob, cleo);
//! let graph = b.build();
//!
//! // Ask an expert-search system who matches "xai graphs".
//! let ranker = PropagationRanker::default();
//! let query = Query::parse("xai graphs", graph.vocab()).unwrap();
//! let top = ranker.rank_all(&graph, &query).top_k(1);
//! assert_eq!(top, vec![bob]);
//! ```

#![forbid(unsafe_code)]

pub use exes_core as core;
pub use exes_datasets as datasets;
pub use exes_embedding as embedding;
pub use exes_expert_search as expert_search;
pub use exes_graph as graph;
pub use exes_linkpred as linkpred;
pub use exes_server as server;
pub use exes_shap as shap;
pub use exes_team as team;

/// Commonly used items, importable with `use exes::prelude::*`.
pub mod prelude {
    pub use exes_core::{
        counterfactual_precision, factual_precision_at_k, CounterfactualKind, DecisionModel,
        ErasedDecisionModel, Exes, ExesConfig, ExesService, ExpertRelevanceTask, Explanation,
        ExplanationKind, ExplanationRequest, FactualExplanation, Feature, ModelId, ModelRegistry,
        ModelSpec, ModelSpecError, OutputMode, ProbeCache, RequestError, SeedPolicy, ServiceReport,
        TeamMembershipTask,
    };
    pub use exes_datasets::{
        Corpus, DatasetConfig, QueryWorkload, SyntheticDataset, UpdateStream, UpdateStreamConfig,
    };
    pub use exes_embedding::{EmbeddingConfig, SkillEmbedding};
    pub use exes_expert_search::{
        ExpertRanker, GcnRanker, PersonalizedPageRank, PropagationRanker, RankedList, TfIdfRanker,
    };
    pub use exes_graph::{
        CollabGraph, CollabGraphBuilder, GraphSnapshot, GraphStore, GraphView, Neighborhood,
        PersonId, Perturbation, PerturbationSet, Query, SkillId, SkillVocab, StoreConfig,
        UpdateBatch, UpdateOp,
    };
    pub use exes_linkpred::{
        AdamicAdar, CommonNeighbors, EmbeddingLinkPredictor, Jaccard, LinkPredictor, WalkConfig,
    };
    pub use exes_server::{HttpClient, HttpResponse, ServerConfig, ServerHandle};
    pub use exes_shap::{ShapConfig, ShapValues};
    pub use exes_team::{GreedyCoverTeamFormer, MinDistanceTeamFormer, Team, TeamFormer};
}
