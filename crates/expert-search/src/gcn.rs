//! A deterministic two-layer graph-convolutional expert ranker.
//!
//! The paper's evaluation explains "an expert search model that uses Graph
//! Convolutional Neural Networks and combines ideas from several
//! state-of-the-art solutions". Training a GCN is out of scope here (no GPU, no
//! labels); what ExES needs is a *black box with the same signal structure*:
//! symmetric-normalised message passing over `Â = D^{-1/2}(A + I)D^{-1/2}` applied
//! to query-dependent node features, followed by a learned-looking readout. We
//! therefore build the standard GCN forward pass with weights drawn once from a
//! seeded RNG (made non-negative so the readout is monotone in the relevance
//! features, as a trained ranker's would be).

use crate::ranker::{counted_rank, person_scores, smoothed_idf, with_scratch, ExpertRanker};
use crate::RankedList;
use exes_graph::{GraphView, PersonId, Query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;

const INPUT_DIM: usize = 4;

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::new(Scratch::default());
}

/// The forward pass's reusable row-major buffers, sized on use.
#[derive(Default)]
struct Scratch {
    /// `d_p + 1` per person.
    degrees: Vec<f64>,
    /// Node features, `INPUT_DIM` per person.
    x: Vec<f64>,
    /// Layer-1 aggregation and activation, then layer-2 aggregation.
    agg1: Vec<f64>,
    h1: Vec<f64>,
    agg2: Vec<f64>,
    /// One score per person.
    scores: Vec<f64>,
}

/// "Pre-trained" two-layer GCN expert ranker with seeded deterministic weights.
#[derive(Debug, Clone)]
pub struct GcnRanker {
    hidden_dim: usize,
    /// `INPUT_DIM × hidden` weight matrix of the first graph convolution.
    w1: Vec<f64>,
    /// `hidden × 1` readout weights of the second graph convolution.
    w2: Vec<f64>,
}

impl Default for GcnRanker {
    fn default() -> Self {
        GcnRanker::with_seed(0x6C1)
    }
}

impl GcnRanker {
    /// Builds the ranker with weights derived deterministically from `seed`.
    pub fn with_seed(seed: u64) -> Self {
        Self::new(8, seed)
    }

    /// Builds the ranker with an explicit hidden width.
    pub fn new(hidden_dim: usize, seed: u64) -> Self {
        assert!(hidden_dim > 0, "hidden dimension must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        // Non-negative Glorot-ish initialisation: |U(-a, a)| with a = sqrt(6 / (fan_in + fan_out)).
        let a1 = (6.0 / (INPUT_DIM + hidden_dim) as f64).sqrt();
        let w1 = (0..INPUT_DIM * hidden_dim)
            .map(|_| rng.gen_range(-a1..a1).abs())
            .collect();
        let a2 = (6.0 / (hidden_dim + 1) as f64).sqrt();
        let w2 = (0..hidden_dim)
            .map(|_| rng.gen_range(-a2..a2).abs())
            .collect();
        GcnRanker { hidden_dim, w1, w2 }
    }

    /// Query-dependent node features, one row-major `INPUT_DIM` row per
    /// person: `[idf-weighted match, match fraction, log-degree, bias]`.
    fn features_into<G: GraphView + ?Sized>(&self, graph: &G, query: &Query, x: &mut Vec<f64>) {
        let idfs: Vec<(exes_graph::SkillId, f64)> = query
            .skills()
            .iter()
            .map(|&s| (s, smoothed_idf(graph, s)))
            .collect();
        let idf_total: f64 = idfs.iter().map(|&(_, v)| v).sum::<f64>().max(1e-9);
        let qlen = query.len().max(1) as f64;
        x.clear();
        for p in graph.people_ids() {
            let mut matched = 0usize;
            let idf_match: f64 = idfs
                .iter()
                .filter(|&&(s, _)| graph.person_has_skill(p, s))
                .inspect(|_| matched += 1)
                .map(|&(_, v)| v)
                .sum();
            x.extend([
                idf_match / idf_total,
                matched as f64 / qlen,
                (1.0 + graph.degree(p) as f64).ln() / 8.0,
                1.0,
            ]);
        }
    }

    /// The full forward pass over `s`'s row-major buffers, leaving one score
    /// per person in `s.scores`.
    fn forward_into<G: GraphView + ?Sized>(&self, graph: &G, query: &Query, s: &mut Scratch) {
        let hidden = self.hidden_dim;
        s.degrees.clear();
        s.degrees.extend(
            graph
                .people_ids()
                .map(|p| (graph.neighbors(p).len() + 1) as f64),
        );
        self.features_into(graph, query, &mut s.x);
        // Layer 1: propagate, then linear + ReLU.
        propagate(graph, &s.degrees, &s.x, INPUT_DIM, &mut s.agg1);
        s.h1.clear();
        for row in s.agg1.chunks_exact(INPUT_DIM) {
            s.h1.extend((0..hidden).map(|h| {
                let mut v = 0.0;
                for (i, &xi) in row.iter().enumerate() {
                    v += xi * self.w1[i * hidden + h];
                }
                v.max(0.0)
            }));
        }
        // Layer 2: propagate, then linear readout.
        propagate(graph, &s.degrees, &s.h1, hidden, &mut s.agg2);
        s.scores.clear();
        s.scores.extend(
            s.agg2
                .chunks_exact(hidden)
                .map(|row| row.iter().zip(&self.w2).map(|(a, w)| a * w).sum::<f64>()),
        );
    }

    /// Full forward pass, returning one score per person.
    pub fn forward<G: GraphView + ?Sized>(&self, graph: &G, query: &Query) -> Vec<f64> {
        with_scratch(&SCRATCH, |s| {
            self.forward_into(graph, query, s);
            s.scores.clone()
        })
    }
}

/// One symmetric-normalised propagation step with self-loops over row-major
/// `dim`-wide rows: `out_p = Σ_{n ∈ N(p) ∪ {p}} in_n / sqrt((d_p+1)(d_n+1))`,
/// where `degrees` holds each `d + 1`.
fn propagate<G: GraphView + ?Sized>(
    graph: &G,
    degrees: &[f64],
    input: &[f64],
    dim: usize,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.resize(input.len(), 0.0);
    for p in graph.people_ids() {
        let dp = degrees[p.index()];
        let row = &mut out[p.index() * dim..][..dim];
        // Self-loop.
        for (o, &v) in row.iter_mut().zip(&input[p.index() * dim..][..dim]) {
            *o += v / dp;
        }
        for &n in graph.neighbors(p) {
            let norm = (dp * degrees[n.index()]).sqrt();
            for (o, &v) in row.iter_mut().zip(&input[n.index() * dim..][..dim]) {
                *o += v / norm;
            }
        }
    }
}

impl ExpertRanker for GcnRanker {
    fn score<G: GraphView + ?Sized>(&self, graph: &G, query: &Query, person: PersonId) -> f64 {
        with_scratch(&SCRATCH, |s| {
            self.forward_into(graph, query, s);
            s.scores[person.index()]
        })
    }

    fn name(&self) -> &'static str {
        "gcn"
    }

    fn hash_params(&self, state: &mut dyn std::hash::Hasher) {
        state.write_usize(self.hidden_dim);
        for w in self.w1.iter().chain(&self.w2) {
            state.write_u64(w.to_bits());
        }
    }

    /// Skills reach the forward pass only through `features_into`: query
    /// term membership and the query terms' IDFs.
    fn observes_non_query_skills(&self) -> bool {
        false
    }

    fn rank_all<G: GraphView + ?Sized>(&self, graph: &G, query: &Query) -> RankedList {
        with_scratch(&SCRATCH, |s| {
            self.forward_into(graph, query, s);
            RankedList::from_scores(person_scores(&s.scores))
        })
    }

    fn rank_of<G: GraphView + ?Sized>(&self, graph: &G, query: &Query, person: PersonId) -> usize {
        with_scratch(&SCRATCH, |s| {
            self.forward_into(graph, query, s);
            counted_rank(&s.scores, person)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exes_datasets::{DatasetConfig, QueryWorkload, SyntheticDataset};
    use exes_graph::{CollabGraph, CollabGraphBuilder, Perturbation, PerturbationSet};

    fn toy() -> CollabGraph {
        let mut b = CollabGraphBuilder::new();
        let expert = b.add_person("expert", ["ml", "graph"]);
        let friend = b.add_person("friend", ["db"]);
        let _stranger = b.add_person("stranger", ["db"]);
        b.add_edge(expert, friend);
        b.build()
    }

    #[test]
    fn construction_is_deterministic() {
        let a = GcnRanker::with_seed(42);
        let b = GcnRanker::with_seed(42);
        assert_eq!(a.w1, b.w1);
        assert_eq!(a.w2, b.w2);
        let c = GcnRanker::with_seed(43);
        assert_ne!(a.w1, c.w1);
    }

    #[test]
    fn expert_outranks_friend_outranks_stranger() {
        let g = toy();
        let q = Query::parse("ml graph", g.vocab()).unwrap();
        let r = GcnRanker::default();
        let list = r.rank_all(&g, &q);
        assert_eq!(list.rank_of(PersonId(0)), Some(1));
        assert!(list.rank_of(PersonId(1)) < list.rank_of(PersonId(2)));
    }

    #[test]
    fn removing_a_query_skill_lowers_the_experts_score() {
        let g = toy();
        let q = Query::parse("ml graph", g.vocab()).unwrap();
        let r = GcnRanker::default();
        let before = r.score(&g, &q, PersonId(0));
        let ml = g.vocab().id("ml").unwrap();
        let delta = PerturbationSet::singleton(Perturbation::RemoveSkill {
            person: PersonId(0),
            skill: ml,
        });
        let view = delta.apply_to_graph(&g);
        let after = r.score(&view, &q, PersonId(0));
        assert!(after < before);
    }

    #[test]
    fn scores_match_rank_all_entries() {
        let g = toy();
        let q = Query::parse("ml", g.vocab()).unwrap();
        let r = GcnRanker::default();
        let list = r.rank_all(&g, &q);
        for &(p, s) in list.entries() {
            assert!((s - r.score(&g, &q, p)).abs() < 1e-12);
        }
    }

    #[test]
    fn top_ranked_people_hold_query_skills_on_synthetic_data() {
        let ds = SyntheticDataset::generate(&DatasetConfig::tiny("gcn", 5));
        let workload = QueryWorkload::answerable(&ds.graph, 1, 2, 3, 3, 17);
        let q = &workload.queries()[0];
        let r = GcnRanker::default();
        let top = r.rank_all(&ds.graph, q).top_k(5);
        // At least one of the top-5 holds at least one query skill directly.
        let holds = top
            .iter()
            .any(|&p| q.skills().iter().any(|&s| ds.graph.person_has_skill(p, s)));
        assert!(holds, "none of the top-5 holds any query skill");
    }

    #[test]
    fn empty_graph_forward_is_empty() {
        let g = CollabGraphBuilder::new().build();
        let mut vb = CollabGraphBuilder::new();
        vb.add_person("x", ["ml"]);
        let vocab_graph = vb.build();
        let q = Query::parse("ml", vocab_graph.vocab()).unwrap();
        assert!(GcnRanker::default().forward(&g, &q).is_empty());
    }

    #[test]
    #[should_panic(expected = "hidden dimension")]
    fn zero_hidden_dim_is_rejected() {
        let _ = GcnRanker::new(0, 1);
    }
}
