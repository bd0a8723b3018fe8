//! Property-style tests over the core invariants, driven by a deterministic
//! in-repo case generator (the offline build carries no proptest):
//!
//! * perturbation overlays behave exactly like materialised graph rebuilds —
//!   across *every* `GraphView` accessor, not just the row accessors,
//! * Shapley values satisfy the efficiency axiom,
//! * neighbourhoods are monotone in the radius,
//! * rankers produce complete, consistent rankings on arbitrary graphs,
//! * beam-search counterfactuals always flip the decision they claim to flip,
//!   and do so identically with parallel and sequential probe scoring.

mod common;

use common::arbitrary_graph;
use exes::prelude::*;
use exes::shap::{exact_shapley, permutation_shapley, FnModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 24;

/// A deterministic random perturbation set valid for the given graph.
fn arbitrary_perturbations(graph: &CollabGraph, rng: &mut StdRng) -> PerturbationSet {
    let n = graph.num_people() as u32;
    let s = graph.vocab().len() as u32;
    let mut set = PerturbationSet::new();
    let count = rng.gen_range(1usize..8);
    for _ in 0..count {
        let a = PersonId(rng.gen_range(0u32..n));
        let b = PersonId(rng.gen_range(0u32..n));
        let skill = SkillId(rng.gen_range(0u32..s));
        let p = match rng.gen_range(0u32..4) {
            0 => Perturbation::AddSkill { person: a, skill },
            1 => Perturbation::RemoveSkill { person: a, skill },
            2 => Perturbation::AddEdge { a, b },
            _ => Perturbation::RemoveEdge { a, b },
        };
        set.push(p);
    }
    set
}

/// The satellite equivalence property: after applying the same
/// `PerturbationSet`, the delta-overlay `PerturbedGraph` must agree with a
/// naively rebuilt `CollabGraph` on every `GraphView` accessor.
#[test]
fn overlay_accessors_match_materialized_rebuild() {
    for case in 0..CASES {
        let (graph, query) = arbitrary_graph(case);
        let mut rng = StdRng::seed_from_u64(case ^ 0xDE1A);
        let delta = arbitrary_perturbations(&graph, &mut rng);
        let overlay = delta.apply_to_graph(&graph);
        let rebuilt = delta.materialize(&graph);

        assert_eq!(overlay.num_people(), rebuilt.num_people(), "case {case}");
        assert_eq!(overlay.num_edges(), rebuilt.num_edges(), "case {case}");
        for p in graph.people() {
            assert_eq!(
                overlay.person_skills(p),
                rebuilt.person_skills(p),
                "case {case} skills of {p}"
            );
            assert_eq!(
                overlay.neighbors(p),
                rebuilt.neighbors(p),
                "case {case} neighbors of {p}"
            );
            assert_eq!(overlay.degree(p), rebuilt.degree(p), "case {case}");
            assert_eq!(
                overlay.query_match_count(p, &query),
                rebuilt.query_match_count(p, &query),
                "case {case}"
            );
            for s in graph.vocab().ids() {
                assert_eq!(
                    overlay.person_has_skill(p, s),
                    rebuilt.person_has_skill(p, s),
                    "case {case} person_has_skill({p}, {s})"
                );
            }
            for q in graph.people() {
                assert_eq!(
                    overlay.has_edge(p, q),
                    rebuilt.has_edge(p, q),
                    "case {case} has_edge({p}, {q})"
                );
            }
        }
        // Edge iterators agree as sets (the overlay yields base order then
        // additions; the rebuild stores its own order).
        let mut overlay_edges: Vec<_> = overlay.edges().collect();
        let mut rebuilt_edges: Vec<_> = GraphView::edges(&rebuilt).collect();
        overlay_edges.sort_unstable();
        rebuilt_edges.sort_unstable();
        assert_eq!(overlay_edges, rebuilt_edges, "case {case}");
    }
}

#[test]
fn neighborhoods_grow_monotonically() {
    for case in 0..CASES {
        let (graph, _query) = arbitrary_graph(case);
        let mut rng = StdRng::seed_from_u64(case ^ 0x717);
        let center = PersonId::from_index(rng.gen_range(0..graph.num_people()));
        let radius = rng.gen_range(0usize..4);
        let small = Neighborhood::compute(&graph, center, radius);
        let large = Neighborhood::compute(&graph, center, radius + 1);
        assert!(small.contains(center));
        for &m in small.members() {
            assert!(large.contains(m), "case {case}");
        }
        // Pruned skill feature count never exceeds the whole-graph count.
        let pruned: usize = small.skills(&graph).len();
        let total: usize = graph.people().map(|p| graph.person_skills(p).len()).sum();
        assert!(pruned <= total, "case {case}");
    }
}

#[test]
fn shapley_efficiency_axiom_holds() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case ^ 0x5AFE);
        let n = rng.gen_range(2usize..7);
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let interaction: f64 = rng.gen_range(-3.0..3.0);
        let w = weights.clone();
        let model = FnModel::new(n, move |mask: &[bool]| {
            let mut acc = 0.0;
            for (i, &b) in mask.iter().enumerate() {
                if b {
                    acc += w[i];
                }
            }
            if mask[0] && mask[n - 1] {
                acc += interaction;
            }
            acc
        });
        let exact = exact_shapley(&model);
        assert!(exact.efficiency_gap() < 1e-9, "case {case}");
        let sampled = permutation_shapley(&model, 10, 7, None).values;
        assert!(sampled.efficiency_gap() < 1e-9, "case {case}");
        // Additive part: non-endpoint features get exactly their weight.
        for (i, &w) in weights.iter().enumerate().take(n.saturating_sub(1)).skip(1) {
            assert!((exact.value(i) - w).abs() < 1e-9, "case {case} feature {i}");
        }
    }
}

#[test]
fn rankers_produce_complete_consistent_rankings() {
    for case in 0..CASES {
        let (graph, query) = arbitrary_graph(case);
        type RankFn = Box<dyn Fn(&CollabGraph, &Query) -> RankedList>;
        let rankers: Vec<RankFn> = vec![
            Box::new(|g, q| TfIdfRanker::default().rank_all(g, q)),
            Box::new(|g, q| PropagationRanker::default().rank_all(g, q)),
            Box::new(|g, q| GcnRanker::default().rank_all(g, q)),
        ];
        for rank in rankers {
            let list = rank(&graph, &query);
            assert_eq!(list.len(), graph.num_people(), "case {case}");
            // Every person appears exactly once, scores are non-increasing.
            let mut seen: Vec<PersonId> = list.entries().iter().map(|&(p, _)| p).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), graph.num_people(), "case {case}");
            for pair in list.entries().windows(2) {
                assert!(pair[0].1 >= pair[1].1, "case {case}");
            }
        }
    }
}

#[test]
fn beam_search_counterfactuals_always_flip() {
    for case in 0..CASES {
        let (graph, query) = arbitrary_graph(case);
        let mut rng = StdRng::seed_from_u64(case ^ 0xF11F);
        let subject = PersonId::from_index(rng.gen_range(0..graph.num_people()));
        let ranker = PropagationRanker::default();
        let k = 2.min(graph.num_people());
        let task = ExpertRelevanceTask::new(&ranker, subject, k);
        let bags: Vec<Vec<SkillId>> = graph
            .people()
            .map(|p| graph.person_skills(p).to_vec())
            .collect();
        let embedding = SkillEmbedding::train(
            bags.iter().map(|b| b.as_slice()),
            graph.vocab().len(),
            &EmbeddingConfig {
                dim: 4,
                ..Default::default()
            },
        );
        let exes = Exes::new(
            ExesConfig::fast().with_k(k).with_num_candidates(3),
            embedding,
            CommonNeighbors,
        );
        let initially = ranker.is_relevant(&graph, &query, subject, k);
        let result = exes.counterfactual_skills(&task, &graph, &query);
        for explanation in &result.explanations {
            let (view, pq) = explanation.perturbations.apply(&graph, &query);
            assert_ne!(
                ranker.is_relevant(&view, &pq, subject, k),
                initially,
                "case {case}"
            );
            assert!(explanation.size() >= 1, "case {case}");
        }
    }
}

/// Parallel probe scoring must not change anything about a counterfactual
/// search result — explanations, ordering, or probe counts.
#[test]
fn parallel_and_sequential_counterfactuals_are_identical() {
    for case in 0..6 {
        let (graph, query) = arbitrary_graph(case);
        let subject = PersonId(0);
        let ranker = PropagationRanker::default();
        let k = 2.min(graph.num_people());
        let task = ExpertRelevanceTask::new(&ranker, subject, k);
        let bags: Vec<Vec<SkillId>> = graph
            .people()
            .map(|p| graph.person_skills(p).to_vec())
            .collect();
        let embedding = SkillEmbedding::train(
            bags.iter().map(|b| b.as_slice()),
            graph.vocab().len(),
            &EmbeddingConfig {
                dim: 4,
                ..Default::default()
            },
        );
        let run = |parallel: bool| {
            let exes = Exes::new(
                ExesConfig::fast()
                    .with_k(k)
                    .with_num_candidates(3)
                    .with_parallel_probes(parallel),
                embedding.clone(),
                CommonNeighbors,
            );
            let result = exes.counterfactual_skills(&task, &graph, &query);
            (result.accounting, result.completeness, result.explanations)
        };
        assert_eq!(run(true), run(false), "case {case}");
    }
}

/// A naive, independent interpreter for update ops: maintains plain row
/// vectors, applies each op one at a time, and rebuilds the graph from
/// scratch through the builder. The store's compacted delta path must agree
/// with this byte-for-byte.
fn naive_replay(base: &CollabGraph, batches: &[UpdateBatch]) -> CollabGraph {
    let mut names: Vec<String> = base
        .people()
        .map(|p| base.person_name(p).to_string())
        .collect();
    let mut skill_names: Vec<String> = base.vocab().iter().map(|(_, n)| n.to_string()).collect();
    let mut rows: Vec<Vec<String>> = base
        .people()
        .map(|p| {
            base.person_skills(p)
                .iter()
                .map(|&s| base.vocab().name(s).unwrap().to_string())
                .collect()
        })
        .collect();
    let mut edges: Vec<(u32, u32)> = base.edge_list().iter().map(|&(a, b)| (a.0, b.0)).collect();
    let intern = |skill_names: &mut Vec<String>, name: &str| {
        let norm = SkillVocab::normalize(name);
        if !skill_names.contains(&norm) {
            skill_names.push(norm);
        }
    };
    for batch in batches {
        for op in batch.ops() {
            match op {
                UpdateOp::AddPerson { name, skills } => {
                    names.push(name.clone());
                    let mut row = Vec::new();
                    for s in skills {
                        if s.trim().is_empty() {
                            continue;
                        }
                        intern(&mut skill_names, s);
                        let norm = SkillVocab::normalize(s);
                        if !row.contains(&norm) {
                            row.push(norm);
                        }
                    }
                    rows.push(row);
                }
                UpdateOp::AddSkill { person, skill } => {
                    intern(&mut skill_names, skill);
                    let norm = SkillVocab::normalize(skill);
                    if !rows[person.index()].contains(&norm) {
                        rows[person.index()].push(norm);
                    }
                }
                UpdateOp::RemoveSkill { person, skill } => {
                    let norm = SkillVocab::normalize(skill);
                    rows[person.index()].retain(|s| *s != norm);
                }
                UpdateOp::AddCollaboration { a, b } => {
                    edges.push((a.0.min(b.0), a.0.max(b.0)));
                }
                UpdateOp::RemoveCollaboration { a, b } => {
                    let key = (a.0.min(b.0), a.0.max(b.0));
                    edges.retain(|&e| e != key);
                }
            }
        }
    }
    // Rebuild from scratch; the vocabulary must intern in the same order.
    let mut builder = CollabGraphBuilder::new();
    for name in &skill_names {
        builder.intern_skill(name);
    }
    for (name, row) in names.iter().zip(&rows) {
        builder.add_person(name, row.iter().map(String::as_str));
    }
    for &(a, b) in &edges {
        builder.add_edge(PersonId(a), PersonId(b));
    }
    builder.build()
}

/// The tentpole store property: after a seeded random update stream, every
/// published snapshot — whether produced by the compacted delta path or by a
/// periodic full rebuild — is `to_text()`-byte-identical to an independent
/// from-scratch replay of the same ops.
#[test]
fn store_snapshots_match_from_scratch_rebuilds() {
    for case in 0..8u64 {
        let (graph, _query) = arbitrary_graph(case);
        let stream = UpdateStream::generate(&graph, &UpdateStreamConfig::churn(6, 7, case ^ 0x57));
        // Exercise both commit paths: pure deltas, and rebuild-every-2.
        for rebuild_interval in [0u64, 2] {
            let store = GraphStore::with_config(graph.clone(), StoreConfig { rebuild_interval });
            for upto in 0..stream.len() {
                store
                    .commit(&stream.batches()[upto])
                    .unwrap_or_else(|e| panic!("case {case} batch {upto} rejected: {e}"));
                let reference = naive_replay(&graph, &stream.batches()[..=upto]);
                assert_eq!(
                    store.snapshot().graph().to_text(),
                    reference.to_text(),
                    "case {case} rebuild_interval {rebuild_interval} after batch {upto}"
                );
            }
            assert_eq!(store.epoch(), stream.len() as u64);
        }
    }
}

/// Fingerprints are epoch identities: every committed batch moves the
/// fingerprint, and distinct epochs of one stream never collide.
#[test]
fn store_fingerprints_are_unique_per_epoch() {
    for case in 0..8u64 {
        let (graph, _query) = arbitrary_graph(case);
        let stream = UpdateStream::generate(&graph, &UpdateStreamConfig::churn(8, 5, case ^ 0x91));
        let store = GraphStore::new(graph);
        let mut seen = vec![store.snapshot().fingerprint()];
        for batch in stream.batches() {
            let snap = store.commit(batch).unwrap();
            assert!(
                !seen.contains(&snap.fingerprint()),
                "case {case}: fingerprint collision at epoch {}",
                snap.epoch()
            );
            seen.push(snap.fingerprint());
        }
    }
}

/// Probe-cache keys are canonical: a memoised probe is found again no matter
/// in what order the same perturbations were inserted into the set — and the
/// canonical key itself is insertion-order independent.
#[test]
fn probe_cache_keys_are_insertion_order_independent() {
    use exes::core::probe::ProbeCache;
    use exes::core::{DecisionModel, ExpertRelevanceTask};

    for case in 0..CASES {
        let (graph, query) = arbitrary_graph(case);
        let mut rng = StdRng::seed_from_u64(case ^ 0xCAC4E);
        let delta = arbitrary_perturbations(&graph, &mut rng);
        let items: Vec<Perturbation> = delta.iter().copied().collect();

        // A deterministic shuffle of the insertion order.
        let mut shuffled_items = items.clone();
        for i in (1..shuffled_items.len()).rev() {
            let j = rng.gen_range(0..=i);
            shuffled_items.swap(i, j);
        }
        let shuffled: PerturbationSet = shuffled_items.into_iter().collect();
        assert_eq!(
            delta.canonical_key(),
            shuffled.canonical_key(),
            "case {case}"
        );

        let ranker = PropagationRanker::default();
        let subject = PersonId(0);
        let task = ExpertRelevanceTask::new(&ranker, subject, 2);
        let (view, pq) = delta.apply(&graph, &query);
        let probe = task.probe(&view, &pq);

        let cache = ProbeCache::new(0);
        cache.insert(&graph, &query, &task, &delta, probe);
        assert_eq!(
            cache.lookup(&graph, &query, &task, &shuffled),
            Some(probe),
            "case {case}: shuffled insertion order must hit the same key"
        );
        assert_eq!(cache.hits(), 1, "case {case}");
        // A different model configuration (k + 1) must not see the entry.
        let deeper = ExpertRelevanceTask::new(&ranker, subject, 3);
        assert_eq!(
            cache.lookup(&graph, &query, &deeper, &delta),
            None,
            "case {case}: per-model fingerprints must isolate cache entries"
        );
    }
}

/// A deterministic mid-size collaboration network: large enough that the
/// `n / 2` localization cap doesn't swallow every singleton delta (the tiny
/// [`arbitrary_graph`] cases would make the incremental paths vacuously fall
/// back), sparse enough (a ring plus a few chords) that 1- and 2-hop balls
/// stay well under it.
fn churn_scale_graph(seed: u64) -> (CollabGraph, Query) {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x517C_C1B7) ^ 0x1C1);
    let people = rng.gen_range(28usize..40);
    let skills = 5usize;
    let mut builder = CollabGraphBuilder::new();
    let skill_names: Vec<String> = (0..skills).map(|i| format!("skill{i}")).collect();
    for name in &skill_names {
        builder.intern_skill(name);
    }
    for p in 0..people {
        let mut own: Vec<String> = skill_names
            .iter()
            .filter(|_| rng.gen_bool(0.3))
            .cloned()
            .collect();
        if own.is_empty() {
            own.push(skill_names[p % skills].clone());
        }
        builder.add_person(&format!("p{p}"), own);
    }
    for p in 0..people {
        builder.add_edge(
            PersonId::from_index(p),
            PersonId::from_index((p + 1) % people),
        );
    }
    for _ in 0..people / 3 {
        let a = PersonId::from_index(rng.gen_range(0..people));
        let b = PersonId::from_index(rng.gen_range(0..people));
        if a != b {
            builder.add_edge(a, b);
        }
    }
    let graph = builder.build();
    let qskills = vec![
        graph.vocab().id("skill0").unwrap(),
        graph.vocab().id("skill1").unwrap(),
    ];
    (graph, Query::new(qskills).unwrap())
}

/// The deterministic deltas cold probes are made of: the empty delta (the
/// reference probe), then mixed singletons — skill removals (which hit query
/// terms whenever one comes first, exercising the global-IDF fallbacks),
/// non-query skill additions (which every incremental path localizes), edge
/// removals, and long-range edge additions.
fn probe_deltas(graph: &CollabGraph, query: &Query) -> Vec<PerturbationSet> {
    let n = graph.num_people();
    let mut sets = vec![PerturbationSet::new()];
    for i in 0..12usize {
        let p = PersonId::from_index((i * 7) % n);
        let delta = match i % 4 {
            0 => graph
                .person_skills(p)
                .first()
                .map(|&skill| Perturbation::RemoveSkill { person: p, skill }),
            1 => graph
                .vocab()
                .ids()
                .find(|&s| !graph.person_has_skill(p, s) && !query.skills().contains(&s))
                .map(|skill| Perturbation::AddSkill { person: p, skill }),
            2 => graph
                .neighbors(p)
                .first()
                .map(|&q| Perturbation::RemoveEdge { a: p, b: q }),
            _ => {
                let q = PersonId::from_index((i * 7 + n / 2) % n);
                (q != p && !graph.has_edge(p, q)).then_some(Perturbation::AddEdge { a: p, b: q })
            }
        };
        if let Some(delta) = delta {
            sets.push(PerturbationSet::singleton(delta));
        }
    }
    sets
}

/// Asserts an exact ranker's incremental path byte-identical to a full
/// re-rank on every delta it accepts, returning how many probes it answered.
fn check_exact_incremental<R: ExpertRanker>(
    ranker: &R,
    graph: &CollabGraph,
    query: &Query,
    sets: &[PerturbationSet],
    subjects: &[PersonId],
    label: &str,
) -> usize {
    let baseline = ranker
        .build_baseline(graph, query)
        .expect("exact rankers are plan-capable");
    let mut answered = 0;
    for (i, set) in sets.iter().enumerate() {
        let view = set.apply_to_graph(graph);
        for &p in subjects {
            if let Some(rank) = ranker.incremental_rank_of(&baseline, &view, query, p) {
                answered += 1;
                assert_eq!(
                    rank,
                    ranker.rank_of(&view, query, p),
                    "{label}: delta {i} person {p} must rescore byte-identically"
                );
            }
        }
    }
    answered
}

/// The tentpole differential property: over seeded `UpdateStream` churn, the
/// delta-localized rescoring path of every planning ranker (TF-IDF,
/// propagation) agrees byte-identically with a full re-rank on both sides of
/// an epoch flip, and the rankers without an exact plan (personalized
/// PageRank, GCN) decline to plan at all.
#[test]
fn incremental_rescoring_matches_full_rerank_across_epochs() {
    for case in 0..6u64 {
        let (graph, query) = churn_scale_graph(case);
        let stream = UpdateStream::generate(&graph, &UpdateStreamConfig::churn(3, 5, case ^ 0x1DC));
        let store = GraphStore::new(graph.clone());
        let mut snap = store.snapshot();
        for batch in stream.batches() {
            snap = store
                .commit(batch)
                .unwrap_or_else(|e| panic!("case {case}: batch rejected: {e}"));
        }
        assert_eq!(snap.epoch(), stream.len() as u64);
        for (e, g) in [&graph, snap.graph()].into_iter().enumerate() {
            let n = g.num_people();
            let subjects = [
                PersonId::from_index(0),
                PersonId::from_index(n / 3),
                PersonId::from_index(2 * n / 3),
            ];
            let sets = probe_deltas(g, &query);
            let tfidf = check_exact_incremental(
                &TfIdfRanker::default(),
                g,
                &query,
                &sets,
                &subjects,
                &format!("case {case} epoch {e} tfidf"),
            );
            let propagation = check_exact_incremental(
                &PropagationRanker::default(),
                g,
                &query,
                &sets,
                &subjects,
                &format!("case {case} epoch {e} propagation"),
            );
            // PageRank and GCN have no exact incremental path: they must
            // decline to plan, not silently approximate.
            assert!(PersonalizedPageRank::default()
                .build_baseline(g, &query)
                .is_none());
            assert!(GcnRanker::default().build_baseline(g, &query).is_none());
            assert!(
                tfidf > 0 && propagation > 0,
                "case {case} epoch {e}: incremental paths must actually fire \
                 (tfidf {tfidf}, propagation {propagation})"
            );
        }
    }
}

/// One exact model's planned batch, cold and warm, against the unplanned
/// reference: byte-identical probes, exact accounting, shared per-context
/// plan. `bind` instantiates the model for a subject. Returns the updated
/// number of live plan contexts.
fn check_planned_batch<D: DecisionModel>(
    bind: impl Fn(PersonId) -> D,
    g: &CollabGraph,
    query: &Query,
    cache: &exes::core::probe::ProbeCache,
    contexts: usize,
    label: &str,
) -> usize {
    use exes::core::probe::ProbeBatch;

    let sets = probe_deltas(g, query);
    let task = bind(PersonId(0));
    let plain: Vec<_> = sets
        .iter()
        .map(|set| {
            let (view, perturbed) = set.apply(g, query);
            task.probe(&view, &perturbed)
        })
        .collect();
    let engine = ProbeBatch::new(&task, g, query, false, Some(cache));
    let plan = cache.plan_for(g, query, &task).expect("plan built");
    let (cold, cold_stats) = engine.score(&sets, None);
    assert_eq!(cold, plain, "{label}: planned == full");
    assert_eq!(
        cold_stats.cache_hits, 0,
        "{label}: the flip must not replay stale probes"
    );
    assert_eq!(
        cold_stats.incremental_rescores + cold_stats.full_rescores,
        sets.len(),
        "{label}: every probe is accounted exactly once"
    );
    assert!(
        cold_stats.incremental_rescores > 0,
        "{label}: the planned path must localize"
    );
    let (warm, warm_stats) = engine.score(&sets, None);
    assert_eq!(warm, plain, "{label}: warm == full");
    assert_eq!(warm_stats.probed, 0, "{label}");
    // A second subject reuses the per-context plan: the baseline is
    // subject-independent.
    let other = bind(PersonId::from_index(1));
    let shared = cache.plan_for(g, query, &other).expect("plan shared");
    assert!(
        std::sync::Arc::ptr_eq(&plan, &shared),
        "{label}: one plan per (epoch, query, model)"
    );
    assert_eq!(cache.plans_len(), contexts + 1, "{label}");
    contexts + 1
}

/// Planned probe batches are byte-identical to unplanned scoring for the
/// exact rankers and the greedy team former over TF-IDF (seeded and
/// unseeded), cold and warm through one shared `ProbeCache`, and the
/// plan/probe context keys strictly on the graph epoch: a committed update
/// batch misses into a fresh plan instead of replaying stale entries.
#[test]
fn planned_probe_batches_match_unplanned_across_an_epoch_flip() {
    use exes::core::probe::ProbeCache;

    for case in 0..4u64 {
        let (graph, query) = churn_scale_graph(case ^ 0x9A7);
        let stream = UpdateStream::generate(&graph, &UpdateStreamConfig::churn(2, 5, case ^ 0x3F));
        let store = GraphStore::new(graph.clone());
        let mut snap = store.snapshot();
        for batch in stream.batches() {
            snap = store.commit(batch).unwrap();
        }
        let cache = ProbeCache::new(0);
        let mut contexts = 0;
        let tfidf = TfIdfRanker::default();
        let propagation = PropagationRanker::default();
        let former = GreedyCoverTeamFormer::new(TfIdfRanker::default());
        for (e, g) in [&graph, snap.graph()].into_iter().enumerate() {
            contexts = check_planned_batch(
                |p| ExpertRelevanceTask::new(&tfidf, p, 5),
                g,
                &query,
                &cache,
                contexts,
                &format!("case {case} epoch {e} tfidf"),
            );
            contexts = check_planned_batch(
                |p| ExpertRelevanceTask::new(&propagation, p, 5),
                g,
                &query,
                &cache,
                contexts,
                &format!("case {case} epoch {e} propagation"),
            );
            // The greedy former over TF-IDF, unseeded (the leader after the
            // delta seeds the team) and seeded, with TF-IDF as its signal.
            for seed in [None, Some(PersonId::from_index(2))] {
                contexts = check_planned_batch(
                    |p| TeamMembershipTask::new(&former, &tfidf, p, seed),
                    g,
                    &query,
                    &cache,
                    contexts,
                    &format!("case {case} epoch {e} team seed {seed:?}"),
                );
            }
        }
    }
}
