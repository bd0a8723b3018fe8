//! Candidate-feature generation for counterfactual search
//! (`getCandidateFeatures`, line 1 of Algorithm 1): Pruning Strategies 4 and 5.

use crate::config::ExesConfig;
use crate::probe::{BatchStats, ProbeBatch};
use crate::tasks::DecisionModel;
use exes_embedding::SkillEmbedding;
use exes_graph::{
    CollabGraph, GraphView, Neighborhood, PersonId, Perturbation, PerturbationSet, Query, SkillId,
};
use exes_linkpred::LinkPredictor;
use std::fmt;

mod sealed {
    /// Seals [`super::ErasedLinkPredictor`]: its only implementation is the
    /// blanket one over [`exes_linkpred::LinkPredictor`].
    pub trait Sealed {}
    impl<L: exes_linkpred::LinkPredictor + Send + Sync> Sealed for L {}
}

/// The object-safe erasure of [`LinkPredictor`], the model `L` behind Pruning
/// Strategy 5. [`crate::Exes`] holds one behind an `Arc`, so neither the
/// explainer nor anything serving it carries a link-predictor type
/// parameter. Sealed and blanket-implemented for every thread-safe
/// [`LinkPredictor`].
pub trait ErasedLinkPredictor: sealed::Sealed + Send + Sync {
    /// [`LinkPredictor::top_candidates`] on the base graph.
    fn top_candidates(
        &self,
        graph: &CollabGraph,
        center: PersonId,
        candidates: &[PersonId],
        t: usize,
    ) -> Vec<(PersonId, f64)>;

    /// [`LinkPredictor::name`].
    fn name(&self) -> &'static str;
}

impl<L: LinkPredictor + Send + Sync> ErasedLinkPredictor for L {
    fn top_candidates(
        &self,
        graph: &CollabGraph,
        center: PersonId,
        candidates: &[PersonId],
        t: usize,
    ) -> Vec<(PersonId, f64)> {
        LinkPredictor::top_candidates(self, graph, center, candidates, t)
    }

    fn name(&self) -> &'static str {
        LinkPredictor::name(self)
    }
}

impl fmt::Debug for dyn ErasedLinkPredictor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Skill-removal candidates for a currently selected subject (Section 3.3.1):
/// for every person in the subject's radius-`d` neighbourhood, the up-to-`t` of
/// their skills most similar to the query according to the embedding `W`.
pub fn skill_removal_candidates(
    graph: &CollabGraph,
    query: &Query,
    subject: PersonId,
    embedding: &SkillEmbedding,
    cfg: &ExesConfig,
) -> Vec<Perturbation> {
    let neighborhood = Neighborhood::compute(graph, subject, cfg.skill_radius);
    let mut candidates = Vec::new();
    for &person in neighborhood.members() {
        let mut scored: Vec<(SkillId, f64)> = graph
            .person_skills(person)
            .iter()
            .map(|&s| (s, embedding.similarity_to_set(s, query.skills())))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (skill, _) in scored.into_iter().take(cfg.num_candidates) {
            candidates.push(Perturbation::RemoveSkill { person, skill });
        }
    }
    candidates
}

/// Skill-addition candidates for a currently unselected subject: the `t` skills
/// most similar to the query (Pruning Strategy 4), each offered to the subject
/// and to every neighbour within radius `d` that does not already hold it.
pub fn skill_addition_candidates(
    graph: &CollabGraph,
    query: &Query,
    subject: PersonId,
    embedding: &SkillEmbedding,
    cfg: &ExesConfig,
) -> Vec<Perturbation> {
    let neighborhood = Neighborhood::compute(graph, subject, cfg.skill_radius);
    let similar = candidate_skills_for_addition(query, embedding, cfg.num_candidates);
    let mut candidates = Vec::new();
    for &person in neighborhood.members() {
        for &skill in &similar {
            if !graph.person_has_skill(person, skill) {
                candidates.push(Perturbation::AddSkill { person, skill });
            }
        }
    }
    candidates
}

/// The `t` skills most similar to the query (query keywords themselves first:
/// giving someone the exact requested skill is always the most direct edit).
pub fn candidate_skills_for_addition(
    query: &Query,
    embedding: &SkillEmbedding,
    t: usize,
) -> Vec<SkillId> {
    let mut skills: Vec<SkillId> = query.skills().to_vec();
    for (s, _) in embedding.most_similar(query.skills(), t, query.skills()) {
        if skills.len() >= t.max(query.len()) {
            break;
        }
        skills.push(s);
    }
    skills.truncate(t.max(query.len()));
    skills
}

/// Query-augmentation candidates (Section 3.3.2). Keywords are only *added*
/// (expert-search queries are short, removal is rarely meaningful):
///
/// * for a selected subject (goal: evict them), keywords similar to the query
///   but foreign to the subject's skill set;
/// * for an unselected subject (goal: include them), keywords similar to the
///   subject's skills and the query.
pub fn query_augmentation_candidates(
    graph: &CollabGraph,
    query: &Query,
    subject: PersonId,
    currently_selected: bool,
    embedding: &SkillEmbedding,
    cfg: &ExesConfig,
) -> Vec<Perturbation> {
    let subject_skills = graph.person_skills(subject);
    let mut exclude: Vec<SkillId> = query.skills().to_vec();
    let reference: Vec<SkillId> = if currently_selected {
        // Similar to the query but *not* held by the subject.
        exclude.extend(subject_skills.iter().copied());
        query.skills().to_vec()
    } else {
        // Similar to both the subject's profile and the query.
        subject_skills
            .iter()
            .copied()
            .chain(query.skills().iter().copied())
            .collect()
    };
    embedding
        .most_similar(&reference, cfg.num_candidates, &exclude)
        .into_iter()
        .map(|(skill, _)| Perturbation::AddQueryTerm { skill })
        .collect()
}

/// Link-removal candidates (Section 3.3.3): the `t` edges inside the subject's
/// radius-`d` neighbourhood whose individual removal worsens the subject's rank
/// signal the most (each candidate edge is probed once, through the request's
/// probe session `engine`).
///
/// `max_probes` caps the black-box probes candidate scoring may issue (cache
/// hits stay free); when the cap stops the scoring early only the affordable
/// prefix of edges competes for the `t` slots, and the `bool` in the return
/// reports that truncation so the caller can mark the final result
/// [`Completeness::Budgeted`](crate::probe::Completeness). `None` is
/// unbounded.
///
/// Returns the candidate perturbations, the scoring batch's probe accounting
/// (`probed` is the number of probes that actually reached the black box),
/// and whether the probe cap truncated the scoring.
pub fn link_removal_candidates<D: DecisionModel + ?Sized>(
    engine: &ProbeBatch<'_, D>,
    cfg: &ExesConfig,
    max_probes: Option<usize>,
) -> (Vec<Perturbation>, BatchStats, bool) {
    let graph = engine.graph();
    let neighborhood = Neighborhood::compute(graph, engine.task().subject(), cfg.collab_radius);
    let edges = neighborhood.edges_within(graph);
    let perturbations: Vec<Perturbation> = edges
        .into_iter()
        .map(|(a, b)| Perturbation::RemoveEdge { a, b })
        .collect();
    let sets: Vec<PerturbationSet> = perturbations
        .iter()
        .map(|&p| PerturbationSet::singleton(p))
        .collect();
    let (probes, stats) = engine.score(&sets, max_probes);
    let truncated = probes.len() < sets.len();
    let mut scored: Vec<(Perturbation, f64)> = perturbations
        .into_iter()
        .zip(probes.into_iter().map(|p| p.signal))
        .collect();
    // Higher signal = worse rank = more damaging removal; keep the t most damaging.
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
    scored.truncate(cfg.num_candidates);
    (
        scored.into_iter().map(|(p, _)| p).collect(),
        stats,
        truncated,
    )
}

/// Link-addition candidates (Pruning Strategy 5): people within an extended
/// neighbourhood of the subject who are not yet collaborators, ranked by the
/// link-prediction model `L`; the top `t` become `AddEdge(subject, ·)`
/// candidates.
pub fn link_addition_candidates(
    graph: &CollabGraph,
    subject: PersonId,
    link_predictor: &dyn ErasedLinkPredictor,
    cfg: &ExesConfig,
) -> Vec<Perturbation> {
    // Use a radius one larger than the skill radius so that "friends of friends"
    // are reachable even with the paper's default d = 1.
    let radius = cfg.skill_radius + 1;
    let neighborhood = Neighborhood::compute(graph, subject, radius);
    let mut pool: Vec<PersonId> = neighborhood
        .members()
        .iter()
        .copied()
        .filter(|&p| p != subject && !graph.has_edge(subject, p))
        .collect();
    // Sparse neighbourhoods (isolated people) fall back to the whole graph.
    if pool.len() < cfg.num_candidates {
        pool = graph
            .people()
            .filter(|&p| p != subject && !graph.has_edge(subject, p))
            .collect();
    }
    link_predictor
        .top_candidates(graph, subject, &pool, cfg.num_candidates)
        .into_iter()
        .map(|(other, _)| Perturbation::AddEdge {
            a: subject,
            b: other,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::ExpertRelevanceTask;
    use exes_datasets::{DatasetConfig, SyntheticDataset};
    use exes_embedding::EmbeddingConfig;
    use exes_expert_search::PropagationRanker;
    use exes_linkpred::CommonNeighbors;

    struct Fixture {
        ds: SyntheticDataset,
        embedding: SkillEmbedding,
    }

    fn fixture() -> Fixture {
        let ds = SyntheticDataset::generate(&DatasetConfig::tiny("cand", 21));
        let embedding = SkillEmbedding::train(
            ds.corpus.token_bags(),
            ds.graph.vocab().len(),
            &EmbeddingConfig {
                dim: 16,
                ..Default::default()
            },
        );
        Fixture { ds, embedding }
    }

    fn any_query(ds: &SyntheticDataset) -> Query {
        let skills: Vec<SkillId> = ds
            .graph
            .person_skills(PersonId(3))
            .iter()
            .copied()
            .take(3)
            .collect();
        Query::new(skills).unwrap()
    }

    fn cfg() -> ExesConfig {
        ExesConfig::fast().with_num_candidates(4)
    }

    #[test]
    fn removal_candidates_stay_in_the_neighborhood_and_exist() {
        let f = fixture();
        let q = any_query(&f.ds);
        let subject = PersonId(3);
        let cands = skill_removal_candidates(&f.ds.graph, &q, subject, &f.embedding, &cfg());
        assert!(!cands.is_empty());
        let neighborhood = Neighborhood::compute(&f.ds.graph, subject, cfg().skill_radius);
        for c in &cands {
            match *c {
                Perturbation::RemoveSkill { person, skill } => {
                    assert!(neighborhood.contains(person));
                    assert!(f.ds.graph.person_has_skill(person, skill));
                }
                _ => panic!("unexpected candidate {c:?}"),
            }
        }
    }

    #[test]
    fn addition_candidates_only_propose_missing_skills() {
        let f = fixture();
        let q = any_query(&f.ds);
        let subject = PersonId(10);
        let cands = skill_addition_candidates(&f.ds.graph, &q, subject, &f.embedding, &cfg());
        for c in &cands {
            match *c {
                Perturbation::AddSkill { person, skill } => {
                    assert!(!f.ds.graph.person_has_skill(person, skill));
                }
                _ => panic!("unexpected candidate {c:?}"),
            }
        }
        // The exact query skills are always among the proposals for the subject
        // (unless they already hold them all).
        let holds_all = q
            .skills()
            .iter()
            .all(|&s| f.ds.graph.person_has_skill(subject, s));
        if !holds_all {
            assert!(cands.iter().any(|c| matches!(
                c,
                Perturbation::AddSkill { person, skill }
                    if *person == subject && q.contains(*skill)
            )));
        }
    }

    #[test]
    fn query_augmentation_excludes_existing_keywords() {
        let f = fixture();
        let q = any_query(&f.ds);
        for selected in [true, false] {
            let cands = query_augmentation_candidates(
                &f.ds.graph,
                &q,
                PersonId(5),
                selected,
                &f.embedding,
                &cfg(),
            );
            for c in &cands {
                match *c {
                    Perturbation::AddQueryTerm { skill } => assert!(!q.contains(skill)),
                    _ => panic!("unexpected candidate {c:?}"),
                }
            }
        }
    }

    #[test]
    fn eviction_augmentation_avoids_subject_skills() {
        let f = fixture();
        let q = any_query(&f.ds);
        let subject = PersonId(3);
        let cands =
            query_augmentation_candidates(&f.ds.graph, &q, subject, true, &f.embedding, &cfg());
        for c in &cands {
            if let Perturbation::AddQueryTerm { skill } = *c {
                assert!(!f.ds.graph.person_has_skill(subject, skill));
            }
        }
    }

    #[test]
    fn link_removal_candidates_are_real_local_edges() {
        let f = fixture();
        let q = any_query(&f.ds);
        let ranker = PropagationRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(3), 5);
        let engine = ProbeBatch::new(&task, &f.ds.graph, &q, false, None);
        let (cands, stats, truncated) = link_removal_candidates(&engine, &cfg(), None);
        assert!(!truncated);
        assert!(stats.probed >= cands.len());
        assert_eq!(stats.cache_hits, 0);
        assert!(cands.len() <= cfg().num_candidates);
        let neighborhood = Neighborhood::compute(&f.ds.graph, PersonId(3), cfg().collab_radius);
        for c in &cands {
            match *c {
                Perturbation::RemoveEdge { a, b } => {
                    assert!(f.ds.graph.has_edge(a, b));
                    assert!(neighborhood.contains(a) && neighborhood.contains(b));
                }
                _ => panic!("unexpected candidate {c:?}"),
            }
        }
    }

    #[test]
    fn link_removal_scoring_respects_a_probe_cap() {
        let f = fixture();
        let q = any_query(&f.ds);
        let ranker = PropagationRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(3), 5);
        let engine = ProbeBatch::new(&task, &f.ds.graph, &q, false, None);
        let (unbounded, full_stats, _) = link_removal_candidates(&engine, &cfg(), None);
        assert!(
            full_stats.probed > 2,
            "fixture must have enough local edges"
        );
        let cap = 2;
        let (capped, stats, truncated) = link_removal_candidates(&engine, &cfg(), Some(cap));
        assert!(truncated, "a {cap}-probe cap must truncate the scoring");
        assert!(stats.probed <= cap);
        assert!(capped.len() <= unbounded.len());
        // A cap covering the full scoring changes nothing.
        let (all, all_stats, all_truncated) =
            link_removal_candidates(&engine, &cfg(), Some(full_stats.probed));
        assert!(!all_truncated);
        assert_eq!(all, unbounded);
        assert_eq!(all_stats.probed, full_stats.probed);
    }

    #[test]
    fn link_addition_candidates_are_new_edges_from_the_subject() {
        let f = fixture();
        let subject = PersonId(7);
        let cands = link_addition_candidates(&f.ds.graph, subject, &CommonNeighbors, &cfg());
        assert!(!cands.is_empty());
        assert!(cands.len() <= cfg().num_candidates);
        for c in &cands {
            match *c {
                Perturbation::AddEdge { a, b } => {
                    assert_eq!(a, subject);
                    assert!(!f.ds.graph.has_edge(a, b));
                    assert_ne!(a, b);
                }
                _ => panic!("unexpected candidate {c:?}"),
            }
        }
    }

    #[test]
    fn candidate_skills_include_query_terms_first() {
        let f = fixture();
        let q = any_query(&f.ds);
        let skills = candidate_skills_for_addition(&q, &f.embedding, 6);
        assert!(q.skills().iter().all(|s| skills.contains(s)));
        assert!(skills.len() <= 6.max(q.len()));
    }
}
