//! The expert-ranker interface and ranked-list utilities.

use crate::incremental::RankerBaseline;
use exes_graph::{CollabGraph, GraphView, PersonId, PerturbedGraph, Query};
use std::cell::Cell;
use std::cmp::Ordering;
use std::sync::OnceLock;
use std::thread::LocalKey;

/// The ranking order: descending score, ties broken by ascending person id.
/// A total order, since person ids are unique.
pub(crate) fn rank_order(a: &(PersonId, f64), b: &(PersonId, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Whether entry `a` orders strictly before entry `b` under [`rank_order`].
pub(crate) fn orders_before(a: (PersonId, f64), b: (PersonId, f64)) -> bool {
    rank_order(&a, &b).is_lt()
}

/// The 1-based rank of `subject` within the person-indexed `scores`: one
/// plus the people ordering before it. O(n), and exactly the position
/// [`RankedList::from_scores`] would give it.
pub(crate) fn counted_rank(scores: &[f64], subject: PersonId) -> usize {
    let key = (subject, scores[subject.index()]);
    1 + scores
        .iter()
        .enumerate()
        .filter(|&(i, &s)| orders_before((PersonId::from_index(i), s), key))
        .count()
}

/// Person-indexed scores as `(person, score)` entries.
pub(crate) fn person_scores(scores: &[f64]) -> Vec<(PersonId, f64)> {
    scores
        .iter()
        .enumerate()
        .map(|(i, &s)| (PersonId::from_index(i), s))
        .collect()
}

/// Runs `f` on this thread's scratch value in `slot`. The value is moved out
/// for the call, so a re-entrant call finds an empty one of its own instead
/// of a live borrow.
pub(crate) fn with_scratch<T: Default, R>(
    slot: &'static LocalKey<Cell<T>>,
    f: impl FnOnce(&mut T) -> R,
) -> R {
    slot.with(|cell| {
        let mut scratch = cell.take();
        let out = f(&mut scratch);
        cell.set(scratch);
        out
    })
}

/// A ranked list of people with their scores, sorted by descending score
/// (ties broken by ascending person id for determinism).
#[derive(Debug, Clone)]
pub struct RankedList {
    entries: Vec<(PersonId, f64)>,
    /// Lazily-built `(person, position)` pairs sorted by person id, so the
    /// probe hot path answers `rank_of`/`score_of` in O(log n) instead of a
    /// linear scan. Built on first lookup; cloning carries it over (it stays
    /// valid because `entries` is immutable after construction).
    index: OnceLock<Vec<(u32, u32)>>,
}

impl PartialEq for RankedList {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl RankedList {
    /// Builds a ranked list from unsorted `(person, score)` pairs.
    pub fn from_scores(mut scores: Vec<(PersonId, f64)>) -> Self {
        scores.sort_by(rank_order);
        RankedList {
            entries: scores,
            index: OnceLock::new(),
        }
    }

    /// Wraps entries already in rank order.
    pub(crate) fn from_ranked(entries: Vec<(PersonId, f64)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| rank_order(&w[0], &w[1]).is_lt()));
        RankedList {
            entries,
            index: OnceLock::new(),
        }
    }

    /// The entries in rank order.
    pub fn entries(&self) -> &[(PersonId, f64)] {
        &self.entries
    }

    /// Number of ranked people.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was ranked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The person-sorted `(person, position)` index, built on first use.
    fn index(&self) -> &[(u32, u32)] {
        self.index.get_or_init(|| {
            let mut pairs: Vec<(u32, u32)> = self
                .entries
                .iter()
                .enumerate()
                .map(|(i, &(p, _))| (p.0, i as u32))
                .collect();
            pairs.sort_unstable();
            pairs
        })
    }

    /// 0-based position of a person in the ranked order.
    fn position_of(&self, p: PersonId) -> Option<usize> {
        let index = self.index();
        index
            .binary_search_by_key(&p.0, |&(id, _)| id)
            .ok()
            .map(|i| index[i].1 as usize)
    }

    /// 1-based rank of a person (`None` if the person was not ranked).
    pub fn rank_of(&self, p: PersonId) -> Option<usize> {
        self.position_of(p).map(|i| i + 1)
    }

    /// Score of a person, if ranked.
    pub fn score_of(&self, p: PersonId) -> Option<f64> {
        self.position_of(p).map(|i| self.entries[i].1)
    }

    /// The top-`k` people.
    pub fn top_k(&self, k: usize) -> Vec<PersonId> {
        self.entries.iter().take(k).map(|&(p, _)| p).collect()
    }

    /// Whether `p` is ranked within the top-`k`.
    pub fn in_top_k(&self, p: PersonId, k: usize) -> bool {
        matches!(self.rank_of(p), Some(r) if r <= k)
    }
}

/// An expert-search system `R` to be explained.
///
/// Implementations must be *pure functions* of the graph view and the query so
/// that ExES's perturbation probes are meaningful (same input, same ranking).
pub trait ExpertRanker {
    /// Relevance score of `person` for `query` over `graph`. Higher is better.
    fn score<G: GraphView + ?Sized>(&self, graph: &G, query: &Query, person: PersonId) -> f64;

    /// Short model name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Feeds every scoring-relevant tunable parameter into `state`.
    ///
    /// Together with [`ExpertRanker::name`] this forms the ranker's identity
    /// in cache keys: ExES memoises black-box probes per model configuration,
    /// so two differently-parameterised instances of one ranker must hash
    /// differently or they would answer from each other's cache. The default
    /// feeds nothing, which is correct only for parameterless rankers;
    /// implementations with tunables must override it (write each parameter
    /// through the [`std::hash::Hasher`] methods, e.g. `f64::to_bits` for
    /// floats).
    fn hash_params(&self, state: &mut dyn std::hash::Hasher) {
        let _ = state;
    }

    /// Whether an edit to a skill outside the query can move this ranker's
    /// scores. The default, `true`, observes every edit.
    ///
    /// A ranker that reads a person's skills only through the query terms —
    /// who holds each term, and how many people do — returns `false`: for
    /// an unperturbed query, adding or removing any other skill leaves every
    /// score bitwise unchanged. The explainer then probes each perturbation
    /// set on its [`exes_graph::PerturbationSet::query_visible`] edits, so
    /// sets that differ only in unseen edits share one probe and one cache
    /// entry.
    fn observes_non_query_skills(&self) -> bool {
        true
    }

    /// Ranks every person in the graph for `query`.
    ///
    /// The default implementation scores each person independently via
    /// [`ExpertRanker::score`]; rankers whose scoring shares work across people
    /// (propagation models) should override this.
    fn rank_all<G: GraphView + ?Sized>(&self, graph: &G, query: &Query) -> RankedList {
        let scores = graph
            .people_ids()
            .map(|p| (p, self.score(graph, query, p)))
            .collect();
        RankedList::from_scores(scores)
    }

    /// 1-based rank of `person` for `query` (`R_{p_i}(q, G)` in the paper).
    ///
    /// The default sorts a whole [`ExpertRanker::rank_all`]; rankers that can
    /// score everyone cheaply override it with an O(n) count of the people
    /// ordering before `person`.
    fn rank_of<G: GraphView + ?Sized>(&self, graph: &G, query: &Query, person: PersonId) -> usize {
        self.rank_all(graph, query)
            .rank_of(person)
            .expect("person is part of the ranked graph")
    }

    /// The binary relevance status `C_{p_i}(q, G)`: is `person` in the top-`k`?
    fn is_relevant<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        query: &Query,
        person: PersonId,
        k: usize,
    ) -> bool {
        self.rank_of(graph, query, person) <= k
    }

    /// Builds the per-(snapshot, query) baseline state that lets this ranker
    /// answer perturbation probes incrementally via
    /// [`ExpertRanker::incremental_rank_of`].
    ///
    /// The default returns `None`: the ranker has no incremental path and
    /// every probe falls back to a full re-rank. Rankers that override this
    /// must guarantee that, wherever `incremental_rank_of` answers `Some`,
    /// the answer is exactly what a full [`ExpertRanker::rank_all`] over the
    /// perturbed view reports.
    fn build_baseline(&self, graph: &CollabGraph, query: &Query) -> Option<RankerBaseline> {
        let _ = (graph, query);
        None
    }

    /// 1-based rank of `person` on the perturbed `view`, computed from a
    /// memoized [`RankerBaseline`] by rescoring only the delta's affected
    /// neighbourhood instead of the whole graph.
    ///
    /// Returns `None` whenever the incremental path cannot (or should not)
    /// answer — the baseline was built for a different query, the delta's
    /// influence region covers most of the graph, or the perturbation moves
    /// state this ranker can only refresh with a full pass. Callers must
    /// treat `None` as "do the full re-rank", never as an error.
    fn incremental_rank_of(
        &self,
        baseline: &RankerBaseline,
        view: &PerturbedGraph<'_>,
        query: &Query,
        person: PersonId,
    ) -> Option<usize> {
        let _ = (baseline, view, query, person);
        None
    }

    /// The post-delta scores of everyone the perturbed `view` can move,
    /// computed from a memoized [`RankerBaseline`]: `(person, score)` in
    /// ascending person order, each person at most once. Anyone absent keeps
    /// their baseline score, so [`RankerBaseline::score_after`] and
    /// [`RankerBaseline::top_after`] read the whole post-delta ranking off
    /// this list.
    ///
    /// The default returns `None` (decline), as does any ranker for a delta
    /// it cannot rescore exactly — the same conditions under which
    /// [`ExpertRanker::incremental_rank_of`] declines. Where it answers, the
    /// patched scores must equal a full [`ExpertRanker::rank_all`] over the
    /// view bitwise.
    fn incremental_scores(
        &self,
        baseline: &RankerBaseline,
        view: &PerturbedGraph<'_>,
        query: &Query,
    ) -> Option<Vec<(PersonId, f64)>> {
        let _ = (baseline, view, query);
        None
    }
}

/// Inverse document frequency of a skill over a graph view:
/// `ln((N + 1) / (holders + 1)) + 1`, the standard smoothed form.
///
/// Holder counts are recomputed from the view so that perturbations (skill
/// additions/removals) are reflected, which is what lets skill perturbations
/// influence every ranker built on this helper.
pub(crate) fn smoothed_idf<G: GraphView + ?Sized>(graph: &G, skill: exes_graph::SkillId) -> f64 {
    let holders = graph
        .people_ids()
        .filter(|&p| graph.person_has_skill(p, skill))
        .count();
    idf_from_count(graph.num_people(), holders)
}

/// The same smoothed IDF computed from an already-known holder count, so the
/// incremental path can adjust counts by a delta and still produce bitwise
/// the value a full recount would.
pub(crate) fn idf_from_count(num_people: usize, holders: usize) -> f64 {
    let n = num_people as f64;
    ((n + 1.0) / (holders as f64 + 1.0)).ln() + 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use exes_graph::{CollabGraphBuilder, SkillId};

    struct MatchCount;

    impl ExpertRanker for MatchCount {
        fn score<G: GraphView + ?Sized>(&self, graph: &G, query: &Query, person: PersonId) -> f64 {
            graph.query_match_count(person, query) as f64
        }
        fn name(&self) -> &'static str {
            "match-count"
        }
    }

    fn toy() -> exes_graph::CollabGraph {
        let mut b = CollabGraphBuilder::new();
        b.add_person("a", ["db", "ml", "xai"]);
        b.add_person("b", ["db", "ml"]);
        b.add_person("c", ["db"]);
        b.add_person("d", ["vision"]);
        b.build()
    }

    #[test]
    fn ranked_list_orders_by_score_then_id() {
        let list = RankedList::from_scores(vec![
            (PersonId(2), 1.0),
            (PersonId(0), 3.0),
            (PersonId(1), 1.0),
            (PersonId(3), 2.0),
        ]);
        let order: Vec<u32> = list.entries().iter().map(|&(p, _)| p.0).collect();
        assert_eq!(order, vec![0, 3, 1, 2]);
        assert_eq!(list.rank_of(PersonId(0)), Some(1));
        assert_eq!(list.rank_of(PersonId(2)), Some(4));
        assert_eq!(list.rank_of(PersonId(9)), None);
        assert_eq!(list.score_of(PersonId(3)), Some(2.0));
        assert_eq!(list.top_k(2), vec![PersonId(0), PersonId(3)]);
        assert!(list.in_top_k(PersonId(3), 2));
        assert!(!list.in_top_k(PersonId(1), 2));
    }

    #[test]
    fn default_rank_all_and_rank_of_are_consistent() {
        let g = toy();
        let q = Query::parse("db ml xai", g.vocab()).unwrap();
        let ranker = MatchCount;
        let list = ranker.rank_all(&g, &q);
        assert_eq!(list.len(), 4);
        assert_eq!(ranker.rank_of(&g, &q, PersonId(0)), 1);
        assert_eq!(ranker.rank_of(&g, &q, PersonId(3)), 4);
        assert!(ranker.is_relevant(&g, &q, PersonId(1), 2));
        assert!(!ranker.is_relevant(&g, &q, PersonId(3), 2));
    }

    #[test]
    fn smoothed_idf_is_higher_for_rarer_skills() {
        let g = toy();
        let db = g.vocab().id("db").unwrap();
        let xai = g.vocab().id("xai").unwrap();
        assert!(smoothed_idf(&g, xai) > smoothed_idf(&g, db));
        // Unknown-but-valid skill id held by nobody gets the maximum idf.
        let vision = g.vocab().id("vision").unwrap();
        assert!(smoothed_idf(&g, vision) <= smoothed_idf(&g, SkillId(xai.0)) + 1.0);
    }

    #[test]
    fn empty_ranked_list() {
        let list = RankedList::from_scores(vec![]);
        assert!(list.is_empty());
        assert_eq!(list.top_k(3), Vec::<PersonId>::new());
    }
}
