//! Shared state for delta-localized (incremental) probe scoring.
//!
//! A [`RankerBaseline`] captures everything a ranker needs to rescore a
//! perturbed overlay without walking the whole graph again: the full ranking
//! of the unperturbed snapshot, the person-indexed score vector behind it,
//! and per-ranker working state (TF-IDF document statistics, propagation base
//! relevances and two-hop rows). Each ranker's
//! [`crate::ExpertRanker::incremental_rank_of`] then rescores only the
//! delta's affected neighbourhood and derives the subject's new rank by
//! *counting corrections* against the baseline order — O(affected + log n)
//! instead of O(n log n). A ranker that can also hand out that rescored list
//! ([`crate::ExpertRanker::incremental_scores`]) lets callers read any
//! post-delta score or the new leader off the baseline
//! ([`RankerBaseline::score_after`], [`RankerBaseline::top_after`]) — which
//! is how a greedy team former answers membership probes without ranking.

use crate::ranker::{idf_from_count, orders_before, rank_order};
use crate::RankedList;
use exes_graph::{CollabGraph, GraphView, PersonId, PerturbedGraph, Query, SkillId};

/// Memoized per-(snapshot, query) state enabling incremental probe scoring.
///
/// Built once per (graph fingerprint, query, ranker configuration) by
/// [`crate::ExpertRanker::build_baseline`]; opaque outside this crate. The
/// baseline is immutable and shareable across threads — parallel probe
/// batches read it concurrently.
#[derive(Debug, Clone)]
pub struct RankerBaseline {
    /// The query the baseline was built for; probes against any other query
    /// must fall back to a full re-rank.
    pub(crate) query: Vec<SkillId>,
    /// The full unperturbed ranking.
    pub(crate) ranked: RankedList,
    /// Person-indexed scores, bitwise identical to the entries of `ranked`.
    pub(crate) scores: Vec<f64>,
    /// Ranker-specific working state.
    pub(crate) kind: BaselineKind,
}

impl RankerBaseline {
    /// The full ranking of the unperturbed snapshot.
    pub fn ranked(&self) -> &RankedList {
        &self.ranked
    }

    /// The query this baseline was built for.
    pub fn query(&self) -> &[SkillId] {
        &self.query
    }
}

/// Per-ranker working state carried by a [`RankerBaseline`].
#[derive(Debug, Clone)]
pub(crate) enum BaselineKind {
    /// TF-IDF: per-term document statistics.
    TfIdf(TermStats),
    /// Expertise propagation: term statistics, the person-indexed base
    /// (0-hop) relevance the neighbourhood averages draw from, every
    /// person's one-hop part and strict two-hop set, and a bound on base
    /// relevance.
    Propagation {
        /// Per-term document statistics.
        terms: TermStats,
        /// Person-indexed base relevance scores.
        base: Vec<f64>,
        /// Person-indexed `base(p) + α·mean over N(p) of base`: bitwise the
        /// left operand of the kernel's final sum.
        one_hop: Vec<f64>,
        /// At least every entry of `base`.
        max_base: f64,
        /// Strict two-hop rows of the snapshot.
        two_hop: TwoHopRows,
    },
}

/// Per-query-term document statistics over the unperturbed snapshot.
#[derive(Debug, Clone)]
pub(crate) struct TermStats {
    /// Smoothed IDF of each query term, in query order.
    pub(crate) idfs: Vec<f64>,
    /// Holder count of each query term.
    pub(crate) counts: Vec<usize>,
    /// Sorted holder lists of each query term.
    pub(crate) holders: Vec<Vec<PersonId>>,
}

impl TermStats {
    /// Collects holder lists, counts and IDFs for every query term.
    pub(crate) fn collect(graph: &CollabGraph, query: &Query) -> TermStats {
        let n = graph.num_people();
        let mut idfs = Vec::with_capacity(query.skills().len());
        let mut counts = Vec::with_capacity(query.skills().len());
        let mut holders = Vec::with_capacity(query.skills().len());
        for &s in query.skills() {
            let hs: Vec<PersonId> = graph
                .people()
                .filter(|&p| graph.person_has_skill(p, s))
                .collect();
            idfs.push(idf_from_count(n, hs.len()));
            counts.push(hs.len());
            holders.push(hs);
        }
        TermStats {
            idfs,
            counts,
            holders,
        }
    }
}

/// Every person's strict two-hop set — the people two hops away who are
/// neither the person nor a collaborator — as one CSR index with each row in
/// ascending id order.
#[derive(Debug, Clone)]
pub(crate) struct TwoHopRows {
    /// Row `p` spans `ids[offsets[p]..offsets[p + 1]]`.
    offsets: Vec<u32>,
    ids: Vec<PersonId>,
}

impl TwoHopRows {
    /// An index with no rows yet; append them in person order with
    /// [`TwoHopRows::push_row`].
    pub(crate) fn new() -> Self {
        TwoHopRows {
            offsets: vec![0],
            ids: Vec::new(),
        }
    }

    /// Appends the next person's row.
    pub(crate) fn push_row(&mut self, row: &[PersonId]) {
        self.ids.extend_from_slice(row);
        let end = u32::try_from(self.ids.len()).expect("two-hop index exceeds u32::MAX ids");
        self.offsets.push(end);
    }

    /// The strict two-hop set of `p`, ascending.
    pub(crate) fn row(&self, p: PersonId) -> &[PersonId] {
        let i = p.index();
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Writes the per-term holder counts and IDFs after the view's skill delta
/// into `counts` and `idfs`. The IDFs are bitwise what a full recount over
/// the view would produce: terms whose holder count did not move keep the
/// stored value untouched.
pub(crate) fn shifted_idfs(
    query: &[SkillId],
    stats: &TermStats,
    view: &PerturbedGraph<'_>,
    counts: &mut Vec<usize>,
    idfs: &mut Vec<f64>,
) {
    counts.clear();
    counts.extend_from_slice(&stats.counts);
    for (_, s) in view.skill_additions() {
        if let Some(i) = query.iter().position(|&t| t == s) {
            counts[i] += 1;
        }
    }
    for (_, s) in view.skill_removals() {
        if let Some(i) = query.iter().position(|&t| t == s) {
            counts[i] -= 1;
        }
    }
    idfs.clear();
    idfs.extend_from_slice(&stats.idfs);
    for (i, (&new_count, &old_count)) in counts.iter().zip(&stats.counts).enumerate() {
        if new_count != old_count {
            idfs[i] = idf_from_count(view.num_people(), new_count);
        }
    }
}

/// How a skill delta moves the per-term statistics: the adjusted IDF vector
/// plus everyone whose score can change through it.
pub(crate) struct SkillDeltaEffect {
    /// Adjusted per-term IDFs, as [`shifted_idfs`] computes them.
    pub(crate) idfs: Vec<f64>,
    /// Sorted, deduped union of the skill-delta people and the base holders
    /// of every term whose IDF moved.
    pub(crate) affected: Vec<PersonId>,
}

/// Folds the view's skill delta into `stats`.
pub(crate) fn skill_delta_effect(
    query: &[SkillId],
    stats: &TermStats,
    view: &PerturbedGraph<'_>,
) -> SkillDeltaEffect {
    let mut counts = Vec::new();
    let mut idfs = Vec::new();
    shifted_idfs(query, stats, view, &mut counts, &mut idfs);
    let mut affected: Vec<PersonId> = view
        .skill_additions()
        .chain(view.skill_removals())
        .map(|(p, _)| p)
        .collect();
    for (i, (&new_count, &old_count)) in counts.iter().zip(&stats.counts).enumerate() {
        if new_count != old_count {
            affected.extend_from_slice(&stats.holders[i]);
        }
    }
    affected.sort_unstable();
    affected.dedup();
    SkillDeltaEffect { idfs, affected }
}

/// The subject's 1-based rank after the delta, derived by correcting a count
/// against the baseline order.
///
/// `changed` holds the post-delta scores of every person the delta affected
/// (it may or may not include the subject; anyone absent keeps their baseline
/// score). The result is *exactly* what a full re-sort of the new score
/// vector would report.
pub(crate) fn corrected_rank(
    baseline: &RankerBaseline,
    subject: PersonId,
    changed: &[(PersonId, f64)],
) -> usize {
    let new_subject_score = changed
        .iter()
        .find(|&&(p, _)| p == subject)
        .map(|&(_, s)| s)
        .unwrap_or_else(|| baseline.scores[subject.index()]);
    let key = (subject, new_subject_score);
    rank_from_sides(
        baseline,
        key,
        changed
            .iter()
            .filter(|&&(p, _)| p != subject)
            .map(|&(p, s)| (p, orders_before((p, s), key))),
    )
}

/// The 1-based rank of the subject's post-delta entry `key`, given for every
/// other person the delta affected whether their post-delta entry orders
/// before `key` (anyone absent keeps their baseline score).
///
/// The new rank is `1 +` the number of people ordering before `key`; that
/// count starts from a binary search over the baseline order and is patched
/// per affected person, so only their side of `key` is needed, never their
/// score.
pub(crate) fn rank_from_sides(
    baseline: &RankerBaseline,
    key: (PersonId, f64),
    sides: impl IntoIterator<Item = (PersonId, bool)>,
) -> usize {
    let subject = key.0;
    let entries = baseline.ranked.entries();
    let mut before = entries.partition_point(|&e| orders_before(e, key)) as isize;
    // The subject's own baseline entry must not count against it.
    if orders_before((subject, baseline.scores[subject.index()]), key) {
        before -= 1;
    }
    for (p, ahead) in sides {
        debug_assert_ne!(p, subject, "the subject is the key, not a side");
        if orders_before((p, baseline.scores[p.index()]), key) {
            before -= 1;
        }
        if ahead {
            before += 1;
        }
    }
    debug_assert!(before >= 0, "rank correction underflow");
    before as usize + 1
}

impl RankerBaseline {
    /// `p`'s score after a delta, given the delta's moved scores `changed`
    /// in ascending person order ([`crate::ExpertRanker::incremental_scores`]).
    pub fn score_after(&self, changed: &[(PersonId, f64)], p: PersonId) -> f64 {
        match changed.binary_search_by_key(&p, |&(q, _)| q) {
            Ok(i) => changed[i].1,
            Err(_) => self.scores[p.index()],
        }
    }

    /// The top-ranked person after a delta (`None` on an empty graph), given
    /// its moved scores `changed` in ascending person order: the best of the
    /// moved entries and the first baseline entry the delta left in place.
    /// Exactly the head of a full re-sort of the patched scores.
    pub fn top_after(&self, changed: &[(PersonId, f64)]) -> Option<PersonId> {
        debug_assert!(changed.windows(2).all(|w| w[0].0 < w[1].0));
        let unmoved = self
            .ranked
            .entries()
            .iter()
            .find(|&&(p, _)| changed.binary_search_by_key(&p, |&(q, _)| q).is_err());
        changed
            .iter()
            .chain(unmoved)
            .min_by(|a, b| rank_order(a, b))
            .map(|&(p, _)| p)
    }
}

/// Builds the person-indexed score vector backing `ranked`.
pub(crate) fn person_indexed_scores(ranked: &RankedList, n: usize) -> Vec<f64> {
    let mut scores = vec![0.0; n];
    for &(p, s) in ranked.entries() {
        scores[p.index()] = s;
    }
    scores
}

/// Incremental evaluation refuses to "localize" past this fraction of the
/// graph: when the affected neighbourhood covers more than half the people, a
/// full re-rank is at least as cheap and the caller should fall back.
pub(crate) fn affected_cap(num_people: usize) -> usize {
    num_people / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use exes_graph::CollabGraphBuilder;

    fn baseline_of(scores: Vec<(PersonId, f64)>) -> RankerBaseline {
        let ranked = RankedList::from_scores(scores);
        let n = ranked.len();
        let scores = person_indexed_scores(&ranked, n);
        RankerBaseline {
            query: Vec::new(),
            ranked,
            scores,
            kind: BaselineKind::TfIdf(TermStats {
                idfs: Vec::new(),
                counts: Vec::new(),
                holders: Vec::new(),
            }),
        }
    }

    /// Brute-force reference: re-sort the full patched score vector.
    fn resorted_rank(
        baseline: &RankerBaseline,
        subject: PersonId,
        changed: &[(PersonId, f64)],
    ) -> usize {
        let mut scores = baseline.scores.clone();
        for &(p, s) in changed {
            scores[p.index()] = s;
        }
        let list = RankedList::from_scores(
            scores
                .into_iter()
                .enumerate()
                .map(|(i, s)| (PersonId::from_index(i), s))
                .collect(),
        );
        list.rank_of(subject).unwrap()
    }

    #[test]
    fn corrected_rank_matches_a_full_resort() {
        let baseline = baseline_of(vec![
            (PersonId(0), 5.0),
            (PersonId(1), 4.0),
            (PersonId(2), 4.0),
            (PersonId(3), 1.0),
            (PersonId(4), 0.0),
        ]);
        let cases: Vec<Vec<(PersonId, f64)>> = vec![
            vec![],                                       // no change
            vec![(PersonId(3), 9.0)],                     // subject climbs
            vec![(PersonId(0), 0.5)],                     // leader collapses
            vec![(PersonId(3), 4.0)],                     // subject ties the pack
            vec![(PersonId(1), 4.0)],                     // no-op rewrite
            vec![(PersonId(1), 0.0), (PersonId(2), 6.0)], // mixed moves
            vec![(PersonId(4), 4.0), (PersonId(3), 4.0)], // two people join a tie
        ];
        for (i, changed) in cases.iter().enumerate() {
            for subject in (0..5).map(PersonId) {
                assert_eq!(
                    corrected_rank(&baseline, subject, changed),
                    resorted_rank(&baseline, subject, changed),
                    "case {i} subject {subject}"
                );
            }
        }
    }

    #[test]
    fn corrected_rank_randomized_against_resort() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x1AC4);
        for case in 0..200 {
            let n = rng.gen_range(1usize..12);
            let baseline = baseline_of(
                (0..n)
                    .map(|i| (PersonId::from_index(i), f64::from(rng.gen_range(0u32..5))))
                    .collect(),
            );
            let changes = rng.gen_range(0usize..=n);
            let mut changed: Vec<(PersonId, f64)> = Vec::new();
            for _ in 0..changes {
                let p = PersonId::from_index(rng.gen_range(0..n));
                if changed.iter().all(|&(q, _)| q != p) {
                    changed.push((p, f64::from(rng.gen_range(0u32..5))));
                }
            }
            for subject in (0..n).map(PersonId::from_index) {
                assert_eq!(
                    corrected_rank(&baseline, subject, &changed),
                    resorted_rank(&baseline, subject, &changed),
                    "case {case} subject {subject}"
                );
            }
        }
    }

    #[test]
    fn scores_and_top_after_a_delta_match_a_full_resort() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x70B1);
        for case in 0..200 {
            let n = rng.gen_range(1usize..12);
            let baseline = baseline_of(
                (0..n)
                    .map(|i| (PersonId::from_index(i), f64::from(rng.gen_range(0u32..4))))
                    .collect(),
            );
            // Ascending, deduped people with fresh scores: ties with the
            // unmoved leader are common at this score range.
            let mut changed: Vec<(PersonId, f64)> = Vec::new();
            for i in 0..n {
                if rng.gen_bool(0.4) {
                    changed.push((PersonId::from_index(i), f64::from(rng.gen_range(0u32..4))));
                }
            }
            let mut scores = baseline.scores.clone();
            for &(p, s) in &changed {
                scores[p.index()] = s;
            }
            let resorted = RankedList::from_scores(
                scores
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| (PersonId::from_index(i), s))
                    .collect(),
            );
            assert_eq!(
                baseline.top_after(&changed),
                resorted.top_k(1).first().copied(),
                "case {case}"
            );
            for p in (0..n).map(PersonId::from_index) {
                assert_eq!(
                    baseline.score_after(&changed, p).to_bits(),
                    scores[p.index()].to_bits(),
                    "case {case} person {p}"
                );
            }
            changed.clear();
            assert_eq!(
                baseline.top_after(&changed),
                baseline.ranked.top_k(1).first().copied()
            );
        }
        assert_eq!(baseline_of(Vec::new()).top_after(&[]), None);
    }

    #[test]
    fn skill_delta_effect_adjusts_only_touched_terms() {
        let mut b = CollabGraphBuilder::new();
        let p0 = b.add_person("a", ["ml", "db"]);
        let p1 = b.add_person("b", ["ml"]);
        let _p2 = b.add_person("c", ["db"]);
        let g = b.build();
        let q = Query::parse("ml db", g.vocab()).unwrap();
        let stats = TermStats::collect(&g, &q);
        assert_eq!(stats.counts, vec![2, 2]);
        assert_eq!(stats.holders[0], vec![p0, p1]);

        let ml = g.vocab().id("ml").unwrap();
        let delta = exes_graph::PerturbationSet::singleton(exes_graph::Perturbation::RemoveSkill {
            person: p1,
            skill: ml,
        });
        let view = delta.apply_to_graph(&g);
        let effect = skill_delta_effect(q.skills(), &stats, &view);
        // "ml" lost a holder: its idf moved and both base holders are affected.
        assert_eq!(effect.idfs[0], idf_from_count(3, 1));
        assert_eq!(effect.idfs[1].to_bits(), stats.idfs[1].to_bits());
        assert_eq!(effect.affected, vec![p0, p1]);
    }
}
