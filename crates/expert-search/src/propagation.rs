//! Expertise-propagation ranking: a person inherits part of their collaborators'
//! relevance (the "expertise propagates" signal the paper's footnote 1 describes).
//!
//! Every entry point — `score`, `rank_all`, `rank_of`, the baseline build and
//! the planned rescore — runs one scoring kernel over per-thread scratch
//! buffers: a term pass for base relevance, then per person a neighbour mean
//! and a strict-two-hop mean. The two-hop set is read out of a bitset in
//! ascending person id, the order both means are summed in, so every path
//! produces bitwise the same scores.
//!
//! A score is summed as `one_hop + β·two_hop_mean`, and the baseline keeps
//! every person's `one_hop` part. A planned probe only needs the subject's
//! rank, so it rescores exactly the subject, the endpoints of flipped edges
//! and everyone within one hop of a moved base relevance. Anyone else it may
//! move keeps their stored `one_hop`, and their two-hop mean lies between 0
//! and a bound on every base relevance after the delta, widened by the
//! rounding of a mean of at most `n` terms. When the score interval this
//! gives falls wholly before or after the subject's entry (scores by
//! `total_cmp`, ties by id), that person's side is counted without touching
//! their row; ambiguous people, ties included, are rescored exactly. The
//! rank is bitwise the full re-rank's, and whether a probe declines (more
//! rows to rebuild than half the graph) is settled before any bound is used.

use crate::incremental::{
    affected_cap, rank_from_sides, shifted_idfs, BaselineKind, RankerBaseline, TermStats,
    TwoHopRows,
};
use crate::ranker::{
    counted_rank, idf_from_count, orders_before, person_scores, with_scratch, ExpertRanker,
};
use crate::RankedList;
use exes_graph::{CollabGraph, GraphView, PersonId, PerturbedGraph, Query};
use std::cell::Cell;

/// Two-hop expertise-propagation ranker.
///
/// The base relevance of a person is the IDF-weighted match between their own
/// skills and the query (as in [`crate::TfIdfRanker`] without length
/// normalisation); the final score mixes in the *average* base relevance of
/// their collaborators and, with a smaller weight, of their collaborators'
/// collaborators:
///
/// `score(p) = base(p) + α · mean_{n∈N(p)} base(n) + β · mean_{m∈N²(p)} base(m)`
///
/// Averaging (rather than summing) keeps hubs from dominating purely by degree,
/// while still letting a well-connected non-expert rank above an isolated
/// non-expert — the behaviour ExES's collaboration explanations must surface.
#[derive(Debug, Clone, Copy)]
pub struct PropagationRanker {
    /// Weight of the 1-hop neighbourhood contribution.
    pub alpha: f64,
    /// Weight of the 2-hop neighbourhood contribution.
    pub beta: f64,
}

impl Default for PropagationRanker {
    fn default() -> Self {
        PropagationRanker {
            alpha: 0.5,
            beta: 0.15,
        }
    }
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::new(Scratch::default());
}

/// The kernel's reusable buffers, sized on use.
#[derive(Default)]
struct Scratch {
    /// Person-indexed base relevance of the graph being scored.
    base: Vec<f64>,
    /// Person-indexed scores, and their one-hop parts.
    scores: Vec<f64>,
    one_hop: Vec<f64>,
    /// Which query terms each person holds: one bit per term, in words of
    /// 64, each person's words adjacent.
    held: Vec<u64>,
    /// Per-term holder counts and IDFs.
    counts: Vec<usize>,
    idfs: Vec<f64>,
    /// A strict two-hop set being built, and its ascending read-out.
    set: IdSet,
    row: Vec<PersonId>,
    /// Planned path: per-person flags, and the people whose two-hop rows
    /// must be rebuilt, whose base relevance moved and whose score may move.
    marks: Marks,
    rebuild: Vec<PersonId>,
    rebased: Vec<PersonId>,
    affected: Vec<PersonId>,
}

impl PropagationRanker {
    /// `base(p) + α·mean(base over neighbours) + β·mean(base over two_hop)`,
    /// both means summed in the order given (ascending id).
    fn combine(
        &self,
        base: &[f64],
        p: PersonId,
        neighbors: &[PersonId],
        two_hop: &[PersonId],
    ) -> f64 {
        self.total(
            self.one_hop(base, p, neighbors),
            two_hop_mean(base, two_hop),
        )
    }

    /// `base(p) + α·mean(base over neighbours)`: the left operand of
    /// [`Self::total`].
    fn one_hop(&self, base: &[f64], p: PersonId, neighbors: &[PersonId]) -> f64 {
        base[p.index()] + self.alpha * mean(neighbors.iter().map(|&x| base[x.index()]))
    }

    /// A score from its one-hop part and its two-hop mean.
    fn total(&self, one_hop: f64, two_hop_mean: f64) -> f64 {
        one_hop + self.beta * two_hop_mean
    }

    /// Scores every person of `graph` into `s.scores`, their one-hop parts
    /// into `s.one_hop`, handing each person's strict two-hop row to
    /// `each_row` in person order.
    fn score_all<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        query: &Query,
        s: &mut Scratch,
        mut each_row: impl FnMut(&[PersonId]),
    ) {
        base_pass(graph, query, s);
        s.set.reserve(graph.num_people());
        s.scores.clear();
        s.one_hop.clear();
        for p in graph.people_ids() {
            two_hop_row(graph, p, &mut s.set, &mut s.row);
            each_row(&s.row);
            let one_hop = self.one_hop(&s.base, p, graph.neighbors(p));
            s.one_hop.push(one_hop);
            s.scores
                .push(self.total(one_hop, two_hop_mean(&s.base, &s.row)));
        }
    }

    /// Which side of the subject's post-delta entry `key` candidate `p`
    /// lands on (`true`: before it), decided from its unmoved one-hop part
    /// alone, or `None` when the bound cannot tell.
    ///
    /// `p`'s computed score is `total(one_hop, m)` for its two-hop mean `m`
    /// in `[0, bound]`, and `total` is monotone in `m`: rising for a
    /// non-negative `beta`, falling for a negative one. So the score lies
    /// between the two ends, and `p`'s side is decided when its best entry
    /// still orders after `key` or its worst entry still orders before it.
    /// Non-finite ends decide nothing.
    fn bounded_side(
        &self,
        p: PersonId,
        one_hop: f64,
        bound: f64,
        key: (PersonId, f64),
    ) -> Option<bool> {
        let (empty, full) = (self.total(one_hop, 0.0), self.total(one_hop, bound));
        let (least, most) = if self.beta.is_sign_negative() {
            (full, empty)
        } else {
            (empty, full)
        };
        if !(least.is_finite() && most.is_finite()) {
            None
        } else if orders_before((p, least), key) {
            Some(true)
        } else if orders_before(key, (p, most)) {
            Some(false)
        } else {
            None
        }
    }

    /// The planned rescore: patches the baseline's base relevances with the
    /// view's skill delta, computes the subject's new score, and counts who
    /// orders before it. `None` only when the rows to rebuild exceed the
    /// cap, which is checked before anything is rescored or bounded.
    ///
    /// Only people within two hops of a moved base relevance, or whose
    /// two-hop row a flipped edge changes, can move; the rest keep their
    /// baseline entries. When the movers fit under the localization cap,
    /// their sides of the subject correct the baseline order:
    /// - flipped-edge endpoints and people within one hop of a moved base
    ///   relevance are rescored exactly, rebuilding their rows on the view;
    /// - everyone else's one-hop part is the stored one, and their two-hop
    ///   mean lies in `[0, bound]`, where `bound` covers every base
    ///   relevance after the delta plus the rounding of a mean of at most
    ///   `n` terms ([`mean_bound`]). [`Self::bounded_side`] places them from
    ///   that interval, and only those it cannot place are rescored.
    ///
    /// When a shifted IDF moves base relevances past the cap, everyone is
    /// rescored from the stored rows and counted.
    fn planned_rank(
        &self,
        baseline: &RankerBaseline,
        view: &PerturbedGraph<'_>,
        person: PersonId,
        s: &mut Scratch,
    ) -> Option<usize> {
        let BaselineKind::Propagation {
            terms,
            base,
            one_hop,
            max_base,
            two_hop,
        } = &baseline.kind
        else {
            return None;
        };
        let Scratch {
            base: patched,
            scores,
            counts,
            idfs,
            set,
            row,
            marks,
            rebuild,
            rebased,
            affected,
            ..
        } = s;
        let n = view.num_people();
        let cap = affected_cap(n);
        marks.begin(n);
        set.reserve(n);

        // Two-hop rows change for a flipped edge's endpoints and their
        // neighbours, before and after the flip. The endpoints' one-hop
        // parts move too.
        rebuild.clear();
        for (a, b) in view.edge_additions().chain(view.edge_removals()) {
            for p in [a, b] {
                marks.insert(EXACT, p);
                if marks.insert(REBUILD, p) {
                    rebuild.push(p);
                }
            }
        }
        for i in 0..rebuild.len() {
            for nb in union_neighbors(view, rebuild[i]) {
                if marks.insert(REBUILD, nb) {
                    rebuild.push(nb);
                }
            }
        }
        if rebuild.len() > cap {
            return None;
        }

        // Base relevance can move only for skill-delta people and the holders
        // of a term whose IDF shifted. Someone whose base comes out bitwise
        // unchanged (an edit to a non-query skill) moves no score.
        shifted_idfs(&baseline.query, terms, view, counts, idfs);
        affected.clear();
        for (p, _) in view.skill_additions().chain(view.skill_removals()) {
            if marks.insert(SEEN, p) {
                affected.push(p);
            }
        }
        for (i, holders) in terms.holders.iter().enumerate() {
            if counts[i] != terms.counts[i] {
                for &h in holders {
                    if marks.insert(SEEN, h) {
                        affected.push(h);
                    }
                }
            }
        }
        patched.clear();
        patched.extend_from_slice(base);
        rebased.clear();
        let mut top_base = *max_base;
        for &p in affected.iter() {
            let moved: f64 = baseline
                .query
                .iter()
                .zip(idfs.iter())
                .filter(|&(&t, _)| view.person_has_skill(p, t))
                .map(|(_, &idf)| idf)
                .sum();
            if moved.to_bits() != base[p.index()].to_bits() {
                patched[p.index()] = moved;
                top_base = top_base.max(moved);
                rebased.push(p);
            }
        }

        // Scores that can move: the two-hop ball of every moved base
        // relevance, plus every rebuilt row. Its first two layers — within
        // one hop of a moved base — have moved one-hop parts. The walk stops
        // once it passes the cap.
        affected.clear();
        for &p in rebased.iter() {
            if marks.insert(AFFECTED, p) {
                affected.push(p);
            }
        }
        let mut start = 0;
        for layer in 0..2 {
            let end = affected.len();
            for i in start..end {
                if affected.len() > cap {
                    break;
                }
                for nb in union_neighbors(view, affected[i]) {
                    if marks.insert(AFFECTED, nb) {
                        affected.push(nb);
                    }
                }
            }
            if layer == 0 {
                for &p in affected.iter() {
                    marks.insert(EXACT, p);
                }
            }
            start = end;
        }
        for &p in rebuild.iter() {
            if marks.insert(AFFECTED, p) {
                affected.push(p);
            }
        }

        let mut rescore = |p: PersonId| {
            let second = if marks.contains(REBUILD, p) {
                two_hop_row(view, p, set, row);
                &row[..]
            } else {
                two_hop.row(p)
            };
            self.combine(patched, p, view.neighbors(p), second)
        };
        if affected.len() <= cap {
            let subject_score = if marks.contains(AFFECTED, person) {
                rescore(person)
            } else {
                baseline.scores[person.index()]
            };
            let key = (person, subject_score);
            let bound = mean_bound(top_base, n);
            let sides = affected.iter().filter(|&&p| p != person).map(|&p| {
                let side = if marks.contains(EXACT, p) {
                    None
                } else {
                    self.bounded_side(p, one_hop[p.index()], bound, key)
                };
                let side = side.unwrap_or_else(|| orders_before((p, rescore(p)), key));
                (p, side)
            });
            Some(rank_from_sides(baseline, key, sides))
        } else {
            scores.clear();
            scores.extend(view.people_ids().map(&mut rescore));
            Some(counted_rank(scores, person))
        }
    }
}

impl ExpertRanker for PropagationRanker {
    fn score<G: GraphView + ?Sized>(&self, graph: &G, query: &Query, person: PersonId) -> f64 {
        with_scratch(&SCRATCH, |s| {
            base_pass(graph, query, s);
            s.set.reserve(graph.num_people());
            two_hop_row(graph, person, &mut s.set, &mut s.row);
            self.combine(&s.base, person, graph.neighbors(person), &s.row)
        })
    }

    fn name(&self) -> &'static str {
        "expertise-propagation"
    }

    fn hash_params(&self, state: &mut dyn std::hash::Hasher) {
        state.write_u64(self.alpha.to_bits());
        state.write_u64(self.beta.to_bits());
    }

    /// Skills reach the scores only through `base_pass`: query term
    /// membership and the query terms' holder counts.
    fn observes_non_query_skills(&self) -> bool {
        false
    }

    fn rank_all<G: GraphView + ?Sized>(&self, graph: &G, query: &Query) -> RankedList {
        with_scratch(&SCRATCH, |s| {
            self.score_all(graph, query, s, |_| {});
            RankedList::from_scores(person_scores(&s.scores))
        })
    }

    fn rank_of<G: GraphView + ?Sized>(&self, graph: &G, query: &Query, person: PersonId) -> usize {
        with_scratch(&SCRATCH, |s| {
            self.score_all(graph, query, s, |_| {});
            counted_rank(&s.scores, person)
        })
    }

    fn build_baseline(&self, graph: &CollabGraph, query: &Query) -> Option<RankerBaseline> {
        let mut two_hop = TwoHopRows::new();
        let (scores, base, one_hop) = with_scratch(&SCRATCH, |s| {
            self.score_all(graph, query, s, |row| two_hop.push_row(row));
            (s.scores.clone(), s.base.clone(), s.one_hop.clone())
        });
        Some(RankerBaseline {
            query: query.skills().to_vec(),
            ranked: RankedList::from_scores(person_scores(&scores)),
            scores,
            kind: BaselineKind::Propagation {
                terms: TermStats::collect(graph, query),
                max_base: base.iter().copied().fold(0.0, f64::max),
                base,
                one_hop,
                two_hop,
            },
        })
    }

    /// Exact: a person's score reads their own base relevance, the base
    /// relevance of their ≤2-hop neighbourhood, and neighbour lists at most
    /// one hop out. So a moved base relevance dirties its 2-hop ball, while a
    /// flipped edge only re-aggregates its endpoints and their direct
    /// neighbours. Of that union, only the people a score bound cannot place
    /// on one side of the subject are rescored (see the module docs), and
    /// the rank is bitwise a full re-rank's. Declines only for a perturbed
    /// query, or a flipped edge whose rows to rebuild exceed the localization
    /// cap (half the graph).
    fn incremental_rank_of(
        &self,
        baseline: &RankerBaseline,
        view: &PerturbedGraph<'_>,
        query: &Query,
        person: PersonId,
    ) -> Option<usize> {
        if query.skills() != baseline.query {
            return None;
        }
        with_scratch(&SCRATCH, |s| self.planned_rank(baseline, view, person, s))
    }
}

/// The term pass: one sweep of skill lookups records which query terms each
/// person holds and how many people hold each term; the IDFs follow, and from
/// them each person's base relevance (the IDFs of held terms, summed in
/// query order) in `s.base`.
fn base_pass<G: GraphView + ?Sized>(graph: &G, query: &Query, s: &mut Scratch) {
    let n = graph.num_people();
    let terms = query.skills();
    let words = terms.len().div_ceil(64);
    s.held.clear();
    s.held.resize(n * words, 0);
    s.counts.clear();
    s.counts.resize(terms.len(), 0);
    for p in graph.people_ids() {
        let held = &mut s.held[p.index() * words..][..words];
        for (i, &t) in terms.iter().enumerate() {
            if graph.person_has_skill(p, t) {
                held[i / 64] |= 1 << (i % 64);
                s.counts[i] += 1;
            }
        }
    }
    s.idfs.clear();
    s.idfs
        .extend(s.counts.iter().map(|&c| idf_from_count(n, c)));
    s.base.clear();
    s.base.extend((0..n).map(|p| {
        let held = &s.held[p * words..][..words];
        s.idfs
            .iter()
            .enumerate()
            .filter(|&(i, _)| held[i / 64] >> (i % 64) & 1 == 1)
            .map(|(_, &idf)| idf)
            .sum::<f64>()
    }));
}

/// Writes `p`'s strict two-hop set on `graph` — people two hops away who are
/// neither `p` nor a collaborator of `p` — into `row`, ascending.
fn two_hop_row<G: GraphView + ?Sized>(
    graph: &G,
    p: PersonId,
    set: &mut IdSet,
    row: &mut Vec<PersonId>,
) {
    let neighbors = graph.neighbors(p);
    for &nb in neighbors {
        set.extend(graph.neighbors(nb));
    }
    set.remove(p);
    for &nb in neighbors {
        set.remove(nb);
    }
    set.drain_into(row);
}

/// `p`'s collaborators in the view, then in the base graph when they differ,
/// so a walk from a removed edge's endpoint still crosses it. May repeat.
fn union_neighbors<'a>(
    view: &'a PerturbedGraph<'_>,
    p: PersonId,
) -> impl Iterator<Item = PersonId> + 'a {
    let now = view.neighbors(p);
    let before = view.base().base_neighbors(p);
    let before = if std::ptr::eq(now, before) {
        &[][..]
    } else {
        before
    };
    now.iter().chain(before).copied()
}

/// The mean base relevance over a two-hop row, summed in the row's order.
fn two_hop_mean(base: &[f64], row: &[PersonId]) -> f64 {
    mean(row.iter().map(|&m| base[m.index()]))
}

/// At least the computed [`mean`] of any at most `n` values in `[0, max]`.
///
/// Summing `k` non-negative terms one at a time gives at most
/// `k·max·(1 + γ_(k-1))`, with `γ_j = j·u / (1 − j·u)` and `u = 2^-53`
/// (Higham, *Accuracy and Stability of Numerical Algorithms*, §4.2); the
/// division rounds once more, and `(1 + γ_(k-1))(1 + u) ≤ 1 + γ_k ≤ 1 + 2k·u`.
/// The factor `1 + 4n·u` (exact for any graph that fits in memory) keeps
/// at least `1 + 2n·u` after the product rounds. Base relevances are sums
/// of IDFs, each at least 1, so none is negative.
fn mean_bound(max: f64, n: usize) -> f64 {
    max * (1.0 + 2.0 * n as f64 * f64::EPSILON)
}

fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in iter {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// A set of person ids as a bitset, read out in ascending id order. Its
/// words are all zero between uses.
#[derive(Default)]
struct IdSet {
    words: Vec<u64>,
    /// The words `lo..hi` are the only ones that may hold set bits.
    lo: usize,
    hi: usize,
}

impl IdSet {
    /// Makes room for ids below `n`.
    fn reserve(&mut self, n: usize) {
        let len = n.div_ceil(64);
        if self.words.len() < len {
            self.words.resize(len, 0);
        }
    }

    /// Adds the ascending `ids`.
    fn extend(&mut self, ids: &[PersonId]) {
        let (Some(first), Some(last)) = (ids.first(), ids.last()) else {
            return;
        };
        let (lo, hi) = (first.index() / 64, last.index() / 64 + 1);
        if self.lo == self.hi {
            (self.lo, self.hi) = (lo, hi);
        } else {
            self.lo = self.lo.min(lo);
            self.hi = self.hi.max(hi);
        }
        for &m in ids {
            self.words[m.index() / 64] |= 1 << (m.index() % 64);
        }
    }

    fn remove(&mut self, p: PersonId) {
        self.words[p.index() / 64] &= !(1 << (p.index() % 64));
    }

    /// Moves every member into `out`, ascending, leaving the set empty.
    fn drain_into(&mut self, out: &mut Vec<PersonId>) {
        out.clear();
        for w in self.lo..self.hi {
            let mut word = std::mem::take(&mut self.words[w]);
            while word != 0 {
                out.push(PersonId::from_index(
                    w * 64 + word.trailing_zeros() as usize,
                ));
                word &= word - 1;
            }
        }
        (self.lo, self.hi) = (0, 0);
    }
}

/// [`Marks`] flag: the person's two-hop row must be rebuilt on the view.
const REBUILD: usize = 0;
/// [`Marks`] flag: the person's base relevance was recomputed.
const SEEN: usize = 1;
/// [`Marks`] flag: the person's score may move.
const AFFECTED: usize = 2;
/// [`Marks`] flag: the person's one-hop part may move, so no bound places
/// them.
const EXACT: usize = 3;

/// Per-person flags that clear in O(1) between probes: a flag is set while
/// its stamp equals the current generation.
#[derive(Default)]
struct Marks {
    stamps: Vec<[u32; 4]>,
    generation: u32,
}

impl Marks {
    /// Clears every flag, for a graph of `n` people.
    fn begin(&mut self, n: usize) {
        if self.stamps.len() != n || self.generation == u32::MAX {
            self.stamps.clear();
            self.stamps.resize(n, [0; 4]);
            self.generation = 0;
        }
        self.generation += 1;
    }

    /// Sets `flag` on `p`, reporting whether it was clear.
    fn insert(&mut self, flag: usize, p: PersonId) -> bool {
        let stamp = &mut self.stamps[p.index()][flag];
        let was_clear = *stamp != self.generation;
        *stamp = self.generation;
        was_clear
    }

    fn contains(&self, flag: usize, p: PersonId) -> bool {
        self.stamps[p.index()][flag] == self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exes_graph::{CollabGraph, CollabGraphBuilder, Perturbation, PerturbationSet};

    /// p0 holds the skill; p1 collaborates with p0; p2 is isolated; p3 is two
    /// hops away from p0 (via p1).
    fn toy() -> CollabGraph {
        let mut b = CollabGraphBuilder::new();
        let p0 = b.add_person("expert", ["ml"]);
        let p1 = b.add_person("collaborator", ["other"]);
        let p2 = b.add_person("isolated", ["other"]);
        let p3 = b.add_person("second-hop", ["other"]);
        b.add_edge(p0, p1);
        b.add_edge(p1, p3);
        let _ = p2;
        b.build()
    }

    #[test]
    fn collaborating_with_an_expert_beats_isolation() {
        let g = toy();
        let q = Query::parse("ml", g.vocab()).unwrap();
        let r = PropagationRanker::default();
        let collaborator = r.score(&g, &q, PersonId(1));
        let isolated = r.score(&g, &q, PersonId(2));
        let second_hop = r.score(&g, &q, PersonId(3));
        assert!(collaborator > isolated);
        assert!(second_hop > isolated);
        assert!(collaborator > second_hop);
    }

    #[test]
    fn the_expert_still_ranks_first() {
        let g = toy();
        let q = Query::parse("ml", g.vocab()).unwrap();
        let r = PropagationRanker::default();
        assert_eq!(r.rank_of(&g, &q, PersonId(0)), 1);
    }

    #[test]
    fn rank_all_agrees_with_score() {
        let g = toy();
        let q = Query::parse("ml", g.vocab()).unwrap();
        let r = PropagationRanker::default();
        let list = r.rank_all(&g, &q);
        for &(p, s) in list.entries() {
            assert!(
                (s - r.score(&g, &q, p)).abs() < 1e-9,
                "mismatch for {p}: {s} vs {}",
                r.score(&g, &q, p)
            );
        }
    }

    #[test]
    fn removing_the_expert_edge_hurts_the_collaborator() {
        let g = toy();
        let q = Query::parse("ml", g.vocab()).unwrap();
        let r = PropagationRanker::default();
        let before = r.score(&g, &q, PersonId(1));
        let delta = PerturbationSet::singleton(Perturbation::RemoveEdge {
            a: PersonId(0),
            b: PersonId(1),
        });
        let view = delta.apply_to_graph(&g);
        let after = r.score(&view, &q, PersonId(1));
        assert!(after < before);
    }

    #[test]
    fn adding_an_edge_to_an_expert_helps() {
        let g = toy();
        let q = Query::parse("ml", g.vocab()).unwrap();
        let r = PropagationRanker::default();
        let before = r.score(&g, &q, PersonId(2));
        let delta = PerturbationSet::singleton(Perturbation::AddEdge {
            a: PersonId(2),
            b: PersonId(0),
        });
        let view = delta.apply_to_graph(&g);
        let after = r.score(&view, &q, PersonId(2));
        assert!(after > before);
    }

    /// Asserts that every person's planned rank on each of `sets` is the
    /// full re-rank's, under the default weights, no two-hop term and a
    /// negative two-hop weight.
    fn assert_planned_ranks_exact(g: &CollabGraph, q: &Query, sets: &[PerturbationSet]) {
        let default = PropagationRanker::default();
        let weights = [
            default,
            PropagationRanker {
                beta: 0.0,
                ..default
            },
            PropagationRanker {
                beta: -default.beta,
                ..default
            },
        ];
        for r in weights {
            let baseline = r.build_baseline(g, q).unwrap();
            for set in sets {
                let view = set.apply_to_graph(g);
                for p in g.people() {
                    assert_eq!(
                        r.incremental_rank_of(&baseline, &view, q, p),
                        Some(r.rank_of(&view, q, p)),
                        "beta {} delta {set:?} person {p}",
                        r.beta
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_rank_matches_full_rerank_exactly() {
        // A graph big enough that the 2-hop ball of each delta — and of the
        // holder set of an IDF-moved term — stays under the n/2 localization
        // cap: a hub with ten spokes, each spoke with a tail, two 5-person
        // chains and loners; "ml" held by a tail, the chain heads and a
        // loner.
        let mut b = CollabGraphBuilder::new();
        let people: Vec<PersonId> = (0..48)
            .map(|i| {
                let ml = [13, 21, 26, 40].contains(&i);
                b.add_person(
                    &format!("p{i}"),
                    if ml { vec!["ml"] } else { vec!["other"] },
                )
            })
            .collect();
        for i in 1..=10 {
            b.add_edge(people[0], people[i]);
            b.add_edge(people[i], people[10 + i]);
        }
        for i in 0..4 {
            b.add_edge(people[21 + i], people[22 + i]);
            b.add_edge(people[26 + i], people[27 + i]);
        }
        let g = b.build();
        let q = Query::parse("ml", g.vocab()).unwrap();
        let ml = g.vocab().id("ml").unwrap();
        let other = g.vocab().id("other").unwrap();
        let edge = |add: bool, a: usize, b: usize| {
            let (a, b) = (people[a], people[b]);
            if add {
                Perturbation::AddEdge { a, b }
            } else {
                Perturbation::RemoveEdge { a, b }
            }
        };
        let set = |edits: &[Perturbation]| {
            let mut set = PerturbationSet::new();
            for &e in edits {
                set.push(e);
            }
            set
        };
        let hub_loses = |k: usize| set(&(1..=k).map(|i| edge(false, 0, i)).collect::<Vec<_>>());
        let sets = vec![
            set(&[edge(true, 25, 0)]),
            set(&[edge(false, 22, 23)]),
            set(&[Perturbation::AddSkill {
                person: people[24],
                skill: ml,
            }]),
            set(&[Perturbation::RemoveSkill {
                person: people[21],
                skill: ml,
            }]),
            set(&[Perturbation::AddSkill {
                person: people[0],
                skill: other,
            }]),
            // "ml" changes hands: no IDF moves, two base relevances do.
            set(&[
                Perturbation::RemoveSkill {
                    person: people[21],
                    skill: ml,
                },
                Perturbation::AddSkill {
                    person: people[12],
                    skill: ml,
                },
            ]),
            hub_loses(2),
            hub_loses(4),
            hub_loses(8),
            set(&[
                edge(false, 0, 1),
                edge(false, 22, 23),
                edge(true, 25, 31),
                edge(true, 12, 40),
            ]),
        ];
        assert_planned_ranks_exact(&g, &q, &sets);
    }

    #[test]
    fn incremental_rank_breaks_exact_ties_by_id() {
        // Everyone holds "ml", so every base relevance is 1 and every
        // two-hop mean is 0 or exactly 1, the top of its bound: paths of
        // four, pairs and loners tie in large groups, and a cut path's outer
        // people join the pairs' score exactly.
        let mut b = CollabGraphBuilder::new();
        let mut people = Vec::new();
        for _ in 0..4 {
            let block: Vec<PersonId> = (0..7)
                .map(|i| b.add_person(&format!("p{}", people.len() + i), ["ml"]))
                .collect();
            for i in 0..3 {
                b.add_edge(block[i], block[i + 1]);
            }
            b.add_edge(block[4], block[5]);
            people.extend(block);
        }
        let g = b.build();
        let q = Query::parse("ml", g.vocab()).unwrap();
        let mut cut = PerturbationSet::singleton(Perturbation::RemoveEdge {
            a: people[8],
            b: people[9],
        });
        let middle_cut = cut.clone();
        cut.push(Perturbation::AddEdge {
            a: people[3],
            b: people[25],
        });
        assert_planned_ranks_exact(&g, &q, &[middle_cut, cut]);
    }

    /// Two twin fans `far – link – holders of "ml"`, then `extra` isolated
    /// people (the first `lone_holders` of them holding "ml"); the first
    /// link also has a spare non-holder neighbour. Each far end's two-hop
    /// row is its link's other neighbours, so without the spare the twins'
    /// far ends tie exactly. Returns the graph, the first link and the spare.
    fn twin_fans(
        holders: usize,
        extra: usize,
        lone_holders: usize,
    ) -> (CollabGraph, PersonId, PersonId) {
        let mut b = CollabGraphBuilder::new();
        let mut named = 0;
        let mut person = |b: &mut CollabGraphBuilder, skill: &str| {
            named += 1;
            b.add_person(&format!("p{named}"), [skill])
        };
        let mut links = Vec::new();
        for _ in 0..2 {
            let far = person(&mut b, "other");
            let link = person(&mut b, "other");
            b.add_edge(far, link);
            for _ in 0..holders {
                let h = person(&mut b, "ml");
                b.add_edge(link, h);
            }
            links.push(link);
        }
        let spare = person(&mut b, "other");
        b.add_edge(links[0], spare);
        for i in 0..extra {
            person(&mut b, if i < lone_holders { "ml" } else { "other" });
        }
        (b.build(), links[0], spare)
    }

    #[test]
    fn the_bound_covers_mean_rounding_and_raised_base_relevances() {
        // Cutting the spare leaves the first far end a two-hop row of six
        // equal holders, whose mean rounds above their base relevance at 26
        // people (12 holders): only the bound's margin keeps it tied with
        // its twin.
        let (g, link, spare) = twin_fans(6, 9, 0);
        assert_eq!(g.num_people(), 26);
        let q = Query::parse("ml", g.vocab()).unwrap();
        let cut = PerturbationSet::singleton(Perturbation::RemoveEdge { a: link, b: spare });
        assert_planned_ranks_exact(&g, &q, &[cut]);

        // With the spare cut, a lone holder dropping "ml" raises its IDF,
        // and with it each fan holder's base relevance above every baseline
        // one: the bound must follow, or the far ends' new tie is misplaced.
        let (g, link, spare) = twin_fans(1, 9, 1);
        let q = Query::parse("ml", g.vocab()).unwrap();
        let ml = g.vocab().id("ml").unwrap();
        let lone = PersonId::from_index(7);
        assert!(g.person_has_skill(lone, ml));
        let mut drop = PerturbationSet::singleton(Perturbation::RemoveEdge { a: link, b: spare });
        drop.push(Perturbation::RemoveSkill {
            person: lone,
            skill: ml,
        });
        assert_planned_ranks_exact(&g, &q, &[drop]);
    }

    #[test]
    fn incremental_falls_back_when_the_ball_covers_the_graph() {
        let g = toy(); // 4 people: any 2-hop ball around an edge delta is > n/2
        let q = Query::parse("ml", g.vocab()).unwrap();
        let r = PropagationRanker::default();
        let baseline = r.build_baseline(&g, &q).unwrap();
        let delta = PerturbationSet::singleton(Perturbation::AddEdge {
            a: PersonId(0),
            b: PersonId(2),
        });
        let view = delta.apply_to_graph(&g);
        assert_eq!(
            r.incremental_rank_of(&baseline, &view, &q, PersonId(0)),
            None
        );
    }

    #[test]
    fn a_shifted_idf_past_the_cap_rescores_everyone_from_the_plan() {
        // Everyone holds "ml", so removing it from anyone shifts its IDF and
        // moves every base relevance: far past the n/2 cap.
        let mut b = CollabGraphBuilder::new();
        let people: Vec<PersonId> = (0..12)
            .map(|i| b.add_person(&format!("p{i}"), ["ml", "other"]))
            .collect();
        for w in people.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        let g = b.build();
        let q = Query::parse("ml", g.vocab()).unwrap();
        let r = PropagationRanker::default();
        let baseline = r.build_baseline(&g, &q).unwrap();
        let ml = g.vocab().id("ml").unwrap();
        let mut delta = PerturbationSet::singleton(Perturbation::RemoveSkill {
            person: people[3],
            skill: ml,
        });
        let idf_shift = delta.clone();
        // With a short edge flip on top, the flipped rows are rebuilt too.
        delta.push(Perturbation::RemoveEdge {
            a: people[7],
            b: people[8],
        });
        for set in [idf_shift, delta] {
            let view = set.apply_to_graph(&g);
            for &p in &people {
                let planned = r.incremental_rank_of(&baseline, &view, &q, p);
                assert_eq!(planned, Some(r.rank_of(&view, &q, p)), "{set:?} person {p}");
            }
        }
    }

    #[test]
    fn zero_weights_reduce_to_pure_skill_match() {
        let g = toy();
        let q = Query::parse("ml", g.vocab()).unwrap();
        let r = PropagationRanker {
            alpha: 0.0,
            beta: 0.0,
        };
        assert_eq!(r.score(&g, &q, PersonId(1)), 0.0);
        assert!(r.score(&g, &q, PersonId(0)) > 0.0);
    }
}
