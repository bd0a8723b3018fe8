//! Expertise-propagation ranking: a person inherits part of their collaborators'
//! relevance (the "expertise propagates" signal the paper's footnote 1 describes).
//!
//! Every entry point — `score`, `rank_all`, `rank_of`, the baseline build and
//! the planned rescore — runs one scoring kernel over per-thread scratch
//! buffers: a term pass for base relevance, then per person a neighbour mean
//! and a strict-two-hop mean. The two-hop set is read out of a bitset in
//! ascending person id, the order both means are summed in, so every path
//! produces bitwise the same scores.

use crate::incremental::{
    affected_cap, corrected_rank, shifted_idfs, BaselineKind, RankerBaseline, TermStats, TwoHopRows,
};
use crate::ranker::{counted_rank, idf_from_count, person_scores, with_scratch, ExpertRanker};
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
    /// Person-indexed scores.
    scores: Vec<f64>,
    /// Which query terms each person holds: one bit per term, in words of
    /// 64, each person's words adjacent.
    held: Vec<u64>,
    /// Per-term holder counts and IDFs.
    counts: Vec<usize>,
    idfs: Vec<f64>,
    /// A strict two-hop set being built, and its ascending read-out.
    set: IdSet,
    row: Vec<PersonId>,
    /// Planned path: per-person flags, the people whose two-hop rows must be
    /// rebuilt, whose base relevance moved, whose score may move, and their
    /// new scores.
    marks: Marks,
    rebuild: Vec<PersonId>,
    rebased: Vec<PersonId>,
    affected: Vec<PersonId>,
    changed: Vec<(PersonId, f64)>,
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
        let one_hop = mean(neighbors.iter().map(|&x| base[x.index()]));
        let two_hop = mean(two_hop.iter().map(|&m| base[m.index()]));
        base[p.index()] + self.alpha * one_hop + self.beta * two_hop
    }

    /// Scores every person of `graph` into `s.scores`, handing each person's
    /// strict two-hop row to `each_row` in person order.
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
        for p in graph.people_ids() {
            two_hop_row(graph, p, &mut s.set, &mut s.row);
            each_row(&s.row);
            s.scores
                .push(self.combine(&s.base, p, graph.neighbors(p), &s.row));
        }
    }

    /// The planned rescore: patches the baseline's base relevances with the
    /// view's skill delta, rebuilds the two-hop rows a flipped edge changes,
    /// and rescores the people whose score can move — corrected against the
    /// baseline order when they fit under the localization cap, or everyone,
    /// counted, when a shifted IDF moves too many base relevances. `None`
    /// only when the rows to rebuild exceed the cap.
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
            changed,
            ..
        } = s;
        let n = view.num_people();
        let cap = affected_cap(n);
        marks.begin(n);
        set.reserve(n);

        // Two-hop rows change for a flipped edge's endpoints and their
        // neighbours, before and after the flip.
        rebuild.clear();
        for (a, b) in view.edge_additions().chain(view.edge_removals()) {
            for p in [a, b] {
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
                rebased.push(p);
            }
        }

        // Scores that can move: the two-hop ball of every moved base
        // relevance, plus every rebuilt row. The walk stops once it passes
        // the cap.
        affected.clear();
        for &p in rebased.iter() {
            if marks.insert(AFFECTED, p) {
                affected.push(p);
            }
        }
        let mut start = 0;
        for _ in 0..2 {
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
            changed.clear();
            changed.extend(affected.iter().map(|&p| (p, rescore(p))));
            Some(corrected_rank(baseline, person, changed))
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
        let (scores, base) = with_scratch(&SCRATCH, |s| {
            self.score_all(graph, query, s, |row| two_hop.push_row(row));
            (s.scores.clone(), s.base.clone())
        });
        Some(RankerBaseline {
            query: query.skills().to_vec(),
            ranked: RankedList::from_scores(person_scores(&scores)),
            scores,
            kind: BaselineKind::Propagation {
                terms: TermStats::collect(graph, query),
                base,
                two_hop,
            },
        })
    }

    /// Exact: a person's score reads their own base relevance, the base
    /// relevance of their ≤2-hop neighbourhood, and neighbour lists at most
    /// one hop out. So a moved base relevance dirties its 2-hop ball, while a
    /// flipped edge only re-aggregates its endpoints and their direct
    /// neighbours — rescoring that union reproduces a full re-rank bitwise.
    /// Declines only for a perturbed query, or a flipped edge whose rows to
    /// rebuild exceed the localization cap.
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

/// Per-person flags that clear in O(1) between probes: a flag is set while
/// its stamp equals the current generation.
#[derive(Default)]
struct Marks {
    stamps: Vec<[u32; 3]>,
    generation: u32,
}

impl Marks {
    /// Clears every flag, for a graph of `n` people.
    fn begin(&mut self, n: usize) {
        if self.stamps.len() != n || self.generation == u32::MAX {
            self.stamps.clear();
            self.stamps.resize(n, [0; 3]);
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

    #[test]
    fn incremental_rank_matches_full_rerank_exactly() {
        // A graph big enough that the 2-hop ball of a singleton delta — and
        // of the holder set of an IDF-moved term — stays under the n/2
        // localization cap: two 5-person chains plus loners, "ml" held only
        // by the two chain heads.
        let mut b = CollabGraphBuilder::new();
        let people: Vec<PersonId> = (0..20)
            .map(|i| {
                b.add_person(
                    &format!("p{i}"),
                    if i % 10 == 0 {
                        vec!["ml"]
                    } else {
                        vec!["other"]
                    },
                )
            })
            .collect();
        for i in 0..4 {
            b.add_edge(people[i], people[i + 1]);
            b.add_edge(people[10 + i], people[11 + i]);
        }
        let g = b.build();
        let q = Query::parse("ml", g.vocab()).unwrap();
        let r = PropagationRanker::default();
        let baseline = r.build_baseline(&g, &q).unwrap();
        let ml = g.vocab().id("ml").unwrap();
        let other = g.vocab().id("other").unwrap();
        let deltas = vec![
            Perturbation::AddEdge {
                a: people[15],
                b: people[0],
            },
            Perturbation::RemoveEdge {
                a: people[1],
                b: people[2],
            },
            Perturbation::AddSkill {
                person: people[4],
                skill: ml,
            },
            Perturbation::RemoveSkill {
                person: people[3],
                skill: ml,
            },
            Perturbation::AddSkill {
                person: people[0],
                skill: other,
            },
        ];
        for d in deltas {
            let view = PerturbationSet::singleton(d).apply_to_graph(&g);
            for &p in &people {
                let inc = r.incremental_rank_of(&baseline, &view, &q, p);
                assert_eq!(inc, Some(r.rank_of(&view, &q, p)), "delta {d:?} person {p}");
            }
        }
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
