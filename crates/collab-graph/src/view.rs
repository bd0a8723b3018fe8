//! Read-only views over (possibly perturbed) collaboration networks.
//!
//! This is the probe hot path: every counterfactual candidate evaluation ranks
//! the whole graph through these accessors, so they must not allocate.
//! [`CollabGraph`] answers straight from its CSR arrays; [`PerturbedGraph`]
//! resolves its small sorted delta at *construction* time into per-person
//! patched rows, after which every accessor is a borrow too.

use crate::{CollabGraph, PersonId, PerturbationSet, Query, SkillId, SkillVocab};

/// Iterator over all person ids of a view, in ascending order.
#[derive(Debug, Clone)]
pub struct PersonIds {
    range: std::ops::Range<u32>,
}

impl PersonIds {
    /// Ids `0..n`.
    pub fn up_to(n: usize) -> Self {
        PersonIds {
            range: 0..u32::try_from(n).expect("person count exceeds u32::MAX"),
        }
    }
}

impl Iterator for PersonIds {
    type Item = PersonId;

    #[inline]
    fn next(&mut self) -> Option<PersonId> {
        self.range.next().map(PersonId)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for PersonIds {}

impl DoubleEndedIterator for PersonIds {
    fn next_back(&mut self) -> Option<PersonId> {
        self.range.next_back().map(PersonId)
    }
}

/// Iterator over the edges of a view: the base edge list (in storage order)
/// minus removed edges, followed by added edges (in canonical sorted order).
///
/// Yielding from borrowed slices keeps [`GraphView::edges`] allocation-free
/// for both the base graph and perturbed overlays.
#[derive(Debug, Clone)]
pub struct EdgesIter<'a> {
    base: std::slice::Iter<'a, (PersonId, PersonId)>,
    /// Sorted canonical keys of removed edges; empty for base graphs.
    removed: &'a [(u32, u32)],
    /// Sorted canonical keys of added edges; empty for base graphs.
    added: std::slice::Iter<'a, (u32, u32)>,
}

impl<'a> EdgesIter<'a> {
    /// Iterates a plain edge slice.
    pub fn base(edges: &'a [(PersonId, PersonId)]) -> Self {
        EdgesIter {
            base: edges.iter(),
            removed: &[],
            added: [].iter(),
        }
    }

    /// Iterates a base edge slice under a sorted add/remove delta.
    pub fn overlay(
        edges: &'a [(PersonId, PersonId)],
        removed: &'a [(u32, u32)],
        added: &'a [(u32, u32)],
    ) -> Self {
        EdgesIter {
            base: edges.iter(),
            removed,
            added: added.iter(),
        }
    }
}

impl Iterator for EdgesIter<'_> {
    type Item = (PersonId, PersonId);

    fn next(&mut self) -> Option<(PersonId, PersonId)> {
        for &(a, b) in self.base.by_ref() {
            if self.removed.is_empty()
                || self
                    .removed
                    .binary_search(&CollabGraph::edge_key(a, b))
                    .is_err()
            {
                return Some((a, b));
            }
        }
        self.added.next().map(|&(a, b)| (PersonId(a), PersonId(b)))
    }
}

/// A read-only view of a collaboration network.
///
/// Expert-search and team-formation systems are written against this trait so
/// that ExES can probe them with perturbed inputs ([`PerturbedGraph`]) without
/// copying the whole graph for each probe. All accessors on the hot path
/// return borrowed slices or iterators — implementations must not build a
/// fresh collection per call.
pub trait GraphView {
    /// Number of people `|P|`.
    fn num_people(&self) -> usize;

    /// Number of collaboration edges `|E|`.
    fn num_edges(&self) -> usize;

    /// The shared skill vocabulary.
    fn vocab(&self) -> &SkillVocab;

    /// Whether person `p` holds skill `s` in this view.
    fn person_has_skill(&self, p: PersonId, s: SkillId) -> bool;

    /// The skills of person `p` in this view (sorted ascending).
    fn person_skills(&self, p: PersonId) -> &[SkillId];

    /// The collaborators of person `p` in this view (sorted ascending).
    fn neighbors(&self, p: PersonId) -> &[PersonId];

    /// Degree of `p` in this view.
    fn degree(&self, p: PersonId) -> usize {
        self.neighbors(p).len()
    }

    /// Whether an edge exists between `a` and `b` in this view.
    fn has_edge(&self, a: PersonId, b: PersonId) -> bool;

    /// Iterator over the edges of the view, each undirected edge once with
    /// canonical endpoint order (`a < b`).
    fn edges(&self) -> EdgesIter<'_>;

    /// Iterator over all person ids.
    fn people_ids(&self) -> PersonIds {
        PersonIds::up_to(self.num_people())
    }

    /// Number of the query's keywords held by `p` in this view.
    fn query_match_count(&self, p: PersonId, query: &Query) -> usize {
        query
            .skills()
            .iter()
            .filter(|&&s| self.person_has_skill(p, s))
            .count()
    }
}

/// A thin delta overlay applying a [`PerturbationSet`] to a base graph.
///
/// Construction cost and memory are proportional to the number of
/// perturbations, not to the graph size: the delta is kept as four small
/// *sorted* add/remove key sets consulted on top of the base CSR arrays, plus
/// fully merged skill/neighbor rows for the handful of people the delta
/// touches. After construction every accessor is a borrow — probing thousands
/// of candidate perturbations allocates nothing per probe call.
#[derive(Debug, Clone)]
pub struct PerturbedGraph<'a> {
    base: &'a CollabGraph,
    /// Sorted `(person, skill)` additions.
    added_skills: Vec<(u32, u32)>,
    /// Sorted `(person, skill)` removals.
    removed_skills: Vec<(u32, u32)>,
    /// Sorted canonical `(a, b)` edge additions.
    added_edges: Vec<(u32, u32)>,
    /// Sorted canonical `(a, b)` edge removals.
    removed_edges: Vec<(u32, u32)>,
    /// Merged skill rows for people with skill deltas, sorted by person id.
    patched_skills: Vec<(u32, Vec<SkillId>)>,
    /// Merged adjacency rows for people with edge deltas, sorted by person id.
    patched_neighbors: Vec<(u32, Vec<PersonId>)>,
}

impl<'a> PerturbedGraph<'a> {
    /// Wraps `base` with an empty delta (behaves identically to `base`).
    pub fn identity(base: &'a CollabGraph) -> Self {
        PerturbedGraph {
            base,
            added_skills: Vec::new(),
            removed_skills: Vec::new(),
            added_edges: Vec::new(),
            removed_edges: Vec::new(),
            patched_skills: Vec::new(),
            patched_neighbors: Vec::new(),
        }
    }

    /// Wraps `base` applying the graph-side perturbations of `delta`.
    ///
    /// Query-side perturbations in `delta` are ignored here; apply them with
    /// [`PerturbationSet::apply_to_query`].
    pub fn new(base: &'a CollabGraph, delta: &PerturbationSet) -> Self {
        let mut view = PerturbedGraph::identity(base);
        for p in delta.iter() {
            view.apply(p);
        }
        view.finalize();
        view
    }

    /// The underlying unperturbed graph.
    pub fn base(&self) -> &'a CollabGraph {
        self.base
    }

    /// Everyone holding `skill` in the view, each once: the base holders the
    /// delta leaves it with (ascending), then the people the delta gives it.
    pub fn holders_of(&self, skill: SkillId) -> impl Iterator<Item = PersonId> + '_ {
        let kept = self
            .base
            .holders_of(skill)
            .iter()
            .copied()
            .filter(move |p| self.removed_skills.binary_search(&(p.0, skill.0)).is_err());
        let added = self
            .added_skills
            .iter()
            .filter(move |&&(_, s)| s == skill.0)
            .map(|&(p, _)| PersonId(p));
        kept.chain(added)
    }

    fn apply(&mut self, p: &crate::Perturbation) {
        use crate::Perturbation::*;
        match *p {
            AddSkill { person, skill } => {
                let key = (person.0, skill.0);
                if remove_key(&mut self.removed_skills, key) {
                    return;
                }
                if !self.base.person_has_skill(person, skill) {
                    insert_key(&mut self.added_skills, key);
                }
            }
            RemoveSkill { person, skill } => {
                let key = (person.0, skill.0);
                if remove_key(&mut self.added_skills, key) {
                    return;
                }
                if self.base.person_has_skill(person, skill) {
                    insert_key(&mut self.removed_skills, key);
                }
            }
            AddEdge { a, b } => {
                if a == b {
                    return;
                }
                let key = CollabGraph::edge_key(a, b);
                if remove_key(&mut self.removed_edges, key) {
                    return;
                }
                if !self.base.has_edge(a, b) {
                    insert_key(&mut self.added_edges, key);
                }
            }
            RemoveEdge { a, b } => {
                if a == b {
                    return;
                }
                let key = CollabGraph::edge_key(a, b);
                if remove_key(&mut self.added_edges, key) {
                    return;
                }
                if self.base.has_edge(a, b) {
                    insert_key(&mut self.removed_edges, key);
                }
            }
            AddQueryTerm { .. } | RemoveQueryTerm { .. } => {}
        }
    }

    /// Sorts the delta sets and materialises merged rows for every touched
    /// person. O(delta · log + Σ touched row lengths).
    fn finalize(&mut self) {
        self.added_skills.sort_unstable();
        self.removed_skills.sort_unstable();
        self.added_edges.sort_unstable();
        self.removed_edges.sort_unstable();

        // People whose skill rows change.
        let mut touched: Vec<u32> = self
            .added_skills
            .iter()
            .chain(self.removed_skills.iter())
            .map(|&(p, _)| p)
            .collect();
        touched.sort_unstable();
        touched.dedup();
        self.patched_skills = touched
            .into_iter()
            .map(|p| {
                let mut row: Vec<SkillId> = self
                    .base
                    .base_skills(PersonId(p))
                    .iter()
                    .copied()
                    .filter(|s| self.removed_skills.binary_search(&(p, s.0)).is_err())
                    .collect();
                row.extend(
                    self.added_skills
                        .iter()
                        .filter(|&&(person, _)| person == p)
                        .map(|&(_, s)| SkillId(s)),
                );
                row.sort_unstable();
                row.dedup();
                (p, row)
            })
            .collect();

        // People whose adjacency rows change.
        let mut touched: Vec<u32> = self
            .added_edges
            .iter()
            .chain(self.removed_edges.iter())
            .flat_map(|&(a, b)| [a, b])
            .collect();
        touched.sort_unstable();
        touched.dedup();
        self.patched_neighbors = touched
            .into_iter()
            .map(|p| {
                let pid = PersonId(p);
                let mut row: Vec<PersonId> = self
                    .base
                    .base_neighbors(pid)
                    .iter()
                    .copied()
                    .filter(|&n| {
                        self.removed_edges
                            .binary_search(&CollabGraph::edge_key(pid, n))
                            .is_err()
                    })
                    .collect();
                row.extend(self.added_edges.iter().filter_map(|&(a, b)| {
                    if a == p {
                        Some(PersonId(b))
                    } else if b == p {
                        Some(PersonId(a))
                    } else {
                        None
                    }
                }));
                row.sort_unstable();
                row.dedup();
                (p, row)
            })
            .collect();
    }

    /// Number of graph-side changes in this overlay.
    pub fn delta_size(&self) -> usize {
        self.added_skills.len()
            + self.removed_skills.len()
            + self.added_edges.len()
            + self.removed_edges.len()
    }

    /// Sorted `(person, skill)` pairs this overlay adds on top of the base.
    ///
    /// Every pair is effective: the base graph does not already have it, and
    /// no later perturbation cancelled it.
    pub fn skill_additions(&self) -> impl Iterator<Item = (PersonId, SkillId)> + '_ {
        self.added_skills
            .iter()
            .map(|&(p, s)| (PersonId(p), SkillId(s)))
    }

    /// Sorted `(person, skill)` pairs this overlay removes from the base.
    pub fn skill_removals(&self) -> impl Iterator<Item = (PersonId, SkillId)> + '_ {
        self.removed_skills
            .iter()
            .map(|&(p, s)| (PersonId(p), SkillId(s)))
    }

    /// Sorted canonical `(a, b)` edges this overlay adds on top of the base.
    pub fn edge_additions(&self) -> impl Iterator<Item = (PersonId, PersonId)> + '_ {
        self.added_edges
            .iter()
            .map(|&(a, b)| (PersonId(a), PersonId(b)))
    }

    /// Sorted canonical `(a, b)` edges this overlay removes from the base.
    pub fn edge_removals(&self) -> impl Iterator<Item = (PersonId, PersonId)> + '_ {
        self.removed_edges
            .iter()
            .map(|&(a, b)| (PersonId(a), PersonId(b)))
    }
}

/// Inserts into a small sorted-on-finalize key vector, ignoring duplicates.
fn insert_key(keys: &mut Vec<(u32, u32)>, key: (u32, u32)) {
    if !keys.contains(&key) {
        keys.push(key);
    }
}

/// Removes a key if present, reporting whether it was.
fn remove_key(keys: &mut Vec<(u32, u32)>, key: (u32, u32)) -> bool {
    if let Some(pos) = keys.iter().position(|&k| k == key) {
        keys.swap_remove(pos);
        true
    } else {
        false
    }
}

impl GraphView for PerturbedGraph<'_> {
    fn num_people(&self) -> usize {
        self.base.num_people()
    }

    fn num_edges(&self) -> usize {
        self.base.num_edges() + self.added_edges.len() - self.removed_edges.len()
    }

    fn vocab(&self) -> &SkillVocab {
        self.base.vocab()
    }

    fn person_has_skill(&self, p: PersonId, s: SkillId) -> bool {
        let key = (p.0, s.0);
        if self.removed_skills.binary_search(&key).is_ok() {
            return false;
        }
        if self.added_skills.binary_search(&key).is_ok() {
            return true;
        }
        self.base.person_has_skill(p, s)
    }

    fn person_skills(&self, p: PersonId) -> &[SkillId] {
        match self
            .patched_skills
            .binary_search_by_key(&p.0, |&(id, _)| id)
        {
            Ok(i) => &self.patched_skills[i].1,
            Err(_) => self.base.base_skills(p),
        }
    }

    fn neighbors(&self, p: PersonId) -> &[PersonId] {
        match self
            .patched_neighbors
            .binary_search_by_key(&p.0, |&(id, _)| id)
        {
            Ok(i) => &self.patched_neighbors[i].1,
            Err(_) => self.base.base_neighbors(p),
        }
    }

    fn has_edge(&self, a: PersonId, b: PersonId) -> bool {
        if a == b {
            return false;
        }
        let key = CollabGraph::edge_key(a, b);
        if self.removed_edges.binary_search(&key).is_ok() {
            return false;
        }
        if self.added_edges.binary_search(&key).is_ok() {
            return true;
        }
        self.base.has_edge(a, b)
    }

    fn edges(&self) -> EdgesIter<'_> {
        EdgesIter::overlay(
            self.base.edge_list(),
            &self.removed_edges,
            &self.added_edges,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollabGraphBuilder, Perturbation};

    fn toy() -> CollabGraph {
        let mut b = CollabGraphBuilder::new();
        let p0 = b.add_person("p0", ["db", "ml"]);
        let p1 = b.add_person("p1", ["ml"]);
        let p2 = b.add_person("p2", ["vision"]);
        b.add_edge(p0, p1);
        b.add_edge(p1, p2);
        b.build()
    }

    #[test]
    fn identity_overlay_matches_base() {
        let g = toy();
        let v = PerturbedGraph::identity(&g);
        assert_eq!(v.num_people(), g.num_people());
        assert_eq!(v.num_edges(), g.num_edges());
        assert_eq!(
            v.edges().collect::<Vec<_>>(),
            GraphView::edges(&g).collect::<Vec<_>>()
        );
        for p in g.people() {
            assert_eq!(v.person_skills(p), g.person_skills(p));
            assert_eq!(v.neighbors(p), g.neighbors(p));
        }
    }

    #[test]
    fn skill_add_and_remove_overlay() {
        let g = toy();
        let vision = g.vocab().id("vision").unwrap();
        let ml = g.vocab().id("ml").unwrap();
        let mut d = PerturbationSet::new();
        d.push(Perturbation::AddSkill {
            person: PersonId(0),
            skill: vision,
        });
        d.push(Perturbation::RemoveSkill {
            person: PersonId(1),
            skill: ml,
        });
        let v = PerturbedGraph::new(&g, &d);
        assert!(v.person_has_skill(PersonId(0), vision));
        assert!(!v.person_has_skill(PersonId(1), ml));
        assert!(v.person_skills(PersonId(1)).is_empty());
        assert_eq!(v.person_skills(PersonId(0)).len(), 3);
        // Base graph is untouched.
        assert!(!g.person_has_skill(PersonId(0), vision));
        // Untouched people borrow straight from the base CSR.
        assert_eq!(v.person_skills(PersonId(2)), g.base_skills(PersonId(2)));
    }

    #[test]
    fn edge_add_and_remove_overlay() {
        let g = toy();
        let mut d = PerturbationSet::new();
        d.push(Perturbation::AddEdge {
            a: PersonId(0),
            b: PersonId(2),
        });
        d.push(Perturbation::RemoveEdge {
            a: PersonId(0),
            b: PersonId(1),
        });
        let v = PerturbedGraph::new(&g, &d);
        assert!(v.has_edge(PersonId(0), PersonId(2)));
        assert!(!v.has_edge(PersonId(0), PersonId(1)));
        assert_eq!(v.num_edges(), 2);
        assert_eq!(v.neighbors(PersonId(0)), &[PersonId(2)][..]);
        assert_eq!(v.neighbors(PersonId(2)), &[PersonId(0), PersonId(1)][..]);
        assert_eq!(v.edges().count(), 2);
        let mut collected: Vec<_> = v.edges().collect();
        collected.sort_unstable();
        assert_eq!(
            collected,
            vec![(PersonId(0), PersonId(2)), (PersonId(1), PersonId(2))]
        );
    }

    #[test]
    fn inverse_perturbations_cancel() {
        let g = toy();
        let mut d = PerturbationSet::new();
        d.push(Perturbation::AddEdge {
            a: PersonId(0),
            b: PersonId(2),
        });
        d.push(Perturbation::RemoveEdge {
            a: PersonId(2),
            b: PersonId(0),
        });
        let v = PerturbedGraph::new(&g, &d);
        assert!(!v.has_edge(PersonId(0), PersonId(2)));
        assert_eq!(v.num_edges(), g.num_edges());
        assert_eq!(v.delta_size(), 0);

        let ml = g.vocab().id("ml").unwrap();
        let mut d2 = PerturbationSet::new();
        d2.push(Perturbation::RemoveSkill {
            person: PersonId(0),
            skill: ml,
        });
        d2.push(Perturbation::AddSkill {
            person: PersonId(0),
            skill: ml,
        });
        let v2 = PerturbedGraph::new(&g, &d2);
        assert!(v2.person_has_skill(PersonId(0), ml));
        assert_eq!(v2.delta_size(), 0);
    }

    #[test]
    fn redundant_perturbations_are_no_ops() {
        let g = toy();
        let ml = g.vocab().id("ml").unwrap();
        let mut d = PerturbationSet::new();
        // Adding a skill the person already has, removing a missing edge.
        d.push(Perturbation::AddSkill {
            person: PersonId(0),
            skill: ml,
        });
        d.push(Perturbation::RemoveEdge {
            a: PersonId(0),
            b: PersonId(2),
        });
        d.push(Perturbation::AddEdge {
            a: PersonId(1),
            b: PersonId(1),
        });
        let v = PerturbedGraph::new(&g, &d);
        assert_eq!(v.delta_size(), 0);
        assert_eq!(v.num_edges(), g.num_edges());
    }

    #[test]
    fn query_match_count_reflects_overlay() {
        let g = toy();
        let q = Query::parse("ml vision", g.vocab()).unwrap();
        assert_eq!(g.query_match_count(PersonId(0), &q), 1);
        let vision = g.vocab().id("vision").unwrap();
        let mut d = PerturbationSet::new();
        d.push(Perturbation::AddSkill {
            person: PersonId(0),
            skill: vision,
        });
        let v = PerturbedGraph::new(&g, &d);
        assert_eq!(v.query_match_count(PersonId(0), &q), 2);
    }

    #[test]
    fn holders_follow_the_skill_delta() {
        let g = toy();
        let ml = g.vocab().id("ml").unwrap();
        let mut d = PerturbationSet::new();
        d.push(Perturbation::RemoveSkill {
            person: PersonId(0),
            skill: ml,
        });
        d.push(Perturbation::AddSkill {
            person: PersonId(2),
            skill: ml,
        });
        // Redundant: p1 already holds ml.
        d.push(Perturbation::AddSkill {
            person: PersonId(1),
            skill: ml,
        });
        let view = d.apply_to_graph(&g);
        let holders: Vec<PersonId> = view.holders_of(ml).collect();
        assert_eq!(holders, vec![PersonId(1), PersonId(2)]);
        for s in g.vocab().ids() {
            let mut holders: Vec<PersonId> = view.holders_of(s).collect();
            holders.sort_unstable();
            let scanned: Vec<PersonId> = view
                .people_ids()
                .filter(|&p| view.person_has_skill(p, s))
                .collect();
            assert_eq!(holders, scanned, "skill {s:?}");
        }
    }

    #[test]
    fn delta_introspection_reports_effective_changes_only() {
        let g = toy();
        let ml = g.vocab().id("ml").unwrap();
        let vision = g.vocab().id("vision").unwrap();
        let mut d = PerturbationSet::new();
        d.push(Perturbation::AddSkill {
            person: PersonId(0),
            skill: vision,
        });
        // Redundant: p0 already holds ml, so this must not surface.
        d.push(Perturbation::AddSkill {
            person: PersonId(0),
            skill: ml,
        });
        d.push(Perturbation::RemoveSkill {
            person: PersonId(1),
            skill: ml,
        });
        d.push(Perturbation::RemoveEdge {
            a: PersonId(1),
            b: PersonId(2),
        });
        let v = PerturbedGraph::new(&g, &d);
        assert_eq!(
            v.skill_additions().collect::<Vec<_>>(),
            vec![(PersonId(0), vision)]
        );
        assert_eq!(
            v.skill_removals().collect::<Vec<_>>(),
            vec![(PersonId(1), ml)]
        );
        assert_eq!(v.edge_additions().count(), 0);
        assert_eq!(
            v.edge_removals().collect::<Vec<_>>(),
            vec![(PersonId(1), PersonId(2))]
        );
    }

    #[test]
    fn person_ids_iterator_behaves_like_a_range() {
        let ids: Vec<PersonId> = PersonIds::up_to(3).collect();
        assert_eq!(ids, vec![PersonId(0), PersonId(1), PersonId(2)]);
        assert_eq!(PersonIds::up_to(5).len(), 5);
        assert_eq!(PersonIds::up_to(2).next_back(), Some(PersonId(1)));
        assert_eq!(PersonIds::up_to(0).count(), 0);
    }
}
