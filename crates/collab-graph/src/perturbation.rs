//! Feature perturbations: the atomic edits ExES explores when explaining.

use crate::{CollabGraph, PersonId, PerturbedGraph, Query, SkillId};
use std::borrow::Cow;

/// An atomic edit to the input of an expert-search / team-formation system.
///
/// Counterfactual explanations are sets of these ([`PerturbationSet`]); factual
/// explanations score the *features* these edits act on.
///
/// The derived [`Ord`] (variant order first, then field order within a variant)
/// is the **canonical order** used wherever a perturbation set must act as a
/// set-valued key: beam-search deduplication and the probe memo cache both sort
/// by it, so two sets holding the same edits in different insertion orders
/// compare and hash identically after canonicalisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Perturbation {
    /// Give `person` a new `skill` label.
    AddSkill {
        /// Person receiving the skill.
        person: PersonId,
        /// Skill being added.
        skill: SkillId,
    },
    /// Remove an existing `skill` label from `person`.
    RemoveSkill {
        /// Person losing the skill.
        person: PersonId,
        /// Skill being removed.
        skill: SkillId,
    },
    /// Add a collaboration edge between `a` and `b`.
    AddEdge {
        /// First endpoint.
        a: PersonId,
        /// Second endpoint.
        b: PersonId,
    },
    /// Remove the collaboration edge between `a` and `b`.
    RemoveEdge {
        /// First endpoint.
        a: PersonId,
        /// Second endpoint.
        b: PersonId,
    },
    /// Add a keyword to the query.
    AddQueryTerm {
        /// Skill keyword appended to the query.
        skill: SkillId,
    },
    /// Remove a keyword from the query.
    RemoveQueryTerm {
        /// Skill keyword dropped from the query.
        skill: SkillId,
    },
}

impl Perturbation {
    /// True for perturbations that edit the query rather than the graph.
    pub fn is_query_perturbation(&self) -> bool {
        matches!(
            self,
            Perturbation::AddQueryTerm { .. } | Perturbation::RemoveQueryTerm { .. }
        )
    }

    /// True for perturbations that edit skills (node labels).
    pub fn is_skill_perturbation(&self) -> bool {
        matches!(
            self,
            Perturbation::AddSkill { .. } | Perturbation::RemoveSkill { .. }
        )
    }

    /// True for perturbations that edit collaboration edges.
    pub fn is_edge_perturbation(&self) -> bool {
        matches!(
            self,
            Perturbation::AddEdge { .. } | Perturbation::RemoveEdge { .. }
        )
    }

    /// Human-readable description, e.g. for case-study output.
    pub fn describe(&self, graph: &CollabGraph) -> String {
        let vocab = graph.vocab();
        let skill_name = |s: SkillId| vocab.name(s).unwrap_or("<unknown skill>").to_string();
        let person_name = |p: PersonId| {
            if p.index() < graph.num_people_internal() {
                graph.person_name(p).to_string()
            } else {
                format!("{p}")
            }
        };
        match *self {
            Perturbation::AddSkill { person, skill } => {
                format!(
                    "add skill '{}' to {}",
                    skill_name(skill),
                    person_name(person)
                )
            }
            Perturbation::RemoveSkill { person, skill } => {
                format!(
                    "remove skill '{}' from {}",
                    skill_name(skill),
                    person_name(person)
                )
            }
            Perturbation::AddEdge { a, b } => {
                format!(
                    "add collaboration between {} and {}",
                    person_name(a),
                    person_name(b)
                )
            }
            Perturbation::RemoveEdge { a, b } => {
                format!(
                    "remove collaboration between {} and {}",
                    person_name(a),
                    person_name(b)
                )
            }
            Perturbation::AddQueryTerm { skill } => {
                format!("add '{}' to the query", skill_name(skill))
            }
            Perturbation::RemoveQueryTerm { skill } => {
                format!("remove '{}' from the query", skill_name(skill))
            }
        }
    }
}

impl CollabGraph {
    pub(crate) fn num_people_internal(&self) -> usize {
        self.names.len()
    }
}

/// An ordered set of perturbations (a candidate counterfactual explanation).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct PerturbationSet {
    items: Vec<Perturbation>,
}

impl PerturbationSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set holding a single perturbation.
    pub fn singleton(p: Perturbation) -> Self {
        PerturbationSet { items: vec![p] }
    }

    /// Appends a perturbation if it is not already present. Returns whether it
    /// was inserted.
    pub fn push(&mut self, p: Perturbation) -> bool {
        if self.items.contains(&p) {
            false
        } else {
            self.items.push(p);
            true
        }
    }

    /// Returns a new set with `p` appended (no-op clone when already present).
    pub fn with(&self, p: Perturbation) -> Self {
        let mut s = self.clone();
        s.push(p);
        s
    }

    /// Number of perturbations (the explanation *size* in the paper's tables).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no perturbations are present.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, p: &Perturbation) -> bool {
        self.items.contains(p)
    }

    /// True when `other` contains every perturbation of `self`.
    pub fn is_subset_of(&self, other: &PerturbationSet) -> bool {
        self.items.iter().all(|p| other.contains(p))
    }

    /// The canonical key of this set: its perturbations sorted by the derived
    /// [`Ord`] on [`Perturbation`].
    ///
    /// Two sets holding the same edits — regardless of insertion order —
    /// produce equal keys, which is what beam-search deduplication and the
    /// probe memo cache rely on.
    pub fn canonical_key(&self) -> Vec<Perturbation> {
        let mut key = self.items.clone();
        key.sort_unstable();
        key
    }

    /// The edits of this set that a model reading skills only through
    /// `query`'s terms (who holds a term, and how many do) can observe:
    /// every edge edit and every edit to a query skill. A set that edits the
    /// query is returned whole, since an added or removed term changes which
    /// skills such a model reads. Borrows `self` when nothing is dropped.
    pub fn query_visible(&self, query: &Query) -> Cow<'_, PerturbationSet> {
        let visible = |p: &Perturbation| match *p {
            Perturbation::AddSkill { skill, .. } | Perturbation::RemoveSkill { skill, .. } => {
                query.contains(skill)
            }
            _ => true,
        };
        if self.items.iter().any(Perturbation::is_query_perturbation)
            || self.items.iter().all(visible)
        {
            Cow::Borrowed(self)
        } else {
            Cow::Owned(PerturbationSet {
                items: self.items.iter().copied().filter(visible).collect(),
            })
        }
    }

    /// Iterates over the perturbations in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Perturbation> {
        self.items.iter()
    }

    /// Applies the graph-side edits, producing a cheap overlay view.
    pub fn apply_to_graph<'a>(&self, base: &'a CollabGraph) -> PerturbedGraph<'a> {
        PerturbedGraph::new(base, self)
    }

    /// Applies the query-side edits, producing the perturbed query.
    pub fn apply_to_query(&self, query: &Query) -> Query {
        let mut q = query.clone();
        for p in &self.items {
            match *p {
                Perturbation::AddQueryTerm { skill } => q = q.with_added(skill),
                Perturbation::RemoveQueryTerm { skill } => q = q.with_removed(skill),
                _ => {}
            }
        }
        q
    }

    /// Applies both graph- and query-side edits (line 10 of Algorithm 1).
    pub fn apply<'a>(&self, base: &'a CollabGraph, query: &Query) -> (PerturbedGraph<'a>, Query) {
        (self.apply_to_graph(base), self.apply_to_query(query))
    }

    /// Materialises the graph-side edits into a fully rebuilt [`CollabGraph`].
    ///
    /// Slow path used by tests and the exhaustive baselines to check that the
    /// overlay and a real rebuild agree; redundant edits are skipped.
    pub fn materialize(&self, base: &CollabGraph) -> CollabGraph {
        let mut g = base.clone();
        for p in &self.items {
            let next = match *p {
                Perturbation::AddSkill { person, skill } => g.with_skill_added(person, skill),
                Perturbation::RemoveSkill { person, skill } => g.with_skill_removed(person, skill),
                Perturbation::AddEdge { a, b } => g.with_edge_added(a, b),
                Perturbation::RemoveEdge { a, b } => g.with_edge_removed(a, b),
                Perturbation::AddQueryTerm { .. } | Perturbation::RemoveQueryTerm { .. } => {
                    continue
                }
            };
            if let Ok(next) = next {
                g = next;
            }
        }
        g
    }

    /// Human-readable multi-line description.
    pub fn describe(&self, graph: &CollabGraph) -> String {
        self.items
            .iter()
            .map(|p| p.describe(graph))
            .collect::<Vec<_>>()
            .join("; ")
    }
}

impl FromIterator<Perturbation> for PerturbationSet {
    fn from_iter<T: IntoIterator<Item = Perturbation>>(iter: T) -> Self {
        let mut s = PerturbationSet::new();
        for p in iter {
            s.push(p);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollabGraphBuilder, GraphView};

    fn toy() -> CollabGraph {
        let mut b = CollabGraphBuilder::new();
        let p0 = b.add_person("Ada", ["db", "ml"]);
        let p1 = b.add_person("Bo", ["ml"]);
        let p2 = b.add_person("Cy", ["vision"]);
        b.add_edge(p0, p1);
        b.add_edge(p1, p2);
        b.build()
    }

    #[test]
    fn push_deduplicates() {
        let g = toy();
        let ml = g.vocab().id("ml").unwrap();
        let p = Perturbation::RemoveSkill {
            person: PersonId(0),
            skill: ml,
        };
        let mut set = PerturbationSet::new();
        assert!(set.push(p));
        assert!(!set.push(p));
        assert_eq!(set.len(), 1);
        assert_eq!(set.with(p).len(), 1);
    }

    #[test]
    fn classification_helpers() {
        let p = Perturbation::AddQueryTerm { skill: SkillId(0) };
        assert!(p.is_query_perturbation());
        assert!(!p.is_skill_perturbation());
        let q = Perturbation::AddSkill {
            person: PersonId(0),
            skill: SkillId(0),
        };
        assert!(q.is_skill_perturbation());
        let e = Perturbation::RemoveEdge {
            a: PersonId(0),
            b: PersonId(1),
        };
        assert!(e.is_edge_perturbation());
    }

    #[test]
    fn apply_to_query_handles_add_and_remove() {
        let g = toy();
        let q = Query::parse("ml", g.vocab()).unwrap();
        let db = g.vocab().id("db").unwrap();
        let ml = g.vocab().id("ml").unwrap();
        let set: PerturbationSet = [
            Perturbation::AddQueryTerm { skill: db },
            Perturbation::RemoveQueryTerm { skill: ml },
        ]
        .into_iter()
        .collect();
        let q2 = set.apply_to_query(&q);
        assert!(q2.contains(db));
        assert!(!q2.contains(ml));
    }

    #[test]
    fn overlay_agrees_with_materialized_graph() {
        let g = toy();
        let vision = g.vocab().id("vision").unwrap();
        let set: PerturbationSet = [
            Perturbation::AddSkill {
                person: PersonId(0),
                skill: vision,
            },
            Perturbation::AddEdge {
                a: PersonId(0),
                b: PersonId(2),
            },
            Perturbation::RemoveEdge {
                a: PersonId(1),
                b: PersonId(2),
            },
        ]
        .into_iter()
        .collect();
        let overlay = set.apply_to_graph(&g);
        let rebuilt = set.materialize(&g);
        assert_eq!(overlay.num_edges(), rebuilt.num_edges());
        for p in g.people() {
            assert_eq!(overlay.person_skills(p), rebuilt.person_skills(p));
            assert_eq!(overlay.neighbors(p), rebuilt.neighbors(p));
        }
    }

    #[test]
    fn describe_mentions_names() {
        let g = toy();
        let ml = g.vocab().id("ml").unwrap();
        let set: PerturbationSet = [
            Perturbation::RemoveSkill {
                person: PersonId(0),
                skill: ml,
            },
            Perturbation::AddEdge {
                a: PersonId(0),
                b: PersonId(2),
            },
        ]
        .into_iter()
        .collect();
        let text = set.describe(&g);
        assert!(text.contains("Ada"));
        assert!(text.contains("Cy"));
        assert!(text.contains("ml"));
    }

    #[test]
    fn canonical_key_is_insertion_order_independent() {
        // Every permutation of the same edits yields the same canonical key.
        let edits = [
            Perturbation::RemoveSkill {
                person: PersonId(1),
                skill: SkillId(2),
            },
            Perturbation::AddQueryTerm { skill: SkillId(0) },
            Perturbation::AddEdge {
                a: PersonId(0),
                b: PersonId(3),
            },
            Perturbation::AddSkill {
                person: PersonId(2),
                skill: SkillId(1),
            },
        ];
        let reference: PerturbationSet = edits.into_iter().collect();
        let reference_key = reference.canonical_key();
        // Walk a handful of distinct permutations deterministically.
        let permutations: [[usize; 4]; 5] = [
            [3, 2, 1, 0],
            [1, 0, 3, 2],
            [2, 3, 0, 1],
            [0, 2, 1, 3],
            [1, 3, 0, 2],
        ];
        for perm in permutations {
            let shuffled: PerturbationSet = perm.into_iter().map(|i| edits[i]).collect();
            assert_eq!(shuffled.canonical_key(), reference_key, "perm {perm:?}");
            assert_ne!(
                shuffled.iter().copied().collect::<Vec<_>>(),
                reference_key,
                "permutation {perm:?} should differ in insertion order"
            );
        }
    }

    #[test]
    fn perturbation_order_is_total_and_by_variant() {
        let skill = Perturbation::AddSkill {
            person: PersonId(9),
            skill: SkillId(9),
        };
        let removal = Perturbation::RemoveSkill {
            person: PersonId(0),
            skill: SkillId(0),
        };
        let query = Perturbation::AddQueryTerm { skill: SkillId(0) };
        // Variant order dominates field values.
        assert!(skill < removal);
        assert!(removal < query);
        // Within a variant, fields order lexicographically.
        let a = Perturbation::AddEdge {
            a: PersonId(1),
            b: PersonId(2),
        };
        let b = Perturbation::AddEdge {
            a: PersonId(1),
            b: PersonId(3),
        };
        assert!(a < b);
    }

    #[test]
    fn query_visible_drops_only_non_query_skill_edits() {
        let g = toy();
        let q = Query::parse("ml", g.vocab()).unwrap();
        let (db, ml) = (g.vocab().id("db").unwrap(), g.vocab().id("ml").unwrap());
        let query_skill = Perturbation::RemoveSkill {
            person: PersonId(0),
            skill: ml,
        };
        let other_skill = Perturbation::RemoveSkill {
            person: PersonId(0),
            skill: db,
        };
        let edge = Perturbation::AddEdge {
            a: PersonId(0),
            b: PersonId(2),
        };
        let mixed: PerturbationSet = [other_skill, query_skill, edge].into_iter().collect();
        let visible = mixed.query_visible(&q);
        assert!(matches!(visible, Cow::Owned(_)));
        assert_eq!(
            visible.iter().copied().collect::<Vec<_>>(),
            [query_skill, edge]
        );
        // Nothing to drop: the set itself, borrowed.
        let kept: PerturbationSet = [query_skill, edge].into_iter().collect();
        assert!(matches!(kept.query_visible(&q), Cow::Borrowed(_)));
        // A set that edits the query is never narrowed: the added term makes
        // its skill edit visible.
        let requeried = mixed.with(Perturbation::AddQueryTerm { skill: db });
        assert!(matches!(requeried.query_visible(&q), Cow::Borrowed(_)));
    }

    #[test]
    fn subset_relation() {
        let a: PerturbationSet = [Perturbation::AddQueryTerm { skill: SkillId(1) }]
            .into_iter()
            .collect();
        let b: PerturbationSet = [
            Perturbation::AddQueryTerm { skill: SkillId(1) },
            Perturbation::AddQueryTerm { skill: SkillId(2) },
        ]
        .into_iter()
        .collect();
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(PerturbationSet::new().is_subset_of(&a));
    }
}
