//! The team-formation interface explained by ExES.

use crate::Team;
use exes_expert_search::RankerBaseline;
use exes_graph::{CollabGraph, GraphView, PersonId, PerturbedGraph, Query};

/// Memoized per-(snapshot, query) state that lets a [`TeamFormer`] answer
/// membership probes on perturbed views without forming the team from a
/// full ranking of the view ([`TeamFormer::incremental_is_member`]).
///
/// Built by [`TeamFormer::build_baseline`]; opaque outside this crate and
/// shareable across threads. For [`crate::GreedyCoverTeamFormer`] it is the
/// wrapped ranker's [`RankerBaseline`].
#[derive(Debug, Clone)]
pub struct TeamBaseline {
    pub(crate) ranking: RankerBaseline,
}

/// A team-formation system `F` to be explained.
///
/// Like [`exes_expert_search::ExpertRanker`], implementations must be pure
/// functions of the graph view, query and seed, so that perturbation probes are
/// meaningful.
pub trait TeamFormer {
    /// Forms a team for `query` on `graph`, optionally around a required seed
    /// (main member). Returns an empty team when no useful team exists.
    fn form_team<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        query: &Query,
        seed: Option<PersonId>,
    ) -> Team;

    /// Short model name used in experiment output.
    fn name(&self) -> &'static str;

    /// Feeds every decision-relevant tunable parameter into `state`.
    ///
    /// Together with [`TeamFormer::name`] this forms the former's identity in
    /// cache keys (ExES memoises black-box probes per model configuration).
    /// The default feeds nothing, which is correct only for parameterless
    /// formers; implementations with tunables — including a wrapped ranker's
    /// parameters — must override it.
    fn hash_params(&self, state: &mut dyn std::hash::Hasher) {
        let _ = state;
    }

    /// The binary membership status `M_{p_i}(q, G)`: is `person` on the team?
    fn is_member<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        query: &Query,
        seed: Option<PersonId>,
        person: PersonId,
    ) -> bool {
        self.form_team(graph, query, seed).contains(person)
    }

    /// Builds the per-(snapshot, query) baseline that lets this former answer
    /// membership probes through [`TeamFormer::incremental_is_member`].
    ///
    /// The default returns `None`: the former has no planned path and every
    /// probe forms the team on the perturbed view.
    fn build_baseline(&self, graph: &CollabGraph, query: &Query) -> Option<TeamBaseline> {
        let _ = (graph, query);
        None
    }

    /// Membership of `person` on the perturbed `view`, answered from a
    /// [`TeamBaseline`] built on the view's base graph.
    ///
    /// Returns `None` whenever the planned path cannot answer exactly — a
    /// perturbed query, a delta that moves too much of the ranking, or no
    /// planned path at all. Callers must treat `None` as "form the team on
    /// the view", never as an error. Where it answers, the answer must equal
    /// [`TeamFormer::is_member`] on the view.
    fn incremental_is_member(
        &self,
        baseline: &TeamBaseline,
        view: &PerturbedGraph<'_>,
        query: &Query,
        seed: Option<PersonId>,
        person: PersonId,
    ) -> Option<bool> {
        let _ = (baseline, view, query, seed, person);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exes_graph::CollabGraphBuilder;

    /// A trivial former that always returns the seed alone.
    struct SeedOnly;

    impl TeamFormer for SeedOnly {
        fn form_team<G: GraphView + ?Sized>(
            &self,
            _graph: &G,
            _query: &Query,
            seed: Option<PersonId>,
        ) -> Team {
            match seed {
                Some(s) => Team::new(vec![s], Some(s)),
                None => Team::empty(),
            }
        }
        fn name(&self) -> &'static str {
            "seed-only"
        }
    }

    #[test]
    fn default_is_member_delegates_to_form_team() {
        let mut b = CollabGraphBuilder::new();
        let a = b.add_person("a", ["x"]);
        let c = b.add_person("c", ["x"]);
        let g = b.build();
        let q = Query::parse("x", g.vocab()).unwrap();
        assert!(SeedOnly.is_member(&g, &q, Some(a), a));
        assert!(!SeedOnly.is_member(&g, &q, Some(a), c));
        assert!(!SeedOnly.is_member(&g, &q, None, a));
    }
}
