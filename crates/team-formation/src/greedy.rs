//! Greedy seed-expansion team formation (the paper's evaluated method).

use crate::{Team, TeamBaseline, TeamFormer};
use exes_expert_search::ExpertRanker;
use exes_graph::{CollabGraph, GraphView, PersonId, PerturbedGraph, Query, SkillId};

/// Builds a team around a main member by greedily recruiting, at each step, the
/// candidate who covers the most still-uncovered query skills.
///
/// Candidates are drawn from the current team's collaborators first (keeping the
/// team connected); if no collaborator adds coverage the search widens to the
/// whole graph so that rare skills can still be covered. Ties are broken by the
/// underlying ranker's score for the query and then by person id, which keeps
/// the procedure deterministic — a requirement for meaningful perturbation
/// probes.
///
/// Over a ranker that hands out rescored scores
/// ([`ExpertRanker::incremental_scores`], e.g. TF-IDF), the former plans:
/// [`TeamFormer::incremental_is_member`] runs the same loop with the seed and
/// the score tie-breaks read off the ranker's baseline patched by the delta,
/// instead of ranking the perturbed graph.
#[derive(Debug, Clone)]
pub struct GreedyCoverTeamFormer<R> {
    ranker: R,
    /// Hard cap on team size (guards against uncoverable queries).
    pub max_team_size: usize,
}

impl<R> GreedyCoverTeamFormer<R> {
    /// Creates a former around the given expert ranker.
    pub fn new(ranker: R) -> Self {
        GreedyCoverTeamFormer {
            ranker,
            max_team_size: 10,
        }
    }

    /// Sets the maximum team size.
    pub fn with_max_team_size(mut self, max: usize) -> Self {
        assert!(max >= 1, "team size cap must be at least 1");
        self.max_team_size = max;
        self
    }
}

fn uncovered<G: GraphView + ?Sized>(
    graph: &G,
    query: &Query,
    members: &[PersonId],
) -> Vec<SkillId> {
    query
        .skills()
        .iter()
        .copied()
        .filter(|&s| !members.iter().any(|&m| graph.person_has_skill(m, s)))
        .collect()
}

fn coverage_gain<G: GraphView + ?Sized>(
    graph: &G,
    missing: &[SkillId],
    candidate: PersonId,
) -> usize {
    missing
        .iter()
        .filter(|&&s| graph.person_has_skill(candidate, s))
        .count()
}

/// The pool member covering the most `missing` skills, ties broken by the
/// higher `score` and then the lower id (`None` when nobody adds coverage).
/// The order is total over distinct people, so the pool's order is
/// irrelevant.
fn best_candidate<G: GraphView + ?Sized>(
    graph: &G,
    missing: &[SkillId],
    pool: impl Iterator<Item = PersonId>,
    score: &impl Fn(PersonId) -> f64,
) -> Option<PersonId> {
    pool.filter_map(|c| {
        let gain = coverage_gain(graph, missing, c);
        (gain > 0).then(|| (c, gain, score(c)))
    })
    .max_by(|a, b| a.1.cmp(&b.1).then(a.2.total_cmp(&b.2)).then(b.0.cmp(&a.0)))
    .map(|(c, _, _)| c)
}

impl<R: ExpertRanker> GreedyCoverTeamFormer<R> {
    /// The greedy loop: grows a team around `seed` until the query is
    /// covered or the size cap is hit, reading the ranker's scores through
    /// `score` — from a full ranking of `graph`, or patched baseline scores.
    /// When no collaborator adds coverage, the pool widens to `widen(missing)`:
    /// everyone, or just the holders of a missing skill, which picks the same
    /// candidate since nobody else adds coverage.
    fn grow<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        query: &Query,
        seed: PersonId,
        score: impl Fn(PersonId) -> f64,
        widen: impl Fn(&[SkillId]) -> Vec<PersonId>,
    ) -> Team {
        let mut members = vec![seed];
        let mut missing = uncovered(graph, query, &members);

        while !missing.is_empty() && members.len() < self.max_team_size {
            // Candidate pool: collaborators of current members, then wider.
            let mut frontier: Vec<PersonId> = members
                .iter()
                .flat_map(|&m| graph.neighbors(m).iter().copied())
                .filter(|n| !members.contains(n))
                .collect();
            frontier.sort_unstable();
            frontier.dedup();
            let next =
                best_candidate(graph, &missing, frontier.into_iter(), &score).or_else(|| {
                    let wider = widen(&missing).into_iter().filter(|p| !members.contains(p));
                    best_candidate(graph, &missing, wider, &score)
                });
            match next {
                Some(c) => {
                    members.push(c);
                    missing = uncovered(graph, query, &members);
                }
                None => break, // Nobody in the graph holds any missing skill.
            }
        }
        Team::new(members, Some(seed))
    }
}

impl<R: ExpertRanker> TeamFormer for GreedyCoverTeamFormer<R> {
    fn form_team<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        query: &Query,
        seed: Option<PersonId>,
    ) -> Team {
        if graph.num_people() == 0 {
            return Team::empty();
        }
        let ranking = self.ranker.rank_all(graph, query);
        let seed = match seed {
            Some(s) => s,
            None => match ranking.entries().first() {
                Some(&(p, _)) => p,
                None => return Team::empty(),
            },
        };
        self.grow(
            graph,
            query,
            seed,
            |c| ranking.score_of(c).unwrap_or(0.0),
            |_| graph.people_ids().collect(),
        )
    }

    /// The wrapped ranker's baseline, when the ranker can hand out rescored
    /// scores ([`ExpertRanker::incremental_scores`]). A ranker that declines
    /// even the empty delta never answers, so it gets no plan.
    fn build_baseline(&self, graph: &CollabGraph, query: &Query) -> Option<TeamBaseline> {
        let ranking = self.ranker.build_baseline(graph, query)?;
        self.ranker
            .incremental_scores(&ranking, &PerturbedGraph::identity(graph), query)?;
        Some(TeamBaseline { ranking })
    }

    /// Exact: the same greedy loop as [`TeamFormer::form_team`], with the
    /// seed and score tie-breaks read off the baseline patched by the
    /// ranker's rescored people. Declines whenever the ranker does.
    fn incremental_is_member(
        &self,
        baseline: &TeamBaseline,
        view: &PerturbedGraph<'_>,
        query: &Query,
        seed: Option<PersonId>,
        person: PersonId,
    ) -> Option<bool> {
        if view.num_people() == 0 {
            return Some(false); // An empty graph forms an empty team.
        }
        let ranking = &baseline.ranking;
        let changed = self.ranker.incremental_scores(ranking, view, query)?;
        let seed = seed.or_else(|| ranking.top_after(&changed))?;
        let team = self.grow(
            view,
            query,
            seed,
            |c| ranking.score_after(&changed, c),
            |missing| missing.iter().flat_map(|&s| view.holders_of(s)).collect(),
        );
        Some(team.contains(person))
    }

    fn name(&self) -> &'static str {
        "greedy-cover"
    }

    fn hash_params(&self, state: &mut dyn std::hash::Hasher) {
        state.write_usize(self.max_team_size);
        state.write(self.ranker.name().as_bytes());
        self.ranker.hash_params(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exes_expert_search::TfIdfRanker;
    use exes_graph::{CollabGraph, CollabGraphBuilder, Perturbation, PerturbationSet};

    /// seed(db) - a(ml) - b(vision); c(ml, vision) is NOT connected to the seed.
    fn toy() -> CollabGraph {
        let mut b = CollabGraphBuilder::new();
        let seed = b.add_person("seed", ["db"]);
        let a = b.add_person("a", ["ml"]);
        let v = b.add_person("b", ["vision"]);
        let _c = b.add_person("c", ["ml", "vision"]);
        b.add_edge(seed, a);
        b.add_edge(a, v);
        b.build()
    }

    fn former() -> GreedyCoverTeamFormer<TfIdfRanker> {
        GreedyCoverTeamFormer::new(TfIdfRanker::default())
    }

    #[test]
    fn team_covers_the_query_and_contains_the_seed() {
        let g = toy();
        let q = Query::parse("db ml vision", g.vocab()).unwrap();
        let team = former().form_team(&g, &q, Some(PersonId(0)));
        assert!(team.contains(PersonId(0)));
        assert!(team.covers(&g, &q));
        assert_eq!(team.seed(), Some(PersonId(0)));
    }

    #[test]
    fn connected_candidates_are_preferred() {
        let g = toy();
        let q = Query::parse("db ml", g.vocab()).unwrap();
        let team = former().form_team(&g, &q, Some(PersonId(0)));
        // Person 1 (direct collaborator with "ml") is preferred over person 3.
        assert!(team.contains(PersonId(1)));
        assert!(!team.contains(PersonId(3)));
    }

    #[test]
    fn without_a_seed_the_top_ranked_expert_is_used() {
        let g = toy();
        let q = Query::parse("ml vision", g.vocab()).unwrap();
        let team = former().form_team(&g, &q, None);
        // Person 3 holds both skills and is the TF-IDF top hit.
        assert_eq!(team.seed(), Some(PersonId(3)));
        assert!(team.covers(&g, &q));
    }

    #[test]
    fn uncoverable_skills_do_not_loop_forever() {
        let g = toy();
        let q = Query::parse("db quantumskill", g.vocab());
        // "quantumskill" is not in the vocabulary; parse drops it, so craft a
        // query with a valid but unheld skill instead.
        assert!(q.is_ok());
        let mut b = CollabGraphBuilder::new();
        b.intern_skill("unheld");
        let p = b.add_person("only", ["db"]);
        let g2 = b.build();
        let q2 = Query::parse("db unheld", g2.vocab()).unwrap();
        let team = former().form_team(&g2, &q2, Some(p));
        assert_eq!(team.members(), &[p]);
        assert!(!team.covers(&g2, &q2));
    }

    #[test]
    fn membership_reacts_to_skill_perturbations() {
        let g = toy();
        let q = Query::parse("db ml", g.vocab()).unwrap();
        let f = former();
        assert!(f.is_member(&g, &q, Some(PersonId(0)), PersonId(1)));
        // Remove person 1's "ml": they should drop off the team.
        let ml = g.vocab().id("ml").unwrap();
        let delta = PerturbationSet::singleton(Perturbation::RemoveSkill {
            person: PersonId(1),
            skill: ml,
        });
        let view = delta.apply_to_graph(&g);
        assert!(!f.is_member(&view, &q, Some(PersonId(0)), PersonId(1)));
    }

    #[test]
    fn membership_reacts_to_edge_perturbations() {
        let g = toy();
        let q = Query::parse("db vision", g.vocab()).unwrap();
        let f = former();
        // Initially "vision" is covered by person 2 (two hops away, still reachable
        // through the frontier after person 1 joins? person 1 adds no coverage so
        // the fallback picks person 2 or 3). Give person 3 a direct edge to the
        // seed and they become the natural pick.
        let delta = PerturbationSet::singleton(Perturbation::AddEdge {
            a: PersonId(0),
            b: PersonId(3),
        });
        let view = delta.apply_to_graph(&g);
        let team = f.form_team(&view, &q, Some(PersonId(0)));
        assert!(team.contains(PersonId(3)));
    }

    #[test]
    fn max_team_size_is_respected() {
        let g = toy();
        let q = Query::parse("db ml vision", g.vocab()).unwrap();
        let team = former()
            .with_max_team_size(1)
            .form_team(&g, &q, Some(PersonId(0)));
        assert_eq!(team.len(), 1);
    }

    #[test]
    fn planned_membership_matches_forming_the_team() {
        use exes_expert_search::GcnRanker;
        let g = toy();
        let q = Query::parse("db ml vision", g.vocab()).unwrap();
        let f = former();
        let baseline = f.build_baseline(&g, &q).expect("tf-idf plans");
        let (db, ml) = (g.vocab().id("db").unwrap(), g.vocab().id("ml").unwrap());
        let deltas = [
            PerturbationSet::new(),
            PerturbationSet::singleton(Perturbation::RemoveSkill {
                person: PersonId(1),
                skill: ml,
            }),
            PerturbationSet::singleton(Perturbation::AddSkill {
                person: PersonId(2),
                skill: db,
            }),
            PerturbationSet::singleton(Perturbation::RemoveEdge {
                a: PersonId(0),
                b: PersonId(1),
            }),
            PerturbationSet::singleton(Perturbation::AddEdge {
                a: PersonId(0),
                b: PersonId(3),
            }),
        ];
        for delta in &deltas {
            let view = delta.apply_to_graph(&g);
            for seed in [None, Some(PersonId(0)), Some(PersonId(2))] {
                for p in (0..4).map(PersonId) {
                    assert_eq!(
                        f.incremental_is_member(&baseline, &view, &q, seed, p),
                        Some(f.is_member(&view, &q, seed, p)),
                        "delta {delta:?} seed {seed:?} person {p}"
                    );
                }
            }
        }
        // A perturbed query declines; a ranker without rescored scores
        // gets no plan at all.
        let other = Query::parse("db ml", g.vocab()).unwrap();
        let view = PerturbationSet::new().apply_to_graph(&g);
        assert_eq!(
            f.incremental_is_member(&baseline, &view, &other, None, PersonId(0)),
            None
        );
        assert!(GreedyCoverTeamFormer::new(GcnRanker::default())
            .build_baseline(&g, &q)
            .is_none());
    }

    #[test]
    fn empty_graph_gives_empty_team() {
        let g = CollabGraphBuilder::new().build();
        let mut vb = CollabGraphBuilder::new();
        vb.add_person("x", ["db"]);
        let vg = vb.build();
        let q = Query::parse("db", vg.vocab()).unwrap();
        assert!(former().form_team(&g, &q, None).is_empty());
    }
}
