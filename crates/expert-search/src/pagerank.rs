//! Personalized-PageRank expert ranking (random-walk relevance propagation).

use crate::ranker::{smoothed_idf, ExpertRanker};
use crate::RankedList;
use exes_graph::{GraphView, PersonId, Query};

/// Personalized PageRank seeded by query–skill match.
///
/// The restart (personalisation) distribution puts mass on people in proportion
/// to their IDF-weighted query match; the walk then diffuses that mass over the
/// collaboration network, so well-connected people near many query-matching
/// experts rank highly even with partial skill overlap — the PageRank-flavoured
/// family the paper cites (reference \[8\] and footnote 1).
#[derive(Debug, Clone, Copy)]
pub struct PersonalizedPageRank {
    /// Damping factor (probability of following an edge rather than restarting).
    pub damping: f64,
    /// Number of power-iteration steps.
    pub iterations: usize,
    /// Weight of the direct (seed) component mixed back into the final score, so
    /// that holding the skills yourself always matters.
    pub seed_mix: f64,
}

impl Default for PersonalizedPageRank {
    fn default() -> Self {
        PersonalizedPageRank {
            damping: 0.85,
            iterations: 15,
            seed_mix: 0.5,
        }
    }
}

impl PersonalizedPageRank {
    fn seed_vector<G: GraphView + ?Sized>(&self, graph: &G, query: &Query) -> Vec<f64> {
        let idfs: Vec<(exes_graph::SkillId, f64)> = query
            .skills()
            .iter()
            .map(|&s| (s, smoothed_idf(graph, s)))
            .collect();
        let mut seeds: Vec<f64> = graph
            .people_ids()
            .map(|p| {
                idfs.iter()
                    .filter(|&&(s, _)| graph.person_has_skill(p, s))
                    .map(|&(_, idf)| idf)
                    .sum()
            })
            .collect();
        let total: f64 = seeds.iter().sum();
        if total > 0.0 {
            for s in &mut seeds {
                *s /= total;
            }
        } else {
            // Nobody matches: uniform restart.
            let n = seeds.len().max(1) as f64;
            for s in &mut seeds {
                *s = 1.0 / n;
            }
        }
        seeds
    }

    /// Runs the power iteration, returning the stationary scores.
    pub fn scores<G: GraphView + ?Sized>(&self, graph: &G, query: &Query) -> Vec<f64> {
        let n = graph.num_people();
        if n == 0 {
            return Vec::new();
        }
        let seeds = self.seed_vector(graph, query);
        let neighbor_lists: Vec<&[PersonId]> =
            graph.people_ids().map(|p| graph.neighbors(p)).collect();
        let mut rank = seeds.clone();
        let mut next = vec![0.0; n];
        for _ in 0..self.iterations {
            next.fill(0.0);
            let mut dangling = 0.0;
            for (i, ns) in neighbor_lists.iter().enumerate() {
                if ns.is_empty() {
                    dangling += rank[i];
                } else {
                    let share = rank[i] / ns.len() as f64;
                    for &nb in *ns {
                        next[nb.index()] += share;
                    }
                }
            }
            for i in 0..n {
                next[i] = (1.0 - self.damping) * seeds[i]
                    + self.damping * (next[i] + dangling * seeds[i]);
            }
            std::mem::swap(&mut rank, &mut next);
        }
        // Mix the seed (direct match) component back in.
        rank.iter()
            .zip(seeds.iter())
            .map(|(&r, &s)| r + self.seed_mix * s)
            .collect()
    }
}

impl ExpertRanker for PersonalizedPageRank {
    fn score<G: GraphView + ?Sized>(&self, graph: &G, query: &Query, person: PersonId) -> f64 {
        self.scores(graph, query)[person.index()]
    }

    fn name(&self) -> &'static str {
        "personalized-pagerank"
    }

    fn hash_params(&self, state: &mut dyn std::hash::Hasher) {
        state.write_u64(self.damping.to_bits());
        state.write_usize(self.iterations);
        state.write_u64(self.seed_mix.to_bits());
    }

    /// Skills reach the walk only through `seed_vector`: query term
    /// membership and the query terms' IDFs.
    fn observes_non_query_skills(&self) -> bool {
        false
    }

    fn rank_all<G: GraphView + ?Sized>(&self, graph: &G, query: &Query) -> RankedList {
        let scores = self.scores(graph, query);
        RankedList::from_scores(
            scores
                .into_iter()
                .enumerate()
                .map(|(i, s)| (PersonId::from_index(i), s))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exes_graph::{CollabGraph, CollabGraphBuilder, Perturbation, PerturbationSet};

    fn toy() -> CollabGraph {
        let mut b = CollabGraphBuilder::new();
        let expert = b.add_person("expert", ["ml", "graph"]);
        let friend = b.add_person("friend", ["db"]);
        let far = b.add_person("far", ["db"]);
        let isolated = b.add_person("isolated", ["db"]);
        b.add_edge(expert, friend);
        b.add_edge(friend, far);
        let _ = isolated;
        b.build()
    }

    #[test]
    fn scores_form_a_rough_probability_mass() {
        let g = toy();
        let q = Query::parse("ml", g.vocab()).unwrap();
        let ppr = PersonalizedPageRank::default();
        let scores = ppr.scores(&g, &q);
        assert_eq!(scores.len(), 4);
        assert!(scores.iter().all(|&s| s >= 0.0));
        let sum: f64 = scores.iter().sum();
        // rank sums to ~1 plus the seed_mix * 1 extra mass.
        assert!((sum - (1.0 + ppr.seed_mix)).abs() < 0.05, "sum {sum}");
    }

    #[test]
    fn expert_ranks_first_and_proximity_matters() {
        let g = toy();
        let q = Query::parse("ml graph", g.vocab()).unwrap();
        let ppr = PersonalizedPageRank::default();
        let list = ppr.rank_all(&g, &q);
        assert_eq!(list.rank_of(PersonId(0)), Some(1));
        // Friend (1 hop) outranks far (2 hops) outranks isolated.
        assert!(list.rank_of(PersonId(1)) < list.rank_of(PersonId(2)));
        assert!(list.rank_of(PersonId(2)) < list.rank_of(PersonId(3)));
    }

    #[test]
    fn no_match_falls_back_to_uniform_restart() {
        let g = toy();
        let q = Query::parse("ml", g.vocab()).unwrap();
        // Remove the only holder's skill: nobody matches.
        let ml = g.vocab().id("ml").unwrap();
        let delta = PerturbationSet::singleton(Perturbation::RemoveSkill {
            person: PersonId(0),
            skill: ml,
        });
        let view = delta.apply_to_graph(&g);
        let ppr = PersonalizedPageRank::default();
        let scores = ppr.scores(&view, &q);
        assert!(scores.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn adding_an_edge_to_the_expert_improves_rank() {
        let g = toy();
        let q = Query::parse("ml graph", g.vocab()).unwrap();
        let ppr = PersonalizedPageRank::default();
        let before = ppr.rank_of(&g, &q, PersonId(3));
        let delta = PerturbationSet::singleton(Perturbation::AddEdge {
            a: PersonId(3),
            b: PersonId(0),
        });
        let view = delta.apply_to_graph(&g);
        let after = ppr.rank_of(&view, &q, PersonId(3));
        assert!(after < before, "rank should improve: {before} -> {after}");
    }

    #[test]
    fn empty_graph_yields_empty_scores() {
        let g = CollabGraphBuilder::new().build();
        let mut vb = CollabGraphBuilder::new();
        vb.add_person("x", ["ml"]);
        let with_vocab = vb.build();
        let q = Query::parse("ml", with_vocab.vocab()).unwrap();
        let ppr = PersonalizedPageRank::default();
        assert!(ppr.scores(&g, &q).is_empty());
    }
}
