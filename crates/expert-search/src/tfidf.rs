//! Document-style TF-IDF expert ranking (the classic profile-centric baseline).

use crate::incremental::{
    affected_cap, corrected_rank, person_indexed_scores, skill_delta_effect, BaselineKind,
    RankerBaseline, TermStats,
};
use crate::ranker::{idf_from_count, orders_before, rank_order, smoothed_idf, ExpertRanker};
use exes_graph::{CollabGraph, GraphView, PersonId, PerturbedGraph, Query, SkillId};

/// Ranks experts by the IDF-weighted overlap between their own skills and the
/// query, with a mild length normalisation — a faithful stand-in for the
/// document-based / profile-centric systems in the paper's Table 1.
///
/// This ranker deliberately ignores the network, which makes it a useful
/// contrast case: ExES collaboration explanations over it should come out empty
/// or near-empty, and the tests assert exactly that further up the stack.
#[derive(Debug, Clone, Copy)]
pub struct TfIdfRanker {
    /// Exponent of the length normalisation (0 = none, 0.5 = BM25-ish dampening).
    pub length_norm: f64,
}

impl Default for TfIdfRanker {
    fn default() -> Self {
        TfIdfRanker { length_norm: 0.25 }
    }
}

impl TfIdfRanker {
    /// `p`'s score given each query term's IDF over `graph`.
    fn score_with<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        terms: &[SkillId],
        idfs: &[f64],
        p: PersonId,
    ) -> f64 {
        let mut score = 0.0;
        for (&s, &idf) in terms.iter().zip(idfs) {
            if graph.person_has_skill(p, s) {
                score += idf;
            }
        }
        self.length_normalised(graph, p, score)
    }

    /// `p`'s summed IDF `score` under the length normalisation.
    fn length_normalised<G: GraphView + ?Sized>(&self, graph: &G, p: PersonId, score: f64) -> f64 {
        if score > 0.0 {
            let len = graph.person_skills(p).len() as f64;
            score / (1.0 + len).powf(self.length_norm)
        } else {
            score
        }
    }
}

/// The IDF of each query term over `graph`, in query order.
fn query_idfs<G: GraphView + ?Sized>(graph: &G, query: &Query) -> Vec<f64> {
    query
        .skills()
        .iter()
        .map(|&s| smoothed_idf(graph, s))
        .collect()
}

impl ExpertRanker for TfIdfRanker {
    fn score<G: GraphView + ?Sized>(&self, graph: &G, query: &Query, person: PersonId) -> f64 {
        self.score_with(graph, query.skills(), &query_idfs(graph, query), person)
    }

    fn name(&self) -> &'static str {
        "tf-idf"
    }

    fn hash_params(&self, state: &mut dyn std::hash::Hasher) {
        state.write_u64(self.length_norm.to_bits());
    }

    /// One pass over people counts each query term's holders and records
    /// the terms each person holds; the IDFs follow from the counts, and the
    /// scores of the people holding a term from the IDFs, summed in query
    /// order as [`ExpertRanker::score`] sums them. Everyone else scores
    /// exactly `+0.0`. TF-IDF scores are never negative, so only the other
    /// scores are sorted, and the zero-score people, generated in id order,
    /// close the list where a full sort would put them.
    fn rank_all<G: GraphView + ?Sized>(&self, graph: &G, query: &Query) -> crate::RankedList {
        let terms = query.skills();
        let mut holders = vec![0usize; terms.len()];
        // The positions in `terms` of every held term, person by person, and
        // each term holder with the end of its positions.
        let mut held: Vec<usize> = Vec::new();
        let mut term_holders: Vec<(PersonId, usize)> = Vec::new();
        for p in graph.people_ids() {
            let before = held.len();
            for (t, &s) in terms.iter().enumerate() {
                if graph.person_has_skill(p, s) {
                    holders[t] += 1;
                    held.push(t);
                }
            }
            if held.len() > before {
                term_holders.push((p, held.len()));
            }
        }
        let n = graph.num_people();
        let idfs: Vec<f64> = holders.iter().map(|&h| idf_from_count(n, h)).collect();
        let mut ranked = Vec::with_capacity(term_holders.len());
        let mut zeros = Vec::with_capacity(n - term_holders.len());
        let (mut start, mut next_id) = (0, 0);
        for &(p, end) in &term_holders {
            zeros.extend((next_id..p.index()).map(|i| (PersonId::from_index(i), 0.0)));
            next_id = p.index() + 1;
            let mut score = 0.0;
            for &t in &held[start..end] {
                score += idfs[t];
            }
            start = end;
            let score = self.length_normalised(graph, p, score);
            if score.to_bits() == 0 {
                zeros.push((p, score));
            } else {
                ranked.push((p, score));
            }
        }
        zeros.extend((next_id..n).map(|i| (PersonId::from_index(i), 0.0)));
        ranked.sort_by(rank_order);
        ranked.extend(zeros);
        crate::RankedList::from_ranked(ranked)
    }

    /// Counts the people ordering before `person`: O(n), no sort.
    fn rank_of<G: GraphView + ?Sized>(&self, graph: &G, query: &Query, person: PersonId) -> usize {
        let idfs = query_idfs(graph, query);
        let key = (
            person,
            self.score_with(graph, query.skills(), &idfs, person),
        );
        1 + graph
            .people_ids()
            .filter(|&p| orders_before((p, self.score_with(graph, query.skills(), &idfs, p)), key))
            .count()
    }

    fn build_baseline(&self, graph: &CollabGraph, query: &Query) -> Option<RankerBaseline> {
        let ranked = self.rank_all(graph, query);
        let scores = person_indexed_scores(&ranked, graph.num_people());
        Some(RankerBaseline {
            query: query.skills().to_vec(),
            ranked,
            scores,
            kind: BaselineKind::TfIdf(TermStats::collect(graph, query)),
        })
    }

    fn incremental_rank_of(
        &self,
        baseline: &RankerBaseline,
        view: &PerturbedGraph<'_>,
        query: &Query,
        person: PersonId,
    ) -> Option<usize> {
        let changed = self.incremental_scores(baseline, view, query)?;
        Some(corrected_rank(baseline, person, &changed))
    }

    /// Exact: TF-IDF only reads a person's own skill row and the per-term
    /// holder counts, so rescoring the skill-delta people plus the holders of
    /// IDF-moved terms reproduces a full re-rank bitwise. Declines for a
    /// perturbed query, or when those people exceed half the graph.
    fn incremental_scores(
        &self,
        baseline: &RankerBaseline,
        view: &PerturbedGraph<'_>,
        query: &Query,
    ) -> Option<Vec<(PersonId, f64)>> {
        if query.skills() != baseline.query {
            return None;
        }
        let BaselineKind::TfIdf(stats) = &baseline.kind else {
            return None;
        };
        let effect = skill_delta_effect(&baseline.query, stats, view);
        if effect.affected.len() > affected_cap(view.num_people()) {
            return None;
        }
        Some(
            effect
                .affected
                .iter()
                .map(|&p| (p, self.score_with(view, &baseline.query, &effect.idfs, p)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exes_graph::{CollabGraph, CollabGraphBuilder};

    fn toy() -> CollabGraph {
        let mut b = CollabGraphBuilder::new();
        b.add_person("full-match", ["db", "xai"]);
        b.add_person("partial", ["db"]);
        b.add_person("none", ["vision"]);
        b.add_person(
            "diluted",
            ["db", "xai", "a", "b", "c", "d", "e", "f", "g", "h"],
        );
        b.build()
    }

    #[test]
    fn full_match_beats_partial_beats_none() {
        let g = toy();
        let q = Query::parse("db xai", g.vocab()).unwrap();
        let r = TfIdfRanker::default();
        let s_full = r.score(&g, &q, PersonId(0));
        let s_partial = r.score(&g, &q, PersonId(1));
        let s_none = r.score(&g, &q, PersonId(2));
        assert!(s_full > s_partial);
        assert!(s_partial > s_none);
        assert_eq!(s_none, 0.0);
    }

    #[test]
    fn length_normalisation_penalises_diluted_profiles() {
        let g = toy();
        let q = Query::parse("db xai", g.vocab()).unwrap();
        let r = TfIdfRanker::default();
        assert!(r.score(&g, &q, PersonId(0)) > r.score(&g, &q, PersonId(3)));
        // Without normalisation the two tie.
        let flat = TfIdfRanker { length_norm: 0.0 };
        assert!((flat.score(&g, &q, PersonId(0)) - flat.score(&g, &q, PersonId(3))).abs() < 1e-12);
    }

    #[test]
    fn rank_all_matches_per_person_scores() {
        let g = toy();
        let q = Query::parse("db xai", g.vocab()).unwrap();
        let r = TfIdfRanker::default();
        let list = r.rank_all(&g, &q);
        for &(p, s) in list.entries() {
            assert!((s - r.score(&g, &q, p)).abs() < 1e-12);
        }
        assert_eq!(list.rank_of(PersonId(0)), Some(1));
    }

    #[test]
    fn rare_query_terms_weigh_more() {
        let mut b = CollabGraphBuilder::new();
        b.add_person("rare-holder", ["rare"]);
        b.add_person("common-holder", ["common"]);
        for i in 0..8 {
            b.add_person(&format!("filler{i}"), ["common"]);
        }
        let g = b.build();
        let q = Query::parse("rare common", g.vocab()).unwrap();
        let r = TfIdfRanker { length_norm: 0.0 };
        assert!(r.score(&g, &q, PersonId(0)) > r.score(&g, &q, PersonId(1)));
    }

    #[test]
    fn incremental_rank_matches_full_rerank_exactly() {
        use exes_graph::{Perturbation, PerturbationSet};
        // The toy profiles plus filler people, so the affected set of an
        // IDF-moving delta stays under the n/2 localization cap.
        let mut b = CollabGraphBuilder::new();
        b.add_person("full-match", ["db", "xai"]);
        b.add_person("partial", ["db"]);
        b.add_person("none", ["vision"]);
        b.add_person(
            "diluted",
            ["db", "xai", "a", "b", "c", "d", "e", "f", "g", "h"],
        );
        for i in 0..8 {
            b.add_person(&format!("filler{i}"), ["filler"]);
        }
        let g = b.build();
        let q = Query::parse("db xai", g.vocab()).unwrap();
        let r = TfIdfRanker::default();
        let baseline = r.build_baseline(&g, &q).unwrap();
        let db = g.vocab().id("db").unwrap();
        let xai = g.vocab().id("xai").unwrap();
        let vision = g.vocab().id("vision").unwrap();
        let deltas = vec![
            Perturbation::AddSkill {
                person: PersonId(2),
                skill: xai,
            },
            Perturbation::RemoveSkill {
                person: PersonId(1),
                skill: db,
            },
            // Non-query skill: only the length normalisation moves.
            Perturbation::AddSkill {
                person: PersonId(0),
                skill: vision,
            },
            // Edges are invisible to TF-IDF.
            Perturbation::AddEdge {
                a: PersonId(0),
                b: PersonId(1),
            },
        ];
        for d in deltas {
            let view = PerturbationSet::singleton(d).apply_to_graph(&g);
            let full = r.rank_all(&view, &q);
            let changed = r.incremental_scores(&baseline, &view, &q).unwrap();
            assert_eq!(baseline.top_after(&changed), full.top_k(1).first().copied());
            for p in (0..12).map(PersonId) {
                assert_eq!(
                    r.incremental_rank_of(&baseline, &view, &q, p),
                    Some(r.rank_of(&view, &q, p)),
                    "delta {d:?} person {p}"
                );
                assert_eq!(
                    Some(baseline.score_after(&changed, p).to_bits()),
                    full.score_of(p).map(f64::to_bits),
                    "delta {d:?} person {p}"
                );
            }
        }
        // A baseline built for another query refuses to answer.
        let other = Query::parse("db", g.vocab()).unwrap();
        let view = PerturbationSet::new().apply_to_graph(&g);
        assert_eq!(
            r.incremental_rank_of(&baseline, &view, &other, PersonId(0)),
            None
        );
    }

    #[test]
    fn ranking_reacts_to_skill_perturbations() {
        use exes_graph::{Perturbation, PerturbationSet};
        let g = toy();
        let q = Query::parse("db xai", g.vocab()).unwrap();
        let r = TfIdfRanker::default();
        assert_eq!(r.rank_of(&g, &q, PersonId(2)), 4);
        // Give "none" both query skills: they should overtake the diluted profile.
        let xai = g.vocab().id("xai").unwrap();
        let db = g.vocab().id("db").unwrap();
        let mut delta = PerturbationSet::new();
        delta.push(Perturbation::AddSkill {
            person: PersonId(2),
            skill: xai,
        });
        delta.push(Perturbation::AddSkill {
            person: PersonId(2),
            skill: db,
        });
        let view = delta.apply_to_graph(&g);
        assert!(r.rank_of(&view, &q, PersonId(2)) < 4);
    }
}
