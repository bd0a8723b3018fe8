//! The ranker kernels against frozen reference implementations.
//!
//! `reference_propagation` and `reference_gcn` are the straightforward
//! per-person formulations of the propagation aggregation and the GCN
//! forward pass: a freshly sorted and deduped two-hop `Vec` per person, and
//! one `Vec` per node row. The library's kernels reorganise that work for
//! speed and must keep every score bitwise identical and every rank equal —
//! on the full path, and on propagation's planned (baseline-backed) path,
//! both localized and dense. The incremental differentials elsewhere compare
//! the library against itself, so they could not catch a kernel change that
//! moved both sides together; these tests can. `reference_tfidf` scores
//! TF-IDF one person at a time, each IDF from its own pass over people, and
//! its ranking is a full sort: the library's one-pass `rank_all` and counted
//! `rank_of` are checked against it, and the team model's planned probes
//! against forming the team and ranking on the perturbed graph.
//!
//! A ranker that declares it reads skills only through the query terms
//! (`ExpertRanker::observes_non_query_skills`) is probed on each set's
//! query-visible projection instead of the set: the full probes of the two
//! must agree bitwise, and only declaring models may be projected.

mod common;

use common::arbitrary_graph;
use exes::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn smoothed_idf<G: GraphView + ?Sized>(graph: &G, skill: SkillId) -> f64 {
    let holders = graph
        .people_ids()
        .filter(|&p| graph.person_has_skill(p, skill))
        .count();
    let n = graph.num_people() as f64;
    ((n + 1.0) / (holders as f64 + 1.0)).ln() + 1.0
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

/// Person-indexed scores of `TfIdfRanker::default()`, one person at a time.
fn reference_tfidf<G: GraphView + ?Sized>(graph: &G, query: &Query) -> Vec<f64> {
    let length_norm = TfIdfRanker::default().length_norm;
    let idfs: Vec<f64> = query
        .skills()
        .iter()
        .map(|&s| smoothed_idf(graph, s))
        .collect();
    graph
        .people_ids()
        .map(|p| {
            let mut score = 0.0;
            for (&s, &idf) in query.skills().iter().zip(&idfs) {
                if graph.person_has_skill(p, s) {
                    score += idf;
                }
            }
            if score > 0.0 {
                score /= (1.0 + graph.person_skills(p).len() as f64).powf(length_norm);
            }
            score
        })
        .collect()
}

/// Person-indexed propagation scores, one person at a time.
fn reference_propagation<G: GraphView + ?Sized>(
    ranker: &PropagationRanker,
    graph: &G,
    query: &Query,
) -> Vec<f64> {
    let idfs: Vec<(SkillId, f64)> = query
        .skills()
        .iter()
        .map(|&s| (s, smoothed_idf(graph, s)))
        .collect();
    let base: Vec<f64> = graph
        .people_ids()
        .map(|p| {
            idfs.iter()
                .filter(|&&(s, _)| graph.person_has_skill(p, s))
                .map(|&(_, idf)| idf)
                .sum()
        })
        .collect();
    graph
        .people_ids()
        .map(|p| {
            let ns = graph.neighbors(p);
            let one_hop = mean(ns.iter().map(|&x| base[x.index()]));
            let mut two_hop_nodes = Vec::new();
            for &nb in ns {
                for &m in graph.neighbors(nb) {
                    if m != p && !ns.contains(&m) {
                        two_hop_nodes.push(m);
                    }
                }
            }
            two_hop_nodes.sort_unstable();
            two_hop_nodes.dedup();
            let two_hop = mean(two_hop_nodes.iter().map(|&m| base[m.index()]));
            base[p.index()] + ranker.alpha * one_hop + ranker.beta * two_hop
        })
        .collect()
}

/// Person-indexed scores of `GcnRanker::default()`, one `Vec` per node row.
fn reference_gcn<G: GraphView + ?Sized>(graph: &G, query: &Query) -> Vec<f64> {
    const INPUT_DIM: usize = 4;
    let hidden = 8;
    let mut rng = StdRng::seed_from_u64(0x6C1);
    let a1 = (6.0 / (INPUT_DIM + hidden) as f64).sqrt();
    let w1: Vec<f64> = (0..INPUT_DIM * hidden)
        .map(|_| rng.gen_range(-a1..a1).abs())
        .collect();
    let a2 = (6.0 / (hidden + 1) as f64).sqrt();
    let w2: Vec<f64> = (0..hidden).map(|_| rng.gen_range(-a2..a2).abs()).collect();

    let n = graph.num_people();
    if n == 0 {
        return Vec::new();
    }
    let neighbor_lists: Vec<&[PersonId]> = graph.people_ids().map(|p| graph.neighbors(p)).collect();
    let propagate = |input: &[Vec<f64>]| -> Vec<Vec<f64>> {
        let dim = input.first().map(Vec::len).unwrap_or(0);
        let mut out = vec![vec![0.0; dim]; input.len()];
        for p in graph.people_ids() {
            let dp = (neighbor_lists[p.index()].len() + 1) as f64;
            for j in 0..dim {
                out[p.index()][j] += input[p.index()][j] / dp;
            }
            for &nb in neighbor_lists[p.index()] {
                let dn = (neighbor_lists[nb.index()].len() + 1) as f64;
                let norm = (dp * dn).sqrt();
                for j in 0..dim {
                    out[p.index()][j] += input[nb.index()][j] / norm;
                }
            }
        }
        out
    };
    let idfs: Vec<(SkillId, f64)> = query
        .skills()
        .iter()
        .map(|&s| (s, smoothed_idf(graph, s)))
        .collect();
    let idf_total: f64 = idfs.iter().map(|&(_, v)| v).sum::<f64>().max(1e-9);
    let qlen = query.len().max(1) as f64;
    let x: Vec<Vec<f64>> = graph
        .people_ids()
        .map(|p| {
            let matched: Vec<&(SkillId, f64)> = idfs
                .iter()
                .filter(|&&(s, _)| graph.person_has_skill(p, s))
                .collect();
            let idf_match: f64 = matched.iter().map(|&&(_, v)| v).sum();
            vec![
                idf_match / idf_total,
                matched.len() as f64 / qlen,
                (1.0 + graph.degree(p) as f64).ln() / 8.0,
                1.0,
            ]
        })
        .collect();
    let agg1 = propagate(&x);
    let h1: Vec<Vec<f64>> = agg1
        .iter()
        .map(|row| {
            (0..hidden)
                .map(|h| {
                    let mut v = 0.0;
                    for (i, &xi) in row.iter().enumerate() {
                        v += xi * w1[i * hidden + h];
                    }
                    v.max(0.0)
                })
                .collect()
        })
        .collect();
    let agg2 = propagate(&h1);
    agg2.iter()
        .map(|row| row.iter().zip(w2.iter()).map(|(a, w)| a * w).sum())
        .collect()
}

fn ranked(scores: &[f64]) -> RankedList {
    RankedList::from_scores(
        scores
            .iter()
            .enumerate()
            .map(|(i, &s)| (PersonId::from_index(i), s))
            .collect(),
    )
}

/// Asserts `ranker`'s full path bitwise equal to `reference` on `graph`:
/// `rank_all` scores, `score`, and the `rank_of` of every subject.
fn check_full_path<R: ExpertRanker, G: GraphView + ?Sized>(
    ranker: &R,
    graph: &G,
    query: &Query,
    reference: &[f64],
    subjects: &[PersonId],
    label: &str,
) {
    let list = ranker.rank_all(graph, query);
    assert_eq!(list, ranked(reference), "{label}: rank_all order");
    for &(p, s) in list.entries() {
        assert_eq!(
            s.to_bits(),
            reference[p.index()].to_bits(),
            "{label}: rank_all score of {p}"
        );
    }
    let expected = ranked(reference);
    for &p in subjects {
        assert_eq!(
            ranker.score(graph, query, p).to_bits(),
            reference[p.index()].to_bits(),
            "{label}: score of {p}"
        );
        assert_eq!(
            Some(ranker.rank_of(graph, query, p)),
            expected.rank_of(p),
            "{label}: rank_of {p}"
        );
    }
}

/// The singleton overlays cold probes are made of, named: the identity, a
/// query skill removed (its IDF shifts), a non-query skill added, a hub's
/// edge removed, and a long-range edge added.
fn overlays(graph: &CollabGraph, query: &Query) -> Vec<(&'static str, PerturbationSet)> {
    let n = graph.num_people();
    let term = query.skills()[0];
    let mut out = vec![("identity", PerturbationSet::new())];
    if let Some(p) = graph.people().find(|&p| graph.person_has_skill(p, term)) {
        out.push((
            "query skill removed",
            PerturbationSet::singleton(Perturbation::RemoveSkill {
                person: p,
                skill: term,
            }),
        ));
    }
    let absent = graph.people().find_map(|p| {
        graph
            .vocab()
            .ids()
            .find(|&s| !query.contains(s) && !graph.person_has_skill(p, s))
            .map(|skill| Perturbation::AddSkill { person: p, skill })
    });
    if let Some(add) = absent {
        out.push(("non-query skill added", PerturbationSet::singleton(add)));
    }
    let hub = graph
        .people()
        .max_by_key(|&p| (graph.degree(p), std::cmp::Reverse(p)))
        .expect("graphs have people");
    if let Some(&other) = graph.neighbors(hub).first() {
        out.push((
            "hub edge removed",
            PerturbationSet::singleton(Perturbation::RemoveEdge { a: hub, b: other }),
        ));
    }
    let far = (0..n).find_map(|i| {
        let (a, b) = (
            PersonId::from_index(i),
            PersonId::from_index((i + n / 2) % n),
        );
        (a != b && !graph.has_edge(a, b)).then_some(Perturbation::AddEdge { a, b })
    });
    if let Some(add) = far {
        out.push(("long-range edge added", PerturbationSet::singleton(add)));
    }
    out
}

/// A 400-person `github_sim` graph and a query over its two most widely
/// held skills, so removing the first one shifts an IDF held across most of
/// the graph.
fn github_400() -> (CollabGraph, Query) {
    let base = DatasetConfig::github_sim();
    let factor = 400.0 / base.num_people as f64;
    let graph = SyntheticDataset::generate(&base.scaled(factor).with_seed(7)).graph;
    let mut skills: Vec<SkillId> = graph.vocab().ids().collect();
    skills.sort_by_key(|&s| std::cmp::Reverse(graph.holders_of(s).len()));
    let query = Query::new(skills[..2].iter().copied()).unwrap();
    (graph, query)
}

/// Every few people plus the top of the reference ranking: enough subjects
/// to cover both sides of any top-k cutoff without a rank per person.
fn subjects(graph: &CollabGraph, reference: &[f64]) -> Vec<PersonId> {
    let mut subjects: Vec<PersonId> = ranked(reference).top_k(12);
    subjects.extend(graph.people().step_by(7));
    subjects
}

/// Every ranker's full path, bitwise against the frozen reference, on each
/// overlay of [`overlays`] — and on the unperturbed graph itself against the
/// identity overlay's reference: the reference probe runs on the empty
/// overlay but shares its cache key with probes computed on the base graph.
#[test]
fn full_paths_match_the_frozen_reference() {
    let mut cases: Vec<(String, CollabGraph, Query)> = (0..24u64)
        .map(|case| {
            let (graph, query) = arbitrary_graph(case);
            (format!("case {case}"), graph, query)
        })
        .collect();
    let (graph, query) = github_400();
    cases.push(("github_400".to_string(), graph, query));
    let propagation = PropagationRanker::default();
    let gcn = GcnRanker::default();
    let tfidf = TfIdfRanker::default();
    for (name, graph, query) in &cases {
        for (overlay, set) in overlays(graph, query) {
            let view = set.apply_to_graph(graph);
            let label = format!("{name}, {overlay}");
            let identity = set.is_empty();
            let reference = reference_propagation(&propagation, &view, query);
            let people = subjects(graph, &reference);
            check_full_path(
                &propagation,
                &view,
                query,
                &reference,
                &people,
                &format!("propagation, {label}"),
            );
            if identity {
                check_full_path(
                    &propagation,
                    graph,
                    query,
                    &reference,
                    &people,
                    &format!("propagation, {name}, base graph"),
                );
            }
            let reference = reference_gcn(&view, query);
            let forward = gcn.forward(&view, query);
            assert_eq!(
                forward.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                "gcn, {label}: forward"
            );
            check_full_path(
                &gcn,
                &view,
                query,
                &reference,
                &people,
                &format!("gcn, {label}"),
            );
            if identity {
                check_full_path(
                    &gcn,
                    graph,
                    query,
                    &reference,
                    &people,
                    &format!("gcn, {name}, base graph"),
                );
            }
            let reference = reference_tfidf(&view, query);
            check_full_path(
                &tfidf,
                &view,
                query,
                &reference,
                &people,
                &format!("tfidf, {label}"),
            );
            if identity {
                check_full_path(
                    &tfidf,
                    graph,
                    query,
                    &reference,
                    &people,
                    &format!("tfidf, {name}, base graph"),
                );
            }
        }
    }
}

/// Overlays of several edits, the shapes of coalitions: the hub of
/// [`overlays`] losing 2, 4 and 8 of its edges (a factual-collaboration
/// coalition), a mix of edge additions and removals among the least
/// connected people, and the first query term changing hands between two of
/// them, so base relevances move but no IDF does.
fn coalition_overlays(graph: &CollabGraph, query: &Query) -> Vec<(&'static str, PerturbationSet)> {
    let hub = graph
        .people()
        .max_by_key(|&p| (graph.degree(p), std::cmp::Reverse(p)))
        .expect("graphs have people");
    let mut out = Vec::new();
    for (lost, name) in [
        (2, "hub loses 2 edges"),
        (4, "hub loses 4 edges"),
        (8, "hub loses 8 edges"),
    ] {
        if let Some(lost) = graph.neighbors(hub).get(..lost) {
            let mut set = PerturbationSet::new();
            for &b in lost {
                set.push(Perturbation::RemoveEdge { a: hub, b });
            }
            out.push((name, set));
        }
    }
    let mut quiet: Vec<PersonId> = graph.people().collect();
    quiet.sort_by_key(|&p| (graph.degree(p), p));
    let mut mixed = PerturbationSet::new();
    for &a in &quiet {
        if mixed.len() == 2 {
            break;
        }
        if let Some(&b) = graph.neighbors(a).first() {
            mixed.push(Perturbation::RemoveEdge { a, b });
        }
    }
    for pair in quiet.chunks_exact(2).take(2) {
        if pair[0] != pair[1] && !graph.has_edge(pair[0], pair[1]) {
            mixed.push(Perturbation::AddEdge {
                a: pair[0],
                b: pair[1],
            });
        }
    }
    if !mixed.is_empty() {
        out.push(("mixed edge additions and removals", mixed));
    }
    let term = query.skills()[0];
    let giver = quiet.iter().find(|&&p| graph.person_has_skill(p, term));
    let taker = quiet.iter().find(|&&p| !graph.person_has_skill(p, term));
    if let (Some(&giver), Some(&taker)) = (giver, taker) {
        let mut swap = PerturbationSet::singleton(Perturbation::RemoveSkill {
            person: giver,
            skill: term,
        });
        swap.push(Perturbation::AddSkill {
            person: taker,
            skill: term,
        });
        out.push(("query term changes hands", swap));
    }
    out
}

/// 42 people who all hold the one query term, so every base relevance is
/// equal and every two-hop mean is either 0 or exactly the largest base
/// relevance, where the bound sits before its rounding margin. Paths of four, pairs and loners interleave in id order, so
/// the many exact score ties are broken by ids on both sides of any subject.
fn tie_graph() -> (CollabGraph, Query) {
    let mut b = CollabGraphBuilder::new();
    let mut next = 0;
    let mut add = |b: &mut CollabGraphBuilder| {
        next += 1;
        b.add_person(&format!("p{next}"), ["ml"])
    };
    for _ in 0..6 {
        let path: Vec<PersonId> = (0..4).map(|_| add(&mut b)).collect();
        for w in path.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        let (x, y) = (add(&mut b), add(&mut b));
        b.add_edge(x, y);
        add(&mut b);
    }
    let graph = b.build();
    let query = Query::parse("ml", graph.vocab()).unwrap();
    (graph, query)
}

/// Edge edits on [`tie_graph`] that leave a path's inner people with an
/// emptied, kept or grown two-hop row while their one-hop parts stay put.
fn tie_overlays() -> Vec<(&'static str, PerturbationSet)> {
    let p = PersonId::from_index;
    let remove = |a, b| Perturbation::RemoveEdge { a: p(a), b: p(b) };
    let add = |a, b| Perturbation::AddEdge { a: p(a), b: p(b) };
    let set = |edits: Vec<Perturbation>| {
        let mut set = PerturbationSet::new();
        for e in edits {
            set.push(e);
        }
        set
    };
    vec![
        ("a path's middle edge removed", set(vec![remove(8, 9)])),
        ("a path's end edge removed", set(vec![remove(14, 15)])),
        ("a path end joined to a pair", set(vec![add(3, 4)])),
        ("a loner joined to a path end", set(vec![add(20, 21)])),
        (
            "two paths cut and two pairs joined",
            set(vec![remove(1, 2), remove(22, 23), add(4, 11), add(25, 31)]),
        ),
    ]
}

/// The propagation weights the planned path is checked under: the default,
/// no two-hop term (every bound a point), and a negative two-hop weight
/// (bounds reversed).
fn propagation_weights() -> [PropagationRanker; 3] {
    let default = PropagationRanker::default();
    [
        default,
        PropagationRanker {
            beta: 0.0,
            ..default
        },
        PropagationRanker {
            beta: -default.beta,
            ..default
        },
    ]
}

/// Planned propagation ranks against the frozen reference, under three
/// two-hop weights, on [`overlays`] and [`coalition_overlays`] of the
/// arbitrary graphs, `github_400` and [`tie_graph`] (plus
/// [`tie_overlays`]). On the github and tie graphs every overlay must take a
/// planned path.
#[test]
fn planned_propagation_ranks_match_the_frozen_reference() {
    type Overlays = Vec<(&'static str, PerturbationSet)>;
    // (name, graph, query, extra overlays, whether every overlay must plan)
    let mut cases: Vec<(String, CollabGraph, Query, Overlays, bool)> = (0..24u64)
        .map(|case| {
            let (graph, query) = arbitrary_graph(case);
            (format!("case {case}"), graph, query, Vec::new(), false)
        })
        .collect();
    let (graph, query) = github_400();
    cases.push(("github_400".to_string(), graph, query, Vec::new(), true));
    let (graph, query) = tie_graph();
    cases.push(("ties".to_string(), graph, query, tie_overlays(), true));
    for ranker in propagation_weights() {
        for (name, graph, query, extra, all_planned) in &cases {
            let baseline = ranker.build_baseline(graph, query).expect("plan-capable");
            // Everyone on a small graph; a spread of subjects on a large one.
            let people: Vec<PersonId> = if graph.num_people() <= 64 {
                graph.people().collect()
            } else {
                subjects(graph, &reference_propagation(&ranker, graph, query))
            };
            let mut sets = overlays(graph, query);
            sets.extend(coalition_overlays(graph, query));
            sets.extend(extra.iter().cloned());
            for (overlay, set) in sets {
                let view = set.apply_to_graph(graph);
                let reference = ranked(&reference_propagation(&ranker, &view, query));
                let label = format!("{name}, beta {}, {overlay}", ranker.beta);
                for &p in &people {
                    let planned = ranker.incremental_rank_of(&baseline, &view, query, p);
                    assert!(
                        planned.is_some() || !all_planned,
                        "{label}: the planned path must answer for {p}"
                    );
                    if let Some(rank) = planned {
                        assert_eq!(
                            Some(rank),
                            reference.rank_of(p),
                            "{label}: planned rank of {p}"
                        );
                    }
                }
            }
        }
    }
}

/// Edits making `b`'s profile match `t`'s in the query terms it holds and
/// in its skill count, so TF-IDF scores the two bitwise alike.
fn tie_with(graph: &CollabGraph, query: &Query, t: PersonId, b: PersonId) -> PerturbationSet {
    let mut set = PerturbationSet::new();
    let mut len = graph.person_skills(b).len() as isize;
    for &term in query.skills() {
        match (
            graph.person_has_skill(t, term),
            graph.person_has_skill(b, term),
        ) {
            (true, false) => {
                set.push(Perturbation::AddSkill {
                    person: b,
                    skill: term,
                });
                len += 1;
            }
            (false, true) => {
                set.push(Perturbation::RemoveSkill {
                    person: b,
                    skill: term,
                });
                len -= 1;
            }
            _ => {}
        }
    }
    let target = graph.person_skills(t).len() as isize;
    let others = graph.vocab().ids().filter(|&s| !query.contains(s));
    if len > target {
        let held: Vec<SkillId> = others
            .filter(|&s| graph.person_has_skill(b, s))
            .take((len - target) as usize)
            .collect();
        for skill in held {
            set.push(Perturbation::RemoveSkill { person: b, skill });
        }
    } else {
        let absent: Vec<SkillId> = others
            .filter(|&s| !graph.person_has_skill(b, s))
            .take((target - len) as usize)
            .collect();
        for skill in absent {
            set.push(Perturbation::AddSkill { person: b, skill });
        }
    }
    set
}

/// The team model's planned probes against its full path on the 400-person
/// `github_sim` graph: membership under the greedy former over TF-IDF,
/// unseeded and seeded, and the TF-IDF signal rank, for every probe the plan
/// answers. The query is the graph's four most widely held skills, so
/// removing a holder's term shifts an IDF (under `n/2` holders) and covering
/// the query takes more than one member.
#[test]
fn planned_team_probes_match_the_full_path_on_github_400() {
    let (graph, _) = github_400();
    let mut skills: Vec<SkillId> = graph.vocab().ids().collect();
    skills.sort_by_key(|&s| (std::cmp::Reverse(graph.holders_of(s).len()), s));
    let query = Query::new(skills[..4].iter().copied()).unwrap();
    let tfidf = TfIdfRanker::default();
    let former = GreedyCoverTeamFormer::new(TfIdfRanker::default());
    let base_ranking = tfidf.rank_all(&graph, &query);
    let leader = base_ranking.entries()[0].0;
    // A seed holding no query term, so every term is recruited for.
    let seed = graph
        .people()
        .find(|&p| graph.degree(p) >= 3 && graph.query_match_count(p, &query) == 0)
        .expect("an uncovering seed");

    // The runner-up closest to the top that a profile edit ties with the
    // leader at the head of the post-delta ranking.
    let tie = base_ranking.entries()[1..10]
        .iter()
        .map(|&(b, _)| tie_with(&graph, &query, leader, b))
        .find(|set| {
            let entries = tfidf.rank_all(&set.apply_to_graph(&graph), &query);
            entries.entries()[0].1.to_bits() == entries.entries()[1].1.to_bits()
        })
        .expect("a runner-up ties the leader");

    for seed in [None, Some(seed)] {
        let team = former.form_team(&graph, &query, seed);
        let head = team.seed().expect("a non-empty team");
        let mut deltas: Vec<(String, PerturbationSet)> =
            vec![("identity".to_string(), PerturbationSet::new())];
        for &m in team.members() {
            for &term in query.skills() {
                if graph.person_has_skill(m, term) {
                    deltas.push((
                        format!("query skill {term} removed from member {m}"),
                        PerturbationSet::singleton(Perturbation::RemoveSkill {
                            person: m,
                            skill: term,
                        }),
                    ));
                }
            }
            if let Some(&nb) = graph.neighbors(m).first() {
                deltas.push((
                    format!("edge {m}-{nb} removed"),
                    PerturbationSet::singleton(Perturbation::RemoveEdge { a: m, b: nb }),
                ));
            }
        }
        let mut edited = vec![head];
        if leader != head {
            edited.push(leader);
        }
        for p in edited {
            if let Some(skill) = graph
                .vocab()
                .ids()
                .find(|&s| !query.contains(s) && !graph.person_has_skill(p, s))
            {
                deltas.push((
                    format!("non-query skill added to {p}"),
                    PerturbationSet::singleton(Perturbation::AddSkill { person: p, skill }),
                ));
            }
        }
        for &term in query.skills() {
            let far = graph
                .holders_of(term)
                .iter()
                .copied()
                .find(|&h| h != head && !graph.has_edge(head, h) && !team.contains(h));
            if let Some(h) = far {
                deltas.push((
                    format!("edge {head}-{h} added to a {term} holder"),
                    PerturbationSet::singleton(Perturbation::AddEdge { a: head, b: h }),
                ));
            }
        }
        // A query term held only by a stranger to the team: covering it
        // takes the widened pool, which must see the holder the delta adds.
        let term = query.skills()[1];
        let stranger = graph
            .people()
            .find(|&p| {
                !graph.person_has_skill(p, term)
                    && team
                        .members()
                        .iter()
                        .all(|&m| m != p && !graph.has_edge(m, p))
            })
            .expect("a stranger to the team");
        let mut moved: PerturbationSet = graph
            .holders_of(term)
            .iter()
            .map(|&h| Perturbation::RemoveSkill {
                person: h,
                skill: term,
            })
            .collect();
        moved.push(Perturbation::AddSkill {
            person: stranger,
            skill: term,
        });
        deltas.push((format!("{term} held only by {stranger}"), moved));
        deltas.push(("tied top score".to_string(), tie.clone()));
        let term = query.skills()[0];
        deltas.push((
            "query term removed".to_string(),
            PerturbationSet::singleton(Perturbation::RemoveQueryTerm { skill: term }),
        ));

        let plan = TeamMembershipTask::new(&former, &tfidf, head, seed)
            .build_plan(&graph, &query)
            .expect("the greedy former over tf-idf plans");
        let mut answered = 0;
        let mut moved = 0;
        for (name, set) in &deltas {
            let (view, perturbed) = set.apply(&graph, &query);
            let formed = former.form_team(&view, &perturbed, seed);
            if formed.members() != team.members() {
                moved += 1;
            }
            let mut subjects: Vec<PersonId> = graph.people().step_by(9).collect();
            subjects.extend(team.members());
            subjects.extend(formed.members());
            subjects.push(leader);
            for p in subjects {
                let task = TeamMembershipTask::new(&former, &tfidf, p, seed);
                let planned = task.probe_with_plan(&plan, &view, &perturbed);
                if set.iter().any(Perturbation::is_query_perturbation) {
                    assert_eq!(planned, None, "seed {seed:?}, {name}: must decline");
                    continue;
                }
                assert_eq!(
                    planned,
                    Some(task.probe(&view, &perturbed)),
                    "seed {seed:?}, {name}: planned probe of {p}"
                );
                answered += 1;
            }
        }
        assert!(
            moved >= 3,
            "seed {seed:?}: only {moved} deltas changed the team"
        );
        assert!(answered > 500, "seed {seed:?}: {answered} planned probes");
    }
}

/// Seeded sets mixing query-skill, non-query-skill and edge edits.
fn mixed_sets(graph: &CollabGraph, query: &Query, seed: u64) -> Vec<PerturbationSet> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0B5E);
    let n = graph.num_people() as u32;
    let others: Vec<SkillId> = graph
        .vocab()
        .ids()
        .filter(|&s| !query.contains(s))
        .collect();
    let toggle = |person: PersonId, skill: SkillId| {
        if graph.person_has_skill(person, skill) {
            Perturbation::RemoveSkill { person, skill }
        } else {
            Perturbation::AddSkill { person, skill }
        }
    };
    (0..12)
        .map(|_| {
            let mut set = PerturbationSet::new();
            for _ in 0..rng.gen_range(2usize..7) {
                let (a, b) = (PersonId(rng.gen_range(0..n)), PersonId(rng.gen_range(0..n)));
                set.push(match rng.gen_range(0u32..3) {
                    0 if !others.is_empty() => toggle(a, others[rng.gen_range(0..others.len())]),
                    0 | 1 => toggle(a, query.skills()[rng.gen_range(0..query.len())]),
                    _ if graph.has_edge(a, b) => Perturbation::RemoveEdge { a, b },
                    _ => Perturbation::AddEdge { a, b },
                });
            }
            set
        })
        .collect()
}

/// For a ranker that declares it does not observe skills outside the query,
/// asserts that the full probe of every set equals the full probe of its
/// projection, bitwise in scores and equal in ranks. Returns how many sets
/// the projection changed (0 for a ranker that observes every edit).
fn check_projection<R: ExpertRanker>(
    ranker: &R,
    graph: &CollabGraph,
    query: &Query,
    sets: &[PerturbationSet],
    label: &str,
) -> usize {
    if ranker.observes_non_query_skills() {
        return 0;
    }
    let mut projected = 0;
    for set in sets {
        let visible = set.query_visible(query);
        if visible.len() == set.len() {
            continue;
        }
        projected += 1;
        let (full, seen) = (set.apply_to_graph(graph), visible.apply_to_graph(graph));
        let bits = |list: &RankedList| -> Vec<(PersonId, u64)> {
            list.entries()
                .iter()
                .map(|&(p, s)| (p, s.to_bits()))
                .collect()
        };
        let ranking = ranker.rank_all(&full, query);
        assert_eq!(
            bits(&ranking),
            bits(&ranker.rank_all(&seen, query)),
            "{label}: scores of {set:?}"
        );
        let mut people = ranking.top_k(3);
        people.extend(graph.people().step_by((graph.num_people() / 6).max(1)));
        for p in people {
            assert_eq!(
                ranker.rank_of(&full, query, p),
                ranker.rank_of(&seen, query, p),
                "{label}: rank of {p} under {set:?}"
            );
        }
    }
    projected
}

#[test]
fn projected_probes_match_the_full_set() {
    let mut cases: Vec<(String, CollabGraph, Query)> = (0..24u64)
        .map(|case| {
            let (graph, query) = arbitrary_graph(case);
            (format!("case {case}"), graph, query)
        })
        .collect();
    let (graph, query) = github_400();
    cases.push(("github_400".to_string(), graph, query));
    let (tfidf, propagation, gcn, pagerank) = (
        TfIdfRanker::default(),
        PropagationRanker::default(),
        GcnRanker::default(),
        PersonalizedPageRank::default(),
    );
    let mut projected = [0; 4];
    for (i, (name, graph, query)) in cases.iter().enumerate() {
        let sets = mixed_sets(graph, query, i as u64);
        projected[0] += check_projection(&tfidf, graph, query, &sets, &format!("tfidf, {name}"));
        projected[1] += check_projection(
            &propagation,
            graph,
            query,
            &sets,
            &format!("propagation, {name}"),
        );
        projected[2] += check_projection(&gcn, graph, query, &sets, &format!("gcn, {name}"));
        projected[3] +=
            check_projection(&pagerank, graph, query, &sets, &format!("pagerank, {name}"));
    }
    // TF-IDF observes every edit; the other three each saw many sets the
    // projection changed.
    assert_eq!(projected[0], 0);
    for count in &projected[1..] {
        assert!(*count > 100, "only {count} projected sets: {projected:?}");
    }
}

/// Two sets differing in one non-query skill edit, scored through one cold
/// cache: a model that declares the capability answers the second from the
/// first's entry, TF-IDF and the team models probe both. A set that edits
/// the query is never projected, even when its other edit touches a skill
/// outside the unperturbed query. Every answer equals the model's own full
/// probe of the set as given.
#[test]
fn only_declaring_models_are_projected_and_never_on_a_perturbed_query() {
    use exes::core::{BatchStats, Probe, ProbeBatch};

    let (graph, query) = github_400();
    let term = query.skills()[0];
    let holder = graph
        .people()
        .find(|&p| graph.person_has_skill(p, term) && graph.degree(p) > 0)
        .expect("a holder of the first term");
    let other = graph
        .vocab()
        .ids()
        .find(|&s| !query.contains(s) && !graph.person_has_skill(holder, s))
        .expect("a skill the holder lacks");
    let base = PerturbationSet::singleton(Perturbation::RemoveSkill {
        person: holder,
        skill: term,
    });
    let unseen = base.with(Perturbation::AddSkill {
        person: holder,
        skill: other,
    });
    let requeried = PerturbationSet::singleton(Perturbation::AddQueryTerm { skill: other });
    let requeried_skill = requeried.with(Perturbation::AddSkill {
        person: holder,
        skill: other,
    });

    let (tfidf, propagation, gcn, pagerank) = (
        TfIdfRanker::default(),
        PropagationRanker::default(),
        GcnRanker::default(),
        PersonalizedPageRank::default(),
    );
    let former = GreedyCoverTeamFormer::new(TfIdfRanker::default());
    let models: Vec<(&str, Box<dyn DecisionModel + '_>, bool)> = vec![
        (
            "tfidf",
            Box::new(ExpertRelevanceTask::new(&tfidf, holder, 10)),
            false,
        ),
        (
            "propagation",
            Box::new(ExpertRelevanceTask::new(&propagation, holder, 10)),
            true,
        ),
        (
            "gcn",
            Box::new(ExpertRelevanceTask::new(&gcn, holder, 10)),
            true,
        ),
        (
            "pagerank",
            Box::new(ExpertRelevanceTask::new(&pagerank, holder, 10)),
            true,
        ),
        (
            "team",
            Box::new(TeamMembershipTask::new(&former, &tfidf, holder, None)),
            false,
        ),
        (
            "seeded team",
            Box::new(TeamMembershipTask::new(&former, &gcn, holder, Some(holder))),
            false,
        ),
    ];
    let mut requery_moved = false;
    for (name, model, projects) in &models {
        let model = model.as_ref();
        assert_eq!(model.observes_non_query_skills(), !projects, "{name}");
        let full = |set: &PerturbationSet| {
            let (view, perturbed) = set.apply(&graph, &query);
            model.probe(&view, &perturbed)
        };
        let cache = ProbeCache::new(0);
        let engine = ProbeBatch::new(model, &graph, &query, false, Some(&cache));
        // One call per set: a call looks all its sets up before probing any.
        let score_each = |sets: [&PerturbationSet; 2]| {
            let mut stats = BatchStats::default();
            let probes: Vec<Probe> = sets
                .into_iter()
                .map(|set| {
                    let (probes, call) = engine.score(std::slice::from_ref(set), None);
                    stats.merge(&call);
                    assert_eq!(probes, [full(set)], "{name}: {set:?}");
                    probes[0]
                })
                .collect();
            (probes, stats)
        };
        let (_, stats) = score_each([&base, &unseen]);
        let shared = usize::from(*projects);
        assert_eq!(
            (stats.cache_misses, stats.cache_hits),
            (2 - shared, shared),
            "{name}"
        );
        let (probes, stats) = score_each([&requeried, &requeried_skill]);
        assert_eq!((stats.cache_misses, stats.cache_hits), (2, 0), "{name}");
        requery_moved |= probes[0] != probes[1];
    }
    assert!(
        requery_moved,
        "the added term's skill edit moved no probe: the requeried case proves nothing"
    );
}
