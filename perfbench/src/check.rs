//! The output checker: every explain response is structurally valid, and
//! every returned counterfactual really flips its decision.
//!
//! Counterfactuals are re-verified from outside, against the graph of the
//! epoch that answered them: apply the explanation's perturbations with
//! [`PerturbationSet::apply`], then compare the model's decision (top-k rank
//! for an expert model, membership for the team model) before and after.

use crate::json::Json;
use crate::stack::K;
use exes_expert_search::{ExpertRanker, GcnRanker, PropagationRanker, TfIdfRanker};
use exes_graph::{CollabGraph, GraphView, PersonId, Perturbation, PerturbationSet, Query};
use exes_team::{GreedyCoverTeamFormer, TeamFormer};

/// Per-result counters that depend on batching and cache warmth rather than
/// on the explanation. Replayed answers are compared with these removed, so
/// moving them (for instance into a sibling object) changes nothing here.
const ACCOUNTING: [&str; 6] = [
    "probes",
    "cache_hits",
    "cache_misses",
    "incremental_rescores",
    "full_rescores",
    "accounting",
];

/// What one `/explain` response answered, reduced to what the checker and
/// the quality metrics need.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The epoch that answered.
    pub epoch: u64,
    /// The slot without its accounting counters: equal for equal
    /// explanations whatever the cache did.
    pub essence: Json,
    /// For a counterfactual, its explanations (each a perturbation list).
    pub counterfactuals: Option<Vec<Json>>,
    pub timed_out: bool,
}

/// Parses one single-request response body. `Err` means the response is not
/// a valid answer: malformed, not exactly one slot, or an error slot.
pub fn parse_answer(body: &str) -> Result<Answer, String> {
    let parsed = crate::json::parse(body)?;
    let epoch = parsed
        .get("epoch")
        .and_then(Json::as_u64)
        .ok_or("response has no epoch")?;
    let slots = parsed
        .get("results")
        .and_then(Json::as_array)
        .ok_or("response has no results array")?;
    let [slot] = slots else {
        return Err(format!("expected one result slot, got {}", slots.len()));
    };
    if let Some(error) = slot.get("error") {
        return Err(format!("error slot: {error:?}"));
    }
    let Json::Obj(fields) = slot else {
        return Err("result slot is not an object".to_string());
    };
    let [(family, inner)] = fields.as_slice() else {
        return Err("result slot must hold one explanation".to_string());
    };
    let Json::Obj(inner_fields) = inner else {
        return Err("explanation is not an object".to_string());
    };
    let kept: Vec<(String, Json)> = inner_fields
        .iter()
        .filter(|(key, _)| !ACCOUNTING.contains(&key.as_str()))
        .cloned()
        .collect();
    let counterfactuals = match family.as_str() {
        "counterfactual" => Some(
            inner
                .get("explanations")
                .and_then(Json::as_array)
                .ok_or("counterfactual without explanations")?
                .to_vec(),
        ),
        "factual" => None,
        other => return Err(format!("unknown explanation family '{other}'")),
    };
    let timed_out = inner.get("timed_out").and_then(Json::as_bool) == Some(true);
    Ok(Answer {
        epoch,
        essence: Json::Obj(vec![(family.clone(), Json::Obj(kept))]),
        counterfactuals,
        timed_out,
    })
}

/// The size of the smallest counterfactual in `explanations`, if any.
pub fn smallest(explanations: &[Json]) -> Option<usize> {
    explanations
        .iter()
        .filter_map(|e| e.get("perturbations").and_then(Json::as_array))
        .map(<[Json]>::len)
        .min()
}

fn decides<G: GraphView + ?Sized>(
    model: &str,
    graph: &G,
    query: &Query,
    subject: PersonId,
) -> bool {
    match model {
        "tfidf" => TfIdfRanker::default().rank_of(graph, query, subject) <= K,
        "propagation" => PropagationRanker::default().rank_of(graph, query, subject) <= K,
        "gcn" => GcnRanker::default().rank_of(graph, query, subject) <= K,
        "team" => GreedyCoverTeamFormer::new(TfIdfRanker::default())
            .is_member(graph, query, None, subject),
        other => panic!("no decision rule for model '{other}'"),
    }
}

fn perturbation(op: &Json, graph: &CollabGraph) -> Result<Perturbation, String> {
    let person = |field: &str| {
        op.get(field)
            .and_then(Json::as_u64)
            .map(|id| PersonId(id as u32))
            .ok_or(format!("perturbation lacks '{field}'"))
    };
    let skill = || {
        let name = op
            .get("skill")
            .and_then(Json::as_str)
            .ok_or("perturbation lacks 'skill'")?;
        graph
            .vocab()
            .id(name)
            .ok_or(format!("skill '{name}' unknown at the answering epoch"))
    };
    let tag = op.get("op").and_then(Json::as_str).unwrap_or("");
    Ok(match tag {
        "add_skill" => Perturbation::AddSkill {
            person: person("person")?,
            skill: skill()?,
        },
        "remove_skill" => Perturbation::RemoveSkill {
            person: person("person")?,
            skill: skill()?,
        },
        "add_collaboration" => Perturbation::AddEdge {
            a: person("a")?,
            b: person("b")?,
        },
        "remove_collaboration" => Perturbation::RemoveEdge {
            a: person("a")?,
            b: person("b")?,
        },
        "add_query_term" => Perturbation::AddQueryTerm { skill: skill()? },
        "remove_query_term" => Perturbation::RemoveQueryTerm { skill: skill()? },
        other => return Err(format!("unknown perturbation op '{other}'")),
    })
}

/// Checks that every explanation in `explanations` flips `model`'s decision
/// about `subject` for `query` on `graph`.
pub fn verify_counterfactuals(
    graph: &CollabGraph,
    model: &str,
    query: &Query,
    subject: PersonId,
    explanations: &[Json],
) -> Result<(), String> {
    let before = decides(model, graph, query, subject);
    for explanation in explanations {
        let ops = explanation
            .get("perturbations")
            .and_then(Json::as_array)
            .ok_or("counterfactual without perturbations")?;
        let set = ops
            .iter()
            .map(|op| perturbation(op, graph))
            .collect::<Result<PerturbationSet, String>>()?;
        let (view, perturbed_query) = set.apply(graph, query);
        if decides(model, &view, &perturbed_query, subject) == before {
            return Err(format!(
                "{model} counterfactual for person {} does not flip the decision: {}",
                subject.0,
                set.describe(graph)
            ));
        }
    }
    Ok(())
}
