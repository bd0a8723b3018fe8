//! The wire codec: JSON request parsing and response serialisation for every
//! endpoint.
//!
//! One rule governs the whole module: **the server serialises responses with
//! exactly the functions exposed here**, so a loopback test (or a recording
//! proxy) can prove wire responses byte-equivalent to in-process
//! [`exes_core::ExesService::explain`] results by serialising those
//! results itself — no float re-formatting, no field reordering, no
//! whitespace drift. Everything is emitted compact (no spaces, fixed field
//! order).
//!
//! Conventions:
//!
//! * people are addressed by integer id (the stable [`PersonId`] index);
//! * skills travel by **name** — requests resolve names against the current
//!   epoch's vocabulary, responses render ids back through it;
//! * explanation kinds and perturbation ops are lowercase snake-case tags
//!   (`"counterfactual_skills"`, `"remove_skill"`, …);
//! * malformed *structure* fails the whole body (HTTP 400), while per-request
//!   *semantic* problems (unknown model name, unknown skill, out-of-range
//!   subject) fail only that slot of the batch.

use crate::json::{self, Json};
use exes_core::counterfactual::{CounterfactualKind, CounterfactualResult};
use exes_core::{
    BatchStats, Completeness, Explanation, ExplanationKind, ExplanationRequest, FactualExplanation,
    Feature, ModelId, RequestError, ServiceReport,
};
use exes_graph::{CollabGraph, GraphView, PersonId, Perturbation, Query, SkillVocab, UpdateBatch};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// A structured wire-level error: a stable machine-readable `code` plus a
/// human-readable `message`. Rendered identically whether it answers a whole
/// request (the body of a 4xx/5xx response) or one slot of a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Stable error tag, e.g. `"unknown_model"`.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Builds an error.
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }

    /// The `{"error":{…}}` JSON object this error renders as.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"error\":{{\"code\":{},\"message\":{}}}}}",
            json::escape(self.code),
            json::escape(&self.message)
        )
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

/// The wire tag of an [`ExplanationKind`].
pub fn kind_tag(kind: ExplanationKind) -> &'static str {
    match kind {
        ExplanationKind::CounterfactualSkills => "counterfactual_skills",
        ExplanationKind::CounterfactualQuery => "counterfactual_query",
        ExplanationKind::CounterfactualLinks => "counterfactual_links",
        ExplanationKind::FactualSkills => "factual_skills",
        ExplanationKind::FactualQueryTerms => "factual_query_terms",
        ExplanationKind::FactualCollaborations => "factual_collaborations",
    }
}

/// Parses a wire kind tag.
pub fn parse_kind(tag: &str) -> Option<ExplanationKind> {
    Some(match tag {
        "counterfactual_skills" => ExplanationKind::CounterfactualSkills,
        "counterfactual_query" => ExplanationKind::CounterfactualQuery,
        "counterfactual_links" => ExplanationKind::CounterfactualLinks,
        "factual_skills" => ExplanationKind::FactualSkills,
        "factual_query_terms" => ExplanationKind::FactualQueryTerms,
        "factual_collaborations" => ExplanationKind::FactualCollaborations,
        _ => return None,
    })
}

fn counterfactual_kind_tag(kind: CounterfactualKind) -> &'static str {
    match kind {
        CounterfactualKind::SkillRemoval => "skill_removal",
        CounterfactualKind::SkillAddition => "skill_addition",
        CounterfactualKind::QueryAugmentation => "query_augmentation",
        CounterfactualKind::LinkRemoval => "link_removal",
        CounterfactualKind::LinkAddition => "link_addition",
    }
}

fn skill_name(vocab: &SkillVocab, skill: exes_graph::SkillId) -> String {
    json::escape(vocab.name(skill).unwrap_or("<unknown>"))
}

/// The entries of a `POST /explain` body. A body that is not
/// `{"requests":[…]}` fails whole — with the same bytes at the router, which
/// splits bodies on this check.
pub fn explain_entries(body: &Json) -> Result<&[Json], WireError> {
    body.get("requests")
        .ok_or_else(|| WireError::new("bad_request", "body must be {\"requests\": [...]}"))?
        .as_array()
        .ok_or_else(|| WireError::new("bad_request", "\"requests\" must be an array"))
}

/// Parses the body of a `POST /explain`: `{"requests":[{…}, …]}`.
///
/// Structural problems (not an object, `requests` missing or not an array,
/// an entry that is not an object) fail the whole body; semantic problems in
/// one entry (unknown model name, unknown skill, missing field, wrong field
/// type) produce an `Err` slot for that entry only. Equal queries across the
/// batch share one [`Arc`], so the service's pointer-fast-path grouping and
/// cross-request dedup fire exactly as for a hand-built in-process batch.
pub fn parse_explain_requests(
    body: &Json,
    vocab: &SkillVocab,
    resolve_model: impl Fn(&str) -> Option<ModelId>,
) -> Result<Vec<Result<ExplanationRequest, WireError>>, WireError> {
    let requests = explain_entries(body)?;
    let mut shared_queries: HashMap<Vec<u32>, Arc<Query>> = HashMap::new();
    let mut out = Vec::with_capacity(requests.len());
    for entry in requests {
        out.push(parse_one_request(
            entry,
            vocab,
            &resolve_model,
            &mut shared_queries,
        ));
    }
    Ok(out)
}

fn parse_one_request(
    entry: &Json,
    vocab: &SkillVocab,
    resolve_model: &impl Fn(&str) -> Option<ModelId>,
    shared_queries: &mut HashMap<Vec<u32>, Arc<Query>>,
) -> Result<ExplanationRequest, WireError> {
    let field = |name: &str| {
        entry
            .get(name)
            .ok_or_else(|| WireError::new("bad_request", format!("request is missing \"{name}\"")))
    };
    let model_name = field("model")?
        .as_str()
        .ok_or_else(|| WireError::new("bad_request", "\"model\" must be a string"))?;
    let model = resolve_model(model_name).ok_or_else(|| {
        WireError::new(
            "unknown_model",
            format!("no model named '{model_name}' is registered"),
        )
    })?;
    let subject = field("subject")?
        .as_u64()
        .filter(|&s| u32::try_from(s).is_ok())
        .map(|s| PersonId(s as u32))
        .ok_or_else(|| WireError::new("bad_subject", "\"subject\" must be a person id"))?;
    let kind_tag = field("kind")?
        .as_str()
        .ok_or_else(|| WireError::new("bad_request", "\"kind\" must be a string"))?;
    let kind = parse_kind(kind_tag).ok_or_else(|| {
        WireError::new(
            "unknown_kind",
            format!("'{kind_tag}' is not a request kind"),
        )
    })?;
    let terms = field("query")?
        .as_array()
        .ok_or_else(|| WireError::new("bad_request", "\"query\" must be an array of skills"))?;
    let mut skills = Vec::with_capacity(terms.len());
    for term in terms {
        let name = term
            .as_str()
            .ok_or_else(|| WireError::new("bad_request", "query terms must be strings"))?;
        let id = vocab.id(name).ok_or_else(|| {
            WireError::new("unknown_skill", format!("'{name}' is not a known skill"))
        })?;
        if !skills.contains(&id.0) {
            skills.push(id.0);
        }
    }
    let query = match shared_queries.get(&skills) {
        Some(q) => q.clone(),
        None => {
            let q = Arc::new(
                Query::new(skills.iter().map(|&s| exes_graph::SkillId(s)))
                    .map_err(|_| WireError::new("empty_query", "query has no known skills"))?,
            );
            shared_queries.insert(skills, q.clone());
            q
        }
    };
    Ok(ExplanationRequest::new(model, subject, query, kind))
}

fn perturbation_json(p: &Perturbation, graph: &CollabGraph) -> String {
    let vocab = graph.vocab();
    match *p {
        Perturbation::AddSkill { person, skill } => format!(
            "{{\"op\":\"add_skill\",\"person\":{},\"skill\":{}}}",
            person.index(),
            skill_name(vocab, skill)
        ),
        Perturbation::RemoveSkill { person, skill } => format!(
            "{{\"op\":\"remove_skill\",\"person\":{},\"skill\":{}}}",
            person.index(),
            skill_name(vocab, skill)
        ),
        Perturbation::AddEdge { a, b } => format!(
            "{{\"op\":\"add_collaboration\",\"a\":{},\"b\":{}}}",
            a.index(),
            b.index()
        ),
        Perturbation::RemoveEdge { a, b } => format!(
            "{{\"op\":\"remove_collaboration\",\"a\":{},\"b\":{}}}",
            a.index(),
            b.index()
        ),
        Perturbation::AddQueryTerm { skill } => format!(
            "{{\"op\":\"add_query_term\",\"skill\":{}}}",
            skill_name(vocab, skill)
        ),
        Perturbation::RemoveQueryTerm { skill } => format!(
            "{{\"op\":\"remove_query_term\",\"skill\":{}}}",
            skill_name(vocab, skill)
        ),
    }
}

fn feature_json(feature: &Feature, graph: &CollabGraph) -> String {
    let vocab = graph.vocab();
    match *feature {
        Feature::QueryTerm(skill) => format!(
            "{{\"type\":\"query_term\",\"skill\":{}}}",
            skill_name(vocab, skill)
        ),
        Feature::Skill(person, skill) => format!(
            "{{\"type\":\"skill\",\"person\":{},\"skill\":{}}}",
            person.index(),
            skill_name(vocab, skill)
        ),
        Feature::Edge(a, b) => format!(
            "{{\"type\":\"collaboration\",\"a\":{},\"b\":{}}}",
            a.index(),
            b.index()
        ),
    }
}

/// Serialises a [`Completeness`] marker: the string `"exhaustive"` for a
/// search that ran to its natural end, or `{"spent":…,"budget":…}` for a
/// best-so-far result cut short by a probe budget.
fn completeness_json(completeness: Completeness) -> String {
    match completeness {
        Completeness::Exhaustive => "\"exhaustive\"".to_string(),
        Completeness::Budgeted { spent, budget } => {
            format!("{{\"spent\":{spent},\"budget\":{budget}}}")
        }
    }
}

/// Serialises an explanation's probe accounting, the same object for both
/// families.
fn accounting_json(accounting: &BatchStats) -> String {
    format!(
        "{{\"probes\":{},\"cache_hits\":{},\"cache_misses\":{},\
         \"incremental_rescores\":{},\"full_rescores\":{}}}",
        accounting.probed,
        accounting.cache_hits,
        accounting.cache_misses,
        accounting.incremental_rescores,
        accounting.full_rescores
    )
}

fn counterfactual_json(result: &CounterfactualResult, graph: &CollabGraph) -> String {
    let mut out = String::from("{\"counterfactual\":{\"explanations\":[");
    for (i, e) in result.explanations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"kind\":\"{}\",\"size\":{},\"new_signal\":{},\"perturbations\":[",
            counterfactual_kind_tag(e.kind),
            e.size(),
            json::fmt_f64(e.new_signal)
        );
        for (j, p) in e.perturbations.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&perturbation_json(p, graph));
        }
        out.push_str("]}");
    }
    let _ = write!(
        out,
        "],\"completeness\":{},\"accounting\":{}}}}}",
        completeness_json(result.completeness),
        accounting_json(&result.accounting)
    );
    out
}

fn factual_json(explanation: &FactualExplanation, graph: &CollabGraph) -> String {
    let mut out = String::from("{\"factual\":{\"features\":[");
    for (i, f) in explanation.features().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&feature_json(f, graph));
    }
    out.push_str("],\"shap\":[");
    for (i, v) in explanation.shap_values().values().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json::fmt_f64(*v));
    }
    out.push_str("],\"half_widths\":[");
    for (i, w) in explanation.half_widths().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json::fmt_f64(*w));
    }
    let _ = write!(
        out,
        "],\"base_value\":{},\"full_value\":{},\"completeness\":{},\"accounting\":{}}}}}",
        json::fmt_f64(explanation.shap_values().base_value()),
        json::fmt_f64(explanation.shap_values().full_value()),
        completeness_json(explanation.completeness()),
        accounting_json(&explanation.accounting())
    );
    out
}

/// Serialises one explanation as its wire entry: a
/// `{"counterfactual":{…}}` or `{"factual":{…}}` object.
///
/// The explanation's own fields come first; the object ends with an
/// `"accounting":{…}` object of per-request probe counters (`probes`,
/// `cache_hits`, `cache_misses`, `incremental_rescores`, `full_rescores`).
/// Those depend on what else shared the probe cache, not on the
/// explanation, so equal explanations compare equal once `accounting` is
/// removed.
pub fn explanation_json(explanation: &Explanation, graph: &CollabGraph) -> String {
    match explanation {
        Explanation::Counterfactual(r) => counterfactual_json(r, graph),
        Explanation::Factual(f) => factual_json(f, graph),
    }
}

/// Serialises a per-request service error as its wire entry.
pub fn request_error_json(error: &RequestError) -> String {
    let code = match error {
        RequestError::UnknownModel(_) => "unknown_model",
        RequestError::SubjectOutOfRange { .. } => "bad_subject",
    };
    WireError::new(code, error.to_string()).to_json()
}

/// Serialises one slot of a batch result.
pub fn result_entry_json(
    result: &Result<Explanation, RequestError>,
    graph: &CollabGraph,
) -> String {
    match result {
        Ok(explanation) => explanation_json(explanation, graph),
        Err(error) => request_error_json(error),
    }
}

/// Serialises a whole batch-result array — exactly what the server puts in
/// the `"results"` field of a `POST /explain` response when every entry
/// passed wire-level validation. Byte-equivalence tests compare against this.
pub fn results_json(results: &[Result<Explanation, RequestError>], graph: &CollabGraph) -> String {
    let mut out = String::from("[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&result_entry_json(r, graph));
    }
    out.push(']');
    out
}

/// Serialises a [`ServiceReport`] (the `"report"` field of explain responses
/// and the `"last_report"` field of `/metrics`).
pub fn report_json(report: &ServiceReport) -> String {
    format!(
        "{{\"epoch\":{},\"requests\":{},\"groups\":{},\"duplicate_requests\":{},\
         \"failed_requests\":{},\"cache_hits\":{},\"cache_misses\":{},\
         \"cache_evictions\":{},\"probes\":{},\"incremental_rescores\":{},\
         \"full_fallback_rescores\":{},\"plan_hits\":{},\"plan_misses\":{},\
         \"budgeted_results\":{},\"hit_rate\":{}}}",
        report.epoch,
        report.requests,
        report.groups,
        report.duplicate_requests,
        report.failed_requests,
        report.cache_hits,
        report.cache_misses,
        report.cache_evictions,
        report.probes,
        report.incremental_rescores,
        report.full_fallback_rescores,
        report.plan_hits,
        report.plan_misses,
        report.budgeted_results,
        json::fmt_f64(report.hit_rate())
    )
}

/// Parses a [`ServiceReport`] back from its [`report_json`] rendering (the
/// derived `hit_rate` field is ignored — it is recomputed on demand).
pub fn report_from_json(value: &Json) -> Option<ServiceReport> {
    let int = |name: &str| value.get(name).and_then(Json::as_u64);
    Some(ServiceReport {
        epoch: int("epoch")?,
        requests: int("requests")? as usize,
        groups: int("groups")? as usize,
        duplicate_requests: int("duplicate_requests")? as usize,
        failed_requests: int("failed_requests")? as usize,
        cache_hits: int("cache_hits")?,
        cache_misses: int("cache_misses")?,
        cache_evictions: int("cache_evictions")?,
        probes: int("probes")? as usize,
        incremental_rescores: int("incremental_rescores")?,
        full_fallback_rescores: int("full_fallback_rescores")?,
        plan_hits: int("plan_hits")?,
        plan_misses: int("plan_misses")?,
        budgeted_results: int("budgeted_results")? as usize,
    })
}

/// What one worker's `GET /healthz` declares about itself — enough for a
/// routing tier to tell a healthy replica from a lagging, divergent or
/// still-recovering one instead of silently serving stale answers from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerHealth {
    /// False while the worker is still recovering (WAL replay, cache
    /// import); a router must not route explains to a non-ready worker.
    pub ready: bool,
    /// The epoch the worker currently serves.
    pub epoch: u64,
    /// The store's **chained** content fingerprint at that epoch. Two
    /// replicas that applied the same ordered epoch stream report the same
    /// value; a mismatch at equal epochs is divergence.
    pub fingerprint: u64,
    /// Registered model count.
    pub models: usize,
}

/// Serialises the `GET /healthz` body of a ready worker. The fingerprint
/// travels as a fixed-width hex *string*: it is a full 64-bit value, and JSON
/// consumers must not round it through a double.
pub fn healthz_json(health: &WorkerHealth) -> String {
    format!(
        "{{\"status\":\"ok\",\"ready\":{},\"epoch\":{},\"fingerprint\":\"{:016x}\",\"models\":{}}}",
        health.ready, health.epoch, health.fingerprint, health.models
    )
}

/// Parses a worker's `/healthz` body back into a [`WorkerHealth`]. A
/// recovering worker's body (`{"status":"recovering",...}`) has no epoch or
/// fingerprint and parses to `None`, as does anything malformed.
pub fn healthz_from_json(value: &Json) -> Option<WorkerHealth> {
    Some(WorkerHealth {
        ready: value.get("ready").and_then(Json::as_bool)?,
        epoch: value.get("epoch").and_then(Json::as_u64)?,
        fingerprint: value
            .get("fingerprint")
            .and_then(Json::as_str)
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())?,
        models: value.get("models").and_then(Json::as_u64)? as usize,
    })
}

/// Parses the body of a `POST /commit`: `{"ops":[{"op":…}, …]}`. Commits are
/// transactional, so — unlike explain batches — any bad op fails the whole
/// body.
pub fn parse_update_batch(body: &Json) -> Result<UpdateBatch, WireError> {
    let ops = body
        .get("ops")
        .ok_or_else(|| WireError::new("bad_request", "body must be {\"ops\": [...]}"))?
        .as_array()
        .ok_or_else(|| WireError::new("bad_request", "\"ops\" must be an array"))?;
    let mut batch = UpdateBatch::new();
    for (i, op) in ops.iter().enumerate() {
        let bad = |msg: &str| WireError::new("bad_request", format!("op {i}: {msg}"));
        let tag = op
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing \"op\" tag"))?;
        let person = |field: &str| {
            op.get(field)
                .and_then(Json::as_u64)
                .filter(|&p| u32::try_from(p).is_ok())
                .map(|p| PersonId(p as u32))
                .ok_or_else(|| bad(&format!("\"{field}\" must be a person id")))
        };
        let string = |field: &str| {
            op.get(field)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(&format!("\"{field}\" must be a string")))
        };
        match tag {
            "add_person" => {
                let name = string("name")?;
                let skills = op
                    .get("skills")
                    .and_then(Json::as_array)
                    .ok_or_else(|| bad("\"skills\" must be an array"))?;
                let mut skill_names = Vec::with_capacity(skills.len());
                for s in skills {
                    skill_names.push(
                        s.as_str()
                            .ok_or_else(|| bad("skill names must be strings"))?,
                    );
                }
                batch.add_person(&name, skill_names);
            }
            "add_skill" => batch.add_skill(person("person")?, &string("skill")?),
            "remove_skill" => batch.remove_skill(person("person")?, &string("skill")?),
            "add_collaboration" => batch.add_collaboration(person("a")?, person("b")?),
            "remove_collaboration" => batch.remove_collaboration(person("a")?, person("b")?),
            other => return Err(bad(&format!("unknown op '{other}'"))),
        }
    }
    Ok(batch)
}

/// Serialises the `POST /explain` response body.
pub fn explain_response_json(epoch: u64, results: &str, report: &ServiceReport) -> String {
    format!(
        "{{\"epoch\":{epoch},\"results\":{results},\"report\":{}}}",
        report_json(report)
    )
}

/// Serialises the `POST /commit` response body.
pub fn commit_response_json(epoch: u64, graph: &CollabGraph) -> String {
    format!(
        "{{\"epoch\":{epoch},\"people\":{},\"edges\":{}}}",
        graph.num_people(),
        graph.num_edges()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use exes_core::CounterfactualExplanation;
    use exes_graph::{CollabGraphBuilder, PerturbationSet};

    fn graph() -> CollabGraph {
        let mut b = CollabGraphBuilder::new();
        let ada = b.add_person("Ada", ["db", "ml"]);
        let bob = b.add_person("Bob", ["db"]);
        b.add_edge(ada, bob);
        b.build()
    }

    fn registry() -> exes_core::ModelRegistry {
        let mut reg = exes_core::ModelRegistry::new();
        reg.register(
            "known",
            exes_core::ModelSpec::expert_ranker(exes_expert_search::TfIdfRanker::default(), 3),
        )
        .unwrap();
        reg
    }

    #[test]
    fn explain_requests_parse_and_share_queries() {
        let g = graph();
        let reg = registry();
        let resolve = |name: &str| reg.id(name);
        let body = json::parse(
            r#"{"requests":[
                {"model":"known","subject":0,"query":["db","ml"],"kind":"counterfactual_skills"},
                {"model":"known","subject":1,"query":["db","ml"],"kind":"factual_query_terms"},
                {"model":"nope","subject":0,"query":["db"],"kind":"counterfactual_skills"},
                {"model":"known","subject":0,"query":["quantum"],"kind":"counterfactual_skills"},
                {"model":"known","subject":0,"query":["db"],"kind":"time_travel"},
                {"model":"known","subject":"zero","query":["db"],"kind":"counterfactual_skills"},
                {"model":"known","query":["db"],"kind":"counterfactual_skills"}
            ]}"#,
        )
        .unwrap();
        let parsed = parse_explain_requests(&body, g.vocab(), resolve).unwrap();
        assert_eq!(parsed.len(), 7);
        let first = parsed[0].as_ref().unwrap();
        let second = parsed[1].as_ref().unwrap();
        assert_eq!(first.kind, ExplanationKind::CounterfactualSkills);
        assert_eq!(second.kind, ExplanationKind::FactualQueryTerms);
        // Equal queries share one Arc — the service's pointer fast path fires.
        assert!(Arc::ptr_eq(&first.query, &second.query));
        assert_eq!(parsed[2].as_ref().unwrap_err().code, "unknown_model");
        assert_eq!(parsed[3].as_ref().unwrap_err().code, "unknown_skill");
        assert_eq!(parsed[4].as_ref().unwrap_err().code, "unknown_kind");
        assert_eq!(parsed[5].as_ref().unwrap_err().code, "bad_subject");
        assert_eq!(parsed[6].as_ref().unwrap_err().code, "bad_request");
    }

    #[test]
    fn structural_problems_fail_the_whole_body() {
        let g = graph();
        let reg = registry();
        for bad in [r#"{"req": []}"#, r#"{"requests": 5}"#, "[]", "null"] {
            let body = json::parse(bad).unwrap();
            assert!(
                parse_explain_requests(&body, g.vocab(), |name| reg.id(name)).is_err(),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn update_batches_parse_and_reject_bad_ops() {
        let body = json::parse(
            r#"{"ops":[
                {"op":"add_person","name":"Cy","skills":["rust"]},
                {"op":"add_skill","person":0,"skill":"xai"},
                {"op":"remove_skill","person":1,"skill":"db"},
                {"op":"add_collaboration","a":0,"b":2},
                {"op":"remove_collaboration","a":0,"b":1}
            ]}"#,
        )
        .unwrap();
        let batch = parse_update_batch(&body).unwrap();
        assert_eq!(batch.len(), 5);

        for bad in [
            r#"{"ops":[{"op":"fire_person","person":0}]}"#,
            r#"{"ops":[{"op":"add_skill","person":-1,"skill":"x"}]}"#,
            r#"{"ops":[{"op":"add_person","name":"x","skills":[1]}]}"#,
            r#"{"ops":[{"noop":true}]}"#,
            r#"{"ops":5}"#,
            r#"{}"#,
        ] {
            let body = json::parse(bad).unwrap();
            let err = parse_update_batch(&body).unwrap_err();
            assert_eq!(err.code, "bad_request", "for {bad}");
        }
    }

    #[test]
    fn counterfactual_serialisation_names_skills_and_people() {
        let g = graph();
        let db = g.vocab().id("db").unwrap();
        let result = CounterfactualResult {
            explanations: vec![CounterfactualExplanation {
                perturbations: PerturbationSet::singleton(Perturbation::RemoveSkill {
                    person: PersonId(0),
                    skill: db,
                }),
                new_signal: 2.5,
                kind: CounterfactualKind::SkillRemoval,
            }],
            accounting: BatchStats {
                probed: 7,
                cache_hits: 1,
                cache_misses: 6,
                incremental_rescores: 5,
                full_rescores: 2,
            },
            completeness: Completeness::Exhaustive,
        };
        let text = explanation_json(&Explanation::Counterfactual(result), &g);
        assert_eq!(
            text,
            "{\"counterfactual\":{\"explanations\":[{\"kind\":\"skill_removal\",\
             \"size\":1,\"new_signal\":2.5,\"perturbations\":[{\"op\":\"remove_skill\",\
             \"person\":0,\"skill\":\"db\"}]}],\"completeness\":\"exhaustive\",\
             \"accounting\":{\"probes\":7,\"cache_hits\":1,\"cache_misses\":6,\
             \"incremental_rescores\":5,\"full_rescores\":2}}}"
        );
        // And it parses back as valid JSON.
        let parsed = json::parse(&text).unwrap();
        assert_eq!(
            parsed
                .get("counterfactual")
                .unwrap()
                .get("accounting")
                .unwrap()
                .get("probes")
                .unwrap()
                .as_u64(),
            Some(7)
        );
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = ServiceReport {
            epoch: 3,
            requests: 12,
            groups: 2,
            duplicate_requests: 4,
            failed_requests: 1,
            cache_hits: 100,
            cache_misses: 40,
            cache_evictions: 5,
            probes: 40,
            incremental_rescores: 30,
            full_fallback_rescores: 10,
            plan_hits: 6,
            plan_misses: 2,
            budgeted_results: 3,
        };
        let text = report_json(&report);
        let back = report_from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
        // The zero-probe edge stays well-defined through the wire.
        let empty = ServiceReport::default();
        let empty_back = report_from_json(&json::parse(&report_json(&empty)).unwrap()).unwrap();
        assert_eq!(empty_back, empty);
        assert_eq!(empty_back.hit_rate(), 0.0);
        // Garbage does not parse as a report.
        assert_eq!(report_from_json(&json::parse("{}").unwrap()), None);
        assert_eq!(report_from_json(&json::parse("[1]").unwrap()), None);
    }

    #[test]
    fn healthz_roundtrips_identity_and_rejects_recovering_bodies() {
        let health = WorkerHealth {
            ready: true,
            epoch: 12,
            // A fingerprint above 2^53: a double roundtrip would corrupt it,
            // which is exactly why it travels as a hex string.
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            models: 3,
        };
        let text = healthz_json(&health);
        assert_eq!(
            text,
            "{\"status\":\"ok\",\"ready\":true,\"epoch\":12,\
             \"fingerprint\":\"deadbeefcafef00d\",\"models\":3}"
        );
        let back = healthz_from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, health);
        // A recovering worker advertises no identity yet.
        let recovering = json::parse("{\"status\":\"recovering\",\"ready\":false}").unwrap();
        assert_eq!(healthz_from_json(&recovering), None);
        assert_eq!(healthz_from_json(&json::parse("{}").unwrap()), None);
        // A mangled fingerprint is a parse failure, not a zero.
        let bad = json::parse("{\"ready\":true,\"epoch\":1,\"fingerprint\":\"xyz\",\"models\":1}")
            .unwrap();
        assert_eq!(healthz_from_json(&bad), None);
    }

    #[test]
    fn merged_reports_travel_through_the_same_wire_codec() {
        // The router aggregates per-worker reports with ServiceReport::merge
        // and re-serialises with report_json — clients parse the result with
        // the exact codec they already use for single-worker reports.
        let worker_a = ServiceReport {
            epoch: 5,
            requests: 3,
            groups: 1,
            cache_hits: 9,
            cache_misses: 1,
            probes: 1,
            ..Default::default()
        };
        let worker_b = ServiceReport {
            epoch: 4,
            requests: 2,
            groups: 1,
            cache_hits: 2,
            cache_misses: 2,
            probes: 2,
            ..Default::default()
        };
        let mut merged = worker_a;
        merged.merge(&worker_b);
        let back = report_from_json(&json::parse(&report_json(&merged)).unwrap()).unwrap();
        assert_eq!(back, merged);
        assert_eq!(back.epoch, 4, "the merged epoch is the gated minimum");
        assert_eq!(back.requests, 5);
        assert_eq!(back.cache_hits, 11);
    }

    #[test]
    fn budgeted_completeness_serialises_spent_and_budget() {
        assert_eq!(
            completeness_json(Completeness::Budgeted {
                spent: 9,
                budget: 12
            }),
            "{\"spent\":9,\"budget\":12}"
        );
        let g = graph();
        let result = CounterfactualResult {
            completeness: Completeness::Budgeted {
                spent: 9,
                budget: 12,
            },
            ..CounterfactualResult::default()
        };
        let text = explanation_json(&Explanation::Counterfactual(result), &g);
        let parsed = json::parse(&text).unwrap();
        let marker = parsed
            .get("counterfactual")
            .unwrap()
            .get("completeness")
            .unwrap();
        assert_eq!(marker.get("spent").unwrap().as_u64(), Some(9));
        assert_eq!(marker.get("budget").unwrap().as_u64(), Some(12));
    }

    #[test]
    fn error_entries_are_structured() {
        let entry = WireError::new("overloaded", "queue full").to_json();
        let parsed = json::parse(&entry).unwrap();
        let error = parsed.get("error").unwrap();
        assert_eq!(error.get("code").unwrap().as_str(), Some("overloaded"));
        assert_eq!(error.get("message").unwrap().as_str(), Some("queue full"));
    }
}
