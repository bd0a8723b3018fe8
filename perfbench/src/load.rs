//! Traffic: seeded request and update streams, the closed-loop explain
//! clients and the open-loop commit writer.

use crate::check::{parse_answer, Answer};
use crate::http::Client;
use crate::json::{self, Json};
use exes_datasets::{QueryWorkload, UpdateStream, UpdateStreamConfig};
use exes_expert_search::{ExpertRanker, TfIdfRanker};
use exes_graph::{CollabGraph, GraphView, PersonId, Query, UpdateBatch, UpdateOp};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Every explanation kind, by wire tag.
pub const KINDS: [&str; 6] = [
    "counterfactual_skills",
    "counterfactual_query",
    "counterfactual_links",
    "factual_skills",
    "factual_query_terms",
    "factual_collaborations",
];

/// Seed of the query log: like the served graph, the queries analysts
/// explain are a property of the deployment, not of the workload seed.
const QUERY_LOG_SEED: u64 = 0xA7;

fn is_counterfactual(kind: &str) -> bool {
    kind.starts_with("counterfactual")
}

/// A small deterministic generator (splitmix64), so the traffic depends on
/// the workload seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE4C_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One single-explanation `/explain` request, as one click in the UI sends.
#[derive(Debug, Clone)]
pub struct Request {
    pub model: &'static str,
    pub kind: &'static str,
    pub subject: PersonId,
    pub query: Query,
    pub body: String,
}

fn request(
    graph: &CollabGraph,
    model: &'static str,
    kind: &'static str,
    subject: PersonId,
    query: &Query,
) -> Request {
    let terms: Vec<String> = query
        .skills()
        .iter()
        .map(|&s| json::escape(graph.vocab().name(s).expect("query skills are known")))
        .collect();
    let body = format!(
        "{{\"requests\":[{{\"model\":\"{model}\",\"subject\":{},\"query\":[{}],\"kind\":\"{kind}\"}}]}}",
        subject.0,
        terms.join(",")
    );
    Request {
        model,
        kind,
        subject,
        query: query.clone(),
        body,
    }
}

/// `contexts` query contexts from the query log, each explained for up to
/// `subjects` people: those of the query's TF-IDF top 40 with the smallest
/// two-hop neighbourhoods (at most the lower quartile of the graph's), as
/// when an analyst explains a few people of one ranking. Cold cost hinges
/// on the query and on drawing a hub, so both are fixed and the workload
/// seed only orders the requests. Every (model, kind) pair of `combos` is
/// asked once per context — for every subject when `every_subject` holds
/// and the kind is a counterfactual.
pub fn requests(
    graph: &CollabGraph,
    combos: &[(&'static str, &'static str)],
    contexts: usize,
    subjects: usize,
    every_subject: bool,
    seed: u64,
) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let queries = QueryWorkload::answerable(graph, contexts, 2, 3, 3, QUERY_LOG_SEED);
    let reach: Vec<usize> = graph.people_ids().map(|p| two_hop(graph, p)).collect();
    let mut sorted = reach.clone();
    sorted.sort_unstable();
    let small = sorted[sorted.len() / 4];
    let mut out = Vec::with_capacity(contexts * combos.len());
    for query in queries.queries() {
        let ranking = TfIdfRanker::default().rank_all(graph, query);
        let mut candidates: Vec<PersonId> = ranking
            .entries()
            .iter()
            .take(4 * crate::stack::K)
            .map(|&(p, _)| p)
            .collect();
        candidates.sort_by_key(|p| (reach[p.index()], p.0));
        let fitting = candidates
            .iter()
            .filter(|p| reach[p.index()] <= small)
            .count();
        candidates.truncate(fitting.max(1).min(subjects));
        let subjects = candidates;
        let mut round = Vec::new();
        for (i, &(model, kind)) in combos.iter().enumerate() {
            if every_subject && is_counterfactual(kind) {
                for &subject in &subjects {
                    round.push(request(graph, model, kind, subject, query));
                }
            } else {
                let subject = subjects[i % subjects.len()];
                round.push(request(graph, model, kind, subject, query));
            }
        }
        rng.shuffle(&mut round);
        out.extend(round);
    }
    out
}

/// People within two hops of `p`: the size of the neighbourhood the
/// collaboration explanations search, which sets most of their cost.
fn two_hop(graph: &CollabGraph, p: PersonId) -> usize {
    let mut ball: Vec<PersonId> = graph.neighbors(p).to_vec();
    for &n in graph.neighbors(p) {
        ball.extend_from_slice(graph.neighbors(n));
    }
    ball.sort_unstable();
    ball.dedup();
    ball.len()
}

/// Every (model, kind) pair of `models`.
pub fn all_kinds(models: &[&'static str]) -> Vec<(&'static str, &'static str)> {
    models
        .iter()
        .flat_map(|&m| KINDS.iter().map(move |&k| (m, k)))
        .collect()
}

/// `batches` seeded churn batches of `ops` ops each, valid in order against
/// `graph`, with their `/commit` bodies.
pub fn update_stream(
    graph: &CollabGraph,
    batches: usize,
    ops: usize,
    seed: u64,
) -> Vec<(UpdateBatch, String)> {
    let config = UpdateStreamConfig::churn(batches, ops, Rng::new(seed).next_u64());
    UpdateStream::generate(graph, &config)
        .into_batches()
        .into_iter()
        .map(|batch| {
            let body = commit_body(&batch);
            (batch, body)
        })
        .collect()
}

fn commit_body(batch: &UpdateBatch) -> String {
    let ops: Vec<String> = batch
        .ops()
        .iter()
        .map(|op| match op {
            UpdateOp::AddPerson { name, skills } => {
                let skills: Vec<String> = skills.iter().map(|s| json::escape(s)).collect();
                format!(
                    "{{\"op\":\"add_person\",\"name\":{},\"skills\":[{}]}}",
                    json::escape(name),
                    skills.join(",")
                )
            }
            UpdateOp::AddSkill { person, skill } => format!(
                "{{\"op\":\"add_skill\",\"person\":{},\"skill\":{}}}",
                person.0,
                json::escape(skill)
            ),
            UpdateOp::RemoveSkill { person, skill } => format!(
                "{{\"op\":\"remove_skill\",\"person\":{},\"skill\":{}}}",
                person.0,
                json::escape(skill)
            ),
            UpdateOp::AddCollaboration { a, b } => format!(
                "{{\"op\":\"add_collaboration\",\"a\":{},\"b\":{}}}",
                a.0, b.0
            ),
            UpdateOp::RemoveCollaboration { a, b } => format!(
                "{{\"op\":\"remove_collaboration\",\"a\":{},\"b\":{}}}",
                a.0, b.0
            ),
        })
        .collect();
    format!("{{\"ops\":[{}]}}", ops.join(","))
}

/// One answered (or failed) explain request.
pub struct Outcome {
    /// Index into the request list.
    pub index: usize,
    pub latency_ms: f64,
    pub bytes: usize,
    /// The read-your-writes floor the request carried (0: none).
    pub floor: u64,
    pub answer: Result<Answer, String>,
}

/// How long the closed-loop clients keep sending.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Cycle through the requests until this many seconds have passed.
    Seconds(f64),
    /// Send every request exactly once.
    OnePass,
}

/// Closed-loop explain clients: each of `clients` threads sends the next
/// request of `requests` only after its previous one was answered. With
/// `floor`, every request carries `X-Exes-Min-Epoch` set to the floor's
/// current value. Returns the outcomes and the wall time until the last
/// answer.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[Request],
    clients: usize,
    until: Until,
    floor: Option<&AtomicU64>,
) -> (Vec<Outcome>, f64) {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let next = || match until {
        Until::Seconds(limit) => (start.elapsed().as_secs_f64() < limit)
            .then(|| cursor.fetch_add(1, Ordering::Relaxed) % requests.len()),
        Until::OnePass => {
            Some(cursor.fetch_add(1, Ordering::Relaxed)).filter(|&index| index < requests.len())
        }
    };
    let outcomes = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::new(addr);
                    let mut outcomes = Vec::new();
                    while let Some(index) = next() {
                        let epoch = floor.map_or(0, |f| f.load(Ordering::SeqCst));
                        let gate = epoch.to_string();
                        let headers: &[(&str, &str)] = if floor.is_some() {
                            &[("X-Exes-Min-Epoch", &gate)]
                        } else {
                            &[]
                        };
                        let sent = Instant::now();
                        let response =
                            client.request("POST", "/explain", headers, &requests[index].body);
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        let (bytes, answer) = match response {
                            Ok(r) if r.status == 200 => (r.body.len(), parse_answer(&r.body)),
                            Ok(r) => (r.body.len(), Err(format!("HTTP {}: {}", r.status, r.body))),
                            Err(e) => (0, Err(format!("connection error: {e}"))),
                        };
                        outcomes.push(Outcome {
                            index,
                            latency_ms,
                            bytes,
                            floor: epoch,
                            answer,
                        });
                    }
                    outcomes
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    (outcomes, start.elapsed().as_secs_f64())
}

/// One `/commit` of the writer.
pub struct Commit {
    /// From the commit's due time to its acknowledgement.
    pub latency_ms: f64,
    /// How late the writer sent it.
    pub lateness_ms: f64,
    /// The published epoch, or why the commit failed.
    pub epoch: Result<u64, String>,
}

fn commit(client: &mut Client, body: &str) -> Result<u64, String> {
    let response = client
        .post("/commit", body)
        .map_err(|e| format!("connection error: {e}"))?;
    if response.status != 200 {
        return Err(format!("HTTP {}: {}", response.status, response.body));
    }
    json::parse(&response.body)?
        .get("epoch")
        .and_then(Json::as_u64)
        .ok_or_else(|| "commit response has no epoch".to_string())
}

/// The open-loop writer: commits `batches` in order at `rate` per second
/// until `seconds` have passed, each timed from when it was due. Every
/// acknowledged epoch is published to `acked`.
pub fn open_loop_commits(
    addr: SocketAddr,
    batches: &[(UpdateBatch, String)],
    rate: f64,
    seconds: f64,
    acked: &AtomicU64,
) -> Vec<Commit> {
    let mut client = Client::new(addr);
    let start = Instant::now();
    let mut commits = Vec::new();
    for (i, (_, body)) in batches.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        if due >= start + Duration::from_secs_f64(seconds) {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let lateness_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
        let epoch = commit(&mut client, body);
        let latency_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
        if let Ok(epoch) = epoch {
            acked.fetch_max(epoch, Ordering::SeqCst);
        }
        commits.push(Commit {
            latency_ms,
            lateness_ms,
            epoch,
        });
    }
    assert!(
        commits.len() < batches.len(),
        "the update stream ran out before the measured phase ended"
    );
    commits
}

/// People, edges and skills of `graph`, for the run record.
pub fn shape(graph: &CollabGraph) -> (usize, usize, usize) {
    (graph.num_people(), graph.num_edges(), graph.vocab().len())
}
