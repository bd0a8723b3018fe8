//! The served-path benchmark of the ExES serving stack.
//!
//! It starts the real served system in this process (`exes-server`s and, for
//! `live_churn`, an `exes-router` over durable workers), drives it over
//! loopback HTTP from at most two client threads, checks every answer, and
//! prints every metric by name with its unit. The last line of standard
//! output is the result:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {"latency_p50_ms": {"value": …, "unit": "ms"}, …}}
//! ```
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_explain --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! * `cold_explain` — a fresh server; one closed-loop client sends
//!   never-seen requests, all six kinds × the four models, a few subjects
//!   per query context (with two clients, cheap requests queue behind
//!   expensive ones in the server's single slow lane, and the median
//!   latency measured that queueing rather than the engine);
//! * `warm_replay` — a fixed working set answered once during set-up, then
//!   replayed by two closed-loop clients, every probe a cache hit;
//! * `live_churn` — a router over two durable workers; an open-loop writer
//!   commits seeded update batches on a fixed schedule while one
//!   closed-loop reader sends cheap-to-rebuild requests gated on the last
//!   acknowledged epoch.
//!
//! With `--trace 0` the result holds the end-to-end metrics. With
//! `--trace 1` the workload runs twice on fresh systems, untraced and then
//! with the forwarding timing wrappers of [`trace`], and the result holds
//! the per-layer metrics (the difference between the two runs is the
//! tracing overhead). The process exits non-zero when any check fails.

mod check;
mod http;
mod json;
mod load;
mod report;
mod stack;
mod trace;

use check::Answer;
use exes_graph::{GraphSnapshot, GraphStore};
use load::{Commit, Outcome, Request, Until};
use report::{metric, quantile, ratio, Deltas, Metric};
use stack::Fleet;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

/// Client threads per workload (one per core of the 2-core reference box).
const CLIENTS: usize = 2;
/// Closed-loop clients of `cold_explain`.
const COLD_CLIENTS: usize = 1;
/// Set-ups per run; `setup_s` reports their median. `warm_replay`'s set-up
/// includes its cold warm-up pass, so it repeats fewer times.
const SETUP_REPS: usize = 5;
const WARM_SETUP_REPS: usize = 2;
/// Query contexts generated for `cold_explain` (more than any run uses, so
/// every request stays never-seen).
const COLD_CONTEXTS: usize = 400;
/// Query contexts in `warm_replay`'s working set.
const WARM_CONTEXTS: usize = 1;
/// Query contexts `live_churn`'s reader cycles through.
const CHURN_CONTEXTS: usize = 64;
/// Subjects explained per query context.
const SUBJECTS: usize = 3;
/// Subjects of `warm_replay`'s context, each asked every counterfactual
/// kind: enough counterfactuals that `cf_found_frac` does not hinge on a
/// handful of people.
const WARM_SUBJECTS: usize = 6;
/// Durable workers behind the router in `live_churn`.
const CHURN_WORKERS: usize = 2;
/// The writer's schedule, in commits per second. Kept low: concurrent
/// commits and router health sweeps can mark workers unhealthy.
const COMMIT_RATE: f64 = 5.0;
/// Ops per update batch. Eight make a fully idempotent batch (one whose
/// replay a worker would accept twice) vanishingly rare.
const COMMIT_OPS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ColdExplain,
    WarmReplay,
    LiveChurn,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ColdExplain,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = match value.as_str() {
                    "cold_explain" => Workload::ColdExplain,
                    "warm_replay" => Workload::WarmReplay,
                    "live_churn" => Workload::LiveChurn,
                    other => return Err(format!("unknown workload '{other}'")),
                }
            }
            "--seed" => args.seed = value.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => args.seconds = value.parse().map_err(|_| "--seconds: not a number")?,
            "--trace" => args.trace = value == "1",
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

/// One measured phase on one freshly set-up system.
#[derive(Default)]
struct Phase {
    setup_s: Vec<f64>,
    requests: Vec<Request>,
    outcomes: Vec<Outcome>,
    wall_s: f64,
    commits: Vec<Commit>,
    workers: Option<Deltas>,
    router: Option<Deltas>,
    spans: Vec<trace::Span>,
    store_commit_us: Vec<f64>,
    durable_commit_us: Vec<f64>,
    /// Check failures: anything that makes the run incorrect.
    errors: Vec<String>,
    shape: (usize, usize, usize),
}

impl Phase {
    fn answers(&self) -> impl Iterator<Item = (&Outcome, &Answer)> {
        self.outcomes
            .iter()
            .filter_map(|o| o.answer.as_ref().ok().map(|a| (o, a)))
    }

    fn failed(&self) -> usize {
        let explains = self
            .outcomes
            .iter()
            .filter(|o| o.answer.as_ref().map_or(true, |a| a.timed_out))
            .count();
        explains + self.commits.iter().filter(|c| c.epoch.is_err()).count()
    }

    fn attempted(&self) -> usize {
        self.outcomes.len() + self.commits.len()
    }

    fn throughput_rps(&self) -> f64 {
        ratio(self.answers().count() as f64, self.wall_s)
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.latency_ms).collect()
    }
}

/// Runs `setup` [`SETUP_REPS`] times (or once), timing each, and keeps the
/// last system for measurement.
fn set_up<T>(reps: usize, mut setup: impl FnMut() -> (T, Fleet)) -> (Vec<f64>, T, Fleet) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        if let Some((_, fleet)) = last.take() {
            Fleet::shutdown(fleet);
        }
        let started = Instant::now();
        last = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    let (state, fleet) = last.expect("at least one set-up");
    (times, state, fleet)
}

fn scrape_all(addrs: &[std::net::SocketAddr]) -> Vec<json::Json> {
    addrs
        .iter()
        .map(|&a| report::scrape(a, "/metrics"))
        .collect()
}

/// Verifies the phase's answers: every counterfactual flips its decision on
/// the graph of the epoch that answered it, and every gated read was served
/// at or above its floor.
fn verify(phase: &mut Phase, graph_at: impl Fn(u64) -> Option<Arc<GraphSnapshot>>) {
    let mut errors = Vec::new();
    let mut verified = HashSet::new();
    for (outcome, answer) in phase.answers() {
        if answer.epoch < outcome.floor {
            errors.push(format!(
                "read gated at epoch {} was served at epoch {}",
                outcome.floor, answer.epoch
            ));
        }
        let Some(explanations) = &answer.counterfactuals else {
            continue;
        };
        // A request answered again at the same epoch was verified already.
        if !verified.insert((outcome.index, answer.epoch)) {
            continue;
        }
        let request = &phase.requests[outcome.index];
        let Some(snapshot) = graph_at(answer.epoch) else {
            errors.push(format!("no replica snapshot for epoch {}", answer.epoch));
            continue;
        };
        if let Err(e) = check::verify_counterfactuals(
            snapshot.graph(),
            request.model,
            &request.query,
            request.subject,
            explanations,
        ) {
            errors.push(format!("{}: {e}", request.kind));
        }
    }
    phase.errors.extend(errors);
}

fn cold_explain(seed: u64, seconds: f64, traced: bool, reps: usize) -> Phase {
    let combos = load::all_kinds(&stack::MODELS);
    let (setup_s, (data, requests), fleet) = set_up(reps, || {
        let data = stack::data();
        let requests = load::requests(
            &data.ds.graph,
            &combos,
            COLD_CONTEXTS,
            SUBJECTS,
            false,
            seed,
        );
        let fleet = stack::single_server(&data, traced);
        ((data, requests), fleet)
    });
    let mut phase = Phase {
        setup_s,
        shape: load::shape(&data.ds.graph),
        ..Default::default()
    };
    let before = scrape_all(&fleet.workers);
    trace::drain();
    let (outcomes, wall_s) = load::closed_loop(
        fleet.front,
        &requests,
        COLD_CLIENTS,
        Until::Seconds(seconds),
        None,
    );
    phase.spans = trace::drain();
    phase.workers = Some(Deltas {
        before,
        after: scrape_all(&fleet.workers),
    });
    phase.requests = requests;
    phase.outcomes = outcomes;
    phase.wall_s = wall_s;
    if phase
        .outcomes
        .iter()
        .any(|o| o.index + 1 == phase.requests.len())
    {
        phase
            .errors
            .push("cold_explain ran out of never-seen requests".to_string());
    }
    fleet.shutdown();
    let epoch0 = Arc::new(GraphStore::new(data.ds.graph.clone())).snapshot();
    verify(&mut phase, |epoch| {
        (epoch == 0).then(|| Arc::clone(&epoch0))
    });
    phase
}

fn warm_replay(seed: u64, seconds: f64, traced: bool, reps: usize) -> Phase {
    let combos = load::all_kinds(&stack::MODELS);
    let (setup_s, (data, requests, warm), fleet) = set_up(reps, || {
        let data = stack::data();
        let requests = load::requests(
            &data.ds.graph,
            &combos,
            WARM_CONTEXTS,
            WARM_SUBJECTS,
            true,
            seed,
        );
        let fleet = stack::single_server(&data, traced);
        let (warm, _) = load::closed_loop(fleet.front, &requests, CLIENTS, Until::OnePass, None);
        ((data, requests, warm), fleet)
    });
    let mut phase = Phase {
        setup_s,
        shape: load::shape(&data.ds.graph),
        ..Default::default()
    };
    let before = scrape_all(&fleet.workers);
    trace::drain();
    let (outcomes, wall_s) = load::closed_loop(
        fleet.front,
        &requests,
        CLIENTS,
        Until::Seconds(seconds),
        None,
    );
    phase.spans = trace::drain();
    phase.workers = Some(Deltas {
        before,
        after: scrape_all(&fleet.workers),
    });
    phase.requests = requests;
    phase.outcomes = outcomes;
    phase.wall_s = wall_s;
    fleet.shutdown();

    // Replays must answer exactly what the working set answered first.
    let mut first: HashMap<usize, &Answer> = HashMap::new();
    for outcome in &warm {
        match &outcome.answer {
            Ok(answer) => {
                first.insert(outcome.index, answer);
            }
            Err(e) => phase.errors.push(format!("warm-up request failed: {e}")),
        }
    }
    let mut mismatches = Vec::new();
    for (outcome, answer) in phase.answers() {
        if first.get(&outcome.index).map(|a| &a.essence) != Some(&answer.essence) {
            mismatches.push(format!(
                "replay of request {} differs from its first answer",
                outcome.index
            ));
        }
    }
    phase.errors.extend(mismatches);
    let epoch0 = Arc::new(GraphStore::new(data.ds.graph.clone())).snapshot();
    verify(&mut phase, |epoch| {
        (epoch == 0).then(|| Arc::clone(&epoch0))
    });
    phase
}

fn live_churn(seed: u64, seconds: f64, traced: bool, reps: usize, scratch: &Path) -> Phase {
    let mut combos = load::all_kinds(&["tfidf", "team"]);
    combos.push(("propagation", "counterfactual_skills"));
    let batches = (seconds * COMMIT_RATE) as usize + 16;
    let (setup_s, (data, requests, stream), fleet) = set_up(reps, || {
        let data = stack::data();
        let requests = load::requests(
            &data.ds.graph,
            &combos,
            CHURN_CONTEXTS,
            SUBJECTS,
            false,
            seed,
        );
        let stream = load::update_stream(&data.ds.graph, batches, COMMIT_OPS, seed);
        let fleet = stack::routed_fleet(&data, CHURN_WORKERS, scratch, traced);
        ((data, requests, stream), fleet)
    });
    let mut phase = Phase {
        setup_s,
        shape: load::shape(&data.ds.graph),
        ..Default::default()
    };
    let router = fleet.router.expect("live_churn runs behind a router");
    let before = scrape_all(&fleet.workers);
    let router_before = vec![report::scrape(router, "/metrics")];
    trace::drain();
    let acked = AtomicU64::new(0);
    let ((outcomes, wall_s), commits) = std::thread::scope(|scope| {
        let writer = scope
            .spawn(|| load::open_loop_commits(fleet.front, &stream, COMMIT_RATE, seconds, &acked));
        let reads = load::closed_loop(
            fleet.front,
            &requests,
            1,
            Until::Seconds(seconds),
            Some(&acked),
        );
        (reads, writer.join().expect("writer thread panicked"))
    });
    phase.spans = trace::drain();
    phase.workers = Some(Deltas {
        before,
        after: scrape_all(&fleet.workers),
    });
    phase.router = Some(Deltas {
        before: router_before,
        after: vec![report::scrape(router, "/metrics")],
    });
    phase.requests = requests;
    phase.outcomes = outcomes;
    phase.wall_s = wall_s;
    phase.commits = commits;

    // Replay the acknowledged commits into a replica store; its per-epoch
    // snapshots are what the checker verifies answers against.
    let replica = GraphStore::new(data.ds.graph.clone());
    let mut snapshots = vec![replica.snapshot()];
    let durable = traced.then(|| {
        exes_durability::DurableStore::open(
            stack::fresh_dir(scratch),
            exes_durability::DurabilityConfig::default(),
            || data.ds.graph.clone(),
        )
        .expect("open the replica's data directory")
    });
    for (commit, (batch, _)) in phase.commits.iter().zip(&stream) {
        // After a failed commit the fleet and the stream part ways; the
        // failure already makes the run incorrect.
        let Ok(epoch) = commit.epoch else { break };
        let started = Instant::now();
        let Ok(snapshot) = replica.commit(batch) else {
            phase
                .errors
                .push(format!("the replica rejects the batch of epoch {epoch}"));
            break;
        };
        phase
            .store_commit_us
            .push(started.elapsed().as_secs_f64() * 1e6);
        if snapshot.epoch() != epoch {
            phase.errors.push(format!(
                "router published epoch {epoch}, the replica reached {}",
                snapshot.epoch()
            ));
        }
        snapshots.push(snapshot);
        if let Some(durable) = &durable {
            let started = Instant::now();
            if durable.commit(batch).is_err() {
                phase.errors.push(format!(
                    "the durable replica rejects the batch of epoch {epoch}"
                ));
            }
            phase
                .durable_commit_us
                .push(started.elapsed().as_secs_f64() * 1e6);
        }
    }
    if let Some(durable) = durable {
        let _ = std::fs::remove_dir_all(durable.dir());
    }

    // Every worker converged on the replica's final epoch and fingerprint.
    let last = snapshots.last().expect("epoch 0 is always present");
    for &worker in &fleet.workers {
        let health = report::scrape(worker, "/healthz");
        let epoch = health.get("epoch").and_then(json::Json::as_u64);
        let fingerprint = health
            .get("fingerprint")
            .and_then(json::Json::as_str)
            .and_then(|hex| u64::from_str_radix(hex, 16).ok());
        if epoch != Some(last.epoch()) || fingerprint != Some(last.graph().fingerprint()) {
            phase.errors.push(format!(
                "worker {worker} is at epoch {epoch:?} fingerprint {fingerprint:x?}, \
                 the replica at epoch {} fingerprint {:x}",
                last.epoch(),
                last.graph().fingerprint()
            ));
        }
    }
    fleet.shutdown();
    verify(&mut phase, |epoch| snapshots.get(epoch as usize).cloned());
    phase
}

fn run_phase(args: &Args, traced: bool, reps: usize, scratch: &Path) -> Phase {
    match args.workload {
        Workload::ColdExplain => cold_explain(args.seed, args.seconds, traced, reps),
        Workload::WarmReplay => warm_replay(args.seed, args.seconds, traced, reps),
        Workload::LiveChurn => live_churn(args.seed, args.seconds, traced, reps, scratch),
    }
}

/// The end-to-end metric set, measured with tracing off.
fn end_to_end(phase: &Phase) -> Vec<Metric> {
    let latencies = phase.latencies_ms();
    // Per counterfactual request: the size of its smallest explanation, if
    // it returned any.
    let smallest: Vec<Option<usize>> = phase
        .answers()
        .filter_map(|(_, answer)| answer.counterfactuals.as_deref().map(check::smallest))
        .collect();
    let found: Vec<f64> = smallest.iter().flatten().map(|&size| size as f64).collect();
    vec![
        metric("latency_p50_ms", "ms", quantile(&latencies, 0.5)),
        metric("latency_p95_ms", "ms", quantile(&latencies, 0.95)),
        metric("throughput_rps", "1/s", phase.throughput_rps()),
        metric("setup_s", "s", quantile(&phase.setup_s, 0.5)),
        metric(
            "cf_found_frac",
            "ratio",
            ratio(found.len() as f64, smallest.len() as f64),
        ),
        metric("cf_size_mean", "count", report::mean(&found)),
    ]
}

/// The git revision of the checkout, when it is a git work tree.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|rev| rev.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = PathBuf::from(".perfbench-tmp");
    let phases = if args.trace {
        // The untraced twin gives the overhead baseline.
        let untraced = run_phase(&args, false, 1, &scratch);
        let traced = run_phase(&args, true, 1, &scratch);
        vec![untraced, traced]
    } else {
        let reps = match args.workload {
            Workload::WarmReplay => WARM_SETUP_REPS,
            _ => SETUP_REPS,
        };
        vec![run_phase(&args, false, reps, &scratch)]
    };
    let _ = std::fs::remove_dir(&scratch);
    let measured = phases.last().expect("one phase at least");
    let (people, edges, skills) = measured.shape;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"run\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"exes_threads\": {}, \"people\": {people}, \"edges\": {edges}, \
         \"skills\": {skills}, \"models\": {:?}, \"revision\": {}, \"explains\": {}, \
         \"commits\": {}}}}}",
        json::escape(&format!("{:?}", args.workload)),
        args.seed,
        args.seconds,
        args.trace,
        json::escape(&std::env::var("EXES_THREADS").unwrap_or_default()),
        stack::MODELS,
        json::escape(&git_revision()),
        measured.outcomes.len(),
        measured.commits.len(),
    );

    let attempted: usize = phases.iter().map(Phase::attempted).sum();
    let failed: usize = phases.iter().map(Phase::failed).sum();
    let errors: Vec<&String> = phases.iter().flat_map(|p| &p.errors).collect();
    for e in errors.iter().take(20) {
        eprintln!("perfbench: check failed: {e}");
    }
    let failures = phases.iter().flat_map(|p| {
        let explains = p.outcomes.iter().filter_map(|o| o.answer.as_ref().err());
        explains.chain(p.commits.iter().filter_map(|c| c.epoch.as_ref().err()))
    });
    for e in failures.take(5) {
        eprintln!("perfbench: failed: {e}");
    }
    let metrics = if args.trace {
        let (untraced, traced) = (&phases[0], &phases[1]);
        let latencies = traced.latencies_ms();
        let bytes: Vec<f64> = traced.outcomes.iter().map(|o| o.bytes as f64).collect();
        let lateness: Vec<f64> = traced.commits.iter().map(|c| c.lateness_ms).collect();
        let commits: Vec<f64> = traced.commits.iter().map(|c| c.latency_ms).collect();
        report::layer_metrics(&report::LayerInputs {
            workers: traced.workers.as_ref().expect("phases scrape workers"),
            router: traced.router.as_ref(),
            spans: &traced.spans,
            latencies_ms: &latencies,
            response_bytes: &bytes,
            lateness_ms: &lateness,
            commit_ms: &commits,
            store_commit_us: &traced.store_commit_us,
            durable_commit_us: &traced.durable_commit_us,
            traced_rps: traced.throughput_rps(),
            untraced_rps: untraced.throughput_rps(),
            failed_frac: ratio(failed as f64, attempted as f64),
        })
    } else {
        end_to_end(measured)
    };
    for m in &metrics {
        eprintln!("{:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    // Every response must be a valid answer and every commit acknowledged.
    let correct = errors.is_empty() && failed == 0;
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
