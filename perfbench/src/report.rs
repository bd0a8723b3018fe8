//! Statistics, `/metrics` scraping, and the end-to-end and per-layer
//! metric sets.

use crate::http::Client;
use crate::json::{self, Json};
use crate::trace::{Layer, Op, Span};
use std::net::SocketAddr;

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `GET path` on `addr`, parsed.
pub fn scrape(addr: SocketAddr, path: &str) -> Json {
    let response = Client::new(addr)
        .get(path)
        .unwrap_or_else(|e| panic!("GET {path} on {addr}: {e}"));
    json::parse(&response.body).unwrap_or_else(|e| panic!("GET {path} on {addr}: {e}"))
}

/// A `/metrics` document before and after the measured phase, per server.
pub struct Deltas {
    pub before: Vec<Json>,
    pub after: Vec<Json>,
}

impl Deltas {
    /// The change of the counter at `path`, summed over servers.
    pub fn sum(&self, path: &str) -> f64 {
        let read = |doc: &Json| doc.path(path).and_then(Json::as_f64).unwrap_or(0.0);
        self.before
            .iter()
            .zip(&self.after)
            .map(|(b, a)| read(a) - read(b))
            .sum()
    }

    /// The largest value of the gauge at `path` after the phase.
    pub fn max_after(&self, path: &str) -> f64 {
        self.after
            .iter()
            .filter_map(|doc| doc.path(path).and_then(Json::as_f64))
            .fold(0.0, f64::max)
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Span totals of one layer and entry point: calls and summed seconds.
fn span_totals(spans: &[Span], layer: Layer, ops: &[Op]) -> (f64, f64) {
    spans
        .iter()
        .filter(|s| s.layer == layer && ops.contains(&s.op))
        .fold((0.0, 0.0), |(calls, secs), s| {
            (calls + 1.0, secs + s.dur_ns as f64 * 1e-9)
        })
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    pub workers: &'a Deltas,
    pub router: Option<&'a Deltas>,
    pub spans: &'a [Span],
    /// Client-observed latencies of the traced phase.
    pub latencies_ms: &'a [f64],
    pub response_bytes: &'a [f64],
    pub lateness_ms: &'a [f64],
    /// Commit latencies from each commit's due time (`live_churn`).
    pub commit_ms: &'a [f64],
    pub store_commit_us: &'a [f64],
    pub durable_commit_us: &'a [f64],
    pub traced_rps: f64,
    pub untraced_rps: f64,
    pub failed_frac: f64,
}

/// The per-layer metric set. A layer that does no work in the workload
/// reads 0.
pub fn layer_metrics(x: &LayerInputs<'_>) -> Vec<Metric> {
    let w = x.workers;
    let requests = w.sum("explain.requests");
    let mut out = Vec::new();

    // Router tier.
    let r = |path: &str| x.router.map_or(0.0, |d| d.sum(path));
    let routed = r("explain.requests");
    out.push(metric(
        "router.sub_batches_per_request",
        "count",
        ratio(r("explain.sub_batches"), routed),
    ));
    out.push(metric(
        "router.gate_held_frac",
        "ratio",
        ratio(r("explain.gate_held"), routed),
    ));
    out.push(metric("router.reroutes", "count", r("explain.reroutes")));
    out.push(metric(
        "router.fanout_failures",
        "count",
        r("commit.fanout_failures"),
    ));
    out.push(metric("router.catch_ups", "count", r("commit.catch_ups")));

    // Server tier. Lane quantiles are the servers' lifetime histograms
    // (each phase runs on fresh servers), read as bucket upper bounds.
    for lane in ["fast", "slow"] {
        for q in ["p50_ms", "p95_ms"] {
            out.push(metric(
                format!("server.lane_{lane}.{q}"),
                "ms",
                w.max_after(&format!("lanes.{lane}.{q}")),
            ));
        }
    }
    let fast = w.sum("lanes.fast.admitted");
    let slow = w.sum("lanes.slow.admitted");
    let busiest_lane = if slow > fast { "slow" } else { "fast" };
    let client_p50 = quantile(x.latencies_ms, 0.5);
    out.push(metric(
        "server.outside_lane_ms",
        "ms",
        client_p50 - w.max_after(&format!("lanes.{busiest_lane}.p50_ms")),
    ));
    out.push(metric(
        "server.batch_size_mean",
        "count",
        ratio(requests, w.sum("explain.micro_batches")),
    ));
    out.push(metric(
        "server.slow_lane_share",
        "ratio",
        ratio(slow, fast + slow),
    ));
    out.push(metric(
        "server.response_kb_mean",
        "KiB",
        mean(x.response_bytes) / 1024.0,
    ));
    out.push(metric(
        "server.shed_frac",
        "ratio",
        ratio(w.sum("explain.shed_requests"), requests),
    ));

    // Probe engine and service.
    let incremental = w.sum("explain.incremental_rescores");
    let full = w.sum("explain.full_fallback_rescores");
    let hits = w.sum("cache.hits");
    let misses = w.sum("cache.misses");
    let plan_hits = w.sum("plan.hits");
    let plan_misses = w.sum("plan.misses");
    out.push(metric(
        "probe.per_request",
        "count",
        ratio(w.sum("explain.probes"), requests),
    ));
    out.push(metric(
        "probe.incremental_frac",
        "ratio",
        ratio(incremental, incremental + full),
    ));
    out.push(metric(
        "probe.cache_hit_rate",
        "ratio",
        ratio(hits, hits + misses),
    ));
    out.push(metric(
        "probe.plan_hit_rate",
        "ratio",
        ratio(plan_hits, plan_hits + plan_misses),
    ));
    out.push(metric(
        "probe.cache_evictions",
        "count",
        w.sum("cache.evictions"),
    ));
    out.push(metric(
        "service.dedup_frac",
        "ratio",
        ratio(w.sum("explain.duplicate_requests"), requests),
    ));

    // Black boxes, from the forwarding wrappers' spans.
    let mut black_box_s = 0.0;
    for model in ["tfidf", "propagation", "gcn"] {
        let layer = Layer::Ranker(model);
        let (full_calls, full_s) = span_totals(x.spans, layer, &[Op::Full]);
        let (incr_calls, incr_s) = span_totals(x.spans, layer, &[Op::Incremental]);
        let (declined, _) = span_totals(x.spans, layer, &[Op::Declined]);
        let (baseline_calls, baseline_s) = span_totals(x.spans, layer, &[Op::Baseline]);
        let all = [
            Op::Full,
            Op::Score,
            Op::Incremental,
            Op::Declined,
            Op::Baseline,
        ];
        let (_, busy_s) = span_totals(x.spans, layer, &all);
        black_box_s += busy_s;
        let p = |m: &str| format!("ranker.{model}.{m}");
        out.push(metric(p("full_calls"), "count", full_calls));
        out.push(metric(p("full_us"), "us", ratio(full_s * 1e6, full_calls)));
        out.push(metric(p("incr_calls"), "count", incr_calls));
        out.push(metric(p("incr_us"), "us", ratio(incr_s * 1e6, incr_calls)));
        out.push(metric(
            p("incr_decline_frac"),
            "ratio",
            ratio(declined, incr_calls + declined),
        ));
        out.push(metric(p("busy_s"), "s", busy_s));
        out.push(metric(p("baseline_calls"), "count", baseline_calls));
        out.push(metric(
            p("baseline_us"),
            "us",
            ratio(baseline_s * 1e6, baseline_calls),
        ));
    }
    let (form_calls, form_s) = span_totals(x.spans, Layer::Team, &[Op::Form]);
    let (_, team_busy_s) = span_totals(
        x.spans,
        Layer::Team,
        &[
            Op::Form,
            Op::Full,
            Op::Score,
            Op::Baseline,
            Op::Incremental,
            Op::Declined,
        ],
    );
    let (link_calls, link_s) = span_totals(x.spans, Layer::LinkPred, &[Op::Link]);
    black_box_s += team_busy_s + link_s;
    out.push(metric("team.form_calls", "count", form_calls));
    out.push(metric(
        "team.form_us",
        "us",
        ratio(form_s * 1e6, form_calls),
    ));
    out.push(metric("team.busy_s", "s", team_busy_s));
    out.push(metric("linkpred.calls", "count", link_calls));
    out.push(metric("linkpred.us", "us", ratio(link_s * 1e6, link_calls)));
    out.push(metric("linkpred.busy_s", "s", link_s));
    let lane_s: f64 = x.latencies_ms.iter().sum::<f64>() / 1e3;
    out.push(metric(
        "engine.black_box_share",
        "ratio",
        ratio(black_box_s, lane_s),
    ));

    // Store and durability (live_churn's replayed replica, and the
    // workers' WAL counters).
    out.push(metric(
        "store.commit_us",
        "us",
        quantile(x.store_commit_us, 0.5),
    ));
    out.push(metric(
        "durability.commit_us",
        "us",
        quantile(x.durable_commit_us, 0.5),
    ));
    out.push(metric(
        "durability.wal_bytes_per_commit",
        "bytes",
        ratio(
            w.sum("durability.wal_bytes"),
            w.sum("durability.wal_appends"),
        ),
    ));
    out.push(metric(
        "durability.snapshots",
        "count",
        w.sum("durability.snapshots_written"),
    ));

    out.push(metric("commit_p50_ms", "ms", quantile(x.commit_ms, 0.5)));
    out.push(metric("commit_p95_ms", "ms", quantile(x.commit_ms, 0.95)));
    out.push(metric(
        "gen.lateness_p95_ms",
        "ms",
        quantile(x.lateness_ms, 0.95),
    ));
    out.push(metric(
        "trace.overhead_frac",
        "ratio",
        1.0 - ratio(x.traced_rps, x.untraced_rps),
    ));
    out.push(metric("failed_frac", "ratio", x.failed_frac));
    // The benchmark process hosts every server, so its peak resident set
    // shows work moved into memory. It grows with the work a fixed-length
    // run completes, so it is a layer figure, not a bounded one.
    out.push(metric("peak_rss_mb", "MiB", peak_rss_mb()));
    out
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json::escape(&m.name),
                json::escape(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}
