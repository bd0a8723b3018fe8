//! Cumulative serving counters behind `GET /metrics`.
//!
//! Counters are plain relaxed atomics: they are monotone gauges for
//! dashboards, not synchronisation. The service-level quantities (probes,
//! cache hits/misses, duplicates) are summed from each micro-batch's
//! [`ServiceReport`], so they measure exactly what the engine measured.
//! Per-lane latency lives in lock-free exponential-bucket histograms
//! ([`LatencyHistogram`]) recorded by connection workers around the
//! enqueue-to-answer span of each admitted job.

use crate::serve::HttpMetrics;
use crate::wire;
use exes_core::ServiceReport;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Number of exponential latency buckets: bucket `i` holds samples whose
/// microsecond count needs `i` bits, i.e. durations in `[2^(i-1), 2^i)` µs
/// (bucket 0 is the sub-microsecond bucket). 40 buckets cover ~12.7 days.
const LATENCY_BUCKETS: usize = 40;

/// A lock-free exponential-bucket histogram of durations.
///
/// Recording is one relaxed `fetch_add`; quantiles walk the bucket counts
/// and return the upper bound of the bucket containing the requested rank
/// (an upper-bound estimate with factor-of-two resolution — exactly what an
/// SLO dashboard needs from `/metrics` without locking the serving path).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration sample.
    pub fn record(&self, duration: Duration) {
        let micros = u64::try_from(duration.as_micros()).unwrap_or(u64::MAX);
        let index = (64 - micros.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[index].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`) in milliseconds, as the upper
    /// bound of the bucket holding that rank. `0.0` when no samples exist.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &count) in counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                // Bucket i's upper bound is 2^i microseconds.
                return (1u64 << i.min(63)) as f64 / 1000.0;
            }
        }
        (1u64 << (LATENCY_BUCKETS - 1)) as f64 / 1000.0
    }
}

/// Cumulative counters for one admission lane (fast or slow).
#[derive(Debug, Default)]
pub struct LaneMetrics {
    /// Requests this lane refused with 503 because its queue was full.
    pub shed_requests: AtomicU64,
    /// Requests admitted into this lane.
    pub admitted_requests: AtomicU64,
    /// Enqueue-to-answer latency of jobs answered through this lane.
    pub latency: LatencyHistogram,
}

impl LaneMetrics {
    fn json(&self, gauges: &LaneGauges) -> String {
        format!(
            "{{\"capacity\":{},\"depth\":{},\"admitted\":{},\"shed\":{},\
             \"p50_ms\":{},\"p95_ms\":{}}}",
            gauges.capacity,
            gauges.depth,
            self.admitted_requests.load(Ordering::Relaxed),
            self.shed_requests.load(Ordering::Relaxed),
            crate::json::fmt_f64(self.latency.quantile_ms(0.50)),
            crate::json::fmt_f64(self.latency.quantile_ms(0.95)),
        )
    }
}

/// Live occupancy of one admission lane, sampled by the `/metrics` handler.
#[derive(Debug, Clone, Copy)]
pub struct LaneGauges {
    /// The lane's admission limit, in requests.
    pub capacity: usize,
    /// Requests waiting in the lane right now.
    pub depth: usize,
}

/// Durability counters of the server's [`exes_durability::DurableStore`],
/// rendered as the `"durability"` metrics group (`null` on a memory-only
/// server).
#[derive(Debug, Clone, Copy, Default)]
pub struct DurabilityGauges {
    /// Batches appended (and fsynced) to the write-ahead log.
    pub wal_appends: u64,
    /// Bytes appended to the write-ahead log.
    pub wal_bytes: u64,
    /// Snapshots written (periodic and drain-time).
    pub snapshots_written: u64,
    /// Wall-clock milliseconds the boot-time recovery took.
    pub last_recovery_ms: u64,
    /// The epoch recovery landed on.
    pub recovered_epoch: u64,
}

impl DurabilityGauges {
    fn json(&self) -> String {
        format!(
            "{{\"wal_appends\":{},\"wal_bytes\":{},\"snapshots_written\":{},\
             \"last_recovery_ms\":{},\"recovered_epoch\":{}}}",
            self.wal_appends,
            self.wal_bytes,
            self.snapshots_written,
            self.last_recovery_ms,
            self.recovered_epoch,
        )
    }
}

/// Everything the `/metrics` handler can see about live state; the
/// cumulative counters live in [`ServerMetrics`] itself.
#[derive(Debug, Clone, Copy)]
pub struct MetricsGauges {
    /// Current graph epoch.
    pub epoch: u64,
    /// Registered models.
    pub models: usize,
    /// Fast-lane occupancy.
    pub fast: LaneGauges,
    /// Slow-lane occupancy.
    pub slow: LaneGauges,
    /// Probe-cache entries.
    pub cache_entries: usize,
    /// Lifetime probe-cache hits.
    pub cache_hits: u64,
    /// Lifetime probe-cache misses.
    pub cache_misses: u64,
    /// Lifetime probe-cache evictions.
    pub cache_evictions: u64,
    /// Lifetime baseline-plan memo hits.
    pub plan_hits: u64,
    /// Lifetime baseline-plan memo misses (plans built).
    pub plan_misses: u64,
    /// Durability counters; `None` when the server runs memory-only.
    pub durability: Option<DurabilityGauges>,
}

/// Cumulative counters for one server's lifetime.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Well-formed `POST /explain` bodies received — including bodies later
    /// shed with 503 (subtract `shed_requests` for admitted work).
    pub explain_batches: AtomicU64,
    /// Explanation requests received across those bodies (again including
    /// ones later shed).
    pub explain_requests: AtomicU64,
    /// Requests answered with a per-request error entry.
    pub request_errors: AtomicU64,
    /// Requests refused with 503 because their admission lane was full
    /// (sum of the per-lane shed counters).
    pub shed_requests: AtomicU64,
    /// Micro-batches the batcher ran through the engine.
    pub micro_batches: AtomicU64,
    /// Black-box probes issued by the engine.
    pub probes: AtomicU64,
    /// Probe lookups served by the persistent cache.
    pub cache_hits: AtomicU64,
    /// Probe lookups that missed into the black box.
    pub cache_misses: AtomicU64,
    /// Requests answered by cross-request dedup instead of computation.
    pub duplicate_requests: AtomicU64,
    /// Black-box probes answered through the incremental (delta-localized)
    /// rescoring path of a per-context baseline plan.
    pub incremental_rescores: AtomicU64,
    /// Black-box probes that performed a full re-rank instead — the honest
    /// fallback when no plan exists or a delta exceeds its guarantees.
    pub full_fallback_rescores: AtomicU64,
    /// Baseline-plan memo hits across micro-batches.
    pub plan_hits: AtomicU64,
    /// Baseline-plan memo misses (plans built) across micro-batches.
    pub plan_misses: AtomicU64,
    /// Results returned best-so-far under an exhausted probe budget.
    pub budgeted_results: AtomicU64,
    /// Update batches committed.
    pub commits: AtomicU64,
    /// Update batches rejected by validation.
    pub commit_failures: AtomicU64,
    /// Fast-lane counters.
    pub fast_lane: LaneMetrics,
    /// Slow-lane counters.
    pub slow_lane: LaneMetrics,
    /// The most recent micro-batch's report.
    last_report: Mutex<Option<ServiceReport>>,
}

impl ServerMetrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one micro-batch's report into the cumulative counters.
    pub fn record_batch(&self, report: &ServiceReport) {
        self.micro_batches.fetch_add(1, Ordering::Relaxed);
        self.probes
            .fetch_add(report.probes as u64, Ordering::Relaxed);
        self.cache_hits
            .fetch_add(report.cache_hits, Ordering::Relaxed);
        self.cache_misses
            .fetch_add(report.cache_misses, Ordering::Relaxed);
        self.duplicate_requests
            .fetch_add(report.duplicate_requests as u64, Ordering::Relaxed);
        self.incremental_rescores
            .fetch_add(report.incremental_rescores, Ordering::Relaxed);
        self.full_fallback_rescores
            .fetch_add(report.full_fallback_rescores, Ordering::Relaxed);
        self.plan_hits
            .fetch_add(report.plan_hits, Ordering::Relaxed);
        self.plan_misses
            .fetch_add(report.plan_misses, Ordering::Relaxed);
        self.budgeted_results
            .fetch_add(report.budgeted_results as u64, Ordering::Relaxed);
        *self.last_report.lock().expect("metrics lock poisoned") = Some(*report);
    }

    /// The most recent micro-batch report, if any batch ran yet.
    pub fn last_report(&self) -> Option<ServiceReport> {
        *self.last_report.lock().expect("metrics lock poisoned")
    }

    /// Renders the `/metrics` payload. The caller supplies the connection
    /// counters (the `"http"` group) and the live-state gauges (epoch, model
    /// count, lane occupancy, cache totals) it can see.
    ///
    /// The aggregate `"queue"` section sums both lanes (capacity and depth);
    /// the `"lanes"` section carries the per-lane split.
    pub fn to_json(&self, http: &HttpMetrics, gauges: &MetricsGauges) -> String {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let last = match self.last_report() {
            Some(report) => wire::report_json(&report),
            None => "null".to_string(),
        };
        let queue_capacity = gauges.fast.capacity + gauges.slow.capacity;
        let queue_depth = gauges.fast.depth + gauges.slow.depth;
        let durability = match &gauges.durability {
            Some(d) => d.json(),
            None => "null".to_string(),
        };
        format!(
            "{{\"epoch\":{},\"models\":{},\"http\":{},\
             \"explain\":{{\"batches\":{},\"requests\":{},\"request_errors\":{},\
             \"shed_requests\":{},\"micro_batches\":{},\"probes\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"duplicate_requests\":{},\
             \"incremental_rescores\":{},\"full_fallback_rescores\":{},\
             \"budgeted_results\":{}}},\
             \"commits\":{{\"accepted\":{},\"rejected\":{}}},\
             \"durability\":{durability},\
             \"queue\":{{\"capacity\":{queue_capacity},\"depth\":{queue_depth}}},\
             \"lanes\":{{\"fast\":{},\"slow\":{}}},\
             \"plan\":{{\"hits\":{},\"misses\":{}}},\
             \"cache\":{{\"entries\":{},\"hits\":{},\
             \"misses\":{},\"evictions\":{}}},\
             \"last_report\":{last}}}",
            gauges.epoch,
            gauges.models,
            http.json(),
            get(&self.explain_batches),
            get(&self.explain_requests),
            get(&self.request_errors),
            get(&self.shed_requests),
            get(&self.micro_batches),
            get(&self.probes),
            get(&self.cache_hits),
            get(&self.cache_misses),
            get(&self.duplicate_requests),
            get(&self.incremental_rescores),
            get(&self.full_fallback_rescores),
            get(&self.budgeted_results),
            get(&self.commits),
            get(&self.commit_failures),
            self.fast_lane.json(&gauges.fast),
            self.slow_lane.json(&gauges.slow),
            gauges.plan_hits,
            gauges.plan_misses,
            gauges.cache_entries,
            gauges.cache_hits,
            gauges.cache_misses,
            gauges.cache_evictions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn gauges() -> MetricsGauges {
        MetricsGauges {
            epoch: 2,
            models: 1,
            fast: LaneGauges {
                capacity: 256,
                depth: 0,
            },
            slow: LaneGauges {
                capacity: 64,
                depth: 3,
            },
            cache_entries: 42,
            cache_hits: 7,
            cache_misses: 5,
            cache_evictions: 0,
            plan_hits: 9,
            plan_misses: 4,
            durability: Some(DurabilityGauges {
                wal_appends: 12,
                wal_bytes: 2048,
                snapshots_written: 2,
                last_recovery_ms: 17,
                recovered_epoch: 2,
            }),
        }
    }

    #[test]
    fn batches_accumulate_and_render() {
        let metrics = ServerMetrics::new();
        assert_eq!(metrics.last_report(), None);
        let report = ServiceReport {
            epoch: 2,
            requests: 10,
            groups: 1,
            duplicate_requests: 3,
            failed_requests: 0,
            cache_hits: 7,
            cache_misses: 5,
            cache_evictions: 0,
            probes: 5,
            incremental_rescores: 4,
            full_fallback_rescores: 1,
            plan_hits: 2,
            plan_misses: 1,
            budgeted_results: 2,
        };
        metrics.record_batch(&report);
        metrics.record_batch(&report);
        assert_eq!(metrics.probes.load(Ordering::Relaxed), 10);
        assert_eq!(metrics.duplicate_requests.load(Ordering::Relaxed), 6);
        assert_eq!(metrics.incremental_rescores.load(Ordering::Relaxed), 8);
        assert_eq!(metrics.full_fallback_rescores.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.plan_hits.load(Ordering::Relaxed), 4);
        assert_eq!(metrics.plan_misses.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.budgeted_results.load(Ordering::Relaxed), 4);
        assert_eq!(metrics.last_report(), Some(report));

        let text = metrics.to_json(&HttpMetrics::default(), &gauges());
        let parsed = json::parse(&text).expect("metrics must be valid JSON");
        assert_eq!(parsed.get("epoch").unwrap().as_u64(), Some(2));
        let explain = parsed.get("explain").unwrap();
        assert_eq!(explain.get("micro_batches").unwrap().as_u64(), Some(2));
        assert_eq!(explain.get("probes").unwrap().as_u64(), Some(10));
        assert_eq!(explain.get("budgeted_results").unwrap().as_u64(), Some(4));
        // The aggregate queue section sums both lanes; the lanes section
        // splits them back out.
        let queue = parsed.get("queue").unwrap();
        assert_eq!(queue.get("capacity").unwrap().as_u64(), Some(320));
        assert_eq!(queue.get("depth").unwrap().as_u64(), Some(3));
        let lanes = parsed.get("lanes").unwrap();
        let fast = lanes.get("fast").unwrap();
        assert_eq!(fast.get("capacity").unwrap().as_u64(), Some(256));
        let slow = lanes.get("slow").unwrap();
        assert_eq!(slow.get("depth").unwrap().as_u64(), Some(3));
        let plan = parsed.get("plan").unwrap();
        assert_eq!(plan.get("hits").unwrap().as_u64(), Some(9));
        assert_eq!(plan.get("misses").unwrap().as_u64(), Some(4));
        let durability = parsed.get("durability").unwrap();
        assert_eq!(durability.get("wal_appends").unwrap().as_u64(), Some(12));
        assert_eq!(durability.get("wal_bytes").unwrap().as_u64(), Some(2048));
        assert_eq!(
            durability.get("snapshots_written").unwrap().as_u64(),
            Some(2)
        );
        assert_eq!(
            durability.get("last_recovery_ms").unwrap().as_u64(),
            Some(17)
        );
        assert_eq!(durability.get("recovered_epoch").unwrap().as_u64(), Some(2));
        let last = parsed.get("last_report").unwrap();
        assert_eq!(
            wire::report_from_json(last),
            Some(report),
            "last_report must roundtrip as a ServiceReport"
        );
        // Before any batch, last_report renders as null, and a memory-only
        // server renders a null durability group.
        let fresh = ServerMetrics::new().to_json(
            &HttpMetrics::default(),
            &MetricsGauges {
                durability: None,
                ..gauges()
            },
        );
        let fresh = json::parse(&fresh).unwrap();
        assert_eq!(fresh.get("last_report"), Some(&json::Json::Null));
        assert_eq!(fresh.get("durability"), Some(&json::Json::Null));
    }

    #[test]
    fn latency_histogram_quantiles_bracket_the_samples() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_ms(0.95), 0.0, "empty histogram reads zero");
        for _ in 0..95 {
            h.record(Duration::from_micros(900)); // < 1.024ms bucket
        }
        for _ in 0..5 {
            h.record(Duration::from_millis(400)); // tail
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_ms(0.50);
        let p95 = h.quantile_ms(0.95);
        let p99 = h.quantile_ms(0.99);
        assert!((0.9..=2.0).contains(&p50), "p50 {p50} must bracket 0.9ms");
        assert!(p95 <= p99, "quantiles are monotone: {p95} <= {p99}");
        assert!(
            (400.0..=1100.0).contains(&p99),
            "p99 {p99} must bracket the 400ms tail"
        );
        // Sub-microsecond and huge samples land in the edge buckets without
        // panicking.
        h.record(Duration::ZERO);
        h.record(Duration::from_secs(1 << 30));
        assert_eq!(h.count(), 102);
    }
}
