//! Live service counters and latency distributions.
//!
//! All counters are lock-free atomics updated on the request path. Latency
//! distributions are fixed power-of-two-bucket histograms (64 buckets,
//! bucket `i` covering `[2^i, 2^(i+1))` ns) so quantiles come from a
//! single pass with no allocation and bounded (≤ 2×) relative error.
//! Round-trip latency is kept **per shard** (one histogram each), and the
//! worker splits every request into its queue-wait and execute portions,
//! so a slow shard or a queueing collapse is visible directly instead of
//! being averaged away in one global distribution.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

const BUCKETS: usize = 64;

/// Lock-free histogram of request latencies.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// Record one latency observation.
    pub fn record(&self, latency: Duration) {
        let ns = latency.as_nanos().max(1) as u64;
        let bucket = (63 - ns.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a raw count observation (same log₂ bucketing, the unit is
    /// just "items" instead of nanoseconds) — used for batch-size
    /// distributions, where [`quantile`] then answers "how big is the
    /// p99 batch".
    pub fn record_n(&self, n: u64) {
        let n = n.max(1);
        let bucket = (63 - n.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the bucket counts.
    pub fn counts(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }
}

/// Quantile `q ∈ [0, 1]` of a bucket snapshot, as the upper edge of the
/// bucket holding the q-th observation. `None` when empty. Only the last
/// bucket (63), whose upper edge `2^64` is unrepresentable, saturates to
/// `u64::MAX` ns.
pub fn quantile(counts: &[u64; BUCKETS], q: f64) -> Option<Duration> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            let upper_ns = if i + 1 >= BUCKETS {
                u64::MAX
            } else {
                1u64 << (i + 1)
            };
            return Some(Duration::from_nanos(upper_ns));
        }
    }
    None
}

fn quantiles_of(counts: &[u64; BUCKETS]) -> (Option<Duration>, Option<Duration>) {
    (quantile(counts, 0.50), quantile(counts, 0.99))
}

/// Shared mutable counters; one instance per service, updated by sessions
/// and workers.
#[derive(Debug)]
pub struct ServerMetrics {
    /// Currently open sessions.
    pub sessions_in_flight: AtomicUsize,
    /// Sessions ever admitted.
    pub sessions_admitted: AtomicU64,
    /// `session()` calls shed by admission control.
    pub sessions_shed: AtomicU64,
    /// Requests that received a reply (any outcome).
    pub requests: AtomicU64,
    /// Requests shed because a shard queue was full.
    pub backpressure: AtomicU64,
    /// Requests that timed out waiting for a reply.
    pub timeouts: AtomicU64,
    /// Transactions committed through the service.
    pub committed: AtomicU64,
    /// Calls rejected by the protocol manager.
    pub rejected: AtomicU64,
    /// Versions re-assigned by the Figure 4 re-eval procedure.
    pub re_assigns: AtomicU64,
    /// Transactions aborted by re-eval.
    pub reeval_aborts: AtomicU64,
    /// Time requests spent queued (enqueue → worker dequeue).
    pub queue_wait: LatencyHistogram,
    /// Time the worker spent executing (dequeue → reply sent).
    pub exec_time: LatencyHistogram,
    /// Ops-per-`run_batch` distribution (count-valued, see
    /// [`LatencyHistogram::record_n`]).
    pub op_batch: LatencyHistogram,
    /// Requests-drained-per-worker-wakeup distribution (count-valued).
    pub drain_batch: LatencyHistogram,
    /// Windowed time-series telemetry (1 s latency-histogram windows,
    /// throughput/abort-rate/queue-depth/flush series) feeding
    /// incremental [`TelemetryDelta`](ks_obs::TelemetryDelta) exports
    /// and SLO checks — unlike the counters above, it can answer "what
    /// was p99 *over the last N seconds*", not just since startup.
    pub telemetry: ks_obs::TelemetrySeries,
    /// Request round-trip latencies (measured at the session), per shard.
    shard_latency: Vec<LatencyHistogram>,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new(1)
    }
}

impl ServerMetrics {
    /// Metrics for a service of `shards` shards (one round-trip histogram
    /// each; at least one).
    pub fn new(shards: usize) -> Self {
        ServerMetrics {
            sessions_in_flight: AtomicUsize::new(0),
            sessions_admitted: AtomicU64::new(0),
            sessions_shed: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            backpressure: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            re_assigns: AtomicU64::new(0),
            reeval_aborts: AtomicU64::new(0),
            queue_wait: LatencyHistogram::default(),
            exec_time: LatencyHistogram::default(),
            op_batch: LatencyHistogram::default(),
            drain_batch: LatencyHistogram::default(),
            telemetry: ks_obs::TelemetrySeries::default(),
            shard_latency: (0..shards.max(1))
                .map(|_| LatencyHistogram::default())
                .collect(),
        }
    }

    #[inline]
    pub(crate) fn add(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one round-trip latency against its shard's histogram
    /// (out-of-range shards land in the last one).
    pub fn record_latency(&self, shard: usize, latency: Duration) {
        let i = shard.min(self.shard_latency.len() - 1);
        self.shard_latency[i].record(latency);
    }

    /// The per-shard round-trip histograms.
    pub fn shard_latency(&self) -> &[LatencyHistogram] {
        &self.shard_latency
    }

    /// Materialize a consistent-enough view for reporting.
    pub fn snapshot(&self, queue_depths: Vec<usize>) -> MetricsSnapshot {
        // Aggregate counts across shards for the headline quantiles.
        let mut total = [0u64; BUCKETS];
        let mut shard_p50 = Vec::with_capacity(self.shard_latency.len());
        let mut shard_p99 = Vec::with_capacity(self.shard_latency.len());
        for h in &self.shard_latency {
            let counts = h.counts();
            for (t, c) in total.iter_mut().zip(&counts) {
                *t += c;
            }
            let (p50, p99) = quantiles_of(&counts);
            shard_p50.push(p50);
            shard_p99.push(p99);
        }
        let (p50, p99) = quantiles_of(&total);
        let (queue_wait_p50, queue_wait_p99) = quantiles_of(&self.queue_wait.counts());
        let (exec_p50, exec_p99) = quantiles_of(&self.exec_time.counts());
        MetricsSnapshot {
            sessions_in_flight: self.sessions_in_flight.load(Ordering::Relaxed),
            sessions_admitted: self.sessions_admitted.load(Ordering::Relaxed),
            sessions_shed: self.sessions_shed.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            backpressure: self.backpressure.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            committed: self.committed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            re_assigns: self.re_assigns.load(Ordering::Relaxed),
            reeval_aborts: self.reeval_aborts.load(Ordering::Relaxed),
            p50,
            p99,
            shard_p50,
            shard_p99,
            queue_wait_p50,
            queue_wait_p99,
            exec_p50,
            exec_p99,
            queue_depths,
        }
    }
}

/// A point-in-time copy of [`ServerMetrics`] plus derived quantiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Currently open sessions.
    pub sessions_in_flight: usize,
    /// Sessions ever admitted.
    pub sessions_admitted: u64,
    /// `session()` calls shed by admission control.
    pub sessions_shed: u64,
    /// Requests that received a reply.
    pub requests: u64,
    /// Requests shed on full queues.
    pub backpressure: u64,
    /// Reply timeouts.
    pub timeouts: u64,
    /// Commits.
    pub committed: u64,
    /// Protocol rejections.
    pub rejected: u64,
    /// Re-eval re-assignments.
    pub re_assigns: u64,
    /// Re-eval aborts.
    pub reeval_aborts: u64,
    /// Median request latency across all shards, if any completed.
    pub p50: Option<Duration>,
    /// 99th-percentile request latency across all shards.
    pub p99: Option<Duration>,
    /// Median round-trip latency per shard.
    pub shard_p50: Vec<Option<Duration>>,
    /// 99th-percentile round-trip latency per shard.
    pub shard_p99: Vec<Option<Duration>>,
    /// Median queue wait (enqueue → dequeue).
    pub queue_wait_p50: Option<Duration>,
    /// 99th-percentile queue wait.
    pub queue_wait_p99: Option<Duration>,
    /// Median execute time (dequeue → reply).
    pub exec_p50: Option<Duration>,
    /// 99th-percentile execute time.
    pub exec_p99: Option<Duration>,
    /// Per-shard request-queue depths at snapshot time.
    pub queue_depths: Vec<usize>,
}

/// Render an optional duration compactly (`-` when absent), stable for
/// column alignment: `640ns`, `8.2us`, `1.0ms`, `2.5s`.
pub fn fmt_duration(d: Option<Duration>) -> String {
    match d {
        None => "-".to_string(),
        Some(d) => {
            let ns = d.as_nanos();
            if ns >= 1_000_000_000 {
                format!("{:.1}s", d.as_secs_f64())
            } else if ns >= 1_000_000 {
                format!("{:.1}ms", ns as f64 / 1e6)
            } else if ns >= 1_000 {
                format!("{:.1}us", ns as f64 / 1e3)
            } else {
                format!("{ns}ns")
            }
        }
    }
}

impl MetricsSnapshot {
    /// Column headings matching [`MetricsSnapshot`]'s `Display` row —
    /// the one table format `bench_server` and `ks-top` both print.
    pub fn header() -> &'static str {
        "sess      req   commit   reject     bp    tmo reasgn reevab       p50       p99      qwait      exec  queues"
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let queues = self
            .queue_depths
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("/");
        write!(
            f,
            "{:>4} {:>8} {:>8} {:>8} {:>6} {:>6} {:>6} {:>6} {:>9} {:>9} {:>10} {:>9}  {}",
            self.sessions_in_flight,
            self.requests,
            self.committed,
            self.rejected,
            self.backpressure,
            self.timeouts,
            self.re_assigns,
            self.reeval_aborts,
            fmt_duration(self.p50),
            fmt_duration(self.p99),
            fmt_duration(self.queue_wait_p99),
            fmt_duration(self.exec_p99),
            queues
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(Duration::from_nanos(100)); // bucket 6: [64, 128)
        }
        h.record(Duration::from_micros(100)); // ~bucket 16
        let counts = h.counts();
        assert_eq!(counts[6], 99);
        let p50 = quantile(&counts, 0.50).unwrap();
        assert_eq!(p50, Duration::from_nanos(128));
        let p99 = quantile(&counts, 0.99).unwrap();
        assert_eq!(p99, Duration::from_nanos(128));
        let p999 = quantile(&counts, 0.999).unwrap();
        assert!(p999 > Duration::from_micros(64));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::default();
        assert_eq!(quantile(&h.counts(), 0.5), None);
    }

    #[test]
    fn record_n_buckets_by_count() {
        let h = LatencyHistogram::default();
        h.record_n(0); // clamped to 1 → bucket 0
        h.record_n(1); // bucket 0
        h.record_n(6); // bucket 2: [4, 8)
        h.record_n(32); // bucket 5: [32, 64)
        let counts = h.counts();
        assert_eq!(counts[0], 2);
        assert_eq!(counts[2], 1);
        assert_eq!(counts[5], 1);
        // "p99 batch size" reads off the same quantile machinery.
        assert_eq!(quantile(&counts, 1.0), Some(Duration::from_nanos(64)));
    }

    /// Regression: bucket 62's upper edge is `2^63` ns, which is
    /// representable — an off-by-one in the saturation guard used to
    /// report it as `u64::MAX`. Only bucket 63 may saturate.
    #[test]
    fn bucket_62_reports_its_upper_edge_not_saturation() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_nanos(1u64 << 62));
        let counts = h.counts();
        assert_eq!(counts[62], 1);
        assert_eq!(
            quantile(&counts, 1.0),
            Some(Duration::from_nanos(1u64 << 63))
        );
        let h = LatencyHistogram::default();
        h.record(Duration::from_nanos(u64::MAX));
        let counts = h.counts();
        assert_eq!(counts[63], 1);
        assert_eq!(quantile(&counts, 1.0), Some(Duration::from_nanos(u64::MAX)));
    }

    #[test]
    fn snapshot_copies_counters() {
        let m = ServerMetrics::new(2);
        ServerMetrics::add(&m.requests);
        ServerMetrics::add(&m.committed);
        m.record_latency(0, Duration::from_micros(3));
        let snap = m.snapshot(vec![1, 2]);
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.committed, 1);
        assert_eq!(snap.queue_depths, vec![1, 2]);
        assert!(snap.p50.is_some());
        assert!(snap.shard_p50[0].is_some());
        assert_eq!(snap.shard_p50[1], None);
    }

    #[test]
    fn per_shard_quantiles_separate_slow_shards() {
        let m = ServerMetrics::new(2);
        for _ in 0..100 {
            m.record_latency(0, Duration::from_nanos(100));
            m.record_latency(1, Duration::from_millis(10));
        }
        let snap = m.snapshot(vec![0, 0]);
        assert!(snap.shard_p50[0].unwrap() < Duration::from_micros(1));
        assert!(snap.shard_p50[1].unwrap() >= Duration::from_millis(8));
        // The aggregate sees both populations.
        assert!(snap.p99.unwrap() >= Duration::from_millis(8));
    }

    #[test]
    fn display_row_matches_header_column_count() {
        let m = ServerMetrics::new(2);
        m.record_latency(0, Duration::from_micros(5));
        let snap = m.snapshot(vec![3, 4]);
        let header_cols = MetricsSnapshot::header().split_whitespace().count();
        let row_cols = snap.to_string().split_whitespace().count();
        assert_eq!(
            header_cols,
            row_cols,
            "{}\n{snap}",
            MetricsSnapshot::header()
        );
    }

    /// N writer threads hammer counters and per-shard histograms while a
    /// reader snapshots concurrently: counters must be monotone across
    /// snapshots, and the final histogram mass must equal the number of
    /// recordings.
    #[test]
    fn threaded_recording_is_monotone_and_conserves_mass() {
        const WRITERS: usize = 4;
        const PER_WRITER: u64 = 5_000;
        let m = ServerMetrics::new(WRITERS);
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let m = &m;
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        ServerMetrics::add(&m.requests);
                        if i % 2 == 0 {
                            ServerMetrics::add(&m.committed);
                        }
                        m.record_latency(w, Duration::from_nanos(100 + i));
                        m.queue_wait.record(Duration::from_nanos(50));
                        m.exec_time.record(Duration::from_nanos(200));
                    }
                });
            }
            scope.spawn(|| {
                let mut last_requests = 0;
                let mut last_committed = 0;
                for _ in 0..200 {
                    let snap = m.snapshot(Vec::new());
                    assert!(snap.requests >= last_requests, "requests went backwards");
                    assert!(snap.committed >= last_committed, "commits went backwards");
                    assert!(snap.committed <= snap.requests);
                    last_requests = snap.requests;
                    last_committed = snap.committed;
                }
            });
        });
        let expected = (WRITERS as u64) * PER_WRITER;
        let snap = m.snapshot(Vec::new());
        assert_eq!(snap.requests, expected);
        let mass: u64 = m
            .shard_latency()
            .iter()
            .map(|h| h.counts().iter().sum::<u64>())
            .sum();
        assert_eq!(mass, expected, "histogram observations lost or duplicated");
        let queue_mass: u64 = m.queue_wait.counts().iter().sum();
        assert_eq!(queue_mass, expected);
    }
}
