//! Live service counters and latency distributions.
//!
//! All counters are lock-free atomics updated on the request path.
//! Latency distributions are [`ks_obs::LatencyHistogram`]s — the one
//! histogram type in the stack: 64 log₂ buckets, read by the one
//! [`ks_obs::telemetry::quantile`] walk, so a reported quantile is the
//! inclusive upper edge `2^(i+1) − 1` ns of its bucket (≤ 2× relative
//! error, no allocation). Round-trip latency is kept **per shard** (one
//! histogram each), and every call is split into its wait for the shard
//! lock and its execute portion, so a slow shard or a queueing collapse
//! is visible directly instead of being averaged away in one global
//! distribution.

use ks_obs::telemetry::quantile;
use ks_obs::{LatencyHistogram, LATENCY_BUCKETS};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

fn quantiles_of(counts: &[u64; LATENCY_BUCKETS]) -> (Option<Duration>, Option<Duration>) {
    let at = |q| quantile(counts, q).map(Duration::from_nanos);
    (at(0.50), at(0.99))
}

/// Shared mutable counters; one instance per service, updated on every
/// call path.
#[derive(Debug)]
pub struct ServerMetrics {
    /// Currently open sessions.
    pub sessions_in_flight: AtomicUsize,
    /// Sessions ever admitted.
    pub sessions_admitted: AtomicU64,
    /// `session()` calls shed by admission control.
    pub sessions_shed: AtomicU64,
    /// Requests a shard executed (any outcome).
    pub requests: AtomicU64,
    /// Requests shed because `queue_depth` calls already waited for their
    /// shard's lock.
    pub backpressure: AtomicU64,
    /// Commits that timed out waiting for the flusher's acknowledgement.
    pub timeouts: AtomicU64,
    /// Transactions committed through the service.
    pub committed: AtomicU64,
    /// Calls rejected by the protocol manager.
    pub rejected: AtomicU64,
    /// Versions re-assigned by the Figure 4 re-eval procedure.
    pub re_assigns: AtomicU64,
    /// Transactions aborted by re-eval.
    pub reeval_aborts: AtomicU64,
    /// Time requests spent waiting for their shard's lock.
    pub queue_wait: LatencyHistogram,
    /// Time a request spent executing under the shard lock: lock held →
    /// result ready. It is recorded before a logged commit's ticket goes
    /// to the flusher, so it excludes the wait for durability.
    pub exec_time: LatencyHistogram,
    /// Windowed time-series telemetry (1 s latency-histogram windows,
    /// throughput/abort-rate/queue-depth/flush series) feeding
    /// incremental [`TelemetryDelta`](ks_obs::TelemetryDelta) exports
    /// and SLO checks — unlike the counters above, it can answer "what
    /// was p99 *over the last N seconds*", not just since startup.
    pub telemetry: ks_obs::TelemetrySeries,
    /// Request round-trip latencies (measured at the session), per shard.
    shard_latency: Vec<LatencyHistogram>,
    /// Calls waiting for each shard's lock: counted in before the lock is
    /// requested, counted out once it is held or the call is shed.
    queued: Vec<AtomicUsize>,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new(1)
    }
}

impl ServerMetrics {
    /// Metrics for a service of `shards` shards (one round-trip histogram
    /// and one waiter counter each; at least one).
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
            telemetry: ks_obs::TelemetrySeries::default(),
            shard_latency: (0..shards.max(1))
                .map(|_| LatencyHistogram::default())
                .collect(),
            queued: (0..shards.max(1)).map(|_| AtomicUsize::new(0)).collect(),
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

    /// Calls currently waiting for `shard`'s lock.
    pub(crate) fn queued(&self, shard: usize) -> usize {
        self.queued[shard].load(Ordering::Relaxed)
    }

    /// Count one call in as a waiter for `shard`'s lock; returns how many
    /// were already waiting.
    pub(crate) fn enqueue(&self, shard: usize) -> usize {
        self.queued[shard].fetch_add(1, Ordering::Relaxed)
    }

    /// Count one call out: it holds `shard`'s lock, or was shed.
    pub(crate) fn dequeued(&self, shard: usize) {
        self.queued[shard].fetch_sub(1, Ordering::Relaxed);
    }

    /// Materialize a consistent-enough view for reporting.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // Aggregate counts across shards for the headline quantiles.
        let mut total = [0u64; LATENCY_BUCKETS];
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
            queue_depths: (0..self.queued.len()).map(|s| self.queued(s)).collect(),
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
    /// Requests executed.
    pub requests: u64,
    /// Requests shed on a full shard wait.
    pub backpressure: u64,
    /// Commit acknowledgement timeouts.
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
    /// Median wait for the shard lock.
    pub queue_wait_p50: Option<Duration>,
    /// 99th-percentile queue wait.
    pub queue_wait_p99: Option<Duration>,
    /// Median execute time (lock held → result ready).
    pub exec_p50: Option<Duration>,
    /// 99th-percentile execute time.
    pub exec_p99: Option<Duration>,
    /// Calls waiting for each shard's lock at snapshot time.
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
    /// the one table format `ks-top` prints.
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
    fn snapshot_copies_counters() {
        let m = ServerMetrics::new(2);
        ServerMetrics::add(&m.requests);
        ServerMetrics::add(&m.committed);
        m.record_latency(0, Duration::from_micros(3));
        m.enqueue(1);
        m.enqueue(1);
        let snap = m.snapshot();
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.committed, 1);
        assert_eq!(snap.queue_depths, vec![0, 2]);
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
        let snap = m.snapshot();
        assert!(snap.shard_p50[0].unwrap() < Duration::from_micros(1));
        assert!(snap.shard_p50[1].unwrap() >= Duration::from_millis(8));
        // The aggregate sees both populations.
        assert!(snap.p99.unwrap() >= Duration::from_millis(8));
    }

    #[test]
    fn display_row_matches_header_column_count() {
        let m = ServerMetrics::new(2);
        m.record_latency(0, Duration::from_micros(5));
        let snap = m.snapshot();
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
                    let snap = m.snapshot();
                    assert!(snap.requests >= last_requests, "requests went backwards");
                    assert!(snap.committed >= last_committed, "commits went backwards");
                    assert!(snap.committed <= snap.requests);
                    last_requests = snap.requests;
                    last_committed = snap.committed;
                }
            });
        });
        let expected = (WRITERS as u64) * PER_WRITER;
        let snap = m.snapshot();
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
