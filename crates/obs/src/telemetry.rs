//! Time-series telemetry: windowed histograms and declarative SLOs.
//!
//! End-of-run aggregates hide exactly what matters under sustained load —
//! a ten-second p99 spike disappears into a five-minute average. A
//! [`TelemetrySeries`] keeps a bounded ring of fixed-width time windows
//! (1 second by default), each holding a log₂ latency histogram plus
//! request/commit/abort counters, the deepest shard queue observed, and
//! WAL flush-group sizes. Closed windows are immutable and exported
//! incrementally: [`TelemetrySeries::delta`] returns every closed window
//! at or past a caller-held cursor as a [`TelemetryDelta`], so a remote
//! puller (the wire `Telemetry` request) reconstructs the full series
//! from deltas alone.
//!
//! [`SloSpec`] is the declarative check over that series: `p99 ≤ X over
//! any Y-second window`, written `p99<=800us@3s` and evaluated by
//! merging every run of `Y` consecutive windows. Because it consumes
//! only [`WindowSnapshot`]s, a breach is detectable from pulled deltas
//! without touching the serving process.
//!
//! Every latency number in the stack comes off the same log₂ buckets:
//! the windows here, and the live [`LatencyHistogram`]s the server keeps
//! for queue wait, execute time and per-shard round trips. One
//! [`quantile`] walk reads them all and reports a bucket's inclusive
//! upper edge, `2^(i+1) − 1` ns.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Log₂ latency buckets (bucket `i` holds `[2^i, 2^(i+1))` nanoseconds;
/// bucket 0 also holds 0).
pub const LATENCY_BUCKETS: usize = 64;

/// Default window width.
pub const DEFAULT_WINDOW: Duration = Duration::from_secs(1);

/// Closed windows retained for pullers that fall behind.
pub const DEFAULT_RETAIN: usize = 128;

fn bucket(ns: u64) -> usize {
    63 - ns.max(1).leading_zeros() as usize
}

/// The inclusive upper edge of bucket `i`, `2^(i+1) − 1` — the value a
/// quantile reports (`u64::MAX` for bucket 63).
fn bucket_edge(i: usize) -> u64 {
    u64::MAX >> (LATENCY_BUCKETS - 1 - i)
}

/// Quantile `q ∈ [0, 1]` of a bucket snapshot, in nanoseconds: the upper
/// edge of the bucket holding the `⌈q·n⌉`-th observation. `None` when
/// the snapshot is empty.
pub fn quantile(counts: &[u64; LATENCY_BUCKETS], q: f64) -> Option<u64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = (((total as f64) * q.clamp(0.0, 1.0)).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    counts
        .iter()
        .position(|&n| {
            seen += n;
            seen >= rank
        })
        .map(bucket_edge)
}

/// A lock-free latency histogram over the [`LATENCY_BUCKETS`] buckets,
/// for counters that live as long as the service (one relaxed add per
/// observation).
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
    /// Record one latency observation.
    pub fn record(&self, latency: Duration) {
        self.buckets[bucket(latency.as_nanos() as u64)].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the bucket counts (read with [`quantile`]).
    pub fn counts(&self) -> [u64; LATENCY_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// One closed (or still-filling) telemetry window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSnapshot {
    /// Window sequence number: `start_ns / width_ns` on the series
    /// clock. Consecutive load produces consecutive numbers; idle gaps
    /// skip numbers.
    pub seq: u64,
    /// Requests whose latency landed in this window.
    pub requests: u64,
    /// Transactions committed in this window.
    pub committed: u64,
    /// Transactions aborted in this window.
    pub aborted: u64,
    /// Deepest shard queue observed during the window.
    pub queue_depth: u64,
    /// WAL group-commit flushes in this window.
    pub flush_groups: u64,
    /// Commits those flushes covered (mean group size =
    /// `flush_commits / flush_groups`).
    pub flush_commits: u64,
    /// Request-latency histogram (log₂ buckets).
    pub latency: [u64; LATENCY_BUCKETS],
}

impl WindowSnapshot {
    /// An empty window at `seq`.
    pub fn empty(seq: u64) -> WindowSnapshot {
        WindowSnapshot {
            seq,
            requests: 0,
            committed: 0,
            aborted: 0,
            queue_depth: 0,
            flush_groups: 0,
            flush_commits: 0,
            latency: [0; LATENCY_BUCKETS],
        }
    }

    /// Fold `other` into `self` (for SLO evaluation over `Y` consecutive
    /// windows). `seq` keeps the smaller value.
    pub fn merge(&mut self, other: &WindowSnapshot) {
        self.seq = self.seq.min(other.seq);
        self.requests += other.requests;
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.queue_depth = self.queue_depth.max(other.queue_depth);
        self.flush_groups += other.flush_groups;
        self.flush_commits += other.flush_commits;
        for (a, b) in self.latency.iter_mut().zip(other.latency) {
            *a += b;
        }
    }

    /// The latency at or below which fraction `q` of requests completed
    /// (upper bucket edge); `None` when the window saw no requests.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        quantile(&self.latency, q)
    }

    /// Median latency.
    pub fn p50_ns(&self) -> Option<u64> {
        self.quantile_ns(0.50)
    }

    /// 99th percentile latency.
    pub fn p99_ns(&self) -> Option<u64> {
        self.quantile_ns(0.99)
    }

    /// 99.9th percentile latency.
    pub fn p999_ns(&self) -> Option<u64> {
        self.quantile_ns(0.999)
    }

    /// Committed transactions per second, given the series width.
    pub fn throughput(&self, width_ns: u64) -> f64 {
        self.committed as f64 / (width_ns.max(1) as f64 / 1e9)
    }

    /// Aborted / (committed + aborted), 0 when neither happened.
    pub fn abort_rate(&self) -> f64 {
        let total = self.committed + self.aborted;
        if total == 0 {
            0.0
        } else {
            self.aborted as f64 / total as f64
        }
    }
}

/// An incremental export: every closed window at or past the puller's
/// cursor, plus the cursor to pass next time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryDelta {
    /// Window width of the producing series, nanoseconds.
    pub width_ns: u64,
    /// Pass this as `since` on the next pull.
    pub next_seq: u64,
    /// Closed windows with `seq >= since`, oldest first.
    pub windows: Vec<WindowSnapshot>,
}

struct SeriesInner {
    /// The window currently filling.
    current: WindowSnapshot,
    /// Closed windows, oldest first, bounded by `retain`.
    closed: VecDeque<WindowSnapshot>,
}

/// A shared, windowed telemetry collector. Cloning shares the series.
///
/// Recording takes one mutex acquisition; at the tens-of-thousands of
/// requests per second this stack serves, that is noise next to a
/// protocol round-trip (the tracing overhead bench measures the whole
/// observability layer and gates it).
#[derive(Clone)]
pub struct TelemetrySeries {
    inner: Arc<Mutex<SeriesInner>>,
    epoch: Instant,
    width_ns: u64,
    retain: usize,
}

impl std::fmt::Debug for TelemetrySeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrySeries")
            .field("width_ns", &self.width_ns)
            .field("retain", &self.retain)
            .finish()
    }
}

impl Default for TelemetrySeries {
    fn default() -> Self {
        TelemetrySeries::new(DEFAULT_WINDOW, DEFAULT_RETAIN)
    }
}

impl TelemetrySeries {
    /// A series of `width`-wide windows, retaining the last `retain`
    /// closed ones.
    pub fn new(width: Duration, retain: usize) -> TelemetrySeries {
        TelemetrySeries {
            inner: Arc::new(Mutex::new(SeriesInner {
                current: WindowSnapshot::empty(0),
                closed: VecDeque::new(),
            })),
            epoch: Instant::now(),
            width_ns: (width.as_nanos() as u64).max(1),
            retain: retain.max(1),
        }
    }

    /// The configured window width, nanoseconds.
    pub fn width_ns(&self) -> u64 {
        self.width_ns
    }

    /// Nanoseconds since the series epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Roll `inner` forward to the window containing `now`, closing the
    /// current one if time moved past it.
    fn roll(&self, inner: &mut SeriesInner, now_ns: u64) {
        let seq = now_ns / self.width_ns;
        if seq > inner.current.seq {
            let closed = std::mem::replace(&mut inner.current, WindowSnapshot::empty(seq));
            // An untouched window carries no information; skip it so idle
            // time costs nothing and gaps stay visible as missing seqs.
            if closed.requests > 0
                || closed.committed > 0
                || closed.aborted > 0
                || closed.flush_groups > 0
            {
                inner.closed.push_back(closed);
                while inner.closed.len() > self.retain {
                    inner.closed.pop_front();
                }
            }
        }
    }

    /// Record one served request: its latency, whether it was a commit
    /// or abort resolution, and the shard queue depth (waiters for the
    /// shard) the request met.
    pub fn record_request(
        &self,
        latency_ns: u64,
        committed: bool,
        aborted: bool,
        queue_depth: u64,
    ) {
        let now = self.now_ns();
        let mut inner = self.inner.lock().unwrap();
        self.roll(&mut inner, now);
        let w = &mut inner.current;
        w.requests += 1;
        w.latency[bucket(latency_ns)] += 1;
        w.committed += u64::from(committed);
        w.aborted += u64::from(aborted);
        w.queue_depth = w.queue_depth.max(queue_depth);
    }

    /// Record one WAL group-commit flush covering `commits` commits.
    pub fn record_flush(&self, commits: u64) {
        let now = self.now_ns();
        let mut inner = self.inner.lock().unwrap();
        self.roll(&mut inner, now);
        inner.current.flush_groups += 1;
        inner.current.flush_commits += commits;
    }

    /// Export every closed window with `seq >= since`, oldest first,
    /// closing the current window first if its time has passed. The
    /// returned `next_seq` is the cursor for the next pull.
    pub fn delta(&self, since: u64) -> TelemetryDelta {
        let now = self.now_ns();
        let mut inner = self.inner.lock().unwrap();
        self.roll(&mut inner, now);
        let windows: Vec<WindowSnapshot> = inner
            .closed
            .iter()
            .filter(|w| w.seq >= since)
            .cloned()
            .collect();
        let next_seq = windows.last().map_or(since, |w| w.seq + 1);
        TelemetryDelta {
            width_ns: self.width_ns,
            next_seq,
            windows,
        }
    }
}

/// Which quantile an SLO constrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloQuantile {
    /// Median.
    P50,
    /// 99th percentile.
    P99,
    /// 99.9th percentile.
    P999,
}

impl SloQuantile {
    /// The quantile as a fraction.
    pub fn fraction(self) -> f64 {
        match self {
            SloQuantile::P50 => 0.50,
            SloQuantile::P99 => 0.99,
            SloQuantile::P999 => 0.999,
        }
    }

    /// Stable spec name.
    pub fn name(self) -> &'static str {
        match self {
            SloQuantile::P50 => "p50",
            SloQuantile::P99 => "p99",
            SloQuantile::P999 => "p999",
        }
    }
}

/// A declarative latency SLO: *quantile ≤ limit over any `windows`
/// consecutive windows*. Written `p99<=800us@3s` (with 1-second
/// windows, "over any 3-second window").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloSpec {
    /// The constrained quantile.
    pub quantile: SloQuantile,
    /// The latency ceiling, nanoseconds.
    pub limit_ns: u64,
    /// How many consecutive windows each evaluation merges (≥ 1).
    pub windows: u64,
}

/// One violated SLO evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloBreach {
    /// First window sequence of the breaching run.
    pub start_seq: u64,
    /// The quantile value that exceeded the limit, nanoseconds.
    pub value_ns: u64,
}

impl SloSpec {
    /// Parse `"<quantile><=<duration>@<N>s"`, e.g. `p99<=800us@3s`.
    /// Duration units: `ns`, `us`, `ms`, `s`.
    pub fn parse(s: &str) -> Result<SloSpec, String> {
        let bad = || format!("malformed SLO spec {s:?} (want e.g. p99<=800us@3s)");
        let (quant, rest) = s.split_once("<=").ok_or_else(bad)?;
        let quantile = match quant.trim() {
            "p50" => SloQuantile::P50,
            "p99" => SloQuantile::P99,
            "p999" => SloQuantile::P999,
            other => return Err(format!("unknown quantile {other:?} in SLO spec {s:?}")),
        };
        let (limit, span) = rest.split_once('@').ok_or_else(bad)?;
        let limit_ns = parse_duration_ns(limit.trim()).ok_or_else(bad)?;
        let windows: u64 = span
            .trim()
            .strip_suffix('s')
            .and_then(|n| n.parse().ok())
            .ok_or_else(bad)?;
        if windows == 0 {
            return Err(format!("SLO spec {s:?} must cover at least 1 window"));
        }
        Ok(SloSpec {
            quantile,
            limit_ns,
            windows,
        })
    }

    /// Render back to the spec syntax.
    pub fn render(&self) -> String {
        format!(
            "{}<={}@{}s",
            self.quantile.name(),
            render_duration_ns(self.limit_ns),
            self.windows
        )
    }

    /// Evaluate over closed windows (any order, duplicates by `seq`
    /// collapse to the latest): every run of `self.windows` consecutive
    /// sequence numbers is merged and checked. Runs broken by idle gaps
    /// are not evaluated across the gap.
    pub fn check(&self, windows: &[WindowSnapshot]) -> Vec<SloBreach> {
        use std::collections::BTreeMap;
        let mut by_seq: BTreeMap<u64, &WindowSnapshot> = BTreeMap::new();
        for w in windows {
            by_seq.insert(w.seq, w);
        }
        let mut breaches = Vec::new();
        for &start in by_seq.keys() {
            // The run [start, start + windows) must be fully present.
            let run: Vec<&WindowSnapshot> = (0..self.windows)
                .map_while(|k| by_seq.get(&(start + k)).copied())
                .collect();
            if run.len() as u64 != self.windows {
                continue;
            }
            let mut merged = run[0].clone();
            for w in &run[1..] {
                merged.merge(w);
            }
            if let Some(value) = merged.quantile_ns(self.quantile.fraction()) {
                if value > self.limit_ns {
                    breaches.push(SloBreach {
                        start_seq: start,
                        value_ns: value,
                    });
                }
            }
        }
        breaches
    }
}

fn parse_duration_ns(s: &str) -> Option<u64> {
    // Longest suffix first: "ns" before "s", "us"/"ms" before "s".
    for (suffix, scale) in [("ns", 1u64), ("us", 1_000), ("ms", 1_000_000)] {
        if let Some(n) = s.strip_suffix(suffix) {
            return n.parse::<u64>().ok().map(|v| v.saturating_mul(scale));
        }
    }
    s.strip_suffix('s')
        .and_then(|n| n.parse::<u64>().ok())
        .map(|v| v.saturating_mul(1_000_000_000))
}

fn render_duration_ns(ns: u64) -> String {
    if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else if ns.is_multiple_of(1_000) {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(seq: u64, latencies_ns: &[u64]) -> WindowSnapshot {
        let mut w = WindowSnapshot::empty(seq);
        for &ns in latencies_ns {
            w.requests += 1;
            w.latency[bucket(ns)] += 1;
            w.committed += 1;
        }
        w
    }

    #[test]
    fn buckets_and_quantiles_are_sane() {
        let w = window(0, &[100, 100, 100, 100_000]);
        // p50 lands in the 100ns bucket's edge, p999 in the 100µs one.
        assert!(w.p50_ns().unwrap() < 256);
        assert!(w.p999_ns().unwrap() >= 100_000);
        assert_eq!(WindowSnapshot::empty(0).p99_ns(), None);
    }

    /// The live histogram and the one quantile walk, one input per line:
    /// an empty histogram has no quantiles; a typical mix; and the
    /// inclusive edge `2^(i+1) − 1` at the top, where bucket 62's
    /// (`2^63 − 1`) is representable, so only bucket 63 reports
    /// `u64::MAX`.
    #[test]
    fn histogram_quantiles_report_inclusive_bucket_edges() {
        let quantiles = |latencies: &[u64], qs: &[f64]| -> Vec<Option<u64>> {
            let h = LatencyHistogram::default();
            for &ns in latencies {
                h.record(Duration::from_nanos(ns));
            }
            let counts = h.counts();
            assert_eq!(counts.iter().sum::<u64>(), latencies.len() as u64);
            qs.iter().map(|&q| quantile(&counts, q)).collect()
        };
        let typical: Vec<u64> = [100; 99].into_iter().chain([100_000]).collect();
        assert_eq!(quantiles(&[], &[0.5, 1.0]), [None, None]);
        assert_eq!(quantiles(&[0, 1], &[1.0]), [Some(1)]);
        assert_eq!(
            quantiles(&typical, &[0.5, 0.99, 1.0]),
            [Some(127), Some(127), Some(131_071)]
        );
        assert_eq!(quantiles(&[1 << 62], &[1.0]), [Some((1 << 63) - 1)]);
        assert_eq!(quantiles(&[u64::MAX], &[0.0]), [Some(u64::MAX)]);
    }

    #[test]
    fn series_closes_windows_and_exports_incremental_deltas() {
        let series = TelemetrySeries::new(Duration::from_nanos(u64::MAX / 2), 8);
        // One giant window: nothing closes, delta is empty.
        series.record_request(500, true, false, 3);
        assert!(series.delta(0).windows.is_empty());

        let fast = TelemetrySeries::new(Duration::from_millis(1), 8);
        fast.record_request(1_000, true, false, 1);
        fast.record_flush(4);
        std::thread::sleep(Duration::from_millis(3));
        // Recording after the width elapsed closes the first window.
        fast.record_request(2_000, false, true, 2);
        std::thread::sleep(Duration::from_millis(3));
        let d1 = fast.delta(0);
        assert!(!d1.windows.is_empty());
        let sum = |f: fn(&WindowSnapshot) -> u64| d1.windows.iter().map(f).sum::<u64>();
        assert_eq!(sum(|w| w.requests), 2);
        assert_eq!(sum(|w| w.committed), 1);
        assert_eq!(sum(|w| w.aborted), 1);
        assert_eq!(sum(|w| w.flush_groups), 1);
        assert_eq!(sum(|w| w.flush_commits), 4);
        // The cursor advances past everything exported; re-pulling with
        // it returns only newer windows.
        let d2 = fast.delta(d1.next_seq);
        assert!(d2.windows.iter().all(|w| w.seq >= d1.next_seq));
    }

    #[test]
    fn slo_spec_parses_and_renders() {
        let spec = SloSpec::parse("p99<=800us@3s").unwrap();
        assert_eq!(spec.quantile, SloQuantile::P99);
        assert_eq!(spec.limit_ns, 800_000);
        assert_eq!(spec.windows, 3);
        assert_eq!(spec.render(), "p99<=800us@3s");
        assert_eq!(SloSpec::parse("p50<=2ms@1s").unwrap().limit_ns, 2_000_000);
        assert_eq!(
            SloSpec::parse("p999<=1s@5s").unwrap().limit_ns,
            1_000_000_000
        );
        assert!(SloSpec::parse("p98<=1ms@1s").is_err());
        assert!(SloSpec::parse("p99<=1parsec@1s").is_err());
        assert!(SloSpec::parse("p99<=1ms@0s").is_err());
        assert!(SloSpec::parse("nonsense").is_err());
    }

    #[test]
    fn slo_check_finds_breaches_in_merged_runs() {
        let spec = SloSpec::parse("p99<=1us@2s").unwrap();
        // Two consecutive fast windows: no breach.
        let fast = [window(0, &[100; 10]), window(1, &[100; 10])];
        assert!(spec.check(&fast).is_empty());
        // A slow window inside a run breaches every run containing it.
        let mixed = [
            window(0, &[100; 10]),
            window(1, &[5_000_000; 10]),
            window(2, &[100; 10]),
        ];
        let breaches = spec.check(&mixed);
        assert!(!breaches.is_empty());
        assert!(breaches.iter().any(|b| b.start_seq <= 1));
        assert!(breaches.iter().all(|b| b.value_ns > 1_000));
        // A gap breaks the run: windows 0 and 2 alone never merge.
        let gapped = [window(0, &[5_000_000; 10]), window(2, &[5_000_000; 10])];
        assert_eq!(
            SloSpec::parse("p99<=1us@2s").unwrap().check(&gapped).len(),
            0
        );
        // ...but a 1-window SLO still catches each.
        assert_eq!(
            SloSpec::parse("p99<=1us@1s").unwrap().check(&gapped).len(),
            2
        );
    }

    #[test]
    fn merge_accumulates_and_abort_rate_divides() {
        let mut a = window(3, &[100]);
        let b = {
            let mut w = window(4, &[200, 300]);
            w.aborted = 1;
            w.queue_depth = 9;
            w
        };
        a.merge(&b);
        assert_eq!(a.seq, 3);
        assert_eq!(a.requests, 3);
        assert_eq!(a.queue_depth, 9);
        assert!((a.abort_rate() - 0.25).abs() < 1e-9);
        assert!((a.throughput(1_000_000_000) - 3.0).abs() < 1e-9);
    }
}
