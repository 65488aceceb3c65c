//! Live service counters and latency distributions.
//!
//! **Stripes.** A served call records its whole account once, after its
//! reply, into its session's stripe: the request count, its queue wait,
//! execute time and per-shard round trip (plain log₂ histograms, the one
//! [`ks_obs::telemetry::bucket`] function), and the stripe's current
//! telemetry window. A stripe is a mutex on cache lines of its own, and
//! there are `2 × available_parallelism()` of them, dealt round-robin to
//! sessions as they open. Two sessions share one only when more sessions
//! than stripes are open, so the lock is all but uncontended on the
//! request path; what every call of a shard still writes is the shard's
//! own lock and waiter count. Readers pay instead: [`ServerMetrics::snapshot`]
//! sums the stripes, and [`ServerMetrics::telemetry`] rolls every
//! stripe's window to one sequence number before exporting the windows
//! below it (see [`ks_obs::TelemetrySeries`]), so a pull is idempotent
//! and an exported window never changes.
//!
//! **Three clock reads.** An untraced call reads the clock when it asks
//! for the shard lock (`arrived`), when it holds it (`held`) and when its
//! result is ready (`done`): `held − arrived` is its queue wait, `done −
//! held` its execute time and `done − arrived` its round trip. A logged
//! commit reads it once more, after its record is durable, and that read
//! ends its round trip. With a recorder attached, the execute clock
//! starts after the `Queue` span closes, so a traced execute time holds
//! no span emission of its own hop.
//!
//! Counters bumped under a shard lock (commits, rejections, re-eval
//! outcomes) and each shard's waiter count stay atomics, as do the
//! session counters, which move once per session. A quantile is read by
//! the one [`ks_obs::telemetry::quantile`] walk: the inclusive upper edge
//! `2^(i+1) − 1` ns of its bucket (≤ 2× relative error). Round trips are
//! kept **per shard**, and every call is split into its wait for the
//! shard lock and its execute portion, so a slow shard or a queueing
//! collapse is visible directly instead of being averaged away in one
//! global distribution.

use ks_obs::telemetry::{bucket, quantile};
use ks_obs::{TelemetryDelta, TelemetrySeries, WindowSnapshot, LATENCY_BUCKETS};
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Stripes per available core.
const STRIPES_PER_CORE: usize = 2;

/// Log₂ bucket counts.
type Histogram = [u64; LATENCY_BUCKETS];

fn quantiles_of(counts: &Histogram) -> (Option<Duration>, Option<Duration>) {
    let at = |q| quantile(counts, q).map(Duration::from_nanos);
    (at(0.50), at(0.99))
}

fn add_into(total: &mut Histogram, counts: &Histogram) {
    for (t, c) in total.iter_mut().zip(counts) {
        *t += c;
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// How a served call ended, as its account counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// A commit was acknowledged.
    Committed,
    /// The transaction was aborted or rejected.
    Aborted,
    /// A logged commit timed out waiting for its record to be durable.
    TimedOut,
    /// Anything else.
    Other,
}

/// One served call's account, recorded once after its reply.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CallAccount {
    /// The shard that served it.
    pub(crate) shard: usize,
    /// Arrived → shard lock held.
    pub(crate) queue_wait: Duration,
    /// Execute start → result ready.
    pub(crate) exec: Duration,
    /// Arrived → reply (→ durable, for a logged commit).
    pub(crate) round_trip: Duration,
    /// The round trip's last clock read: picks the telemetry window.
    pub(crate) done: Instant,
    /// Calls already waiting for the shard lock when it asked.
    pub(crate) queue_depth: u64,
    pub(crate) outcome: Outcome,
    /// Commits covered by the WAL flush this call led, if it led one.
    pub(crate) led_flush: Option<u32>,
}

/// What one stripe has counted since startup, plus the telemetry window
/// it is filling.
#[derive(Debug)]
struct Account {
    requests: u64,
    backpressure: u64,
    timeouts: u64,
    queue_wait: Histogram,
    exec: Histogram,
    /// Round trips, per shard.
    round_trip: Vec<Histogram>,
    window: WindowSnapshot,
}

impl Account {
    fn new(shards: usize) -> Account {
        Account {
            requests: 0,
            backpressure: 0,
            timeouts: 0,
            queue_wait: [0; LATENCY_BUCKETS],
            exec: [0; LATENCY_BUCKETS],
            round_trip: vec![[0; LATENCY_BUCKETS]; shards],
            window: WindowSnapshot::empty(0),
        }
    }

    /// Add `other`'s counters and histograms (not its window).
    fn add(&mut self, other: &Account) {
        self.requests += other.requests;
        self.backpressure += other.backpressure;
        self.timeouts += other.timeouts;
        add_into(&mut self.queue_wait, &other.queue_wait);
        add_into(&mut self.exec, &other.exec);
        for (t, c) in self.round_trip.iter_mut().zip(&other.round_trip) {
            add_into(t, c);
        }
    }
}

/// One stripe: a mutex only its own sessions take, on cache lines of its
/// own.
#[derive(Debug)]
#[repr(align(128))]
struct Stripe(Mutex<Account>);

impl Stripe {
    /// Nothing panics while a stripe is held, so a poisoned one is whole.
    fn lock(&self) -> MutexGuard<'_, Account> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Shared counters; one instance per service.
#[derive(Debug)]
pub struct ServerMetrics {
    /// Currently open sessions.
    pub sessions_in_flight: AtomicUsize,
    /// Sessions ever admitted.
    pub sessions_admitted: AtomicU64,
    /// `session()` calls shed by admission control.
    pub sessions_shed: AtomicU64,
    /// Transactions committed through the service.
    pub committed: AtomicU64,
    /// Calls rejected by the protocol manager.
    pub rejected: AtomicU64,
    /// Versions re-assigned by the Figure 4 re-eval procedure.
    pub re_assigns: AtomicU64,
    /// Transactions aborted by re-eval.
    pub reeval_aborts: AtomicU64,
    /// Each session's account of its calls, one stripe per few sessions.
    stripes: Vec<Stripe>,
    /// The closed telemetry windows (1 s each) the stripes fold into,
    /// feeding incremental [`TelemetryDelta`] exports and SLO checks —
    /// unlike the counters, they answer "what was p99 *over the last N
    /// seconds*", not just since startup.
    series: TelemetrySeries,
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
        ServerMetrics::with_series(shards, TelemetrySeries::default())
    }

    fn with_series(shards: usize, series: TelemetrySeries) -> Self {
        let shards = shards.max(1);
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        ServerMetrics {
            sessions_in_flight: AtomicUsize::new(0),
            sessions_admitted: AtomicU64::new(0),
            sessions_shed: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            re_assigns: AtomicU64::new(0),
            reeval_aborts: AtomicU64::new(0),
            stripes: (0..STRIPES_PER_CORE * cores)
                .map(|_| Stripe(Mutex::new(Account::new(shards))))
                .collect(),
            series,
            queued: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    #[inline]
    pub(crate) fn add(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The stripe of the `n`-th session admitted: round-robin.
    pub(crate) fn stripe_of(&self, n: u64) -> usize {
        (n % self.stripes.len() as u64) as usize
    }

    /// Record one served call's account in `stripe`: counters, histograms
    /// (a timed-out call's round trip is not one) and telemetry window.
    pub(crate) fn record(&self, stripe: usize, call: &CallAccount) {
        let seq = self.series.seq_at(call.done);
        let round_trip = nanos(call.round_trip);
        let mut account = self.stripes[stripe].lock();
        account.requests += 1;
        account.queue_wait[bucket(nanos(call.queue_wait))] += 1;
        account.exec[bucket(nanos(call.exec))] += 1;
        if call.outcome == Outcome::TimedOut {
            account.timeouts += 1;
        } else {
            let shard = call.shard.min(account.round_trip.len() - 1);
            account.round_trip[shard][bucket(round_trip)] += 1;
        }
        self.series.roll(&mut account.window, seq);
        account.window.record_request(
            round_trip,
            call.outcome == Outcome::Committed,
            call.outcome == Outcome::Aborted,
            call.queue_depth,
        );
        if let Some(commits) = call.led_flush {
            account.window.record_flush(u64::from(commits));
        }
    }

    /// Count one call shed because `queue_depth` calls already waited for
    /// its shard's lock.
    pub(crate) fn shed(&self, stripe: usize) {
        self.stripes[stripe].lock().backpressure += 1;
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

    /// Every closed telemetry window with `seq >= since`, oldest first,
    /// and the cursor to pass next time. Every stripe's window is first
    /// rolled to the current one; only the windows below it are exported,
    /// so no exported window changes afterwards.
    pub fn telemetry(&self, since: u64) -> TelemetryDelta {
        self.telemetry_before(since, self.series.seq_at(Instant::now()))
    }

    fn telemetry_before(&self, since: u64, seq: u64) -> TelemetryDelta {
        for stripe in &self.stripes {
            self.series.roll(&mut stripe.lock().window, seq);
        }
        self.series.delta(since, seq)
    }

    /// Materialize a consistent-enough view for reporting: the stripes
    /// summed, one at a time.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // The shared counters are read first: a stripe summed afterwards
        // holds at least every call recorded before they were read.
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let (committed, rejected) = (load(&self.committed), load(&self.rejected));
        let (re_assigns, reeval_aborts) = (load(&self.re_assigns), load(&self.reeval_aborts));
        let mut total = Account::new(self.queued.len());
        for stripe in &self.stripes {
            total.add(&stripe.lock());
        }
        // Aggregate counts across shards for the headline quantiles.
        let mut all = [0u64; LATENCY_BUCKETS];
        let mut shard_p50 = Vec::with_capacity(total.round_trip.len());
        let mut shard_p99 = Vec::with_capacity(total.round_trip.len());
        for counts in &total.round_trip {
            add_into(&mut all, counts);
            let (p50, p99) = quantiles_of(counts);
            shard_p50.push(p50);
            shard_p99.push(p99);
        }
        let (p50, p99) = quantiles_of(&all);
        let (queue_wait_p50, queue_wait_p99) = quantiles_of(&total.queue_wait);
        let (exec_p50, exec_p99) = quantiles_of(&total.exec);
        MetricsSnapshot {
            sessions_in_flight: self.sessions_in_flight.load(Ordering::Relaxed),
            sessions_admitted: load(&self.sessions_admitted),
            sessions_shed: load(&self.sessions_shed),
            requests: total.requests,
            backpressure: total.backpressure,
            timeouts: total.timeouts,
            committed,
            rejected,
            re_assigns,
            reeval_aborts,
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
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicBool;

    /// An untraced call's account, done now.
    fn call(shard: usize, round_trip: Duration) -> CallAccount {
        CallAccount {
            shard,
            queue_wait: Duration::from_nanos(50),
            exec: Duration::from_nanos(200),
            round_trip,
            done: Instant::now(),
            queue_depth: 0,
            outcome: Outcome::Other,
            led_flush: None,
        }
    }

    /// Every stripe's counters and histograms, summed.
    fn total(m: &ServerMetrics) -> Account {
        let mut total = Account::new(m.queued.len());
        for stripe in &m.stripes {
            total.add(&stripe.lock());
        }
        total
    }

    fn mass(counts: &Histogram) -> u64 {
        counts.iter().sum()
    }

    #[test]
    fn snapshot_copies_counters() {
        let m = ServerMetrics::new(2);
        m.record(m.stripe_of(0), &call(0, Duration::from_micros(3)));
        ServerMetrics::add(&m.committed);
        // A timed-out call is a request, but its round trip is not one.
        let timed_out = CallAccount {
            outcome: Outcome::TimedOut,
            ..call(1, Duration::from_secs(1))
        };
        m.record(m.stripe_of(1), &timed_out);
        m.shed(m.stripe_of(2));
        m.enqueue(1);
        m.enqueue(1);
        let snap = m.snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.committed, 1);
        assert_eq!((snap.timeouts, snap.backpressure), (1, 1));
        assert_eq!(snap.queue_depths, vec![0, 2]);
        assert!(snap.p50.is_some());
        assert!(snap.queue_wait_p50.is_some() && snap.exec_p50.is_some());
        assert!(snap.shard_p50[0].is_some());
        assert_eq!(snap.shard_p50[1], None);
    }

    #[test]
    fn per_shard_quantiles_separate_slow_shards() {
        let m = ServerMetrics::new(2);
        for i in 0..100 {
            m.record(m.stripe_of(i), &call(0, Duration::from_nanos(100)));
            m.record(m.stripe_of(i + 1), &call(1, Duration::from_millis(10)));
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
        m.record(0, &call(0, Duration::from_micros(5)));
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

    /// N writer sessions record calls and bump commits while a reader
    /// snapshots concurrently: counters must be monotone across
    /// snapshots, and the final histogram and telemetry mass must equal
    /// the number of recordings.
    #[test]
    fn threaded_recording_is_monotone_and_conserves_mass() {
        const WRITERS: usize = 4;
        const PER_WRITER: u64 = 5_000;
        let m = ServerMetrics::new(WRITERS);
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let m = &m;
                scope.spawn(move || {
                    let stripe = m.stripe_of(w as u64);
                    for i in 0..PER_WRITER {
                        m.record(stripe, &call(w, Duration::from_nanos(100 + i)));
                        if i % 2 == 0 {
                            ServerMetrics::add(&m.committed);
                        }
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
        assert_eq!(m.snapshot().requests, expected);
        let total = total(&m);
        let round_trips: u64 = total.round_trip.iter().map(mass).sum();
        assert_eq!(
            round_trips, expected,
            "histogram observations lost or duplicated"
        );
        assert_eq!(mass(&total.queue_wait), expected);
        assert_eq!(mass(&total.exec), expected);
        let windows = m.telemetry_before(0, u64::MAX).windows;
        assert_eq!(windows.iter().map(|w| w.requests).sum::<u64>(), expected);
    }

    /// Four sessions record through `WINDOWS` window boundaries while a
    /// puller follows `next_seq`; every other pull is held up between
    /// reading the clock and rolling the stripes, until the clock has
    /// moved past its roll point. No window is exported twice or changes
    /// once exported, and once time has passed every recorded call's
    /// window, the exported requests sum to every call.
    #[test]
    fn telemetry_pulls_under_concurrent_recording_export_each_window_once() {
        const SESSIONS: u64 = 4;
        const WINDOWS: u64 = 40;
        // Wide enough that sessions descheduled mid-window still hold
        // data of the window a held-up pull rolls to.
        let width = Duration::from_millis(2);
        let m = ServerMetrics::with_series(1, TelemetrySeries::new(width, usize::MAX));
        let mut exported: BTreeMap<u64, WindowSnapshot> = BTreeMap::new();
        // Re-pull from `since` and compare every window already exported.
        let unchanged = |exported: &BTreeMap<u64, WindowSnapshot>, since: u64| {
            for w in m.telemetry(since).windows {
                if let Some(was) = exported.get(&w.seq) {
                    assert_eq!(was, &w, "window {} changed after export", w.seq);
                }
            }
        };
        let (mut cursor, mut recheck, mut pulls) = (0, 0, 0u64);
        let mut pull = |exported: &mut BTreeMap<u64, WindowSnapshot>| {
            let roll = m.series.seq_at(Instant::now());
            pulls += 1;
            if pulls % 2 == 0 {
                while m.series.seq_at(Instant::now()) == roll {
                    std::hint::spin_loop();
                }
            }
            let delta = m.telemetry_before(cursor, roll);
            for w in delta.windows {
                assert!(w.seq >= cursor, "window {} behind cursor {cursor}", w.seq);
                let seq = w.seq;
                assert!(
                    exported.insert(seq, w).is_none(),
                    "window {seq} exported twice"
                );
            }
            // The windows of this pull and the last one, pulled again.
            unchanged(exported, recheck);
            recheck = cursor;
            cursor = delta.next_seq;
        };
        let recording = AtomicBool::new(true);
        let recorded: u64 = std::thread::scope(|scope| {
            let sessions: Vec<_> = (0..SESSIONS)
                .map(|n| {
                    let m = &m;
                    scope.spawn(move || {
                        let stripe = m.stripe_of(n);
                        let mut calls = 0;
                        loop {
                            let call = call(0, Duration::from_nanos(100 + calls));
                            if m.series.seq_at(call.done) >= WINDOWS {
                                return calls;
                            }
                            m.record(stripe, &call);
                            calls += 1;
                        }
                    })
                })
                .collect();
            let recorded = scope.spawn(|| {
                let calls = sessions.into_iter().map(|s| s.join().unwrap()).sum();
                recording.store(false, Ordering::Release);
                calls
            });
            while recording.load(Ordering::Acquire) {
                pull(&mut exported);
            }
            recorded.join().unwrap()
        });
        // Once the clock is past the window of every recorded call, the
        // last pull's roll point is above them all.
        let last = m.series.seq_at(Instant::now());
        while m.series.seq_at(Instant::now()) == last {
            std::hint::spin_loop();
        }
        pull(&mut exported);
        unchanged(&exported, 0);
        let requests: u64 = exported.values().map(|w| w.requests).sum();
        assert_eq!(requests, recorded, "{} windows", exported.len());
    }
}
