//! The durability layer: WAL wiring, group commit, recovery report.
//!
//! [`Durability`] is the `ServerConfig` knob. With `Durability::Wal`,
//! the service opens a [`ks_wal::Wal`] over the configured store at
//! startup, replays it ([`RecoveryReport`]), writes a synced
//! [`Checkpoint`](ks_wal::WalRecord::Checkpoint) fence, and hands every
//! shard's worker a `WorkerWal` so the commit path logs, flushes and
//! only then acknowledges.
//!
//! **Logging discipline** (what makes recovery exact):
//!
//! * every `Define` logs `Begin`, every applied write logs `Write`,
//!   under the shard lock — so a transaction's records always precede
//!   its `Commit` record, and one sync at commit durably covers all of
//!   them (prefix durability);
//! * an append only pushes the record onto the log's buffered tail
//!   under a short mutex and returns its position; it never waits on
//!   I/O;
//! * a commit acknowledges only once its `Commit` record's position is
//!   durable. The committing call waits for that on its own thread,
//!   after it has released the shard lock (`WalShared::await_durable`):
//!   if no flush is in flight it *leads* one — takes the whole tail,
//!   writes it with [`Wal::append_all`], syncs, publishes the new
//!   durable position and wakes every waiter — and otherwise it waits
//!   for the flush in flight. Whatever is appended while a sync runs
//!   goes into the next one, so concurrent committers share fsyncs
//!   with no window, no thread and no hand-off, and a lone committer
//!   pays exactly its own sync;
//! * aborts log `Abort` for the target *and every cascaded victim*,
//!   unsynced: a victim is always a transaction that has not committed
//!   (a served transaction commits only once every author of its inputs
//!   has, so no cascade reaches a commit), and a lost `Abort` recovers
//!   as the same abort. No `Abort` follows a `Commit` in the log.
//!
//! A WAL I/O error fails closed: the leader whose write or sync failed
//! (or who died mid-flush) marks the log failed and wakes every waiter,
//! and from then on every waiting and every later commit, on any shard,
//! returns [`ServerError::Shutdown`] — a server that cannot make
//! commits durable never acknowledges them (the in-memory and dst
//! stores are infallible; only real disks can trip this).

use crate::metrics::ServerMetrics;
use crate::worker::{span_end, span_start};
use crate::ServerError;
use ks_obs::{ObsKind, ObsSink, OpCode, SpanHop, NO_TXN};
use ks_wal::{SegmentStore, Wal, WalRecord, WalStats};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Builds a fresh handle onto the log's storage. A factory (not a
/// store) so `ServerConfig` stays `Clone` and a restarted service can
/// reopen the same media (the dst harness passes a closure cloning its
/// shared [`MemStore`](ks_wal::MemStore)).
pub type StoreFactory = Arc<dyn Fn() -> Box<dyn SegmentStore> + Send + Sync>;

/// Should commits survive a crash?
#[derive(Clone, Default)]
pub enum Durability {
    /// In-memory only (the pre-WAL behaviour): fastest, nothing
    /// survives process death.
    #[default]
    None,
    /// Write-ahead logging: log-then-flush before acknowledging a
    /// commit, recover on startup.
    Wal(WalOptions),
}

impl fmt::Debug for Durability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Durability::None => f.write_str("Durability::None"),
            Durability::Wal(opts) => f.debug_tuple("Durability::Wal").field(opts).finish(),
        }
    }
}

/// WAL configuration (see module docs for the commit protocol).
#[derive(Clone)]
pub struct WalOptions {
    /// Storage factory (file dir, shared memory, dst sim store…).
    pub store: StoreFactory,
    /// Flush the commit record before acknowledging. Turning this off
    /// (dst "commit-flush" teeth) still logs everything but acknowledges
    /// at once, leaving the records buffered until a later flush or a
    /// graceful shutdown — so a crash loses acknowledged commits, which
    /// the durability oracle must catch.
    pub sync_on_commit: bool,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: usize,
}

impl WalOptions {
    /// Defaults over a store factory: sync-on-commit on, 1 MiB segments.
    pub fn new(store: StoreFactory) -> WalOptions {
        WalOptions {
            store,
            sync_on_commit: true,
            segment_bytes: 1 << 20,
        }
    }
}

impl fmt::Debug for WalOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalOptions")
            .field("store", &"<factory>")
            .field("sync_on_commit", &self.sync_on_commit)
            .field("segment_bytes", &self.segment_bytes)
            .finish()
    }
}

/// What recovery found at startup (see
/// [`TxnService::recovery_report`](crate::TxnService::recovery_report)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Did the log hold a checkpoint (i.e. a prior incarnation ran)?
    pub recovered: bool,
    /// Clean records scanned.
    pub records: usize,
    /// Finally-committed transactions replayed, ascending `(shard, txn)`.
    pub committed: Vec<(u32, u64)>,
    /// Per-shard replay counters (shards with no recovered activity are
    /// absent).
    pub replay: Vec<ks_wal::ShardReplay>,
    /// The recovered per-shard states the service started from (`None`
    /// on fresh media — the configured initial state was used).
    pub states: Option<Vec<Vec<i64>>>,
    /// Why the log's tail was discarded, when it was torn by a crash.
    pub torn: Option<String>,
}

/// The log's append side: what no leader has taken yet, and the
/// group-commit state every committer reads.
struct Tail {
    /// Appended records no leader has taken yet, in log order.
    records: Vec<WalRecord>,
    /// `Commit` records among them: the size of the next group.
    commits: u32,
    /// Position of the last appended record (= records ever appended).
    appended: u64,
    /// Frame bytes ever appended.
    bytes: u64,
    /// Syncs the media had completed when the last flush ended.
    syncs: u64,
    /// Every record up to this position is durable.
    durable: u64,
    /// The position the flush in flight will make durable.
    flushing: Option<u64>,
    /// A leader's write or sync failed: nothing becomes durable again.
    failed: bool,
}

/// The log shared by every shard: a buffered tail behind a short
/// mutex, the media behind another that only the one leader in flight
/// takes. No thread holds both, and no shard lock is held by a leader.
pub(crate) struct WalShared {
    tail: Mutex<Tail>,
    /// Signalled whenever a flush ends (durable or failed).
    flushed: Condvar,
    media: Mutex<Wal<Box<dyn SegmentStore>>>,
    sync_on_commit: bool,
    /// The service-level sink: group-commit events and the committers'
    /// WAL spans.
    sink: Option<ObsSink>,
    metrics: Arc<ServerMetrics>,
}

impl WalShared {
    /// Wrap a log whose every record so far is durable (the startup
    /// checkpoint was synced).
    pub(crate) fn new(
        wal: Wal<Box<dyn SegmentStore>>,
        sync_on_commit: bool,
        sink: Option<ObsSink>,
        metrics: Arc<ServerMetrics>,
    ) -> WalShared {
        let stats = wal.stats();
        WalShared {
            tail: Mutex::new(Tail {
                records: Vec::new(),
                commits: 0,
                appended: stats.records,
                bytes: stats.bytes,
                syncs: stats.syncs,
                durable: stats.records,
                flushing: None,
                failed: false,
            }),
            flushed: Condvar::new(),
            media: Mutex::new(wal),
            sync_on_commit,
            sink,
            metrics,
        }
    }

    /// The tail. Nothing that can panic runs while it is held.
    fn tail(&self) -> MutexGuard<'_, Tail> {
        self.tail.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Buffer one record; returns its position and frame size. Never
    /// waits on I/O.
    fn append(&self, record: WalRecord) -> (u64, u32) {
        let bytes = record.frame_len() as u32;
        let mut tail = self.tail();
        tail.commits += u32::from(matches!(record, WalRecord::Commit { .. }));
        tail.records.push(record);
        tail.appended += 1;
        tail.bytes += u64::from(bytes);
        (tail.appended, bytes)
    }

    /// Wait until position `pos` is durable, leading a flush whenever
    /// none is in flight, for at most `timeout` of waiting on others.
    ///
    /// A traced commit enters with its `WalEnqueue` span open (append →
    /// reaching the flush), spends `WalBarrier` waiting out a flush that
    /// does not cover it, and `WalFsync` in the write and sync that do;
    /// every span ends before this returns.
    pub(crate) fn await_durable(
        &self,
        pos: u64,
        trace: u64,
        timeout: Duration,
    ) -> Result<(), ServerError> {
        let deadline = Instant::now() + timeout;
        let sink = &self.sink;
        let hop = |done: SpanHop, next: SpanHop| {
            span_end(sink, trace, NO_TXN, done, true);
            span_start(sink, trace, NO_TXN, next, OpCode::Commit);
        };
        hop(SpanHop::WalEnqueue, SpanHop::WalBarrier);
        let mut covered = false;
        let mut tail = self.tail();
        let outcome = loop {
            if tail.failed {
                break Err(ServerError::Shutdown);
            }
            // The next flush to end covers `pos` — it is in flight, or
            // this call leads it — so the wait is now for the fsync.
            if !covered && (tail.durable >= pos || tail.flushing.is_none_or(|to| to >= pos)) {
                covered = true;
                hop(SpanHop::WalBarrier, SpanHop::WalFsync);
            }
            if tail.durable >= pos {
                break Ok(());
            }
            if tail.flushing.is_none() {
                tail = self.lead(tail, true);
                continue;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break Err(ServerError::Timeout);
            }
            tail = self
                .flushed
                .wait_timeout(tail, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        };
        drop(tail);
        let last = if covered {
            SpanHop::WalFsync
        } else {
            SpanHop::WalBarrier
        };
        span_end(sink, trace, NO_TXN, last, outcome.is_ok());
        outcome
    }

    /// Lead one flush: take the whole tail, write it and sync it with
    /// the tail unlocked (appends go on meanwhile, into the next flush),
    /// then publish the outcome and wake every waiter. An `announce`d
    /// flush is a commit group: it emits `GroupCommit` and `WalFsync`
    /// and feeds the flush series.
    fn lead<'a>(&'a self, mut tail: MutexGuard<'a, Tail>, announce: bool) -> MutexGuard<'a, Tail> {
        let records = std::mem::take(&mut tail.records);
        let commits = std::mem::take(&mut tail.commits);
        let upto = tail.appended;
        tail.flushing = Some(upto);
        drop(tail);
        let start = Instant::now();
        let (synced, syncs) = {
            let _watch = LeaderWatch(self);
            let mut wal = self.media.lock().unwrap_or_else(PoisonError::into_inner);
            let synced = wal.append_all(&records).and_then(|()| wal.sync());
            (synced, wal.stats().syncs)
        };
        if let (Ok(records), true) = (&synced, announce) {
            if let Some(s) = &self.sink {
                s.emit(NO_TXN, ObsKind::GroupCommit { n: commits });
                s.emit(
                    NO_TXN,
                    ObsKind::WalFsync {
                        records: *records as u32,
                        sync_ns: start.elapsed().as_nanos() as u64,
                    },
                );
            }
            self.metrics.telemetry.record_flush(u64::from(commits));
        }
        let mut tail = self.tail();
        tail.flushing = None;
        tail.syncs = syncs;
        match synced {
            Ok(_) => tail.durable = upto,
            Err(_) => tail.failed = true,
        }
        self.flushed.notify_all();
        tail
    }

    /// Final barrier at graceful shutdown: even in teeth runs with
    /// `sync_on_commit` off, a clean exit leaves the log durable. Crash
    /// simulation kills the store *before* shutdown, so this cannot
    /// retroactively save a simulated power cut.
    pub(crate) fn sync_quiet(&self) {
        let mut tail = self.tail();
        while tail.flushing.is_some() {
            tail = self
                .flushed
                .wait(tail)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if !tail.failed {
            drop(self.lead(tail, false));
        }
    }

    /// Appender counters: records and bytes appended (buffered ones
    /// included), syncs completed by finished flushes, and records not
    /// yet durable. Never waits on a flush in flight.
    pub(crate) fn stats(&self) -> WalStats {
        let tail = self.tail();
        WalStats {
            records: tail.appended,
            bytes: tail.bytes,
            syncs: tail.syncs,
            pending_records: tail.appended - tail.durable,
        }
    }
}

/// Fails the log if its leader unwinds mid-flush, so nobody waits on a
/// dead leader.
struct LeaderWatch<'a>(&'a WalShared);

impl Drop for LeaderWatch<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut tail = self.0.tail();
            tail.flushing = None;
            tail.failed = true;
            self.0.flushed.notify_all();
        }
    }
}

/// Per-shard handle: the shared log plus the shard id its records carry.
pub(crate) struct WorkerWal {
    pub(crate) shared: Arc<WalShared>,
    pub(crate) shard: u32,
}

impl WorkerWal {
    /// Buffer one record of this shard's; returns its position.
    fn append(&self, record: WalRecord, txn32: u32, sink: &Option<ObsSink>) -> u64 {
        let (pos, bytes) = self.shared.append(record);
        if let Some(s) = sink {
            s.emit(txn32, ObsKind::WalAppend { bytes });
        }
        pos
    }

    /// Log `Begin` for a freshly defined transaction.
    pub(crate) fn log_begin(&self, txn: u64, sink: &Option<ObsSink>) {
        let record = WalRecord::Begin {
            shard: self.shard,
            txn,
        };
        self.append(record, txn as u32, sink);
    }

    /// Log an applied write.
    pub(crate) fn log_write(&self, txn: u64, entity: u32, value: i64, sink: &Option<ObsSink>) {
        let record = WalRecord::Write {
            shard: self.shard,
            txn,
            entity,
            value,
        };
        self.append(record, txn as u32, sink);
    }

    /// Log `Abort` for each victim (the explicit target and any cascade
    /// victims).
    pub(crate) fn log_aborts(&self, txns: &[u64], sink: &Option<ObsSink>) {
        for &txn in txns {
            let record = WalRecord::Abort {
                shard: self.shard,
                txn,
            };
            self.append(record, txn as u32, sink);
        }
    }

    /// Log `Commit`; returns the position the commit must see durable
    /// before it is acknowledged, or `None` when `sync_on_commit` is off.
    pub(crate) fn log_commit(&self, txn: u64, sink: &Option<ObsSink>) -> Option<u64> {
        let record = WalRecord::Commit {
            shard: self.shard,
            txn,
        };
        let pos = self.append(record, txn as u32, sink);
        self.shared.sync_on_commit.then_some(pos)
    }
}
