//! The durability layer: WAL wiring, the commit flusher, recovery report.
//!
//! [`Durability`] is the `ServerConfig` knob. With `Durability::Wal`,
//! the service opens a [`ks_wal::Wal`] over the configured store at
//! startup, replays it ([`RecoveryReport`]), writes a synced
//! [`Checkpoint`](ks_wal::WalRecord::Checkpoint) fence, and hands every
//! shard's worker a [`WorkerWal`] so the commit path logs-then-flushes
//! before acknowledging.
//!
//! **Logging discipline** (what makes recovery exact):
//!
//! * every `Define` logs `Begin`, every applied write logs `Write`,
//!   under the shard lock — so a transaction's records always precede
//!   its `Commit` record, and one sync at commit durably covers all of
//!   them (prefix durability);
//! * a commit acknowledges only after its `Commit` record is synced,
//!   and only the flusher thread syncs it: the committing call appends
//!   the record and hands the flusher a deferred-reply [`Ticket`] under
//!   the shard lock, then releases the lock and waits for the ack; the
//!   flusher batches the tickets that arrive within [`COMPANY_WINDOW`]
//!   of the first behind a single fsync and acknowledges them all —
//!   unless no other session is open, in which case there is no one to
//!   wait for and a lone committer pays exactly its own sync;
//! * aborts log `Abort` for the target *and every cascaded victim*,
//!   unsynced: a victim is always a transaction that has not committed
//!   (a served transaction commits only once every author of its inputs
//!   has, so no cascade reaches a commit), and a lost `Abort` recovers
//!   as the same abort. No `Abort` follows a `Commit` in the log.
//!
//! WAL I/O errors panic the calling thread under the shard lock, which
//! poisons it: a server that cannot make commits durable must not keep
//! acknowledging them, and every later call on that shard reads
//! `Shutdown` (the in-memory and dst stores are infallible; only real
//! disks can trip this).

use crate::metrics::ServerMetrics;
use crate::worker::{span_end, span_start};
use ks_obs::{ObsKind, ObsSink, OpCode, SpanHop, NO_TXN};
use ks_wal::{SegmentStore, Wal, WalRecord};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long the flusher holds a batch open for other sessions' commits
/// before the shared fsync. A constant, not an option: every other
/// value in the tree only ever shortened a test or a demo.
const COMPANY_WINDOW: Duration = Duration::from_millis(2);

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
    /// Sync the commit record before acknowledging. Turning this off
    /// (dst "commit-flush" teeth) still logs everything but lets an
    /// acknowledged commit die with the page cache — the durability
    /// oracle must catch that.
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

/// The log behind one mutex: appends from every shard serialize here,
/// which is what makes "one sync covers every record appended before it"
/// hold globally.
pub(crate) struct WalShared(Mutex<Wal<Box<dyn SegmentStore>>>);

impl WalShared {
    pub(crate) fn new(wal: Wal<Box<dyn SegmentStore>>) -> WalShared {
        WalShared(Mutex::new(wal))
    }

    /// The log, for one append or sync. A call that panicked holding it
    /// left the log in an unknown state, so every later user fails
    /// closed.
    fn lock(&self) -> MutexGuard<'_, Wal<Box<dyn SegmentStore>>> {
        self.0.lock().expect("wal lock poisoned")
    }

    /// Current appender counters (flush queue depth, sync count…).
    pub(crate) fn stats(&self) -> ks_wal::WalStats {
        self.lock().stats()
    }
}

/// A deferred commit acknowledgement parked with the flusher.
pub(crate) struct Ticket {
    pub(crate) reply: SyncSender<()>,
    /// Distributed trace riding this commit (`0` = unsampled); the
    /// flusher emits the `WalEnqueue`/`WalBarrier`/`WalFsync` span
    /// boundaries for it.
    pub(crate) trace: u64,
}

/// Per-shard handle: the shared log plus the shard id and the flusher's
/// ticket queue (`None` iff `sync_on_commit` is off). Only the shard's
/// worker holds it, so the flusher's queue disconnects once shutdown has
/// taken every worker out of its shard.
pub(crate) struct WorkerWal {
    pub(crate) shared: Arc<WalShared>,
    pub(crate) flusher: Option<Sender<Ticket>>,
    pub(crate) shard: u32,
}

impl WorkerWal {
    /// Append one record of this shard's under the log lock.
    fn append(&self, record: &WalRecord, txn32: u32, sink: &Option<ObsSink>) {
        let mut wal = self.shared.lock();
        let before = wal.stats().bytes;
        wal.append(record).expect("wal append failed");
        if let Some(s) = sink {
            s.emit(
                txn32,
                ObsKind::WalAppend {
                    bytes: (wal.stats().bytes - before) as u32,
                },
            );
        }
    }

    /// Log `Begin` for a freshly defined transaction.
    pub(crate) fn log_begin(&self, txn: u64, sink: &Option<ObsSink>) {
        let record = WalRecord::Begin {
            shard: self.shard,
            txn,
        };
        self.append(&record, txn as u32, sink);
    }

    /// Log an applied write.
    pub(crate) fn log_write(&self, txn: u64, entity: u32, value: i64, sink: &Option<ObsSink>) {
        let record = WalRecord::Write {
            shard: self.shard,
            txn,
            entity,
            value,
        };
        self.append(&record, txn as u32, sink);
    }

    /// Log `Abort` for each victim (the explicit target and any cascade
    /// victims).
    pub(crate) fn log_aborts(&self, txns: &[u64], sink: &Option<ObsSink>) {
        for &txn in txns {
            let record = WalRecord::Abort {
                shard: self.shard,
                txn,
            };
            self.append(&record, txn as u32, sink);
        }
    }

    /// Log `Commit`. Acknowledging is the worker's: with a flusher it
    /// hands over a [`Ticket`] (the time until pickup is the trace's
    /// `WalEnqueue` hop), else the call returns at once.
    pub(crate) fn log_commit(&self, txn: u64, sink: &Option<ObsSink>) {
        let record = WalRecord::Commit {
            shard: self.shard,
            txn,
        };
        self.append(&record, txn as u32, sink);
    }

    /// Final barrier at graceful shutdown: even in teeth runs with
    /// `sync_on_commit` off, a clean exit leaves the log durable. Crash
    /// simulation kills the store *before* shutdown, so this cannot
    /// retroactively save a simulated power cut.
    pub(crate) fn sync_quiet(&self) {
        let _ = self.shared.lock().sync();
    }
}

/// The commit flusher — the only place a commit becomes durable:
/// collect every ticket within [`COMPANY_WINDOW`] of the first, issue
/// one fsync, acknowledge them all. The window is for company, so it
/// is skipped when this is the only open session — a lone committer
/// waits for its own sync and nothing else. Every ticket's `Commit`
/// record was appended before the ticket was sent, hence before the
/// sync, hence is covered. Exits when every shard's worker (the only
/// `Ticket` senders) has been dropped at shutdown.
///
/// For traced tickets the flusher closes the worker's `WalEnqueue` span
/// at pickup, brackets the wait for company as `WalBarrier`, and the
/// shared fsync as `WalFsync` — so a slow commit shows up in the trace
/// tree attributed to the right phase. Every batch's size also feeds
/// the windowed telemetry series.
pub(crate) fn flusher_loop(
    shared: Arc<WalShared>,
    tickets: Receiver<Ticket>,
    sink: Option<ObsSink>,
    metrics: Arc<ServerMetrics>,
) {
    // A traced ticket leaves one hop and enters the next.
    let hand_over = |t: &Ticket, done: SpanHop, next: SpanHop| {
        span_end(&sink, t.trace, NO_TXN, done, true);
        span_start(&sink, t.trace, NO_TXN, next, OpCode::Commit);
    };
    while let Ok(first) = tickets.recv() {
        hand_over(&first, SpanHop::WalEnqueue, SpanHop::WalBarrier);
        let mut batch = vec![first];
        let deadline = Instant::now() + COMPANY_WINDOW;
        while metrics.sessions_in_flight.load(Ordering::Relaxed) > 1 {
            match tickets.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(t) => {
                    hand_over(&t, SpanHop::WalEnqueue, SpanHop::WalBarrier);
                    batch.push(t);
                }
                Err(_) => break,
            }
        }
        for t in &batch {
            hand_over(t, SpanHop::WalBarrier, SpanHop::WalFsync);
        }
        let start = Instant::now();
        let records = shared.lock().sync().expect("wal fsync failed");
        if let Some(s) = &sink {
            s.emit(
                NO_TXN,
                ObsKind::GroupCommit {
                    n: batch.len() as u32,
                },
            );
            s.emit(
                NO_TXN,
                ObsKind::WalFsync {
                    records: records as u32,
                    sync_ns: start.elapsed().as_nanos() as u64,
                },
            );
        }
        metrics.telemetry.record_flush(batch.len() as u64);
        // Each ticket's last span ends before its acknowledgement.
        for t in batch {
            span_end(&sink, t.trace, NO_TXN, SpanHop::WalFsync, true);
            let _ = t.reply.send(());
        }
    }
}
