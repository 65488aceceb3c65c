//! The per-shard worker: one certifier behind one lock.
//!
//! A [`Worker`] owns its shard's [`Certifier`] — the paper's CPC protocol
//! manager, the SSI certifier, or the 2PL baseline, selected by
//! `ServerConfig::backend` — and lives in a [`Shard`]: a mutex every call
//! holds while it runs. The call runs on the caller's own thread (the
//! session's thread in-process, the ks-net pool thread that read the
//! request over TCP), so the phased state machine never sees concurrent
//! mutation and no call crosses a thread. The worker never blocks on protocol outcomes — a
//! validation that must wait or a read of an in-flight version returns
//! [`ServerError::Busy`] and lets the session retry, because the
//! transaction being waited on needs this same lock to make progress. A
//! whole read/write burst runs as one [`Worker::batch`] under a single
//! lock acquisition.
//!
//! **One way out.** [`Worker::serve`] runs a call to its result, then, in
//! order, takes the execute time, records it, emits the `Reply` event and
//! ends the `Exec` span — and only then opens a logged commit's
//! `WalEnqueue` span and returns the position of its `Commit` record. A
//! hop's span ends before anything that lets its parent end, so the
//! session never closes its `Request` span while `Exec` is still open.
//! The caller waits for that position to become durable after it has
//! released the lock, on its own thread
//! ([`WalShared::await_durable`](crate::durability::WalShared::await_durable)):
//! no call crosses a thread.

use crate::client::{BatchOp, BatchReply};
use crate::durability::WorkerWal;
use crate::metrics::ServerMetrics;
use crate::ServerError;
use ks_core::Specification;
use ks_kernel::{EntityId, Value};
use ks_obs::{ObsKind, ObsSink, OpCode, SpanHop};
use ks_predicate::Strategy;
use ks_protocol::manager::ProtocolStats;
use ks_protocol::{
    Certifier, CommitOutcome, ProtocolError, ReEvalAction, ReadOutcome, Txn, TxnState,
    ValidationOutcome,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One shard: its worker behind the lock each call holds while it runs;
/// `None` once the service has shut down. A call that panicked under the
/// lock poisoned it, and the shard fails closed.
pub(crate) type Shard = Mutex<Option<Worker>>;

/// The per-op verdicts of one [`Worker::batch`].
pub(crate) type BatchReplies = Vec<Result<BatchReply, ServerError>>;

/// What one call produced under the lock.
pub(crate) struct Served<T> {
    result: Result<T, ServerError>,
    /// The `Reply` event's outcome: the result's, or for a batch every
    /// op's.
    ok: bool,
    /// A logged commit's log position, acknowledged once durable.
    durable: Option<u64>,
}

impl<T> From<Result<T, ServerError>> for Served<T> {
    fn from(result: Result<T, ServerError>) -> Self {
        Served {
            ok: result.is_ok(),
            result,
            durable: None,
        }
    }
}

/// What a call's events and spans are stamped with.
#[derive(Clone, Copy)]
pub(crate) struct Call {
    pub(crate) op: OpCode,
    /// The shard-local transaction (`NO_TXN` for define, which has none
    /// yet).
    pub(crate) txn32: u32,
    /// Distributed trace id (`0` = unsampled).
    pub(crate) trace: u64,
    /// When the call asked for the shard lock.
    pub(crate) arrived: Instant,
}

/// Open a span iff this request is being traced (`trace != 0`) and a
/// sink is attached.
pub(crate) fn span_start(sink: &Option<ObsSink>, trace: u64, txn: u32, hop: SpanHop, op: OpCode) {
    if trace != 0 {
        if let Some(s) = sink {
            s.emit(txn, ObsKind::SpanStart { hop, op, trace });
        }
    }
}

/// Close a span with its outcome, under the same condition.
pub(crate) fn span_end(sink: &Option<ObsSink>, trace: u64, txn: u32, hop: SpanHop, ok: bool) {
    if trace != 0 {
        if let Some(s) = sink {
            s.emit(txn, ObsKind::SpanEnd { hop, ok, trace });
        }
    }
}

/// One shard's executor: the certifier it owns and where outcomes go.
pub(crate) struct Worker {
    cert: Box<dyn Certifier>,
    metrics: Arc<ServerMetrics>,
    sink: Option<ObsSink>,
    wal: Option<WorkerWal>,
}

impl Worker {
    pub(crate) fn new(
        cert: Box<dyn Certifier>,
        metrics: Arc<ServerMetrics>,
        sink: Option<ObsSink>,
        wal: Option<WorkerWal>,
    ) -> Worker {
        Worker {
            cert,
            metrics,
            sink,
            wal,
        }
    }

    /// Convert and count a protocol refusal (the shared conversion is
    /// `ServerError::from`): a certifier killing the caller counts as an
    /// abort (like a re-eval victim), a retryable lock conflict counts as
    /// neither, and everything else is a rejection.
    fn refuse(&self, e: ProtocolError) -> ServerError {
        let err = ServerError::from(e);
        match &err {
            ServerError::ReEvalAborted => ServerMetrics::add(&self.metrics.reeval_aborts),
            ServerError::Busy => {}
            _ => ServerMetrics::add(&self.metrics.rejected),
        }
        err
    }

    /// A transaction aborted underneath its session (re-eval, cascade, or
    /// a certifier victim) is reported as such on its next call.
    fn precheck(&self, txn: Txn) -> Result<(), ServerError> {
        match self.cert.state_of(txn)? {
            TxnState::Aborted => Err(ServerError::ReEvalAborted),
            _ => Ok(()),
        }
    }

    /// Log `Abort` for every victim: the log must witness the undo of
    /// anything it witnessed applied.
    fn log_aborts(&self, victims: impl IntoIterator<Item = Txn>) {
        if let Some(w) = &self.wal {
            let victims: Vec<u64> = victims.into_iter().map(|t| t.0 as u64).collect();
            w.log_aborts(&victims, &self.sink);
        }
    }

    /// Run a certifier decision inside its own `Certify` span, nested in
    /// `Exec`; the span's end carries the outcome.
    fn certify(
        &mut self,
        trace: u64,
        txn: Txn,
        op: OpCode,
        decide: impl FnOnce(&mut Self) -> Result<(), ServerError>,
    ) -> Result<(), ServerError> {
        let txn32 = txn.0 as u32;
        span_start(&self.sink, trace, txn32, SpanHop::Certify, op);
        let result = decide(self);
        span_end(&self.sink, trace, txn32, SpanHop::Certify, result.is_ok());
        result
    }

    /// Define a new root child with its `(I_t, O_t)` specification,
    /// optionally ordered after/before sibling transactions of this shard,
    /// and log its `Begin`.
    pub(crate) fn open(
        &mut self,
        spec: Specification,
        after: &[Txn],
        before: &[Txn],
    ) -> Result<Txn, ServerError> {
        let result = self
            .cert
            .open(spec, after, before)
            .map_err(|e| self.refuse(e));
        if let (Some(w), Ok(txn)) = (&self.wal, &result) {
            w.log_begin(txn.0 as u64, &self.sink);
        }
        result
    }

    /// The certifier's validation-time decision: `R_v` locks and a
    /// version assignment.
    pub(crate) fn validate(
        &mut self,
        txn: Txn,
        strategy: Strategy,
        trace: u64,
    ) -> Result<(), ServerError> {
        self.certify(trace, txn, OpCode::Validate, |w| {
            w.precheck(txn)?;
            match w.cert.validate(txn, strategy) {
                Ok(ValidationOutcome::Validated) => Ok(()),
                Ok(ValidationOutcome::Blocked(_)) | Ok(ValidationOutcome::MustWait(_)) => {
                    Err(ServerError::Busy)
                }
                Ok(ValidationOutcome::CannotSatisfy) => {
                    ServerMetrics::add(&w.metrics.rejected);
                    Err(ServerError::Rejected(
                        "no version assignment satisfies the input predicate".into(),
                    ))
                }
                Err(e) => Err(w.refuse(e)),
            }
        })
    }

    /// Read the assigned version of an entity.
    pub(crate) fn read(&mut self, txn: Txn, entity: EntityId) -> Result<Value, ServerError> {
        self.precheck(txn)?;
        match self.cert.read(txn, entity) {
            Ok(ReadOutcome::Value(v)) => Ok(v),
            Ok(ReadOutcome::Blocked(_)) => Err(ServerError::Busy),
            Err(e) => Err(self.refuse(e)),
        }
    }

    /// Write a new version, counting re-eval consequences. An applied
    /// write logs its WAL record, followed by an `Abort` record for every
    /// victim it felled.
    pub(crate) fn write(
        &mut self,
        txn: Txn,
        entity: EntityId,
        value: Value,
    ) -> Result<(), ServerError> {
        self.precheck(txn)?;
        let report = self
            .cert
            .write(txn, entity, value)
            .map_err(|e| self.refuse(e))?;
        let mut victims = Vec::new();
        for action in &report.reeval {
            match action {
                ReEvalAction::Reassigned(_) => ServerMetrics::add(&self.metrics.re_assigns),
                ReEvalAction::Aborted(t) | ReEvalAction::ReassignFailedAborted(t) => {
                    ServerMetrics::add(&self.metrics.reeval_aborts);
                    victims.push(*t);
                }
            }
        }
        if let Some(w) = &self.wal {
            w.log_write(txn.0 as u64, entity.0, value, &self.sink);
        }
        self.log_aborts(victims);
        Ok(())
    }

    /// A read/write burst, back to back. Each op carries its own verdict
    /// — including re-eval aborts triggered by an earlier op of the same
    /// burst.
    pub(crate) fn batch(&mut self, txn: Txn, ops: &[BatchOp]) -> Served<BatchReplies> {
        let results: BatchReplies = ops
            .iter()
            .map(|op| match *op {
                BatchOp::Read(entity) => self.read(txn, entity).map(BatchReply::Value),
                BatchOp::Write(entity, value) => {
                    self.write(txn, entity, value).map(|()| BatchReply::Done)
                }
            })
            .collect();
        Served {
            ok: results.iter().all(Result::is_ok),
            result: Ok(results),
            durable: None,
        }
    }

    /// The certifier's commit-time decision (output condition + commit
    /// gating). A transaction that cannot commit is aborted and logged; a
    /// logged commit is acknowledged only once its record is durable,
    /// which the caller waits for after releasing the lock.
    pub(crate) fn commit(&mut self, txn: Txn, trace: u64) -> Served<()> {
        let result = self.certify(trace, txn, OpCode::Commit, |w| {
            w.precheck(txn)?;
            match w.cert.commit(txn) {
                Ok(CommitOutcome::Committed) => {
                    ServerMetrics::add(&w.metrics.committed);
                    Ok(())
                }
                Ok(CommitOutcome::PredecessorsPending(_))
                | Ok(CommitOutcome::ChildrenPending(_)) => Err(ServerError::Busy),
                Ok(CommitOutcome::OutputViolated) => {
                    // The transaction cannot terminate successfully; abort
                    // it so its versions don't dangle.
                    let cascaded = w.cert.abort(txn).unwrap_or_default();
                    w.log_aborts(std::iter::once(txn).chain(cascaded));
                    ServerMetrics::add(&w.metrics.rejected);
                    Err(ServerError::Rejected("output condition violated".into()))
                }
                Err(e) => {
                    // A certifier abort at commit (SSI FCW or a dangerous
                    // structure) must reach the log too.
                    let err = w.refuse(e);
                    if err == ServerError::ReEvalAborted {
                        w.log_aborts([txn]);
                    }
                    Err(err)
                }
            }
        });
        let mut served = Served::from(result);
        if let (Some(w), Ok(())) = (&self.wal, &served.result) {
            served.durable = w.log_commit(txn.0 as u64, &self.sink);
        }
        served
    }

    /// Explicit abort. Aborting an already-aborted transaction is a no-op
    /// ack, not an error: the session is acknowledging the doom.
    pub(crate) fn abort(&mut self, txn: Txn) -> Result<(), ServerError> {
        match self.cert.state_of(txn) {
            Ok(TxnState::Aborted) => Ok(()),
            Ok(_) => self
                .cert
                .abort(txn)
                .map(|cascaded| self.log_aborts(std::iter::once(txn).chain(cascaded))),
            Err(e) => Err(e),
        }
        .map_err(ServerError::from)
    }

    /// The shard certifier's protocol statistics.
    pub(crate) fn stats(&self) -> ProtocolStats {
        self.cert.stats()
    }

    /// Serve one call on the calling thread, which holds the shard lock.
    ///
    /// Records the call's wait for the lock and its execute time; with a
    /// sink attached, the two are also emitted as `Execute`/`Reply`
    /// events so a flight-recorder dump shows where each call's time
    /// went. Returns the result and, for a logged commit, the log
    /// position to see durable once the lock is released.
    pub(crate) fn serve<T>(
        &mut self,
        call: Call,
        run: impl FnOnce(&mut Worker, u64) -> Served<T>,
    ) -> (Result<T, ServerError>, Option<u64>) {
        let Call {
            op,
            txn32,
            trace,
            arrived,
        } = call;
        let queue_wait = arrived.elapsed();
        self.metrics.queue_wait.record(queue_wait);
        ServerMetrics::add(&self.metrics.requests);
        if let Some(s) = &self.sink {
            s.emit(
                txn32,
                ObsKind::Execute {
                    op,
                    queue_ns: queue_wait.as_nanos() as u64,
                },
            );
        }
        // The session opened the Queue span when it asked for the lock;
        // holding it ends the span, and execution gets its own.
        span_end(&self.sink, trace, txn32, SpanHop::Queue, true);
        span_start(&self.sink, trace, txn32, SpanHop::Exec, op);
        let exec_start = Instant::now();
        let served = run(self, trace);
        // The one way out, in order: take the execute time once, record
        // it, emit the `Reply` event, end the `Exec` span — then enqueue.
        let exec = exec_start.elapsed();
        self.metrics.exec_time.record(exec);
        if let Some(s) = &self.sink {
            s.emit(
                txn32,
                ObsKind::Reply {
                    op,
                    ok: served.ok,
                    exec_ns: exec.as_nanos() as u64,
                },
            );
        }
        span_end(&self.sink, trace, txn32, SpanHop::Exec, served.ok);
        if served.durable.is_some() {
            span_start(
                &self.sink,
                trace,
                txn32,
                SpanHop::WalEnqueue,
                OpCode::Commit,
            );
        }
        (served.result, served.durable)
    }

    /// Retire the worker at shutdown and return its certifier (the
    /// service leaves the log durable once every shard is out).
    pub(crate) fn close(self) -> Box<dyn Certifier> {
        self.cert
    }
}
