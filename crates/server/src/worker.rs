//! The per-shard worker: single-threaded owner of one certifier.
//!
//! Each worker drains its shard's bounded request queue in arrival order
//! and executes calls against its own [`Certifier`] — the paper's CPC
//! protocol manager, the SSI certifier, or the 2PL baseline, selected by
//! `ServerConfig::backend` — so the phased state machine never sees
//! concurrent mutation. The worker never blocks on protocol outcomes —
//! a validation that must wait or a read of an in-flight version replies
//! [`ServerError::Busy`] and lets the session retry, because the
//! transaction being waited on is served by this same queue.
//!
//! Each wakeup drains up to [`DRAIN_MAX`] queued requests in one pass
//! (one blocking `recv`, then non-blocking `try_recv`s), so under load
//! the channel rendezvous cost is amortized across a batch instead of
//! paid per op; the bound keeps any single wakeup from starving
//! shutdown. A whole read/write burst can also arrive as one
//! [`Request::OpBatch`], which executes its ops back-to-back with a
//! single reply rendezvous.
//!
//! **One way out.** A request executes to its outcome and the [`Answer`]
//! it owes, and nothing more; [`Worker::finish`] then takes the execute
//! time, records it, emits the `Reply` event and ends the `Exec` span,
//! and only then sends. [`Answer::send`] is the only code here that
//! sends anything, a logged commit's hand-off to the flusher included.
//! The rule: a hop's span ends before the message that lets its parent
//! end is sent — a reply sent first lets the session close its `Request`
//! span while `Exec` is still open, and the trace is malformed.

use crate::client::{BatchOp, BatchReply};
use crate::durability::{Ticket, WorkerWal};
use crate::metrics::ServerMetrics;
use crate::ServerError;
use ks_core::Specification;
use ks_kernel::{EntityId, Value};
use ks_obs::{ObsKind, ObsSink, OpCode, SpanHop, NO_TXN};
use ks_predicate::Strategy;
use ks_protocol::manager::ProtocolStats;
use ks_protocol::{
    Certifier, CommitOutcome, ProtocolError, ReEvalAction, ReadOutcome, Txn, TxnState,
    ValidationOutcome,
};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

/// A request plus its enqueue instant, so the worker can split round-trip
/// latency into queue-wait and execute portions.
pub(crate) struct Routed {
    pub(crate) enqueued: Instant,
    /// Distributed trace id this request rides under (`0` = unsampled):
    /// the worker closes the `Queue` span and brackets execution with
    /// `Exec`/`Certify` spans for it.
    pub(crate) trace: u64,
    pub(crate) request: Request,
}

/// The per-op verdicts of one [`Request::OpBatch`].
pub(crate) type BatchReplies = Vec<Result<BatchReply, ServerError>>;

/// One routed service call. Entity ids and specifications are already in
/// the target shard's local id space (sessions translate at the boundary).
pub(crate) enum Request {
    /// Define a new root child with its `(I_t, O_t)` specification,
    /// optionally ordered after/before sibling transactions of the same
    /// shard.
    Define {
        spec: Specification,
        after: Vec<Txn>,
        before: Vec<Txn>,
        reply: SyncSender<Result<Txn, ServerError>>,
    },
    /// Validate: acquire `R_v` locks and a version assignment.
    Validate {
        txn: Txn,
        strategy: Strategy,
        reply: SyncSender<Result<(), ServerError>>,
    },
    /// Read the assigned version of an entity.
    Read {
        txn: Txn,
        entity: EntityId,
        reply: SyncSender<Result<Value, ServerError>>,
    },
    /// Write a new version (may trigger re-eval of siblings).
    Write {
        txn: Txn,
        entity: EntityId,
        value: Value,
        reply: SyncSender<Result<(), ServerError>>,
    },
    /// A read/write burst executed back-to-back with one reply
    /// rendezvous. Each op carries its own verdict — including re-eval
    /// aborts triggered by an earlier op of the same burst. The outer
    /// `Result` is always `Ok` from the worker; the envelope exists so
    /// the session's rendezvous machinery can surface transport-level
    /// failures (backpressure, timeout) batch-wide.
    OpBatch {
        txn: Txn,
        ops: Vec<BatchOp>,
        reply: SyncSender<Result<BatchReplies, ServerError>>,
    },
    /// Commit (checks the output condition).
    Commit {
        txn: Txn,
        reply: SyncSender<Result<(), ServerError>>,
    },
    /// Explicit abort.
    Abort {
        txn: Txn,
        reply: SyncSender<Result<(), ServerError>>,
    },
    /// Snapshot the shard manager's protocol statistics.
    Stats { reply: SyncSender<ProtocolStats> },
    /// Drain no further requests and return the manager.
    Shutdown,
}

impl Request {
    /// The observability op code of this request.
    pub(crate) fn op(&self) -> OpCode {
        match self {
            Request::Define { .. } => OpCode::Define,
            Request::Validate { .. } => OpCode::Validate,
            Request::Read { .. } => OpCode::Read,
            Request::Write { .. } => OpCode::Write,
            Request::OpBatch { .. } => OpCode::Batch,
            Request::Commit { .. } => OpCode::Commit,
            Request::Abort { .. } => OpCode::Abort,
            Request::Stats { .. } | Request::Shutdown => OpCode::Stats,
        }
    }

    /// The shard-local transaction this request targets, for event
    /// stamping (`NO_TXN` for define/stats, which have none yet).
    pub(crate) fn txn_u32(&self) -> u32 {
        match self {
            Request::Validate { txn, .. }
            | Request::Read { txn, .. }
            | Request::Write { txn, .. }
            | Request::OpBatch { txn, .. }
            | Request::Commit { txn, .. }
            | Request::Abort { txn, .. } => txn.0 as u32,
            Request::Define { .. } | Request::Stats { .. } | Request::Shutdown => NO_TXN,
        }
    }
}

/// What an executed request owes its caller: one of the five reply
/// channels paired with the value to put on it, or — for a commit whose
/// record must become durable first — the [`Ticket`] the flusher
/// acknowledges. Moves the channel and the value; allocates nothing.
pub(crate) enum Answer {
    Txn(
        SyncSender<Result<Txn, ServerError>>,
        Result<Txn, ServerError>,
    ),
    Unit(SyncSender<Result<(), ServerError>>, Result<(), ServerError>),
    Value(
        SyncSender<Result<Value, ServerError>>,
        Result<Value, ServerError>,
    ),
    Batch(SyncSender<Result<BatchReplies, ServerError>>, BatchReplies),
    Stats(SyncSender<ProtocolStats>, ProtocolStats),
    Flusher(Ticket),
}

impl Answer {
    /// Let the answer leave the worker — the only send in this module. A
    /// caller that stopped waiting (timed out) is not an error. A ticket
    /// opens the `WalEnqueue` span, which the flusher ends at pickup.
    fn send(self, wal: &Option<WorkerWal>, sink: &Option<ObsSink>, txn32: u32) {
        fn put<T>(reply: SyncSender<T>, value: T) {
            let _ = reply.send(value);
        }
        match self {
            Answer::Txn(reply, result) => put(reply, result),
            Answer::Unit(reply, result) => put(reply, result),
            Answer::Value(reply, result) => put(reply, result),
            Answer::Batch(reply, results) => put(reply, Ok(results)),
            Answer::Stats(reply, stats) => put(reply, stats),
            Answer::Flusher(ticket) => {
                let trace = ticket.trace;
                span_start(sink, trace, txn32, SpanHop::WalEnqueue, OpCode::Commit);
                wal.as_ref()
                    .and_then(|w| w.flusher.as_ref())
                    .expect("a ticket is only issued with a flusher")
                    .send(ticket)
                    .unwrap_or_else(|_| panic!("commit flusher exited while workers live"));
            }
        }
    }
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

/// Upper bound on requests drained per wakeup: big enough to amortize
/// the channel rendezvous under load, small enough that a saturated
/// queue cannot indefinitely delay the shutdown message behind it.
const DRAIN_MAX: usize = 32;

/// One shard's executor: the certifier it owns and where outcomes go.
struct Worker {
    cert: Box<dyn Certifier>,
    metrics: Arc<ServerMetrics>,
    sink: Option<ObsSink>,
    wal: Option<WorkerWal>,
}

impl Worker {
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
        txn32: u32,
        op: OpCode,
        decide: impl FnOnce(&mut Self) -> Result<(), ServerError>,
    ) -> Result<(), ServerError> {
        span_start(&self.sink, trace, txn32, SpanHop::Certify, op);
        let result = decide(self);
        span_end(&self.sink, trace, txn32, SpanHop::Certify, result.is_ok());
        result
    }

    /// The certifier's validation-time decision (version assignment).
    fn validate(&mut self, txn: Txn, strategy: Strategy) -> Result<(), ServerError> {
        self.precheck(txn)?;
        match self.cert.validate(txn, strategy) {
            Ok(ValidationOutcome::Validated) => Ok(()),
            Ok(ValidationOutcome::Blocked(_)) | Ok(ValidationOutcome::MustWait(_)) => {
                Err(ServerError::Busy)
            }
            Ok(ValidationOutcome::CannotSatisfy) => {
                ServerMetrics::add(&self.metrics.rejected);
                Err(ServerError::Rejected(
                    "no version assignment satisfies the input predicate".into(),
                ))
            }
            Err(e) => Err(self.refuse(e)),
        }
    }

    /// One read (shared by `Read` and `OpBatch`).
    fn read(&mut self, txn: Txn, entity: EntityId) -> Result<Value, ServerError> {
        self.precheck(txn)?;
        match self.cert.read(txn, entity) {
            Ok(ReadOutcome::Value(v)) => Ok(v),
            Ok(ReadOutcome::Blocked(_)) => Err(ServerError::Busy),
            Err(e) => Err(self.refuse(e)),
        }
    }

    /// One write (shared by `Write` and `OpBatch`), counting re-eval
    /// consequences. An applied write logs its WAL record, followed by an
    /// `Abort` record for every victim it felled.
    fn write(&mut self, txn: Txn, entity: EntityId, value: Value) -> Result<(), ServerError> {
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

    /// The certifier's commit-time decision (output condition + commit
    /// gating). A transaction that cannot commit is aborted and logged.
    fn commit(&mut self, txn: Txn) -> Result<(), ServerError> {
        self.precheck(txn)?;
        match self.cert.commit(txn) {
            Ok(CommitOutcome::Committed) => {
                ServerMetrics::add(&self.metrics.committed);
                Ok(())
            }
            Ok(CommitOutcome::PredecessorsPending(_)) | Ok(CommitOutcome::ChildrenPending(_)) => {
                Err(ServerError::Busy)
            }
            Ok(CommitOutcome::OutputViolated) => {
                // The transaction cannot terminate successfully; abort it
                // so its versions don't dangle.
                let cascaded = self.cert.abort(txn).unwrap_or_default();
                self.log_aborts(std::iter::once(txn).chain(cascaded));
                ServerMetrics::add(&self.metrics.rejected);
                Err(ServerError::Rejected("output condition violated".into()))
            }
            Err(e) => {
                // A certifier abort at commit (SSI FCW or a dangerous
                // structure) must reach the log too.
                let err = self.refuse(e);
                if err == ServerError::ReEvalAborted {
                    self.log_aborts([txn]);
                }
                Err(err)
            }
        }
    }

    /// Execute one request to its outcome and the answer it owes —
    /// sending nothing. `None` for `Shutdown`.
    fn execute(&mut self, request: Request, trace: u64, txn32: u32) -> Option<(bool, Answer)> {
        let outcome = match request {
            Request::Define {
                spec,
                after,
                before,
                reply,
            } => {
                let result = self
                    .cert
                    .open(spec, &after, &before)
                    .map_err(|e| self.refuse(e));
                if let (Some(w), Ok(txn)) = (&self.wal, &result) {
                    w.log_begin(txn.0 as u64, &self.sink);
                }
                (result.is_ok(), Answer::Txn(reply, result))
            }
            Request::Validate {
                txn,
                strategy,
                reply,
            } => {
                let result = self.certify(trace, txn32, OpCode::Validate, |w| {
                    w.validate(txn, strategy)
                });
                (result.is_ok(), Answer::Unit(reply, result))
            }
            Request::Read { txn, entity, reply } => {
                let result = self.read(txn, entity);
                (result.is_ok(), Answer::Value(reply, result))
            }
            Request::Write {
                txn,
                entity,
                value,
                reply,
            } => {
                let result = self.write(txn, entity, value);
                (result.is_ok(), Answer::Unit(reply, result))
            }
            Request::OpBatch { txn, ops, reply } => {
                let results: BatchReplies = ops
                    .iter()
                    .map(|op| match *op {
                        BatchOp::Read(entity) => self.read(txn, entity).map(BatchReply::Value),
                        BatchOp::Write(entity, value) => {
                            self.write(txn, entity, value).map(|()| BatchReply::Done)
                        }
                    })
                    .collect();
                (
                    results.iter().all(Result::is_ok),
                    Answer::Batch(reply, results),
                )
            }
            Request::Commit { txn, reply } => {
                let result = self.certify(trace, txn32, OpCode::Commit, |w| w.commit(txn));
                // A logged commit is acknowledged only once its record is
                // durable, and the flusher owns that acknowledgement.
                if let (Some(w), Ok(())) = (&self.wal, &result) {
                    w.log_commit(txn.0 as u64, &self.sink);
                    if w.flusher.is_some() {
                        return Some((true, Answer::Flusher(Ticket { reply, trace })));
                    }
                }
                (result.is_ok(), Answer::Unit(reply, result))
            }
            Request::Abort { txn, reply } => {
                // Aborting an already-aborted transaction is a no-op ack,
                // not an error: the session is acknowledging the doom.
                let result = match self.cert.state_of(txn) {
                    Ok(TxnState::Aborted) => Ok(()),
                    Ok(_) => self
                        .cert
                        .abort(txn)
                        .map(|cascaded| self.log_aborts(std::iter::once(txn).chain(cascaded))),
                    Err(e) => Err(e),
                }
                .map_err(ServerError::from);
                (result.is_ok(), Answer::Unit(reply, result))
            }
            Request::Stats { reply } => (true, Answer::Stats(reply, self.cert.stats())),
            Request::Shutdown => {
                // Graceful exit leaves the log durable whatever the sync
                // mode (simulated crashes kill the store before shutdown,
                // so this cannot mask a power cut).
                if let Some(w) = &self.wal {
                    w.sync_quiet();
                }
                return None;
            }
        };
        Some(outcome)
    }

    /// The one way out, in order: take the execute time once, record it,
    /// emit the `Reply` event, end the `Exec` span — then send.
    fn finish(
        &self,
        exec_start: Instant,
        op: OpCode,
        txn32: u32,
        trace: u64,
        (ok, answer): (bool, Answer),
    ) {
        let exec = exec_start.elapsed();
        self.metrics.exec_time.record(exec);
        if let Some(s) = &self.sink {
            s.emit(
                txn32,
                ObsKind::Reply {
                    op,
                    ok,
                    exec_ns: exec.as_nanos() as u64,
                },
            );
        }
        span_end(&self.sink, trace, txn32, SpanHop::Exec, ok);
        answer.send(&self.wal, &self.sink, txn32);
    }

    /// Serve one dequeued request; `false` once it was `Shutdown`.
    ///
    /// Records the request's queue wait and (in [`Worker::finish`]) its
    /// execute time; with a sink attached, the two are also emitted as
    /// `Execute`/`Reply` events so a flight-recorder dump shows where
    /// each request's time went.
    fn serve(
        &mut self,
        Routed {
            enqueued,
            trace,
            request,
        }: Routed,
    ) -> bool {
        let queue_wait = enqueued.elapsed();
        self.metrics.queue_wait.record(queue_wait);
        ServerMetrics::add(&self.metrics.requests);
        let (op, txn32) = (request.op(), request.txn_u32());
        if let Some(s) = &self.sink {
            s.emit(
                txn32,
                ObsKind::Execute {
                    op,
                    queue_ns: queue_wait.as_nanos() as u64,
                },
            );
        }
        // The session opened the Queue span at enqueue; dequeue ends it,
        // and the worker's execution gets its own span.
        span_end(&self.sink, trace, txn32, SpanHop::Queue, true);
        span_start(&self.sink, trace, txn32, SpanHop::Exec, op);
        let exec_start = Instant::now();
        match self.execute(request, trace, txn32) {
            Some(outcome) => {
                self.finish(exec_start, op, txn32, trace, outcome);
                true
            }
            None => false,
        }
    }
}

/// Drain requests until shutdown (message or all senders gone); returns
/// the certifier for post-run history verification.
pub(crate) fn run(
    shard: usize,
    cert: Box<dyn Certifier>,
    requests: Receiver<Routed>,
    metrics: Arc<ServerMetrics>,
    sink: Option<ObsSink>,
    wal: Option<WorkerWal>,
) -> Box<dyn Certifier> {
    let mut worker = Worker {
        cert,
        metrics,
        sink,
        wal,
    };
    let mut drained: Vec<Routed> = Vec::with_capacity(DRAIN_MAX);
    'serve: while let Ok(first) = requests.recv() {
        drained.push(first);
        while drained.len() < DRAIN_MAX {
            match requests.try_recv() {
                Ok(r) => drained.push(r),
                Err(_) => break,
            }
        }
        worker.metrics.dequeued(shard, drained.len());
        if let Some(s) = &worker.sink {
            s.emit(
                NO_TXN,
                ObsKind::WorkerDrain {
                    n: drained.len() as u32,
                },
            );
        }
        for routed in drained.drain(..) {
            if !worker.serve(routed) {
                break 'serve;
            }
        }
    }
    worker.cert
}
