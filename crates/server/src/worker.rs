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

use crate::client::{BatchOp, BatchReply};
use crate::durability::{CommitAck, WorkerWal};
use crate::metrics::ServerMetrics;
use crate::ServerError;
use crossbeam::channel::{Receiver, Sender};
use ks_core::Specification;
use ks_kernel::{EntityId, Value};
use ks_obs::{ObsKind, ObsSink, OpCode, SpanHop, NO_TXN};
use ks_predicate::Strategy;
use ks_protocol::manager::ProtocolStats;
use ks_protocol::{
    Certifier, CommitOutcome, ReEvalAction, ReadOutcome, Txn, TxnState, ValidationOutcome,
};
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
        reply: Sender<Result<Txn, ServerError>>,
    },
    /// Validate: acquire `R_v` locks and a version assignment.
    Validate {
        txn: Txn,
        strategy: Strategy,
        reply: Sender<Result<(), ServerError>>,
    },
    /// Read the assigned version of an entity.
    Read {
        txn: Txn,
        entity: EntityId,
        reply: Sender<Result<Value, ServerError>>,
    },
    /// Write a new version (may trigger re-eval of siblings).
    Write {
        txn: Txn,
        entity: EntityId,
        value: Value,
        reply: Sender<Result<(), ServerError>>,
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
        #[allow(clippy::type_complexity)]
        reply: Sender<Result<Vec<Result<BatchReply, ServerError>>, ServerError>>,
    },
    /// Commit (checks the output condition).
    Commit {
        txn: Txn,
        reply: Sender<Result<(), ServerError>>,
    },
    /// Explicit abort.
    Abort {
        txn: Txn,
        reply: Sender<Result<(), ServerError>>,
    },
    /// Snapshot the shard manager's protocol statistics.
    Stats { reply: Sender<ProtocolStats> },
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

/// The shared `ProtocolError` → `ServerError` conversion (see
/// `crate::error`): certifier self-aborts surface as `ReEvalAborted`,
/// lock conflicts as `Busy`, everything else as `Rejected`.
fn reject(e: ks_protocol::ProtocolError) -> ServerError {
    ServerError::from(e)
}

/// Convert and count a protocol refusal: a certifier killing the caller
/// counts as an abort (like a re-eval victim), a retryable lock conflict
/// counts as neither, and everything else is a rejection.
fn reject_counted(metrics: &ServerMetrics, e: ks_protocol::ProtocolError) -> ServerError {
    let err = reject(e);
    match &err {
        ServerError::ReEvalAborted => ServerMetrics::add(&metrics.reeval_aborts),
        ServerError::Busy => {}
        _ => ServerMetrics::add(&metrics.rejected),
    }
    err
}

/// A transaction aborted underneath its session (re-eval, cascade, or a
/// certifier victim) is reported as such on its next call.
fn precheck(cert: &dyn Certifier, txn: Txn) -> Result<(), ServerError> {
    match cert.state_of(txn) {
        Ok(TxnState::Aborted) => Err(ServerError::ReEvalAborted),
        Ok(_) => Ok(()),
        Err(e) => Err(reject(e)),
    }
}

/// Execute one read against the certifier (shared by `Read` and
/// `OpBatch`).
fn exec_read(
    cert: &mut dyn Certifier,
    metrics: &ServerMetrics,
    txn: Txn,
    entity: EntityId,
) -> Result<Value, ServerError> {
    precheck(cert, txn).and_then(|()| match cert.read(txn, entity) {
        Ok(ReadOutcome::Value(v)) => Ok(v),
        Ok(ReadOutcome::Blocked(_)) => Err(ServerError::Busy),
        Err(e) => Err(reject_counted(metrics, e)),
    })
}

/// Execute one write against the certifier (shared by `Write` and
/// `OpBatch`), counting re-eval consequences. An applied write logs its
/// WAL record, followed by an `Abort` record for every victim it felled
/// (the log must witness the undo of anything it witnessed applied).
fn exec_write(
    cert: &mut dyn Certifier,
    metrics: &ServerMetrics,
    wal: &Option<WorkerWal>,
    sink: &Option<ObsSink>,
    txn: Txn,
    entity: EntityId,
    value: Value,
) -> Result<(), ServerError> {
    precheck(cert, txn).and_then(|()| match cert.write(txn, entity, value) {
        Ok(report) => {
            let mut aborted = Vec::new();
            for action in &report.reeval {
                match action {
                    ReEvalAction::Reassigned(_) => ServerMetrics::add(&metrics.re_assigns),
                    ReEvalAction::Aborted(t) | ReEvalAction::ReassignFailedAborted(t) => {
                        ServerMetrics::add(&metrics.reeval_aborts);
                        aborted.push(t.0 as u64);
                    }
                }
            }
            if let Some(w) = wal {
                w.log_write(txn.0 as u64, entity.0, value, sink);
                w.log_aborts(&aborted, sink);
            }
            Ok(())
        }
        Err(e) => Err(reject_counted(metrics, e)),
    })
}

/// Emit a span breadcrumb iff this request is being traced (`trace != 0`)
/// and a sink is attached.
fn emit_span(sink: &Option<ObsSink>, trace: u64, txn: u32, kind: ObsKind) {
    if trace != 0 {
        if let Some(s) = sink {
            s.emit(txn, kind);
        }
    }
}

/// Upper bound on requests drained per wakeup: big enough to amortize
/// the channel rendezvous under load, small enough that a saturated
/// queue cannot indefinitely delay the shutdown message behind it.
const DRAIN_MAX: usize = 32;

/// Drain requests until shutdown (message or all senders gone); returns
/// the certifier for post-run history verification.
///
/// Every dequeue records the request's queue wait; every reply records
/// its execute time. With a sink attached, the two are also emitted as
/// `Execute`/`Reply` events so a flight-recorder dump shows where each
/// request's time went.
pub(crate) fn run(
    mut cert: Box<dyn Certifier>,
    requests: Receiver<Routed>,
    metrics: Arc<ServerMetrics>,
    sink: Option<ObsSink>,
    wal: Option<WorkerWal>,
) -> Box<dyn Certifier> {
    let mut drained: Vec<Routed> = Vec::with_capacity(DRAIN_MAX);
    'serve: loop {
        match requests.recv() {
            Ok(first) => drained.push(first),
            Err(_) => break,
        }
        while drained.len() < DRAIN_MAX {
            match requests.try_recv() {
                Ok(r) => drained.push(r),
                Err(_) => break,
            }
        }
        metrics.drain_batch.record_n(drained.len() as u64);
        if let Some(s) = &sink {
            s.emit(
                NO_TXN,
                ObsKind::WorkerDrain {
                    n: drained.len() as u32,
                },
            );
        }
        for Routed {
            enqueued,
            trace,
            request,
        } in drained.drain(..)
        {
            let queue_wait = enqueued.elapsed();
            metrics.queue_wait.record(queue_wait);
            ServerMetrics::add(&metrics.requests);
            let (op, txn32) = (request.op(), request.txn_u32());
            if let Some(s) = &sink {
                s.emit(
                    txn32,
                    ObsKind::Execute {
                        op,
                        queue_ns: queue_wait.as_nanos() as u64,
                    },
                );
            }
            // The session opened the Queue span at enqueue; dequeue ends
            // it, and the worker's execution gets its own span.
            emit_span(
                &sink,
                trace,
                txn32,
                ObsKind::SpanEnd {
                    hop: SpanHop::Queue,
                    ok: true,
                    trace,
                },
            );
            emit_span(
                &sink,
                trace,
                txn32,
                ObsKind::SpanStart {
                    hop: SpanHop::Exec,
                    op,
                    trace,
                },
            );
            let exec_start = Instant::now();
            let ok = match request {
                Request::Define {
                    spec,
                    after,
                    before,
                    reply,
                } => {
                    let result = cert
                        .open(spec, &after, &before)
                        .map_err(|e| reject_counted(&metrics, e));
                    if let (Some(w), Ok(txn)) = (&wal, &result) {
                        w.log_begin(txn.0 as u64, &sink);
                    }
                    let ok = result.is_ok();
                    let _ = reply.send(result);
                    ok
                }
                Request::Validate {
                    txn,
                    strategy,
                    reply,
                } => {
                    // The certifier's validation-time decision (version
                    // assignment) gets its own span nested inside Exec.
                    emit_span(
                        &sink,
                        trace,
                        txn32,
                        ObsKind::SpanStart {
                            hop: SpanHop::Certify,
                            op: OpCode::Validate,
                            trace,
                        },
                    );
                    let result =
                        precheck(&*cert, txn).and_then(|()| match cert.validate(txn, strategy) {
                            Ok(ValidationOutcome::Validated) => Ok(()),
                            Ok(ValidationOutcome::Blocked(_))
                            | Ok(ValidationOutcome::MustWait(_)) => Err(ServerError::Busy),
                            Ok(ValidationOutcome::CannotSatisfy) => {
                                ServerMetrics::add(&metrics.rejected);
                                Err(ServerError::Rejected(
                                    "no version assignment satisfies the input predicate".into(),
                                ))
                            }
                            Err(e) => Err(reject_counted(&metrics, e)),
                        });
                    let ok = result.is_ok();
                    emit_span(
                        &sink,
                        trace,
                        txn32,
                        ObsKind::SpanEnd {
                            hop: SpanHop::Certify,
                            ok,
                            trace,
                        },
                    );
                    let _ = reply.send(result);
                    ok
                }
                Request::Read { txn, entity, reply } => {
                    let result = exec_read(&mut *cert, &metrics, txn, entity);
                    let ok = result.is_ok();
                    let _ = reply.send(result);
                    ok
                }
                Request::Write {
                    txn,
                    entity,
                    value,
                    reply,
                } => {
                    let result = exec_write(&mut *cert, &metrics, &wal, &sink, txn, entity, value);
                    let ok = result.is_ok();
                    let _ = reply.send(result);
                    ok
                }
                Request::OpBatch { txn, ops, reply } => {
                    metrics.op_batch.record_n(ops.len() as u64);
                    let results: Vec<Result<BatchReply, ServerError>> = ops
                        .iter()
                        .map(|op| match *op {
                            BatchOp::Read(entity) => {
                                exec_read(&mut *cert, &metrics, txn, entity).map(BatchReply::Value)
                            }
                            BatchOp::Write(entity, value) => {
                                exec_write(&mut *cert, &metrics, &wal, &sink, txn, entity, value)
                                    .map(|()| BatchReply::Done)
                            }
                        })
                        .collect();
                    let ok = results.iter().all(|r| r.is_ok());
                    let _ = reply.send(Ok(results));
                    ok
                }
                Request::Commit { txn, reply } => {
                    // The certifier's commit-time decision (output
                    // condition + commit gating) is a span of its own,
                    // closed before any WAL hop opens.
                    emit_span(
                        &sink,
                        trace,
                        txn32,
                        ObsKind::SpanStart {
                            hop: SpanHop::Certify,
                            op: OpCode::Commit,
                            trace,
                        },
                    );
                    let result = precheck(&*cert, txn).and_then(|()| match cert.commit(txn) {
                        Ok(CommitOutcome::Committed) => {
                            ServerMetrics::add(&metrics.committed);
                            Ok(())
                        }
                        Ok(CommitOutcome::PredecessorsPending(_))
                        | Ok(CommitOutcome::ChildrenPending(_)) => Err(ServerError::Busy),
                        Ok(CommitOutcome::OutputViolated) => {
                            // The transaction cannot terminate successfully;
                            // abort it so its versions don't dangle.
                            let cascaded = cert.abort(txn).unwrap_or_default();
                            if let Some(w) = &wal {
                                let mut victims = vec![txn.0 as u64];
                                victims.extend(cascaded.iter().map(|t| t.0 as u64));
                                w.log_aborts(&victims, &sink);
                            }
                            ServerMetrics::add(&metrics.rejected);
                            Err(ServerError::Rejected("output condition violated".into()))
                        }
                        Err(e) => {
                            // A certifier abort at commit (SSI FCW or a
                            // dangerous structure) must reach the log too.
                            let err = reject_counted(&metrics, e);
                            if let (Some(w), ServerError::ReEvalAborted) = (&wal, &err) {
                                w.log_aborts(&[txn.0 as u64], &sink);
                            }
                            Err(err)
                        }
                    });
                    let ok = result.is_ok();
                    emit_span(
                        &sink,
                        trace,
                        txn32,
                        ObsKind::SpanEnd {
                            hop: SpanHop::Certify,
                            ok,
                            trace,
                        },
                    );
                    // A successful commit acknowledges only once its WAL
                    // record is durable; the flusher then owns the reply.
                    let ack = match (&wal, &result) {
                        (Some(w), Ok(())) => w.log_commit(txn.0 as u64, trace, &sink, &reply),
                        _ => CommitAck::Ready,
                    };
                    if let CommitAck::Ready = ack {
                        let _ = reply.send(result);
                    }
                    ok
                }
                Request::Abort { txn, reply } => {
                    // Aborting an already-aborted transaction is a no-op ack,
                    // not an error: the session is acknowledging the doom.
                    let result = match cert.state_of(txn) {
                        Ok(TxnState::Aborted) => Ok(()),
                        Ok(_) => match cert.abort(txn) {
                            Ok(cascaded) => {
                                if let Some(w) = &wal {
                                    let mut victims = vec![txn.0 as u64];
                                    victims.extend(cascaded.iter().map(|t| t.0 as u64));
                                    w.log_aborts(&victims, &sink);
                                }
                                Ok(())
                            }
                            Err(e) => Err(reject(e)),
                        },
                        Err(e) => Err(reject(e)),
                    };
                    let ok = result.is_ok();
                    let _ = reply.send(result);
                    ok
                }
                Request::Stats { reply } => {
                    let _ = reply.send(cert.stats());
                    true
                }
                Request::Shutdown => {
                    // Graceful exit leaves the log durable whatever the
                    // sync mode (simulated crashes kill the store before
                    // shutdown, so this cannot mask a power cut).
                    if let Some(w) = &wal {
                        w.sync_quiet();
                    }
                    break 'serve;
                }
            };
            let exec = exec_start.elapsed();
            metrics.exec_time.record(exec);
            if let Some(s) = &sink {
                s.emit(
                    txn32,
                    ObsKind::Reply {
                        op,
                        ok,
                        exec_ns: exec.as_nanos() as u64,
                    },
                );
            }
            emit_span(
                &sink,
                trace,
                txn32,
                ObsKind::SpanEnd {
                    hop: SpanHop::Exec,
                    ok,
                    trace,
                },
            );
        }
    }
    cert
}
