//! Blocking in-process client handles: request/reply rendezvous with the
//! shard workers.
//!
//! A [`Session`] is cheap, `Send`, and owned by one client thread. It is
//! the in-process implementation of the transport-generic
//! [`Client`](crate::Client) contract: every call routes to the owning
//! shard's queue (`try_send`, shedding with
//! [`ServerError::Backpressure`] when full), then blocks on a one-shot
//! reply channel up to the configured timeout. Sessions speak **global**
//! entity ids; translation to shard-local ids happens here, at the
//! boundary.
//!
//! Transient outcomes ([`ServerError::Busy`],
//! [`ServerError::Backpressure`], [`ServerError::Timeout`]) are
//! classified by [`ServerError::is_retryable`]; callers retry them with
//! the shared bounded jittered [`Backoff`](crate::backoff::Backoff) —
//! the same schedule remote callers use on the wire.

use crate::client::{BatchOp, BatchReply, Client, TxnBuilder};
use crate::service::Shared;
use crate::worker::{Request, Routed};
use crate::ServerError;
use ks_kernel::{EntityId, Value};
use ks_obs::{derive_trace_id, trace_sampled, ObsKind, SpanHop};
use ks_predicate::Strategy;
use ks_protocol::Txn;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// A transaction opened through a [`Session`]: the owning shard plus the
/// shard-local protocol handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxnHandle {
    pub(crate) shard: usize,
    pub(crate) txn: Txn,
}

impl TxnHandle {
    /// The shard serving this transaction.
    pub fn shard(&self) -> usize {
        self.shard
    }
}

/// One client's blocking handle onto the service.
pub struct Session {
    shared: Arc<Shared>,
    /// Per-transaction strategy overrides declared at
    /// [`TxnBuilder::strategy`], consumed at validation and dropped on
    /// terminal outcomes.
    strategies: Mutex<HashMap<TxnHandle, Strategy>>,
    /// Wire-propagated trace id for the *next* call (`0` = none), set by
    /// a transport adapter via [`Session::set_trace`] and consumed per
    /// call.
    wire_trace: AtomicU64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("shards", &self.shared.map.shards())
            .finish()
    }
}

impl Session {
    pub(crate) fn new(shared: Arc<Shared>) -> Self {
        Session {
            shared,
            strategies: Mutex::new(HashMap::new()),
            wire_trace: AtomicU64::new(0),
        }
    }

    /// Associate the next call on this session with a wire-propagated
    /// distributed trace id (`0` clears). Transport adapters — the
    /// `ks-net` connection handler — call this before dispatching a
    /// decoded request, so the server-side `Queue`/`Exec`/`Certify`/WAL
    /// spans join the trace the remote client originated. The id is
    /// consumed by exactly one call; a session that originates its own
    /// traces instead uses the service's `trace_sample` rate.
    pub fn set_trace(&self, trace: u64) {
        self.wire_trace.store(trace, Ordering::Relaxed);
    }

    fn strategies(&self) -> MutexGuard<'_, HashMap<TxnHandle, Strategy>> {
        self.strategies
            .lock()
            .expect("session strategy map poisoned")
    }

    /// Drop a transaction's strategy override once its outcome is
    /// terminal (anything but a retryable error keeps the handle dead or
    /// done either way).
    fn forget_if_terminal<T>(&self, handle: TxnHandle, result: &Result<T, ServerError>) {
        let transient = matches!(result, Err(e) if e.is_retryable());
        if !transient {
            self.strategies().remove(&handle);
        }
    }

    fn localize(&self, handle: TxnHandle, entity: EntityId) -> Result<EntityId, ServerError> {
        if self.shared.map.shard_of(entity) != handle.shard {
            return Err(ServerError::CrossShard);
        }
        Ok(self.shared.map.to_local(entity))
    }

    /// Route one request and rendezvous on its reply channel.
    ///
    /// Tracing: a wire-propagated id (see [`Session::set_trace`]) is
    /// always honoured; otherwise, with a recorder attached and
    /// `trace_sample > 0`, the session *originates* a trace for a
    /// sampled subset of calls — those additionally get the client-side
    /// `Request` span. Either way the traced call opens the `Queue` span
    /// here; the shard worker closes it at dequeue.
    fn call<T>(
        &self,
        shard: usize,
        request: impl FnOnce(SyncSender<Result<T, ServerError>>) -> Request,
    ) -> Result<T, ServerError> {
        let (tx, rx): (_, Receiver<Result<T, ServerError>>) = sync_channel(1);
        let request = request(tx);
        let (op, txn32) = (request.op(), request.txn_u32());
        let wire = self.wire_trace.swap(0, Ordering::Relaxed);
        let (trace, originated) = match (&self.shared.obs, wire) {
            (Some(_), w) if w != 0 => (w, false),
            (Some(obs), _) if self.shared.config.trace_sample > 0.0 && obs.is_enabled() => {
                let seq = self.shared.trace_seq.fetch_add(1, Ordering::Relaxed);
                let t = derive_trace_id(seq);
                if trace_sampled(t, self.shared.config.trace_sample) {
                    (t, true)
                } else {
                    (0, false)
                }
            }
            _ => (0, false),
        };
        let span = |kind: ObsKind| {
            if let Some(obs) = &self.shared.obs {
                obs.emit_for(shard as u32, txn32, kind);
            }
        };
        if let Some(obs) = &self.shared.obs {
            obs.emit_for(shard as u32, txn32, ObsKind::Enqueue { op });
        }
        if trace != 0 {
            if originated {
                span(ObsKind::SpanStart {
                    hop: SpanHop::Request,
                    op,
                    trace,
                });
            }
            span(ObsKind::SpanStart {
                hop: SpanHop::Queue,
                op,
                trace,
            });
        }
        let metrics = &self.shared.metrics;
        let depth = metrics.queued(shard) as u64;
        let start = Instant::now();
        let routed = Routed {
            enqueued: start,
            trace,
            request,
        };
        // A shed or dead-service call still closes the spans it opened,
        // so sampled failures don't dangle in the trace export.
        let close_unrouted = |ok: bool| {
            if trace != 0 {
                span(ObsKind::SpanEnd {
                    hop: SpanHop::Queue,
                    ok,
                    trace,
                });
                if originated {
                    span(ObsKind::SpanEnd {
                        hop: SpanHop::Request,
                        ok,
                        trace,
                    });
                }
            }
        };
        // Counted before the send, so the worker never drains a request
        // it was not counted for; a refused request takes its count back.
        metrics.enqueue(shard);
        if let Err(refused) = self.shared.senders[shard].try_send(routed) {
            metrics.dequeued(shard, 1);
            close_unrouted(false);
            return Err(match refused {
                TrySendError::Full(_) => {
                    crate::metrics::ServerMetrics::add(&metrics.backpressure);
                    ServerError::Backpressure
                }
                TrySendError::Disconnected(_) => ServerError::Shutdown,
            });
        }
        let result = match rx.recv_timeout(self.shared.config.request_timeout) {
            Ok(result) => {
                let elapsed = start.elapsed();
                metrics.record_latency(shard, elapsed);
                metrics.telemetry.record_request(
                    elapsed.as_nanos() as u64,
                    op == ks_obs::OpCode::Commit && result.is_ok(),
                    matches!(
                        result,
                        Err(ServerError::ReEvalAborted) | Err(ServerError::Rejected(_))
                    ),
                    depth,
                );
                result
            }
            Err(RecvTimeoutError::Timeout) => {
                crate::metrics::ServerMetrics::add(&metrics.timeouts);
                metrics.telemetry.record_request(
                    start.elapsed().as_nanos() as u64,
                    false,
                    false,
                    depth,
                );
                Err(ServerError::Timeout)
            }
            Err(RecvTimeoutError::Disconnected) => Err(ServerError::Shutdown),
        };
        if trace != 0 && originated {
            span(ObsKind::SpanEnd {
                hop: SpanHop::Request,
                ok: result.is_ok(),
                trace,
            });
        }
        result
    }
}

impl Client for Session {
    type Handle = TxnHandle;

    /// Open a transaction. The spec (global ids) picks the home shard;
    /// specs spanning shards — and ordering edges to transactions of
    /// other shards — are rejected with [`ServerError::CrossShard`]. A
    /// pinned backend expectation that disagrees with the service's
    /// configured backend fails closed with
    /// [`ServerError::BackendMismatch`].
    fn open(&self, txn: TxnBuilder<TxnHandle>) -> Result<TxnHandle, ServerError> {
        let (spec, after, before, strategy, backend) = txn.into_parts();
        if let Some(expected) = backend {
            let running = self.shared.config.backend;
            if expected != running {
                return Err(ServerError::BackendMismatch(format!(
                    "client pinned {expected}, server runs {running}"
                )));
            }
        }
        let shard = self.shared.map.home_shard(&spec)?;
        if after.iter().chain(&before).any(|h| h.shard != shard) {
            return Err(ServerError::CrossShard);
        }
        let local = self.shared.map.localize_spec(shard, &spec);
        let after: Vec<Txn> = after.iter().map(|h| h.txn).collect();
        let before: Vec<Txn> = before.iter().map(|h| h.txn).collect();
        let txn = self.call(shard, |reply| Request::Define {
            spec: local,
            after,
            before,
            reply,
        })?;
        let handle = TxnHandle { shard, txn };
        if let Some(s) = strategy {
            self.strategies().insert(handle, s);
        }
        Ok(handle)
    }

    fn validate(&self, handle: TxnHandle) -> Result<(), ServerError> {
        let strategy = self
            .strategies()
            .get(&handle)
            .copied()
            .unwrap_or(self.shared.config.strategy);
        self.call(handle.shard, |reply| Request::Validate {
            txn: handle.txn,
            strategy,
            reply,
        })
    }

    fn read(&self, handle: TxnHandle, entity: EntityId) -> Result<Value, ServerError> {
        let entity = self.localize(handle, entity)?;
        self.call(handle.shard, |reply| Request::Read {
            txn: handle.txn,
            entity,
            reply,
        })
    }

    fn write(&self, handle: TxnHandle, entity: EntityId, value: Value) -> Result<(), ServerError> {
        let entity = self.localize(handle, entity)?;
        self.call(handle.shard, |reply| Request::Write {
            txn: handle.txn,
            entity,
            value,
            reply,
        })
    }

    fn commit(&self, handle: TxnHandle) -> Result<(), ServerError> {
        let result = self.call(handle.shard, |reply| Request::Commit {
            txn: handle.txn,
            reply,
        });
        self.forget_if_terminal(handle, &result);
        result
    }

    fn abort(&self, handle: TxnHandle) -> Result<(), ServerError> {
        let result = self.call(handle.shard, |reply| Request::Abort {
            txn: handle.txn,
            reply,
        });
        self.forget_if_terminal(handle, &result);
        result
    }

    /// One worker rendezvous for the whole burst instead of one per op:
    /// entities are localized up front, then the ops travel as a single
    /// [`Request::OpBatch`]. A burst touching an entity outside the
    /// transaction's shard falls back to the per-op path, which reports
    /// [`ServerError::CrossShard`] on exactly the offending ops.
    fn run_batch(
        &self,
        handle: TxnHandle,
        ops: &[BatchOp],
    ) -> Result<Vec<Result<BatchReply, ServerError>>, ServerError> {
        let mut local = Vec::with_capacity(ops.len());
        for op in ops {
            let localized = match *op {
                BatchOp::Read(e) => self.localize(handle, e).map(BatchOp::Read),
                BatchOp::Write(e, v) => self.localize(handle, e).map(|le| BatchOp::Write(le, v)),
            };
            match localized {
                Ok(op) => local.push(op),
                Err(_) => return crate::client::per_op_batch(self, handle, ops),
            }
        }
        self.call(handle.shard, |reply| Request::OpBatch {
            txn: handle.txn,
            ops: local,
            reply,
        })
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.shared
            .metrics
            .sessions_in_flight
            .fetch_sub(1, Ordering::Relaxed);
    }
}
