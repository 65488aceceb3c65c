//! Blocking in-process client handles: each call runs on the caller's
//! thread, under its shard's lock.
//!
//! A [`Session`] is cheap, `Send`, and owned by one client thread. It is
//! the in-process implementation of the transport-generic
//! [`Client`] contract: every call takes the owning
//! shard's lock (shedding with [`ServerError::Backpressure`] when
//! `queue_depth` calls already wait for it) and runs the certifier call
//! itself. A logged commit then waits, with the lock released, for its
//! record to become durable — leading the flush itself when none is in
//! flight — up to the configured timeout. The call's account (counters,
//! latency histograms, telemetry window) is recorded once, after the
//! reply, into the session's own metrics stripe. Sessions
//! speak **global** entity ids; translation to shard-local ids happens
//! here, at the boundary.
//!
//! Transient outcomes ([`ServerError::Busy`],
//! [`ServerError::Backpressure`], [`ServerError::Timeout`]) are
//! classified by [`ServerError::is_retryable`]; callers retry them with
//! the shared bounded jittered [`Backoff`](crate::backoff::Backoff) —
//! the same schedule remote callers use on the wire.

use crate::client::{BatchOp, BatchReply, Client, TxnBuilder};
use crate::metrics::{CallAccount, Outcome};
use crate::service::Shared;
use crate::worker::{Call, Served, Worker};
use crate::ServerError;
use ks_kernel::{EntityId, Value};
use ks_obs::{derive_trace_id, trace_sampled, ObsKind, OpCode, SpanHop, NO_TXN};
use ks_predicate::Strategy;
use ks_protocol::Txn;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
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

    /// The shard-local transaction, as events are stamped with it.
    fn txn32(&self) -> u32 {
        self.txn.0 as u32
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
    /// Seed for in-process trace origination (see
    /// `ServerConfig::trace_sample`): each sampled-candidate call draws
    /// the next number, whose SplitMix64 hash is the trace id. It starts
    /// at the session's admission number shifted past any count one
    /// session reaches, so sessions draw disjoint ids without sharing a
    /// counter.
    trace_seq: AtomicU64,
    /// The metrics stripe this session records its calls into.
    stripe: usize,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("shards", &self.shared.map.shards())
            .finish()
    }
}

impl Session {
    /// The handle of the `admitted`-th session the service admitted.
    pub(crate) fn new(shared: Arc<Shared>, admitted: u64) -> Self {
        let stripe = shared.metrics.stripe_of(admitted);
        Session {
            shared,
            strategies: Mutex::new(HashMap::new()),
            wire_trace: AtomicU64::new(0),
            trace_seq: AtomicU64::new(admitted << 40),
            stripe,
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

    /// Run one call on `shard`'s worker, on this thread, under the shard
    /// lock.
    ///
    /// Tracing: a wire-propagated id (see [`Session::set_trace`]) is
    /// always honoured; otherwise, with a recorder attached and
    /// `trace_sample > 0`, the session *originates* a trace for a
    /// sampled subset of calls — those additionally get the client-side
    /// `Request` span. Either way the traced call opens the `Queue` span
    /// here, as it asks for the lock; the worker closes it once the lock
    /// is held.
    fn call<T>(
        &self,
        shard: usize,
        op: OpCode,
        txn32: u32,
        run: impl FnOnce(&mut Worker, u64) -> Served<T>,
    ) -> Result<T, ServerError> {
        let wire = self.wire_trace.swap(0, Ordering::Relaxed);
        let (trace, originated) = match (&self.shared.obs, wire) {
            (Some(_), w) if w != 0 => (w, false),
            (Some(obs), _) if self.shared.config.trace_sample > 0.0 && obs.is_enabled() => {
                let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
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
        let arrived = Instant::now();
        let call = Call {
            op,
            txn32,
            trace,
            arrived,
        };
        // Counted in before the lock is requested and out once it is held
        // (or the call is shed), so the depth is the number of waiters.
        let depth = metrics.enqueue(shard);
        let served = if depth >= self.shared.config.queue_depth {
            metrics.dequeued(shard);
            metrics.shed(self.stripe);
            Err(ServerError::Backpressure)
        } else {
            let slot = self.shared.shards[shard].lock();
            metrics.dequeued(shard);
            // A poisoned lock fails closed, like a shut-down shard.
            match slot {
                Ok(mut slot) => slot
                    .as_mut()
                    .map(|worker| worker.serve(call, run))
                    .ok_or(ServerError::Shutdown),
                Err(_) => Err(ServerError::Shutdown),
            }
        };
        let reply = match served {
            Ok(reply) => reply,
            // A shed or dead-shard call still closes the spans it opened,
            // so sampled failures don't dangle in the trace export.
            Err(refused) => {
                if trace != 0 {
                    span(ObsKind::SpanEnd {
                        hop: SpanHop::Queue,
                        ok: false,
                        trace,
                    });
                    if originated {
                        span(ObsKind::SpanEnd {
                            hop: SpanHop::Request,
                            ok: false,
                            trace,
                        });
                    }
                }
                return Err(refused);
            }
        };
        let (result, done, led_flush) = match reply.durable {
            None => (reply.result, reply.done, None),
            // The lock is released: see the commit record durable, then
            // read the clock once more to end the round trip.
            Some(pos) => {
                let (durable, led) = self
                    .shared
                    .wal
                    .as_ref()
                    .expect("a logged commit implies a WAL")
                    .await_durable(pos, trace, self.shared.config.request_timeout);
                (durable.and(reply.result), Instant::now(), led)
            }
        };
        let outcome = match &result {
            Ok(_) if op == OpCode::Commit => Outcome::Committed,
            Err(ServerError::ReEvalAborted | ServerError::Rejected(_)) => Outcome::Aborted,
            Err(ServerError::Timeout) => Outcome::TimedOut,
            _ => Outcome::Other,
        };
        metrics.record(
            self.stripe,
            &CallAccount {
                shard,
                queue_wait: reply.queue_wait,
                exec: reply.exec,
                round_trip: done.saturating_duration_since(arrived),
                done,
                queue_depth: depth as u64,
                outcome,
                led_flush,
            },
        );
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
        let txn = self.call(shard, OpCode::Define, NO_TXN, |w, _| {
            w.open(local, &after, &before).into()
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
        self.call(
            handle.shard,
            OpCode::Validate,
            handle.txn32(),
            |w, trace| w.validate(handle.txn, strategy, trace).into(),
        )
    }

    fn read(&self, handle: TxnHandle, entity: EntityId) -> Result<Value, ServerError> {
        let entity = self.localize(handle, entity)?;
        self.call(handle.shard, OpCode::Read, handle.txn32(), |w, _| {
            w.read(handle.txn, entity).into()
        })
    }

    fn write(&self, handle: TxnHandle, entity: EntityId, value: Value) -> Result<(), ServerError> {
        let entity = self.localize(handle, entity)?;
        self.call(handle.shard, OpCode::Write, handle.txn32(), |w, _| {
            w.write(handle.txn, entity, value).into()
        })
    }

    fn commit(&self, handle: TxnHandle) -> Result<(), ServerError> {
        let result = self.call(handle.shard, OpCode::Commit, handle.txn32(), |w, trace| {
            w.commit(handle.txn, trace)
        });
        self.forget_if_terminal(handle, &result);
        result
    }

    fn abort(&self, handle: TxnHandle) -> Result<(), ServerError> {
        let result = self.call(handle.shard, OpCode::Abort, handle.txn32(), |w, _| {
            w.abort(handle.txn).into()
        });
        self.forget_if_terminal(handle, &result);
        result
    }

    /// One lock acquisition for the whole burst instead of one per op:
    /// entities are localized up front, then the ops run back to back
    /// under the shard lock. A burst touching an entity outside the
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
        self.call(handle.shard, OpCode::Batch, handle.txn32(), |w, _| {
            w.batch(handle.txn, &local)
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
