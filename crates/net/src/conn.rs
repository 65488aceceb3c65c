//! The transport-agnostic per-connection core.
//!
//! [`ConnCore`] is everything a ks-net connection does *between* frames:
//! it owns the in-process [`Session`], maps wire-visible connection-scoped
//! transaction ids to [`TxnHandle`]s, executes decoded [`Request`]s, and
//! aborts whatever is still open when the connection goes away. The TCP
//! server ([`crate::NetServer`]) and the deterministic simulation harness
//! (`ks-dst`) both drive this exact type, so a bug the simulator finds in
//! request handling is by construction a bug in the production path.
//!
//! The id table is a `BTreeMap`, not a `HashMap`, deliberately: the
//! abort-on-disconnect sweep iterates it, and `HashMap`'s per-instance
//! random iteration order would make the abort order — and therefore the
//! protocol's cascade decisions and the obs event stream — differ between
//! two otherwise identical runs. Determinism here is what lets `ks-dst`
//! replay a failure from its seed alone.

use crate::wire::{Request, Response, WireMetrics, HELLO_MAGIC, PROTOCOL_VERSION};
use ks_obs::{ObsEvent, ObsKind, ObsSink, OpCode, SpanHop, TelemetryDelta, NO_TXN};
use ks_server::{
    Backend, BatchOp, BatchReply, Client, MetricsSnapshot, ServerError, Session, TxnBuilder,
    TxnHandle,
};
use std::collections::BTreeMap;

/// What the connection core can ask of the process hosting it: the
/// embedded service's observability surfaces. The TCP server implements
/// this over its `TxnService`; the deterministic simulator implements
/// what it supports and leans on the fail-closed defaults for the rest.
/// Every method returns `None` once the service is shutting down (or
/// when the host simply does not offer the surface), which the core
/// turns into a typed [`ServerError::Shutdown`] reply.
pub trait ConnHost {
    /// Service-wide metrics snapshot for [`Request::Metrics`].
    fn metrics(&self) -> Option<MetricsSnapshot>;

    /// The certifier backend the embedded service runs — stamped on
    /// [`Response::Telemetry`] frames. Hosts that serve telemetry (a
    /// non-`None` [`ConnHost::telemetry`]) must override this; the
    /// default only exists for metrics-only closure hosts, whose
    /// telemetry pulls fail before the backend is consulted.
    fn backend(&self) -> Backend {
        Backend::Cpc
    }

    /// Incremental telemetry for [`Request::Telemetry`] (see
    /// [`ks_server::TxnService::telemetry`]).
    fn telemetry(&self, since: u64) -> Option<TelemetryDelta> {
        let _ = since;
        None
    }

    /// Exported trace span events for [`Request::TraceExport`]: the next
    /// cursor and the events at `since..`, at most `max`.
    fn trace_export(&self, since: u64, max: u32) -> Option<(u64, Vec<ObsEvent>)> {
        let _ = (since, max);
        None
    }
}

/// Blanket host for callers that only serve metrics (a bare closure was
/// the old `handle` signature; this keeps those call sites trivial).
impl<F: Fn() -> Option<MetricsSnapshot>> ConnHost for F {
    fn metrics(&self) -> Option<MetricsSnapshot> {
        self()
    }
}

/// Validate a decoded first frame as a Hello and build the reply.
///
/// `shards` is the embedded service's shard count and `backend` its
/// certifier backend (what `HelloOk` advertises). Returns `Err` with
/// the error response to send before closing the connection.
pub fn handshake_reply(
    first: &Request,
    shards: usize,
    backend: Backend,
) -> Result<Response, Response> {
    let wire_err = |msg: String| Response::error(&ServerError::Wire(msg));
    match first {
        Request::Hello { magic } if *magic == HELLO_MAGIC => Ok(Response::HelloOk {
            shards: shards as u32,
            backend,
        }),
        Request::Hello { magic } => Err(wire_err(format!(
            "bad hello magic 0x{magic:08x} (want 0x{HELLO_MAGIC:08x}, version {PROTOCOL_VERSION})"
        ))),
        other => Err(wire_err(format!(
            "expected Hello as the first frame, got {other:?}"
        ))),
    }
}

/// A [`ServerError`] as it travels inside a `Batch` response: the same
/// `(code, detail)` pair a top-level [`Response::Error`] frame carries.
fn error_pair(e: &ServerError) -> (u16, String) {
    match Response::error(e) {
        Response::Error { code, detail } => (code, detail),
        _ => unreachable!("Response::error always builds Error"),
    }
}

/// What the connection should do after handling one request.
#[derive(Debug)]
pub enum ConnAction {
    /// Send this response and keep serving.
    Reply(Response),
    /// Send [`Response::Bye`] and close (the client asked to shut down).
    Bye,
}

/// Per-connection request execution state, independent of how frames
/// arrive.
pub struct ConnCore {
    session: Session,
    /// Wire-visible transaction ids → in-process handles, in a `BTreeMap`
    /// so the disconnect sweep aborts in deterministic (id) order.
    txns: BTreeMap<u64, TxnHandle>,
    next_txn: u64,
    /// Sink for [`SpanHop::ConnHandle`] spans on traced requests; `None`
    /// when the host runs without a recorder.
    obs: Option<ObsSink>,
}

impl ConnCore {
    /// Wrap a freshly opened [`Session`].
    pub fn new(session: Session) -> Self {
        ConnCore {
            session,
            txns: BTreeMap::new(),
            next_txn: 0,
            obs: None,
        }
    }

    /// Attach a span sink: traced requests (nonzero wire trace id) get a
    /// [`SpanHop::ConnHandle`] span covering decode-to-response-built.
    pub fn attach_obs(&mut self, sink: ObsSink) {
        self.obs = Some(sink);
    }

    /// Transactions currently mapped (open as far as the wire knows).
    pub fn open_txns(&self) -> usize {
        self.txns.len()
    }

    /// Execute one decoded request. `trace` is the wire header's trace
    /// id (0 = unsampled): it is handed to the session — so server-side
    /// spans carry the originator's trace — and, when a sink is
    /// attached, brackets the whole dispatch in a
    /// [`SpanHop::ConnHandle`] span. `host` supplies the service-wide
    /// observability surfaces ([`Request::Metrics`] /
    /// [`Request::Telemetry`] / [`Request::TraceExport`]).
    pub fn handle(&mut self, trace: u64, req: Request, host: &impl ConnHost) -> ConnAction {
        // The observability plane never traces itself: spans for a
        // telemetry or trace-export pull would land in the very buffer
        // the pull is draining, so a drain-until-empty poller would
        // never reach the end. The wire still echoes the header's trace
        // id; only span emission is suppressed.
        let trace = match req {
            Request::Telemetry { .. } | Request::TraceExport { .. } => 0,
            _ => trace,
        };
        let (op, txn) = (op_of(&req), wire_txn_of(&req));
        if trace != 0 {
            if let Some(obs) = &self.obs {
                obs.emit(
                    txn,
                    ObsKind::SpanStart {
                        hop: SpanHop::ConnHandle,
                        op,
                        trace,
                    },
                );
            }
        }
        // Every dispatch sets the session's pending wire trace — zero
        // included, so a traced non-session request (e.g. Metrics) can
        // never leak its id into the next session call.
        self.session.set_trace(trace);
        let action = self.dispatch(req, host);
        if trace != 0 {
            // `ok` is the hop outcome the client will see: an Error
            // reply closes the span failed, everything else (including
            // Bye) succeeded.
            let ok = !matches!(&action, ConnAction::Reply(Response::Error { .. }));
            if let Some(obs) = &self.obs {
                obs.emit(
                    txn,
                    ObsKind::SpanEnd {
                        hop: SpanHop::ConnHandle,
                        ok,
                        trace,
                    },
                );
            }
        }
        action
    }

    fn dispatch(&mut self, req: Request, host: &impl ConnHost) -> ConnAction {
        let lookup = |txns: &BTreeMap<u64, TxnHandle>, id: u64| -> Result<TxnHandle, Response> {
            txns.get(&id).copied().ok_or_else(|| {
                Response::error(&ServerError::Wire(format!("unknown transaction id {id}")))
            })
        };
        let reply = |r: Result<(), ServerError>| match r {
            Ok(()) => Response::Done,
            Err(e) => Response::error(&e),
        };
        ConnAction::Reply(match req {
            Request::Hello { .. } => {
                Response::error(&ServerError::Wire("Hello after the handshake".to_string()))
            }
            Request::Open {
                spec,
                after,
                before,
                strategy,
                backend,
            } => {
                let mut builder = TxnBuilder::new(spec);
                if let Some(b) = backend {
                    builder = builder.backend(b);
                }
                for id in after {
                    match lookup(&self.txns, id) {
                        Ok(h) => builder = builder.after(h),
                        Err(resp) => return ConnAction::Reply(resp),
                    }
                }
                for id in before {
                    match lookup(&self.txns, id) {
                        Ok(h) => builder = builder.before(h),
                        Err(resp) => return ConnAction::Reply(resp),
                    }
                }
                if let Some(s) = strategy {
                    builder = builder.strategy(s);
                }
                match self.session.open(builder) {
                    Ok(handle) => {
                        let id = self.next_txn;
                        self.next_txn += 1;
                        self.txns.insert(id, handle);
                        Response::Opened { txn: id }
                    }
                    Err(e) => Response::error(&e),
                }
            }
            Request::Validate { txn } => match lookup(&self.txns, txn) {
                Ok(h) => reply(self.session.validate(h)),
                Err(resp) => resp,
            },
            Request::Read { txn, entity } => match lookup(&self.txns, txn) {
                Ok(h) => match self.session.read(h, entity) {
                    Ok(value) => Response::Value { value },
                    Err(e) => Response::error(&e),
                },
                Err(resp) => resp,
            },
            Request::Write { txn, entity, value } => match lookup(&self.txns, txn) {
                Ok(h) => reply(self.session.write(h, entity, value)),
                Err(resp) => resp,
            },
            Request::Commit { txn } => match lookup(&self.txns, txn) {
                Ok(h) => {
                    let r = self.session.commit(h);
                    // Only a *successful* commit spends the id. A failed
                    // commit (wrong phase, output violation, busy) leaves
                    // the transaction live — or at least reachable —
                    // server-side; unmapping it here would orphan it
                    // beyond the reach of both the client and the
                    // abort-on-disconnect sweep, leaking any state it
                    // holds until shutdown.
                    if r.is_ok() {
                        self.txns.remove(&txn);
                    }
                    reply(r)
                }
                Err(resp) => resp,
            },
            Request::Abort { txn } => match lookup(&self.txns, txn) {
                Ok(h) => {
                    let r = self.session.abort(h);
                    if !matches!(&r, Err(e) if e.is_retryable()) {
                        self.txns.remove(&txn);
                    }
                    reply(r)
                }
                Err(resp) => resp,
            },
            Request::Batch { ops } => Response::Batch {
                results: self.run_wire_batch(&ops),
            },
            Request::Telemetry { since } => match host.telemetry(since) {
                Some(delta) => Response::Telemetry {
                    backend: host.backend(),
                    delta,
                },
                None => Response::error(&ServerError::Shutdown),
            },
            Request::TraceExport { since, max } => match host.trace_export(since, max) {
                Some((next, events)) => Response::TraceExport { next, events },
                None => Response::error(&ServerError::Shutdown),
            },
            Request::Metrics => match host.metrics() {
                Some(m) => Response::Metrics(WireMetrics {
                    requests: m.requests,
                    committed: m.committed,
                    rejected: m.rejected,
                    backpressure: m.backpressure,
                    timeouts: m.timeouts,
                    sessions_in_flight: m.sessions_in_flight as u64,
                    p50_ns: m.p50.map_or(0, |d| d.as_nanos() as u64),
                    p99_ns: m.p99.map_or(0, |d| d.as_nanos() as u64),
                }),
                None => Response::error(&ServerError::Shutdown),
            },
            Request::Shutdown => return ConnAction::Bye,
        })
    }

    /// Execute a wire `Batch`: coalesce maximal runs of consecutive ops
    /// on the same (known) transaction into one [`Client::run_batch`]
    /// call each, so a typical single-transaction burst takes its shard's
    /// lock once. Results come back per op, in op order, the same
    /// length as the request — an unknown transaction id fails only its
    /// own ops, and a burst-level error (`Busy`, `Timeout`) is
    /// replicated across the run it covered. The frame itself never
    /// fails: fail-closed handling of undecodable batches happens at the
    /// wire layer before this is reached.
    fn run_wire_batch(&mut self, ops: &[(u64, BatchOp)]) -> Vec<Result<BatchReply, (u16, String)>> {
        let mut results = Vec::with_capacity(ops.len());
        let mut i = 0;
        while i < ops.len() {
            let (txn, _) = ops[i];
            let mut j = i + 1;
            while j < ops.len() && ops[j].0 == txn {
                j += 1;
            }
            match self.txns.get(&txn).copied() {
                None => {
                    let pair =
                        error_pair(&ServerError::Wire(format!("unknown transaction id {txn}")));
                    results.extend((i..j).map(|_| Err(pair.clone())));
                }
                Some(handle) => {
                    let run: Vec<BatchOp> = ops[i..j].iter().map(|&(_, op)| op).collect();
                    match self.session.run_batch(handle, &run) {
                        Ok(per_op) => {
                            debug_assert_eq!(per_op.len(), run.len());
                            results
                                .extend(per_op.into_iter().map(|r| r.map_err(|e| error_pair(&e))));
                        }
                        Err(e) => {
                            let pair = error_pair(&e);
                            results.extend((i..j).map(|_| Err(pair.clone())));
                        }
                    }
                }
            }
            i = j;
        }
        results
    }

    /// Abort every transaction still mapped, in id order. Closing (or
    /// crashing) a connection must not leave its transactions holding
    /// locks — this is the abort-on-disconnect sweep both the TCP reaper
    /// and the simulated-link reaper run.
    pub fn abort_open_txns(&mut self) {
        while let Some((_, handle)) = self.txns.pop_first() {
            let _ = self.session.abort(handle);
        }
    }
}

/// The operation a request's `ConnHandle` span is labelled with.
fn op_of(req: &Request) -> OpCode {
    match req {
        Request::Open { .. } => OpCode::Define,
        Request::Validate { .. } => OpCode::Validate,
        Request::Read { .. } => OpCode::Read,
        Request::Write { .. } => OpCode::Write,
        Request::Commit { .. } => OpCode::Commit,
        Request::Abort { .. } => OpCode::Abort,
        Request::Batch { .. } => OpCode::Batch,
        Request::Hello { .. }
        | Request::Metrics
        | Request::Telemetry { .. }
        | Request::TraceExport { .. }
        | Request::Shutdown => OpCode::Stats,
    }
}

/// The wire-visible (connection-scoped) transaction id to stamp on a
/// `ConnHandle` span, [`NO_TXN`] for lifecycle-free requests. Note this
/// is the *wire* id, not the shard-local index server-side events carry;
/// the trace id — not the txn stamp — is what correlates the two.
fn wire_txn_of(req: &Request) -> u32 {
    match req {
        Request::Validate { txn }
        | Request::Read { txn, .. }
        | Request::Write { txn, .. }
        | Request::Commit { txn }
        | Request::Abort { txn } => *txn as u32,
        _ => NO_TXN,
    }
}
