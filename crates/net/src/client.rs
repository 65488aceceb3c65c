//! `RemoteSession`: the networked counterpart of an in-process
//! [`Session`](ks_server::Session).
//!
//! It implements the same [`Client`] contract over any [`Transport`], so
//! workloads, tests, and benchmarks written against the trait run
//! unchanged on either transport. The differences live entirely in the
//! failure model:
//!
//! * **Connect timeouts** — [`RemoteSession::connect`] bounds the TCP
//!   dial and the Hello/HelloOk version negotiation.
//! * **Per-request deadlines** — every request gets a reply deadline; a
//!   reply that does not arrive in time surfaces as
//!   [`ServerError::Timeout`].
//! * **Bounded jittered retries** — server-signalled transient errors
//!   ([`ServerError::is_retryable`]) are retried up to `max_retries`
//!   times with the shared [`ks_server::backoff`] schedule
//!   (`min(cap, base·2^(n−1))`, jittered into `[delay/2, delay]` so
//!   synchronized clients decorrelate), each retry emitting an
//!   [`ObsKind::NetRetry`] event. The final error is typed — a saturated
//!   server yields `Busy`/`Backpressure`, never a hang. One carve-out: a
//!   server-signalled `Timeout` means the operation *may still complete*
//!   server-side, so only requests whose duplicate execution is harmless
//!   (`Read`, `Metrics`, `Abort`) are re-sent; for
//!   `Open`/`Validate`/`Write`/`Commit` the typed `Timeout` surfaces to
//!   the caller, which must treat the outcome as unknown (at-least-once
//!   ambiguity) rather than assume the request was lost.
//! * **Poisoning** — an I/O error or reply-deadline expiry leaves the
//!   request/reply bookkeeping in an unknowable state, so the connection
//!   is poisoned and every later call fails fast with
//!   [`ServerError::Wire`]. Transient *server* errors arrive as complete
//!   `Err` frames on a healthy stream and do not poison.
//!
//! # Lock-step
//!
//! A session keeps one request in flight. An exchange holds the
//! connection from the moment it encodes its frame (into a reused
//! scratch buffer) until the reply carrying its correlation id arrives;
//! any other frame read on the way — a duplicated reply, or one whose
//! correlation id no request is waiting on — is dropped, so the stream
//! stays in sync. Concurrent callers of one session serialise on that
//! lock. [`Client::run_batch`] packs a read/write burst into `Batch`
//! frames of up to [`MAX_BATCH_OPS`](wire::MAX_BATCH_OPS) ops and sends
//! them one exchange after another. The wire still lets a peer pipeline
//! (see `docs/wire.md`); this client does not.
//!
//! The byte stream itself is pluggable: [`RemoteSession::connect`] dials
//! TCP ([`TcpTransport`]), while [`RemoteSession::over`] wraps any
//! [`Transport`] — the deterministic simulation harness (`ks-dst`) runs
//! this exact client over an in-memory simulated link.

use crate::transport::{TcpTransport, Transport};
use crate::wire::{self, read_frame, write_frame, Request, Response, WireMetrics, HELLO_MAGIC};
use ks_kernel::{EntityId, Value};
use ks_obs::{
    derive_trace_id, trace_sampled, ObsEvent, ObsKind, ObsSink, OpCode, Recorder, SpanHop,
    TelemetryDelta, NO_TXN,
};
use ks_predicate::random::SplitMix64;
use ks_server::{backoff, Backend, BatchOp, BatchReply, Client, ServerError, TxnBuilder};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client-side tuning: timeouts, deadlines, and the retry envelope.
#[derive(Clone)]
pub struct NetClientConfig {
    /// Bound on the TCP dial plus version negotiation.
    pub connect_timeout: Duration,
    /// Per-request reply deadline.
    pub request_deadline: Duration,
    /// Retries after the first attempt for retryable server errors.
    pub max_retries: u32,
    /// First backoff delay; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// **Deliberately unsafe** test hook: when set, a server-signalled
    /// [`ServerError::Timeout`] is retried even for non-idempotent
    /// requests (`Open`/`Validate`/`Write`/`Commit`), re-introducing the
    /// at-least-once double-apply bug the carve-out exists to prevent.
    /// The deterministic simulation harness flips this on to prove its
    /// oracles catch the resulting double-applied commits. Never enable
    /// it in production code.
    pub unsafe_retry_non_idempotent: bool,
    /// Recorder for [`ObsKind::NetRetry`] / [`ObsKind::NetBatch`] events
    /// and client-side [`ObsKind::SpanStart`]/[`ObsKind::SpanEnd`] trace
    /// breadcrumbs.
    pub recorder: Option<Recorder>,
    /// Fraction of requests (0.0..=1.0) that originate a distributed
    /// trace. A sampled request derives a trace id from a per-session
    /// salt and its correlation id ([`derive_trace_id`]), emits a
    /// `Request`-hop span around the
    /// whole send→reply exchange, and carries the id in the wire header
    /// so every server-side hop (connection handler, shard queue,
    /// execute, certifier, WAL) records spans under the same trace. Each
    /// retry is a fresh attempt with a fresh correlation id, so it gets
    /// its own trace. Default 0.0 (tracing off).
    pub trace_sample: f64,
}

impl Default for NetClientConfig {
    fn default() -> Self {
        NetClientConfig {
            connect_timeout: Duration::from_secs(2),
            request_deadline: Duration::from_secs(10),
            max_retries: 5,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(100),
            unsafe_retry_non_idempotent: false,
            recorder: None,
            trace_sample: 0.0,
        }
    }
}

/// An opaque, connection-scoped remote transaction handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RemoteTxn(pub u64);

/// Everything one exchange holds from its write to its reply.
struct Conn<T> {
    transport: T,
    /// Reused encode buffer, so the frame hot path allocates nothing.
    scratch: Vec<u8>,
    /// Set after a transport failure: the reason every later call fails
    /// fast with. Server-signalled `Err` frames never set this.
    poisoned: Option<String>,
}

/// A connection to a [`NetServer`](crate::NetServer), usable wherever a
/// [`Client`] is expected. Generic over the byte stream; defaults to
/// TCP.
pub struct RemoteSession<T: Transport = TcpTransport> {
    conn: Mutex<Conn<T>>,
    next_corr: AtomicU64,
    shards: usize,
    backend: Backend,
    config: NetClientConfig,
    rng: Mutex<SplitMix64>,
    obs: Option<ObsSink>,
    /// Per-session salt mixed into trace-id derivation: correlation ids
    /// are connection-scoped counters, so unsalted ids would collide
    /// across sessions and corrupt cross-session trace stitching.
    trace_salt: u64,
}

impl<T: Transport> std::fmt::Debug for RemoteSession<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteSession")
            .field("shards", &self.shards)
            .field("poisoned", &self.is_poisoned())
            .finish()
    }
}

/// Distinct backoff-jitter seeds across sessions in one process without
/// an entropy source: process id mixed with a connection counter.
fn jitter_seed() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    (std::process::id() as u64) << 32 | n
}

impl RemoteSession<TcpTransport> {
    /// Dial `addr`, negotiate the protocol version, and return a ready
    /// session. Fails with [`ServerError::Wire`] on version mismatch and
    /// [`ServerError::Timeout`] if the dial or handshake exceeds
    /// `connect_timeout`.
    pub fn connect(addr: impl ToSocketAddrs, config: NetClientConfig) -> Result<Self, ServerError> {
        let addr: SocketAddr = addr
            .to_socket_addrs()
            .map_err(|e| ServerError::Wire(format!("resolving address: {e}")))?
            .next()
            .ok_or_else(|| ServerError::Wire("address resolved to nothing".into()))?;
        let stream = TcpStream::connect_timeout(&addr, config.connect_timeout)
            .map_err(|e| map_io(&e, "connect"))?;
        let _ = stream.set_nodelay(true);
        let transport = TcpTransport::new(stream).map_err(|e| ServerError::Wire(e.to_string()))?;
        Self::over(transport, config)
    }
}

impl<T: Transport> RemoteSession<T> {
    /// Run the client over an already-established byte stream: negotiate
    /// the protocol version (bounded by `connect_timeout`) and return a
    /// ready session. This is how non-TCP transports — above all the
    /// deterministic simulation link — get the full production client:
    /// framing, correlation, deadlines, retry/backoff, and poisoning all
    /// behave identically.
    pub fn over(mut transport: T, config: NetClientConfig) -> Result<Self, ServerError> {
        transport
            .set_read_deadline(Some(config.connect_timeout))
            .map_err(|e| ServerError::Wire(e.to_string()))?;
        // Version negotiation happens serially: Hello must be answered
        // by HelloOk before any other frame is sent. Correlation id 0 is
        // reserved for it; real requests start at 1.
        write_frame(
            &mut transport,
            &wire::encode_request(0, 0, &Request::Hello { magic: HELLO_MAGIC }),
        )
        .map_err(|e| map_io(&e, "hello"))?;
        let (shards, backend) = match read_one(&mut transport)? {
            (_, Response::HelloOk { shards, backend }) => (shards as usize, backend),
            (_, Response::Error { code, detail }) => {
                return Err(Response::into_server_error(code, &detail))
            }
            (_, other) => {
                return Err(ServerError::Wire(format!(
                    "expected HelloOk, got {other:?}"
                )))
            }
        };
        Ok(RemoteSession {
            conn: Mutex::new(Conn {
                transport,
                scratch: Vec::with_capacity(256),
                poisoned: None,
            }),
            next_corr: AtomicU64::new(1),
            shards,
            backend,
            rng: Mutex::new(SplitMix64::new(jitter_seed())),
            obs: config.recorder.as_ref().map(|r| r.sink(u32::MAX)),
            trace_salt: derive_trace_id(jitter_seed()),
            config,
        })
    }

    /// Shard count the server reported in its HelloOk (clients co-locate
    /// a transaction's entities by `entity.0 % shards`, exactly like
    /// in-process callers).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The certifier backend the server advertised in its HelloOk.
    /// Workloads written for one backend's semantics check this (or pin
    /// via [`TxnBuilder::backend`]) instead of discovering mid-run.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Whether an earlier transport failure has poisoned the connection
    /// (every later call fails fast; reconnect to recover).
    pub fn is_poisoned(&self) -> bool {
        self.conn.lock().unwrap().poisoned.is_some()
    }

    /// Fetch the server's metrics snapshot.
    pub fn metrics(&self) -> Result<WireMetrics, ServerError> {
        match self.call(OpCode::Stats, Request::Metrics)? {
            Response::Metrics(m) => Ok(m),
            other => Err(self.desync(other)),
        }
    }

    /// Pull the server's incremental telemetry: every closed 1-second
    /// window with sequence ≥ `since`, plus the cursor to resume from.
    /// Polling this in a loop reconstructs the full time series —
    /// p50/p99/p999, throughput, abort rate, queue depth, WAL flush
    /// groups — and is sufficient on its own to evaluate an
    /// [`SloSpec`](ks_obs::SloSpec) client-side.
    pub fn telemetry(&self, since: u64) -> Result<TelemetryDelta, ServerError> {
        match self.call(OpCode::Stats, Request::Telemetry { since })? {
            Response::Telemetry { delta, .. } => Ok(delta),
            other => Err(self.desync(other)),
        }
    }

    /// Pull up to `max` span events from the server's trace-export
    /// buffer starting at absolute cursor `since`. Returns the next
    /// cursor (resume from it; a gap means the buffer wrapped past a
    /// slow poller) and the events, ready for
    /// [`stitch_traces`](ks_obs::stitch_traces).
    pub fn trace_export(&self, since: u64, max: u32) -> Result<(u64, Vec<ObsEvent>), ServerError> {
        match self.call(OpCode::Stats, Request::TraceExport { since, max })? {
            Response::TraceExport { next, events } => Ok((next, events)),
            other => Err(self.desync(other)),
        }
    }

    /// Graceful goodbye: sends Shutdown, awaits Bye, closes the stream.
    pub fn close(self) -> Result<(), ServerError> {
        if self.is_poisoned() {
            return Ok(()); // nothing orderly left to do
        }
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        match self.roundtrip(corr, 0, &Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(ServerError::Wire(format!("expected Bye, got {other:?}"))),
        }
    }

    /// One request/reply exchange, with the retry envelope around
    /// retryable server errors. Poisoned-transport errors are never
    /// retried: the failed attempt left the connection unusable.
    fn call(&self, op: OpCode, req: Request) -> Result<Response, ServerError> {
        let mut attempt: u32 = 0;
        loop {
            match self.exchange(op, &req) {
                // A retryable error only re-sends while the transport is
                // healthy: `Timeout` from an expired reply deadline
                // poisons, so it falls through typed. A *server-signalled*
                // `Timeout` arrives as a complete frame and does not
                // poison, but it leaves the outcome unknown — the shard
                // worker may still complete the operation after the reply
                // rendezvous expired — so it is only retried for requests
                // whose duplicate execution is harmless; non-idempotent
                // requests surface it typed (unless the unsafe test hook
                // disables the carve-out).
                Err(e)
                    if e.is_retryable()
                        && (duplicate_safe(&req)
                            || self.config.unsafe_retry_non_idempotent
                            || !matches!(e, ServerError::Timeout))
                        && attempt < self.config.max_retries
                        && !self.is_poisoned() =>
                {
                    attempt += 1;
                    let delay = {
                        let mut rng = self.rng.lock().unwrap();
                        backoff::jittered_delay(
                            &mut rng,
                            self.config.backoff_base,
                            self.config.backoff_cap,
                            attempt,
                        )
                    };
                    if let Some(obs) = &self.obs {
                        obs.emit(
                            NO_TXN,
                            ObsKind::NetRetry {
                                op,
                                attempt,
                                delay_ns: delay.as_nanos() as u64,
                            },
                        );
                    }
                    std::thread::sleep(delay);
                }
                other => return other,
            }
        }
    }

    /// Send one frame and await its correlated reply, wrapped in the
    /// `Request` trace hop when this attempt is sampled. Server-signalled
    /// errors come back as `Err` without poisoning; transport failures
    /// poison the connection.
    fn exchange(&self, op: OpCode, req: &Request) -> Result<Response, ServerError> {
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        // The observability plane never traces itself: a traced
        // telemetry or trace-export pull would append its own spans to
        // the buffer it is draining, and a drain-until-empty poller
        // would chase its own tail forever.
        let trace = match req {
            Request::Telemetry { .. } | Request::TraceExport { .. } => 0,
            _ => self.pick_trace(corr),
        };
        if trace != 0 {
            if let Some(obs) = &self.obs {
                obs.emit(
                    NO_TXN,
                    ObsKind::SpanStart {
                        hop: SpanHop::Request,
                        op,
                        trace,
                    },
                );
            }
        }
        let result = self.roundtrip(corr, trace, req);
        if trace != 0 {
            // "ok" is the client's view: a deadline expiry or transport
            // failure closes the span unsuccessfully even though a
            // server-side span under the same trace may record success.
            let ok = matches!(&result, Ok(resp) if !matches!(resp, Response::Error { .. }));
            if let Some(obs) = &self.obs {
                obs.emit(
                    NO_TXN,
                    ObsKind::SpanEnd {
                        hop: SpanHop::Request,
                        ok,
                        trace,
                    },
                );
            }
        }
        match result? {
            Response::Error { code, detail } => Err(Response::into_server_error(code, &detail)),
            resp => Ok(resp),
        }
    }

    /// The trace id this attempt carries on the wire: derived from the
    /// session salt and the attempt's correlation id when sampled, zero
    /// (untraced) otherwise.
    fn pick_trace(&self, corr: u64) -> u64 {
        if self.config.trace_sample <= 0.0 {
            return 0;
        }
        let trace = derive_trace_id(self.trace_salt ^ corr);
        if trace_sampled(trace, self.config.trace_sample) {
            trace
        } else {
            0
        }
    }

    /// Write `req` as one frame and read frames until the one echoing
    /// `corr` arrives, holding the connection throughout. Any other
    /// frame — a duplicated reply, or one whose `corr` no request of this
    /// session is waiting on — is dropped. A transport failure or an
    /// expired reply deadline poisons the connection; a request too large
    /// to frame is refused before any byte is written, so it does not.
    fn roundtrip(&self, corr: u64, trace: u64, req: &Request) -> Result<Response, ServerError> {
        let mut conn = self.conn.lock().unwrap();
        let Conn {
            transport,
            scratch,
            poisoned,
        } = &mut *conn;
        if let Some(reason) = poisoned {
            return Err(ServerError::Wire(reason.clone()));
        }
        wire::encode_request_into(scratch, corr, trace, req);
        if scratch.len() > wire::MAX_FRAME {
            return Err(ServerError::Wire(format!(
                "encoded request of {} bytes exceeds MAX_FRAME ({})",
                scratch.len(),
                wire::MAX_FRAME
            )));
        }
        if let Err(e) = write_frame(transport, scratch) {
            *poisoned = Some(poison_reason(&format!("send failed: {e}")));
            return Err(map_io(&e, "send"));
        }
        let start = Instant::now();
        loop {
            let Some(remaining) = self.config.request_deadline.checked_sub(start.elapsed()) else {
                *poisoned = Some(poison_reason("reply deadline expired"));
                return Err(ServerError::Timeout);
            };
            let _ = transport.set_read_deadline(Some(remaining));
            match read_one(transport) {
                Ok((rcorr, resp)) if rcorr == corr => return Ok(resp),
                Ok(_) => continue,
                Err(e) => {
                    *poisoned = Some(poison_reason(&e.to_string()));
                    return Err(e);
                }
            }
        }
    }

    fn desync(&self, got: Response) -> ServerError {
        self.conn.lock().unwrap().poisoned = Some(poison_reason("response type desync"));
        ServerError::Wire(format!("response type desync: unexpected {got:?}"))
    }

    fn unit(&self, op: OpCode, req: Request) -> Result<(), ServerError> {
        match self.call(op, req)? {
            Response::Done => Ok(()),
            other => Err(self.desync(other)),
        }
    }
}

fn poison_reason(why: &str) -> String {
    format!("connection poisoned by an earlier transport failure ({why}); reconnect")
}

/// Read and decode one reply frame into `(corr, response)`. EOF and
/// timeouts are transport failures (the caller poisons); a decoded
/// `Error` frame is *not* — it is a healthy reply.
fn read_one(rx: &mut impl std::io::Read) -> Result<(u64, Response), ServerError> {
    match read_frame(rx) {
        // The echoed trace id is dropped here: a reply is matched by
        // correlation id alone, and the client's span for the attempt
        // closes in `exchange` regardless of what the reply echoes.
        Ok(Some(payload)) => wire::decode_response(&payload)
            .map(|(corr, _trace, resp)| (corr, resp))
            .map_err(ServerError::from),
        Ok(None) => Err(ServerError::Wire("server closed the connection".into())),
        Err(e) => Err(map_io(&e, "receive")),
    }
}

/// Requests whose duplicate execution is harmless, and which may
/// therefore be re-sent after a *server-signalled*
/// [`ServerError::Timeout`] (a logged commit's wait for durability
/// expired after the certifier accepted it). Re-sending anything
/// else risks applying it twice — a retried `Commit` could re-submit a
/// commit that already applied and report `Rejected` for a transaction
/// that in fact committed, and a retried `Open` could leave an orphan
/// transaction. `Busy`/`Backpressure` carry a known did-not-happen
/// outcome and stay retryable for every request.
fn duplicate_safe(req: &Request) -> bool {
    matches!(
        req,
        Request::Read { .. }
            | Request::Metrics
            | Request::Abort { .. }
            | Request::Telemetry { .. }
            | Request::TraceExport { .. }
    )
}

fn map_io(e: &std::io::Error, what: &str) -> ServerError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ServerError::Timeout,
        _ => ServerError::Wire(format!("{what}: {e}")),
    }
}

impl<T: Transport> Client for RemoteSession<T> {
    type Handle = RemoteTxn;

    fn open(&self, txn: TxnBuilder<RemoteTxn>) -> Result<RemoteTxn, ServerError> {
        let (spec, after, before, strategy, backend) = txn.into_parts();
        let req = Request::Open {
            spec,
            after: after.into_iter().map(|t| t.0).collect(),
            before: before.into_iter().map(|t| t.0).collect(),
            strategy,
            backend,
        };
        match self.call(OpCode::Define, req)? {
            Response::Opened { txn } => Ok(RemoteTxn(txn)),
            other => Err(self.desync(other)),
        }
    }

    fn validate(&self, txn: RemoteTxn) -> Result<(), ServerError> {
        self.unit(OpCode::Validate, Request::Validate { txn: txn.0 })
    }

    fn read(&self, txn: RemoteTxn, entity: EntityId) -> Result<Value, ServerError> {
        match self.call(OpCode::Read, Request::Read { txn: txn.0, entity })? {
            Response::Value { value } => Ok(value),
            other => Err(self.desync(other)),
        }
    }

    fn write(&self, txn: RemoteTxn, entity: EntityId, value: Value) -> Result<(), ServerError> {
        self.unit(
            OpCode::Write,
            Request::Write {
                txn: txn.0,
                entity,
                value,
            },
        )
    }

    fn commit(&self, txn: RemoteTxn) -> Result<(), ServerError> {
        self.unit(OpCode::Commit, Request::Commit { txn: txn.0 })
    }

    fn abort(&self, txn: RemoteTxn) -> Result<(), ServerError> {
        self.unit(OpCode::Abort, Request::Abort { txn: txn.0 })
    }

    /// Pack the burst into `Batch` wire frames of up to
    /// [`MAX_BATCH_OPS`](wire::MAX_BATCH_OPS) ops, one exchange per
    /// frame, so N ops cost ⌈N / `MAX_BATCH_OPS`⌉ round trips instead of
    /// N. Batch frames are not retried at the frame level: per-op
    /// transient errors (`Busy`) surface in the inner results for the
    /// caller's retry policy, and a transport failure poisons as usual.
    fn run_batch(
        &self,
        txn: RemoteTxn,
        ops: &[BatchOp],
    ) -> Result<Vec<Result<BatchReply, ServerError>>, ServerError> {
        let mut results = Vec::with_capacity(ops.len());
        for chunk in ops.chunks(wire::MAX_BATCH_OPS) {
            if let Some(obs) = &self.obs {
                obs.emit(
                    txn.0 as u32,
                    ObsKind::NetBatch {
                        ops: chunk.len() as u32,
                    },
                );
            }
            let req = Request::Batch {
                ops: chunk.iter().map(|&op| (txn.0, op)).collect(),
            };
            let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
            match self.roundtrip(corr, self.pick_trace(corr), &req)? {
                Response::Batch { results: rs } => results.extend(rs.into_iter().map(|r| {
                    r.map_err(|(code, detail)| Response::into_server_error(code, &detail))
                })),
                Response::Error { code, detail } => {
                    return Err(Response::into_server_error(code, &detail))
                }
                other => return Err(self.desync(other)),
            }
        }
        Ok(results)
    }
}
