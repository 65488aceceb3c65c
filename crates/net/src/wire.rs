//! The ks-net wire protocol: length-prefixed, versioned binary frames.
//!
//! Framing is `u32` little-endian payload length followed by the payload;
//! every payload starts with the protocol version byte, a `u64`
//! correlation id, a `u64` trace id, and a message-type byte. Integers
//! are little-endian; strings are `u32` length + UTF-8. The full format,
//! the correlation rules, the version-negotiation story
//! and the error-code table live in `docs/wire.md` — this module is the
//! normative encoder and decoder, and the round-trip tests in
//! `tests/wire_fuzz.rs` pin it.
//!
//! The correlation id is what makes pipelining sound: a peer may keep
//! several requests in flight on one connection, and the server echoes
//! each request's id on its reply, so responses can complete out of
//! order without ambiguity. The server never *reorders* replies today,
//! but the id — not arrival order — is the contract.
//!
//! The trace id is the distributed-tracing context (see
//! `docs/observability.md`): `0` means *unsampled* — no span may be
//! emitted for the request — and any other value identifies the
//! end-to-end trace the request belongs to. The server echoes the
//! request's trace id on its reply and stamps it on every server-side
//! span, so a stitched tree spans both processes. The id rides in the
//! fixed header between the correlation id and the type byte; peers
//! built before the extension fail closed at decode (their type byte is
//! consumed as trace bytes, leaving a truncated or unknown-type body).
//!
//! Specifications travel **structurally** (CNF → clauses → atoms with
//! global entity ids), not as parser text, so the wire needs no schema
//! and malformed predicates are impossible by construction. Errors travel
//! as `(code, detail)` pairs that reconstruct the exact
//! [`ServerError`] via [`ServerError::from_code`] — the typed codes are
//! the client-visible correctness contract at the interface.

use ks_core::Specification;
use ks_kernel::{EntityId, Value};
use ks_obs::{ObsEvent, TelemetryDelta, WindowSnapshot, LATENCY_BUCKETS};
use ks_predicate::{Atom, Clause, CmpOp, Cnf, Operand, Strategy};
use ks_server::{Backend, BatchOp, BatchReply, ServerError};
use std::io::{Read, Write};

/// Protocol version this build speaks. The Hello exchange rejects peers
/// whose version differs (see `docs/wire.md` § version negotiation).
/// Version 2 added the per-payload correlation id and `Batch` frames;
/// version 3 added the certifier-backend byte to `Open` (a client pin,
/// `0` = unpinned), `HelloOk` (the backend the server runs), and the
/// `Telemetry` response (so pollers label series per backend).
pub const PROTOCOL_VERSION: u8 = 3;

/// Magic carried in Hello so a stray non-ks-net peer is rejected before
/// any state is allocated.
pub const HELLO_MAGIC: u32 = 0x4B534E50; // "KSNP"

/// Hard cap on one frame's payload. Large enough for any realistic
/// specification, small enough that a corrupt length prefix cannot make
/// a peer allocate unboundedly.
pub const MAX_FRAME: usize = 1 << 20;

/// Hard cap on ops in one `Batch` frame, enforced at decode on both
/// request and response. The request-side ops are small (a `Write` is 21
/// bytes) but their *responses* are not bounded by the request size
/// (`Error` carries a detail string), so without this cap a maximal
/// request batch could force the server to build a response frame it is
/// not allowed to send.
pub const MAX_BATCH_OPS: usize = 1024;

/// Hard cap on events in one `TraceExport` response, enforced at decode.
/// 40 bytes per packed event keeps the largest legal export well under
/// [`MAX_FRAME`]; a poller wanting more pages with its cursor.
pub const MAX_TRACE_EVENTS: usize = 4096;

/// A malformed or oversized frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire protocol error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for ServerError {
    fn from(e: WireError) -> Self {
        ServerError::Wire(e.0)
    }
}

/// One client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version negotiation; must be the first frame on a connection.
    Hello {
        /// [`HELLO_MAGIC`].
        magic: u32,
    },
    /// Open a transaction: specification, sibling ordering (connection-
    /// scoped transaction ids), optional strategy override.
    Open {
        /// The `(I_t, O_t)` specification, in global entity ids.
        spec: Specification,
        /// Transactions this one is ordered after.
        after: Vec<u64>,
        /// Transactions this one is ordered before.
        before: Vec<u64>,
        /// Per-transaction solver override (`None` = service default).
        strategy: Option<Strategy>,
        /// Certifier-backend pin (`None` = accept whatever the server
        /// runs). A pinned backend the server does not run fails closed
        /// with [`ServerError::BackendMismatch`]; an unknown backend
        /// byte fails the frame at decode.
        backend: Option<Backend>,
    },
    /// Validate: acquire `R_v` locks and a version assignment.
    Validate {
        /// Connection-scoped transaction id.
        txn: u64,
    },
    /// Read an entity through the assigned version.
    Read {
        /// Connection-scoped transaction id.
        txn: u64,
        /// Global entity id.
        entity: EntityId,
    },
    /// Write a new version.
    Write {
        /// Connection-scoped transaction id.
        txn: u64,
        /// Global entity id.
        entity: EntityId,
        /// The value.
        value: Value,
    },
    /// Commit.
    Commit {
        /// Connection-scoped transaction id.
        txn: u64,
    },
    /// Abort (idempotent acknowledgement).
    Abort {
        /// Connection-scoped transaction id.
        txn: u64,
    },
    /// Snapshot the service metrics.
    Metrics,
    /// A burst of read/write ops answered by one [`Response::Batch`] of
    /// equal length, in order. Only data-plane ops batch — lifecycle
    /// frames (`Open`/`Validate`/`Commit`/`Abort`) stay top-level so
    /// their connection-state side effects remain one-frame-one-decision.
    Batch {
        /// One transaction id per op (ops in one batch may target
        /// different transactions; the server splits maximal same-txn
        /// runs into shard sub-batches).
        ops: Vec<(u64, BatchOp)>,
    },
    /// Pull incremental time-series telemetry: every closed window with
    /// sequence number `>= since` (see
    /// [`TelemetrySeries::delta`](ks_obs::TelemetrySeries::delta)).
    Telemetry {
        /// The cursor from the previous [`Response::Telemetry`]'s
        /// `next_seq` (0 on the first pull).
        since: u64,
    },
    /// Pull exported trace span events from the server's trace buffer.
    TraceExport {
        /// The cursor from the previous [`Response::TraceExport`]'s
        /// `next` (0 on the first pull).
        since: u64,
        /// Upper bound on events in the reply (the server additionally
        /// caps at [`MAX_TRACE_EVENTS`]).
        max: u32,
    },
    /// Graceful connection shutdown; the server replies [`Response::Bye`]
    /// and closes.
    Shutdown,
}

/// A wire-portable subset of the server's metrics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireMetrics {
    /// Requests that received a reply.
    pub requests: u64,
    /// Commits through the service.
    pub committed: u64,
    /// Protocol rejections.
    pub rejected: u64,
    /// Requests shed on full queues.
    pub backpressure: u64,
    /// Reply timeouts.
    pub timeouts: u64,
    /// Currently open sessions.
    pub sessions_in_flight: u64,
    /// Median round-trip latency in ns (0 = no observations).
    pub p50_ns: u64,
    /// 99th-percentile round-trip latency in ns (0 = no observations).
    pub p99_ns: u64,
}

/// One server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Hello accepted.
    HelloOk {
        /// Number of entity shards the service runs (clients co-locate
        /// a transaction's entities by shard, as in-process callers do).
        shards: u32,
        /// The certifier backend every shard of this service runs —
        /// advertised up front so clients can pin (or refuse) before
        /// opening anything. Unknown bytes fail the frame at decode.
        backend: Backend,
    },
    /// Transaction opened.
    Opened {
        /// Connection-scoped transaction id.
        txn: u64,
    },
    /// Unit success (validate/write/commit/abort).
    Done,
    /// Read result.
    Value {
        /// The value read.
        value: Value,
    },
    /// Metrics snapshot.
    Metrics(WireMetrics),
    /// The call failed; `(code, detail)` round-trips into [`ServerError`].
    Error {
        /// Stable error code ([`ServerError::code`]).
        code: u16,
        /// Detail payload ([`ServerError::detail`]).
        detail: String,
    },
    /// Per-op results for a [`Request::Batch`], same length, same order.
    /// An op that failed carries its typed error inline; the batch frame
    /// itself never fails partially — it decodes whole or not at all.
    Batch {
        /// One result per request op.
        results: Vec<Result<BatchReply, (u16, String)>>,
    },
    /// Incremental telemetry windows for a [`Request::Telemetry`].
    Telemetry {
        /// The certifier backend the windows measure (matches the
        /// `HelloOk` advertisement; lets pollers label series).
        backend: Backend,
        /// The incremental windows.
        delta: TelemetryDelta,
    },
    /// Exported trace span events for a [`Request::TraceExport`].
    TraceExport {
        /// The cursor to pass as `since` next time.
        next: u64,
        /// The exported events (each a span start/end), oldest first.
        events: Vec<ObsEvent>,
    },
    /// Acknowledges [`Request::Shutdown`]; the connection closes next.
    Bye,
}

impl Response {
    /// Build the error response for a [`ServerError`].
    pub fn error(e: &ServerError) -> Response {
        Response::Error {
            code: e.code(),
            detail: e.detail().to_string(),
        }
    }

    /// Decode an error response back into the exact [`ServerError`];
    /// unknown codes fail closed as [`ServerError::Wire`].
    pub fn into_server_error(code: u16, detail: &str) -> ServerError {
        ServerError::from_code(code, detail)
            .unwrap_or_else(|| ServerError::Wire(format!("unknown error code {code}: {detail}")))
    }
}

// ---------------------------------------------------------------- encoding

/// Byte sink borrowing the caller's buffer, so hot paths reuse one
/// scratch allocation across frames instead of a fresh `Vec` each.
struct Enc<'a>(&'a mut Vec<u8>);

impl Enc<'_> {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn txns(&mut self, ids: &[u64]) {
        self.u32(ids.len() as u32);
        for &t in ids {
            self.u64(t);
        }
    }
    fn operand(&mut self, o: Operand) {
        match o {
            Operand::Entity(e) => {
                self.u8(0);
                self.u32(e.0);
            }
            Operand::Const(c) => {
                self.u8(1);
                self.i64(c);
            }
        }
    }
    fn cnf(&mut self, cnf: &Cnf) {
        let clauses = cnf.clauses();
        self.u32(clauses.len() as u32);
        for clause in clauses {
            let atoms = clause.atoms();
            self.u32(atoms.len() as u32);
            for a in atoms {
                self.operand(a.lhs);
                self.u8(cmp_code(a.op));
                self.operand(a.rhs);
            }
        }
    }

    /// One telemetry window: the sequence number, six counters, and the
    /// latency histogram encoded sparsely — `[n:u8](idx:u8, count:u64)*`
    /// over the non-empty buckets (most of the 64 log₂ buckets are empty
    /// in any real window).
    fn window(&mut self, w: &WindowSnapshot) {
        self.u64(w.seq);
        self.u64(w.requests);
        self.u64(w.committed);
        self.u64(w.aborted);
        self.u64(w.queue_depth);
        self.u64(w.flush_groups);
        self.u64(w.flush_commits);
        let filled = w.latency.iter().filter(|&&n| n != 0).count();
        self.u8(filled as u8);
        for (i, &n) in w.latency.iter().enumerate() {
            if n != 0 {
                self.u8(i as u8);
                self.u64(n);
            }
        }
    }
}

fn cmp_code(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn cmp_from(code: u8) -> Option<CmpOp> {
    Some(match code {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        _ => return None,
    })
}

fn strategy_code(s: Option<Strategy>) -> u8 {
    match s {
        None => 0,
        Some(Strategy::Exhaustive) => 1,
        Some(Strategy::Backtracking) => 2,
        Some(Strategy::GreedyLatest) => 3,
    }
}

fn strategy_from(code: u8) -> Option<Option<Strategy>> {
    Some(match code {
        0 => None,
        1 => Some(Strategy::Exhaustive),
        2 => Some(Strategy::Backtracking),
        3 => Some(Strategy::GreedyLatest),
        _ => return None,
    })
}

/// The Open frame's backend-pin byte: `0` = unpinned, otherwise the
/// backend's stable wire code ([`Backend::code`]).
fn backend_pin_code(b: Option<Backend>) -> u8 {
    b.map_or(0, Backend::code)
}

/// Decode a backend-pin byte; `None` means the byte is unknown (fail the
/// frame closed — a client pinning a backend this build cannot name must
/// not silently run unpinned).
fn backend_pin_from(code: u8) -> Option<Option<Backend>> {
    if code == 0 {
        return Some(None);
    }
    Backend::from_code(code).map(Some)
}

/// Encode a request payload into `buf` (cleared first): version byte +
/// correlation id + trace id (0 = unsampled) + type byte + body.
pub fn encode_request_into(buf: &mut Vec<u8>, corr: u64, trace: u64, req: &Request) {
    buf.clear();
    let mut e = Enc(buf);
    e.u8(PROTOCOL_VERSION);
    e.u64(corr);
    e.u64(trace);
    match req {
        Request::Hello { magic } => {
            e.u8(0x01);
            e.u32(*magic);
        }
        Request::Open {
            spec,
            after,
            before,
            strategy,
            backend,
        } => {
            e.u8(0x02);
            e.cnf(&spec.input);
            e.cnf(&spec.output);
            e.txns(after);
            e.txns(before);
            e.u8(strategy_code(*strategy));
            e.u8(backend_pin_code(*backend));
        }
        Request::Validate { txn } => {
            e.u8(0x03);
            e.u64(*txn);
        }
        Request::Read { txn, entity } => {
            e.u8(0x04);
            e.u64(*txn);
            e.u32(entity.0);
        }
        Request::Write { txn, entity, value } => {
            e.u8(0x05);
            e.u64(*txn);
            e.u32(entity.0);
            e.i64(*value);
        }
        Request::Commit { txn } => {
            e.u8(0x06);
            e.u64(*txn);
        }
        Request::Abort { txn } => {
            e.u8(0x07);
            e.u64(*txn);
        }
        Request::Metrics => e.u8(0x08),
        Request::Batch { ops } => {
            e.u8(0x0A);
            e.u32(ops.len() as u32);
            for (txn, op) in ops {
                match op {
                    BatchOp::Read(entity) => {
                        e.u8(0x04);
                        e.u64(*txn);
                        e.u32(entity.0);
                    }
                    BatchOp::Write(entity, value) => {
                        e.u8(0x05);
                        e.u64(*txn);
                        e.u32(entity.0);
                        e.i64(*value);
                    }
                }
            }
        }
        Request::Telemetry { since } => {
            e.u8(0x0B);
            e.u64(*since);
        }
        Request::TraceExport { since, max } => {
            e.u8(0x0C);
            e.u64(*since);
            e.u32(*max);
        }
        Request::Shutdown => e.u8(0x09),
    }
}

/// Encode a request payload into a fresh buffer (tests and cold paths;
/// hot paths use [`encode_request_into`] with a reused scratch buffer).
pub fn encode_request(corr: u64, trace: u64, req: &Request) -> Vec<u8> {
    let mut buf = Vec::with_capacity(48);
    encode_request_into(&mut buf, corr, trace, req);
    buf
}

/// Encode a response payload into `buf` (cleared first).
pub fn encode_response_into(buf: &mut Vec<u8>, corr: u64, trace: u64, resp: &Response) {
    buf.clear();
    append_response(buf, corr, trace, resp);
}

/// Append a response payload to `buf` *without* clearing it — the
/// building block [`encode_response_frame`] uses to put `[len][payload]`
/// in one reused buffer with zero intermediate allocation.
fn append_response(buf: &mut Vec<u8>, corr: u64, trace: u64, resp: &Response) {
    let mut e = Enc(buf);
    e.u8(PROTOCOL_VERSION);
    e.u64(corr);
    e.u64(trace);
    match resp {
        Response::HelloOk { shards, backend } => {
            e.u8(0x81);
            e.u32(*shards);
            e.u8(backend.code());
        }
        Response::Opened { txn } => {
            e.u8(0x82);
            e.u64(*txn);
        }
        Response::Done => e.u8(0x83),
        Response::Value { value } => {
            e.u8(0x84);
            e.i64(*value);
        }
        Response::Metrics(m) => {
            e.u8(0x85);
            e.u64(m.requests);
            e.u64(m.committed);
            e.u64(m.rejected);
            e.u64(m.backpressure);
            e.u64(m.timeouts);
            e.u64(m.sessions_in_flight);
            e.u64(m.p50_ns);
            e.u64(m.p99_ns);
        }
        Response::Error { code, detail } => {
            e.u8(0x86);
            e.u16(*code);
            e.str(detail);
        }
        Response::Batch { results } => {
            e.u8(0x88);
            e.u32(results.len() as u32);
            for r in results {
                match r {
                    Ok(BatchReply::Value(v)) => {
                        e.u8(0x84);
                        e.i64(*v);
                    }
                    Ok(BatchReply::Done) => e.u8(0x83),
                    Err((code, detail)) => {
                        e.u8(0x86);
                        e.u16(*code);
                        e.str(detail);
                    }
                }
            }
        }
        Response::Telemetry { backend, delta } => {
            e.u8(0x89);
            e.u8(backend.code());
            e.u64(delta.width_ns);
            e.u64(delta.next_seq);
            e.u32(delta.windows.len() as u32);
            for w in &delta.windows {
                e.window(w);
            }
        }
        Response::TraceExport { next, events } => {
            e.u8(0x8A);
            e.u64(*next);
            e.u32(events.len() as u32);
            for ev in events {
                for word in ev.pack() {
                    e.u64(word);
                }
            }
        }
        Response::Bye => e.u8(0x87),
    }
}

/// Encode a response payload into a fresh buffer.
pub fn encode_response(corr: u64, trace: u64, resp: &Response) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    encode_response_into(&mut buf, corr, trace, resp);
    buf
}

/// Encode a complete *frame* — `[len: u32 LE][payload]` — into `scratch`
/// (cleared first), ready for one `write_all`. This is the server's hot
/// path: one reused buffer, one syscall, no intermediate payload `Vec`.
///
/// Mirrors [`write_frame`]'s send-time cap: an over-[`MAX_FRAME`] payload
/// is refused with `InvalidData` and `scratch` is cleared, so no bytes
/// can hit the stream.
pub fn encode_response_frame(
    scratch: &mut Vec<u8>,
    corr: u64,
    trace: u64,
    resp: &Response,
) -> std::io::Result<()> {
    scratch.clear();
    scratch.extend_from_slice(&[0u8; 4]); // length placeholder
    append_response(scratch, corr, trace, resp);
    let len = scratch.len() - 4;
    if len > MAX_FRAME {
        scratch.clear();
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})"),
        ));
    }
    scratch[..4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

// ---------------------------------------------------------------- decoding

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn err<T>(&self, what: &str) -> Result<T, WireError> {
        Err(WireError(format!("truncated or malformed {what}")))
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return self.err(what);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }
    fn u16(&mut self, what: &str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }
    fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }
    fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
    fn i64(&mut self, what: &str) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Bounded count prefix: a corrupt length cannot force a huge
    /// allocation because every element costs at least one byte of
    /// remaining payload.
    fn count(&mut self, what: &str) -> Result<usize, WireError> {
        let n = self.u32(what)? as usize;
        if n > self.buf.len() - self.pos {
            return self.err(what);
        }
        Ok(n)
    }

    /// A batch op count: budget-bounded like [`Dec::count`] and capped at
    /// [`MAX_BATCH_OPS`] so a decoded batch can never obligate a response
    /// frame larger than the sender is allowed to emit.
    fn batch_count(&mut self, what: &str) -> Result<usize, WireError> {
        let n = self.count(what)?;
        if n > MAX_BATCH_OPS {
            return Err(WireError(format!(
                "{what}: {n} ops exceeds MAX_BATCH_OPS ({MAX_BATCH_OPS})"
            )));
        }
        Ok(n)
    }

    fn str(&mut self, what: &str) -> Result<String, WireError> {
        let n = self.count(what)?;
        let bytes = self.take(n, what)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| WireError(format!("{what}: invalid UTF-8")))
    }

    fn txns(&mut self, what: &str) -> Result<Vec<u64>, WireError> {
        let n = self.count(what)?;
        (0..n).map(|_| self.u64(what)).collect()
    }

    fn operand(&mut self, what: &str) -> Result<Operand, WireError> {
        match self.u8(what)? {
            0 => Ok(Operand::Entity(EntityId(self.u32(what)?))),
            1 => Ok(Operand::Const(self.i64(what)?)),
            t => Err(WireError(format!("{what}: unknown operand tag {t}"))),
        }
    }

    fn cnf(&mut self, what: &str) -> Result<Cnf, WireError> {
        let nclauses = self.count(what)?;
        let mut clauses = Vec::with_capacity(nclauses);
        for _ in 0..nclauses {
            let natoms = self.count(what)?;
            let mut atoms = Vec::with_capacity(natoms);
            for _ in 0..natoms {
                let lhs = self.operand(what)?;
                let op = cmp_from(self.u8(what)?)
                    .ok_or_else(|| WireError(format!("{what}: unknown comparison op")))?;
                let rhs = self.operand(what)?;
                atoms.push(Atom { lhs, op, rhs });
            }
            clauses.push(Clause::new(atoms));
        }
        Ok(Cnf::new(clauses))
    }

    /// One telemetry window (see [`Enc::window`]). The sparse histogram
    /// is bounded by construction: the entry count is a `u8` and every
    /// index must name one of the [`LATENCY_BUCKETS`] buckets.
    fn window(&mut self, what: &str) -> Result<WindowSnapshot, WireError> {
        let mut w = WindowSnapshot::empty(self.u64(what)?);
        w.requests = self.u64(what)?;
        w.committed = self.u64(what)?;
        w.aborted = self.u64(what)?;
        w.queue_depth = self.u64(what)?;
        w.flush_groups = self.u64(what)?;
        w.flush_commits = self.u64(what)?;
        let filled = self.u8(what)? as usize;
        for _ in 0..filled {
            let idx = self.u8(what)? as usize;
            if idx >= LATENCY_BUCKETS {
                return Err(WireError(format!(
                    "{what}: latency bucket {idx} out of range"
                )));
            }
            let n = self.u64(what)?;
            w.latency[idx] = w.latency[idx].wrapping_add(n);
        }
        Ok(w)
    }

    fn finish<T>(self, value: T, what: &str) -> Result<T, WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError(format!(
                "{what}: {} trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(value)
    }
}

fn check_version(d: &mut Dec, what: &str) -> Result<(), WireError> {
    let v = d.u8(what)?;
    if v != PROTOCOL_VERSION {
        return Err(WireError(format!(
            "{what}: protocol version {v} (this build speaks {PROTOCOL_VERSION})"
        )));
    }
    Ok(())
}

/// Extract the correlation id from an already-encoded payload without a
/// full decode (the simulation harness forges server-timeout replies for
/// frames it swallowed and must echo the request's id). `None` if the
/// payload is too short or carries a different version.
pub fn peek_corr(payload: &[u8]) -> Option<u64> {
    if payload.len() < 9 || payload[0] != PROTOCOL_VERSION {
        return None;
    }
    Some(u64::from_le_bytes(payload[1..9].try_into().unwrap()))
}

/// Decode a request payload into its correlation id, trace id (0 =
/// unsampled), and request.
pub fn decode_request(buf: &[u8]) -> Result<(u64, u64, Request), WireError> {
    let mut d = Dec::new(buf);
    check_version(&mut d, "request")?;
    let corr = d.u64("request corr")?;
    let trace = d.u64("request trace")?;
    let ty = d.u8("request type")?;
    let req = match ty {
        0x01 => Request::Hello {
            magic: d.u32("hello")?,
        },
        0x02 => {
            let input = d.cnf("open.input")?;
            let output = d.cnf("open.output")?;
            let after = d.txns("open.after")?;
            let before = d.txns("open.before")?;
            let strategy = strategy_from(d.u8("open.strategy")?)
                .ok_or_else(|| WireError("open: unknown strategy code".into()))?;
            let backend_byte = d.u8("open.backend")?;
            let backend = backend_pin_from(backend_byte)
                .ok_or_else(|| WireError(format!("open: unknown backend byte {backend_byte}")))?;
            Request::Open {
                spec: Specification::new(input, output),
                after,
                before,
                strategy,
                backend,
            }
        }
        0x03 => Request::Validate {
            txn: d.u64("validate")?,
        },
        0x04 => Request::Read {
            txn: d.u64("read")?,
            entity: EntityId(d.u32("read")?),
        },
        0x05 => Request::Write {
            txn: d.u64("write")?,
            entity: EntityId(d.u32("write")?),
            value: d.i64("write")?,
        },
        0x06 => Request::Commit {
            txn: d.u64("commit")?,
        },
        0x07 => Request::Abort {
            txn: d.u64("abort")?,
        },
        0x08 => Request::Metrics,
        0x09 => Request::Shutdown,
        0x0B => Request::Telemetry {
            since: d.u64("telemetry")?,
        },
        0x0C => Request::TraceExport {
            since: d.u64("trace_export")?,
            max: d.u32("trace_export")?,
        },
        0x0A => {
            let n = d.batch_count("batch")?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                // Only data-plane ops may batch; any other tag fails the
                // whole frame closed — a partially-understood batch must
                // never execute its understood prefix.
                let op = match d.u8("batch op")? {
                    0x04 => {
                        let txn = d.u64("batch read")?;
                        (txn, BatchOp::Read(EntityId(d.u32("batch read")?)))
                    }
                    0x05 => {
                        let txn = d.u64("batch write")?;
                        let entity = EntityId(d.u32("batch write")?);
                        (txn, BatchOp::Write(entity, d.i64("batch write")?))
                    }
                    t => {
                        return Err(WireError(format!(
                            "batch: op type 0x{t:02x} not batchable (only Read/Write)"
                        )))
                    }
                };
                ops.push(op);
            }
            Request::Batch { ops }
        }
        t => return Err(WireError(format!("unknown request type 0x{t:02x}"))),
    };
    d.finish((corr, trace, req), "request")
}

/// Decode a response payload into its correlation id, echoed trace id,
/// and response.
pub fn decode_response(buf: &[u8]) -> Result<(u64, u64, Response), WireError> {
    let mut d = Dec::new(buf);
    check_version(&mut d, "response")?;
    let corr = d.u64("response corr")?;
    let trace = d.u64("response trace")?;
    let ty = d.u8("response type")?;
    let resp = match ty {
        0x81 => {
            let shards = d.u32("hello_ok")?;
            let byte = d.u8("hello_ok.backend")?;
            let backend = Backend::from_code(byte)
                .ok_or_else(|| WireError(format!("hello_ok: unknown backend byte {byte}")))?;
            Response::HelloOk { shards, backend }
        }
        0x82 => Response::Opened {
            txn: d.u64("opened")?,
        },
        0x83 => Response::Done,
        0x84 => Response::Value {
            value: d.i64("value")?,
        },
        0x85 => Response::Metrics(WireMetrics {
            requests: d.u64("metrics")?,
            committed: d.u64("metrics")?,
            rejected: d.u64("metrics")?,
            backpressure: d.u64("metrics")?,
            timeouts: d.u64("metrics")?,
            sessions_in_flight: d.u64("metrics")?,
            p50_ns: d.u64("metrics")?,
            p99_ns: d.u64("metrics")?,
        }),
        0x86 => {
            let code = d.u16("error")?;
            let detail = d.str("error")?;
            Response::Error { code, detail }
        }
        0x87 => Response::Bye,
        0x88 => {
            let n = d.batch_count("batch response")?;
            let mut results = Vec::with_capacity(n);
            for _ in 0..n {
                let r = match d.u8("batch result")? {
                    0x83 => Ok(BatchReply::Done),
                    0x84 => Ok(BatchReply::Value(d.i64("batch value")?)),
                    0x86 => {
                        let code = d.u16("batch error")?;
                        let detail = d.str("batch error")?;
                        Err((code, detail))
                    }
                    t => {
                        return Err(WireError(format!(
                            "batch response: unknown result type 0x{t:02x}"
                        )))
                    }
                };
                results.push(r);
            }
            Response::Batch { results }
        }
        0x89 => {
            let byte = d.u8("telemetry.backend")?;
            let backend = Backend::from_code(byte)
                .ok_or_else(|| WireError(format!("telemetry: unknown backend byte {byte}")))?;
            let width_ns = d.u64("telemetry")?;
            let next_seq = d.u64("telemetry")?;
            let n = d.count("telemetry windows")?;
            let mut windows = Vec::with_capacity(n);
            for _ in 0..n {
                windows.push(d.window("telemetry window")?);
            }
            Response::Telemetry {
                backend,
                delta: TelemetryDelta {
                    width_ns,
                    next_seq,
                    windows,
                },
            }
        }
        0x8A => {
            let next = d.u64("trace_export")?;
            let n = d.count("trace_export events")?;
            if n > MAX_TRACE_EVENTS {
                return Err(WireError(format!(
                    "trace_export: {n} events exceeds MAX_TRACE_EVENTS ({MAX_TRACE_EVENTS})"
                )));
            }
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                let mut words = [0u64; 5];
                for w in &mut words {
                    *w = d.u64("trace_export event")?;
                }
                // Unknown tags fail the frame closed: a peer must never
                // silently drop events it cannot represent.
                events.push(ObsEvent::unpack(words).ok_or_else(|| {
                    WireError(format!(
                        "trace_export: unknown event tag {}",
                        (words[2] >> 32) as u32
                    ))
                })?);
            }
            Response::TraceExport { next, events }
        }
        t => return Err(WireError(format!("unknown response type 0x{t:02x}"))),
    };
    d.finish((corr, trace, resp), "response")
}

// ---------------------------------------------------------------- framing

/// Write one frame: `u32` LE payload length, then the payload.
///
/// Payloads over [`MAX_FRAME`] are refused with `InvalidData` *before*
/// any bytes hit the stream: the peer would reject the frame at read
/// time and drop the connection, so enforcing the cap at the sender
/// turns an oversized message into a typed per-request failure instead
/// of a poisoned connection.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "frame of {} bytes exceeds MAX_FRAME ({MAX_FRAME})",
                payload.len()
            ),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame's payload; `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Outcome of one [`FrameReader::poll_frame`] attempt.
#[derive(Debug)]
pub enum FrameProgress {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// Clean EOF at a frame boundary.
    Eof,
    /// The read timed out (`WouldBlock`/`TimedOut`). Partial progress is
    /// retained — call [`FrameReader::poll_frame`] again to continue the
    /// same frame from where it left off.
    Pending,
}

/// The resumable decode state of one in-progress frame: position inside
/// the 4-byte length prefix and the partially filled payload.
///
/// This is the state machine under both frame readers in the system.
/// [`FrameReader`] drives it against blocking sockets with read
/// timeouts (the timeout surfaces as [`FrameProgress::Pending`]); the
/// readiness-polled event loop in [`crate::server`] drives it directly
/// against nonblocking sockets, where `WouldBlock` means "wait for the
/// next readiness tick" and the payload buffer is borrowed from a
/// shared pool via [`FrameState::poll_with`]. Either way the state
/// survives arbitrarily many quiet ticks without losing a byte — a
/// frame that straddles ticks resumes exactly where it left off.
#[derive(Debug, Default)]
pub struct FrameState {
    /// Length-prefix bytes accumulated so far (valid up to `len_read`).
    len_buf: [u8; 4],
    len_read: usize,
    /// Allocated once the prefix is complete; filled up to `payload_read`.
    payload: Option<Vec<u8>>,
    payload_read: usize,
}

impl FrameState {
    /// A fresh state at a frame boundary.
    pub fn new() -> Self {
        FrameState::default()
    }

    /// Abandon any partial frame, handing back the payload buffer (for
    /// return to a pool) if one was mid-fill.
    pub fn reset(&mut self) -> Option<Vec<u8>> {
        self.len_read = 0;
        self.payload_read = 0;
        self.payload.take()
    }

    /// Advance against `r` with plain per-frame allocation.
    pub fn poll(&mut self, r: &mut impl Read) -> std::io::Result<FrameProgress> {
        self.poll_with(r, &mut |len| vec![0u8; len])
    }

    /// Read until a full frame, EOF, or a quiet tick
    /// (`WouldBlock`/`TimedOut`). EOF inside a frame is an
    /// `UnexpectedEof` error; EOF at a frame boundary is
    /// [`FrameProgress::Eof`]. `alloc` supplies the payload buffer once
    /// the length prefix completes — it receives the frame length and
    /// must return a buffer of exactly that length (a pool resizes a
    /// recycled allocation; contents need not be zeroed, every byte is
    /// overwritten before the frame is yielded).
    pub fn poll_with(
        &mut self,
        r: &mut impl Read,
        alloc: &mut dyn FnMut(usize) -> Vec<u8>,
    ) -> std::io::Result<FrameProgress> {
        use std::io::ErrorKind;
        // Phase 1: the 4-byte length prefix.
        while self.payload.is_none() {
            match r.read(&mut self.len_buf[self.len_read..]) {
                Ok(0) => {
                    if self.len_read == 0 {
                        return Ok(FrameProgress::Eof);
                    }
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "EOF inside a frame length prefix",
                    ));
                }
                Ok(n) => {
                    self.len_read += n;
                    if self.len_read == 4 {
                        let len = u32::from_le_bytes(self.len_buf) as usize;
                        if len > MAX_FRAME {
                            return Err(std::io::Error::new(
                                ErrorKind::InvalidData,
                                format!("frame of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})"),
                            ));
                        }
                        let buf = alloc(len);
                        debug_assert_eq!(buf.len(), len, "alloc must return exactly len bytes");
                        self.payload = Some(buf);
                        self.payload_read = 0;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(FrameProgress::Pending);
                }
                Err(e) => return Err(e),
            }
        }
        // Phase 2: the payload.
        loop {
            let buf = self.payload.as_mut().unwrap();
            if self.payload_read == buf.len() {
                let frame = self.payload.take().unwrap();
                self.len_read = 0;
                return Ok(FrameProgress::Frame(frame));
            }
            match r.read(&mut buf[self.payload_read..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "EOF inside a frame payload",
                    ));
                }
                Ok(n) => self.payload_read += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(FrameProgress::Pending);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// An incremental frame reader for sockets with a read timeout.
///
/// [`read_frame`] uses `read_exact`, which consumes partially-read bytes
/// before surfacing a timeout — re-calling it from scratch after a
/// timeout desynchronizes the stream on any frame that straddles the
/// timeout window (mid-payload bytes get reinterpreted as a frame
/// header). `FrameReader` instead retains its position inside the length
/// prefix and the payload across [`FrameProgress::Pending`] polls via
/// [`FrameState`], so a frame may take arbitrarily many timeout ticks to
/// arrive without losing a byte. The deterministic simulation harness
/// drives this against its in-memory link; the production server drives
/// the bare [`FrameState`] from its readiness event loop.
pub struct FrameReader<R> {
    inner: R,
    state: FrameState,
}

impl<R: Read> FrameReader<R> {
    /// Wrap `inner`, which should have a read timeout set if `Pending`
    /// polling is wanted.
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            state: FrameState::new(),
        }
    }

    /// Read until a full frame, EOF, or a timeout tick. EOF inside a
    /// frame is an `UnexpectedEof` error; EOF at a frame boundary is
    /// [`FrameProgress::Eof`].
    pub fn poll_frame(&mut self) -> std::io::Result<FrameProgress> {
        self.state.poll(&mut self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_predicate::Cnf;

    #[test]
    fn hello_and_unit_frames_round_trip() {
        for req in [
            Request::Hello { magic: HELLO_MAGIC },
            Request::Validate { txn: 7 },
            Request::Metrics,
            Request::Shutdown,
        ] {
            let buf = encode_request(99, 7, &req);
            assert_eq!(decode_request(&buf).unwrap(), (99, 7, req));
        }
    }

    #[test]
    fn open_round_trips_structural_spec() {
        let spec = Specification::new(
            Cnf::new(vec![
                Clause::unit(Atom::cmp_const(EntityId(4), CmpOp::Ge, -3)),
                Clause::unit(Atom::cmp_entities(EntityId(0), CmpOp::Lt, EntityId(8))),
            ]),
            Cnf::truth(),
        );
        let req = Request::Open {
            spec,
            after: vec![1, 2],
            before: vec![9],
            strategy: Some(Strategy::GreedyLatest),
            backend: Some(Backend::Ssi),
        };
        let buf = encode_request(u64::MAX, 0, &req);
        assert_eq!(decode_request(&buf).unwrap(), (u64::MAX, 0, req));
    }

    #[test]
    fn open_backend_pin_round_trips_every_backend_and_unpinned() {
        for backend in [
            None,
            Some(Backend::Cpc),
            Some(Backend::Ssi),
            Some(Backend::TwoPl),
        ] {
            let req = Request::Open {
                spec: Specification::new(Cnf::truth(), Cnf::truth()),
                after: vec![],
                before: vec![],
                strategy: None,
                backend,
            };
            let buf = encode_request(1, 0, &req);
            assert_eq!(decode_request(&buf).unwrap(), (1, 0, req));
        }
    }

    /// Satellite: an unknown backend byte in Open fails the frame closed —
    /// the server must never run a transaction whose pin it cannot name.
    #[test]
    fn open_with_unknown_backend_byte_fails_closed() {
        let req = Request::Open {
            spec: Specification::new(Cnf::truth(), Cnf::truth()),
            after: vec![],
            before: vec![],
            strategy: None,
            backend: None,
        };
        let mut buf = encode_request(1, 0, &req);
        // The backend byte is the last byte of the Open body.
        *buf.last_mut().unwrap() = 0x77;
        let err = decode_request(&buf).unwrap_err();
        assert!(err.0.contains("unknown backend byte 119"), "{err}");
    }

    #[test]
    fn hello_ok_advertises_the_backend_and_rejects_unknown_bytes() {
        for backend in Backend::all() {
            let resp = Response::HelloOk { shards: 4, backend };
            let buf = encode_response(0, 0, &resp);
            assert_eq!(decode_response(&buf).unwrap(), (0, 0, resp));
        }
        let resp = Response::HelloOk {
            shards: 4,
            backend: Backend::Cpc,
        };
        let mut buf = encode_response(0, 0, &resp);
        *buf.last_mut().unwrap() = 0; // 0 is not a valid server backend
        let err = decode_response(&buf).unwrap_err();
        assert!(err.0.contains("unknown backend byte 0"), "{err}");
    }

    #[test]
    fn batch_round_trips_and_carries_per_op_txns() {
        let req = Request::Batch {
            ops: vec![
                (3, BatchOp::Read(EntityId(7))),
                (3, BatchOp::Write(EntityId(8), -40)),
                (5, BatchOp::Read(EntityId(0))),
            ],
        };
        let buf = encode_request(17, 0, &req);
        assert_eq!(decode_request(&buf).unwrap(), (17, 0, req));

        let resp = Response::Batch {
            results: vec![
                Ok(BatchReply::Value(12)),
                Ok(BatchReply::Done),
                Err((4, String::new())),
            ],
        };
        let buf = encode_response(17, 0, &resp);
        assert_eq!(decode_response(&buf).unwrap(), (17, 0, resp));
    }

    #[test]
    fn empty_batch_round_trips() {
        let req = Request::Batch { ops: vec![] };
        let buf = encode_request(0, 0, &req);
        assert_eq!(decode_request(&buf).unwrap(), (0, 0, req));
        let resp = Response::Batch { results: vec![] };
        let buf = encode_response(0, 0, &resp);
        assert_eq!(decode_response(&buf).unwrap(), (0, 0, resp));
    }

    #[test]
    fn batch_with_non_batchable_op_fails_closed() {
        // Hand-build a batch whose second op is Commit (0x06): the whole
        // frame must fail, not execute the Read prefix.
        let mut buf = Vec::new();
        let mut e = Enc(&mut buf);
        e.u8(PROTOCOL_VERSION);
        e.u64(1);
        e.u64(0); // trace
        e.u8(0x0A);
        e.u32(2);
        e.u8(0x04); // Read
        e.u64(0);
        e.u32(3);
        e.u8(0x06); // Commit — not batchable
        e.u64(0);
        let err = decode_request(&buf).unwrap_err();
        assert!(err.0.contains("not batchable"), "{err}");
    }

    #[test]
    fn oversized_batch_count_is_rejected() {
        // A count past MAX_BATCH_OPS fails even with budget to spare.
        let mut buf = Vec::new();
        let mut e = Enc(&mut buf);
        e.u8(PROTOCOL_VERSION);
        e.u64(1);
        e.u64(0); // trace
        e.u8(0x0A);
        e.u32(MAX_BATCH_OPS as u32 + 1);
        for _ in 0..(MAX_BATCH_OPS + 1) {
            e.u8(0x04);
            e.u64(0);
            e.u32(0);
        }
        let err = decode_request(&buf).unwrap_err();
        assert!(err.0.contains("MAX_BATCH_OPS"), "{err}");
    }

    #[test]
    fn truncated_batch_mid_op_fails_closed() {
        let req = Request::Batch {
            ops: vec![
                (1, BatchOp::Write(EntityId(2), 9)),
                (1, BatchOp::Write(EntityId(3), 10)),
            ],
        };
        let buf = encode_request(5, 0, &req);
        // Sever at every byte boundary: no prefix may decode.
        for cut in 0..buf.len() {
            assert!(
                decode_request(&buf[..cut]).is_err(),
                "truncation at {cut} decoded"
            );
        }
    }

    #[test]
    fn telemetry_round_trips_sparse_windows() {
        let mut w = WindowSnapshot::empty(41);
        w.requests = 120;
        w.committed = 30;
        w.aborted = 2;
        w.queue_depth = 7;
        w.flush_groups = 5;
        w.flush_commits = 28;
        w.latency[0] = 3;
        w.latency[17] = 100;
        w.latency[LATENCY_BUCKETS - 1] = 17;
        let req = Request::Telemetry { since: 41 };
        let buf = encode_request(3, 0, &req);
        assert_eq!(decode_request(&buf).unwrap(), (3, 0, req));
        let resp = Response::Telemetry {
            backend: Backend::Ssi,
            delta: TelemetryDelta {
                width_ns: 1_000_000_000,
                next_seq: 42,
                windows: vec![WindowSnapshot::empty(40), w],
            },
        };
        let buf = encode_response(3, 0, &resp);
        assert_eq!(decode_response(&buf).unwrap(), (3, 0, resp));
    }

    #[test]
    fn telemetry_window_with_out_of_range_bucket_fails_closed() {
        let mut w = WindowSnapshot::empty(1);
        w.latency[0] = 9;
        let resp = Response::Telemetry {
            backend: Backend::Cpc,
            delta: TelemetryDelta {
                width_ns: 1,
                next_seq: 2,
                windows: vec![w],
            },
        };
        let mut buf = encode_response(0, 0, &resp);
        // The single sparse entry's index byte sits right after the 7
        // u64 window fields; corrupt it past LATENCY_BUCKETS.
        let idx_pos = buf.len() - 9;
        assert_eq!(buf[idx_pos], 0);
        buf[idx_pos] = LATENCY_BUCKETS as u8;
        let err = decode_response(&buf).unwrap_err();
        assert!(err.0.contains("out of range"), "{err}");
    }

    #[test]
    fn trace_export_round_trips_span_events() {
        use ks_obs::{ObsKind, SpanHop};
        let events = vec![
            ObsEvent {
                ts: 10,
                shard: u32::MAX,
                txn: ks_obs::NO_TXN,
                kind: ObsKind::SpanStart {
                    hop: SpanHop::ConnHandle,
                    op: ks_obs::OpCode::Commit,
                    trace: 0xABCD,
                },
            },
            ObsEvent {
                ts: 90,
                shard: 2,
                txn: 5,
                kind: ObsKind::SpanEnd {
                    hop: SpanHop::Certify,
                    ok: true,
                    trace: 0xABCD,
                },
            },
        ];
        let req = Request::TraceExport { since: 7, max: 64 };
        let buf = encode_request(9, 0, &req);
        assert_eq!(decode_request(&buf).unwrap(), (9, 0, req));
        let resp = Response::TraceExport { next: 9, events };
        let buf = encode_response(9, 0, &resp);
        assert_eq!(decode_response(&buf).unwrap(), (9, 0, resp));
    }

    #[test]
    fn trace_export_with_unknown_event_tag_fails_closed() {
        let mut buf = Vec::new();
        let mut e = Enc(&mut buf);
        e.u8(PROTOCOL_VERSION);
        e.u64(1);
        e.u64(0); // trace
        e.u8(0x8A);
        e.u64(0); // next
        e.u32(1); // one event
        e.u64(5); // ts
        e.u64(0); // shard/txn
        e.u64(0xFFFF_u64 << 32); // unknown kind tag
        e.u64(0);
        e.u64(0);
        let err = decode_response(&buf).unwrap_err();
        assert!(err.0.contains("unknown event tag"), "{err}");
    }

    /// Satellite: a well-formed frame from a peer built before the
    /// trace-context extension (header `[version][corr][type]`, no trace
    /// id) must fail closed, never decode as something else. The type
    /// byte lands inside the trace field and the stream runs out — or
    /// hits an unknown type — before a body can parse.
    #[test]
    fn pre_trace_layout_frames_fail_closed() {
        // Old-layout requests: version + corr + type (+ body).
        let old_frames: Vec<Vec<u8>> = vec![
            // Metrics: [2][corr][0x08]
            {
                let mut b = vec![PROTOCOL_VERSION];
                b.extend_from_slice(&7u64.to_le_bytes());
                b.push(0x08);
                b
            },
            // Validate{txn:3}: [2][corr][0x03][txn]
            {
                let mut b = vec![PROTOCOL_VERSION];
                b.extend_from_slice(&7u64.to_le_bytes());
                b.push(0x03);
                b.extend_from_slice(&3u64.to_le_bytes());
                b
            },
            // Hello: [2][corr][0x01][magic]
            {
                let mut b = vec![PROTOCOL_VERSION];
                b.extend_from_slice(&0u64.to_le_bytes());
                b.push(0x01);
                b.extend_from_slice(&HELLO_MAGIC.to_le_bytes());
                b
            },
        ];
        for frame in &old_frames {
            assert!(
                decode_request(frame).is_err(),
                "pre-trace frame {frame:02x?} decoded"
            );
        }
        // Old-layout responses fail the same way.
        let mut done = vec![PROTOCOL_VERSION];
        done.extend_from_slice(&7u64.to_le_bytes());
        done.push(0x83);
        assert!(decode_response(&done).is_err());
        let mut hello_ok = vec![PROTOCOL_VERSION];
        hello_ok.extend_from_slice(&0u64.to_le_bytes());
        hello_ok.push(0x81);
        hello_ok.extend_from_slice(&4u32.to_le_bytes());
        assert!(decode_response(&hello_ok).is_err());
    }

    #[test]
    fn trace_id_rides_both_directions() {
        let buf = encode_request(5, 0x1234_5678_9ABC_DEF0, &Request::Commit { txn: 1 });
        let (corr, trace, _) = decode_request(&buf).unwrap();
        assert_eq!((corr, trace), (5, 0x1234_5678_9ABC_DEF0));
        let buf = encode_response(5, 0x1234_5678_9ABC_DEF0, &Response::Done);
        let (corr, trace, _) = decode_response(&buf).unwrap();
        assert_eq!((corr, trace), (5, 0x1234_5678_9ABC_DEF0));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut buf = encode_request(0, 0, &Request::Metrics);
        buf[0] = 1;
        let err = decode_request(&buf).unwrap_err();
        assert!(err.0.contains("version 1"), "{err}");
    }

    #[test]
    fn peek_corr_reads_the_header() {
        let buf = encode_request(0xDEAD_BEEF, 0xFACE, &Request::Commit { txn: 3 });
        assert_eq!(peek_corr(&buf), Some(0xDEAD_BEEF));
        assert_eq!(peek_corr(&buf[..8]), None);
        let mut wrong = buf.clone();
        wrong[0] = 1;
        assert_eq!(peek_corr(&wrong), None);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = encode_request(1, 0, &Request::Validate { txn: 1 });
        buf.push(0);
        assert!(decode_request(&buf).is_err());
    }

    #[test]
    fn corrupt_count_cannot_force_allocation() {
        // An `after` count of u32::MAX with no payload behind it must be
        // rejected by the budget check, not attempted.
        let mut buf = Vec::new();
        let mut e = Enc(&mut buf);
        e.u8(PROTOCOL_VERSION);
        e.u64(0);
        e.u64(0); // trace
        e.u8(0x02);
        e.cnf(&Cnf::truth());
        e.cnf(&Cnf::truth());
        e.u32(u32::MAX); // after count
        assert!(decode_request(&buf).is_err());
    }

    #[test]
    fn scratch_encoders_match_fresh_encoders() {
        let req = Request::Read {
            txn: 3,
            entity: EntityId(5),
        };
        let mut scratch = vec![0xFF; 64]; // dirty scratch must be cleared
        encode_request_into(&mut scratch, 7, 11, &req);
        assert_eq!(scratch, encode_request(7, 11, &req));

        let resp = Response::Error {
            code: 4,
            detail: "busy".into(),
        };
        encode_response_into(&mut scratch, 9, 11, &resp);
        assert_eq!(scratch, encode_response(9, 11, &resp));
    }

    #[test]
    fn response_frame_is_len_prefixed_payload() {
        let resp = Response::Opened { txn: 12 };
        let mut scratch = Vec::new();
        encode_response_frame(&mut scratch, 4, 6, &resp).unwrap();
        let mut expect = Vec::new();
        write_frame(&mut expect, &encode_response(4, 6, &resp)).unwrap();
        assert_eq!(scratch, expect);
        // And it round-trips through the frame reader.
        let mut cursor = std::io::Cursor::new(scratch);
        let payload = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(decode_response(&payload).unwrap(), (4, 6, resp));
    }

    #[test]
    fn oversized_response_frame_is_refused_clean() {
        let resp = Response::Error {
            code: 8,
            detail: "x".repeat(MAX_FRAME + 1),
        };
        let mut scratch = Vec::new();
        let err = encode_response_frame(&mut scratch, 0, 0, &resp).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(scratch.is_empty(), "no bytes may survive a refused frame");
    }

    #[test]
    fn frames_round_trip_over_a_pipe() {
        let payload = encode_response(
            2,
            0,
            &Response::Error {
                code: 4,
                detail: String::new(),
            },
        );
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let got = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(got, payload);
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn oversized_frame_length_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let err = read_frame(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_payload_is_refused_at_send_time() {
        let payload = vec![0u8; MAX_FRAME + 1];
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, &payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(buf.is_empty(), "no bytes may hit the stream");
    }

    /// A reader that hands out the scripted chunks one `read` at a time,
    /// injecting a timeout error between every chunk — the worst case of
    /// frames straddling poll ticks at arbitrary byte offsets.
    struct Trickle {
        chunks: Vec<Vec<u8>>,
        next: usize,
        timeout_next: bool,
    }

    impl std::io::Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.timeout_next && self.next < self.chunks.len() {
                self.timeout_next = false;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "trickle timeout",
                ));
            }
            self.timeout_next = true;
            let Some(chunk) = self.chunks.get_mut(self.next) else {
                return Ok(0); // EOF
            };
            let n = buf.len().min(chunk.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            chunk.drain(..n);
            if chunk.is_empty() {
                self.next += 1;
            }
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_retains_progress_across_timeouts() {
        // Two frames, byte-trickled with a timeout before every chunk:
        // splits land inside length prefixes and inside payloads.
        let mut stream = Vec::new();
        let first = encode_request(1, 0, &Request::Validate { txn: 42 });
        let second = encode_request(2, 0, &Request::Metrics);
        write_frame(&mut stream, &first).unwrap();
        write_frame(&mut stream, &second).unwrap();
        let mut reader = FrameReader::new(Trickle {
            chunks: stream.chunks(3).map(|c| c.to_vec()).collect(),
            next: 0,
            timeout_next: true,
        });
        let mut frames = Vec::new();
        let mut pendings = 0usize;
        loop {
            match reader.poll_frame().expect("no transport error") {
                FrameProgress::Frame(f) => frames.push(f),
                FrameProgress::Pending => pendings += 1,
                FrameProgress::Eof => break,
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(
            decode_request(&frames[0]).unwrap(),
            (1, 0, Request::Validate { txn: 42 })
        );
        assert_eq!(
            decode_request(&frames[1]).unwrap(),
            (2, 0, Request::Metrics)
        );
        assert!(pendings > 4, "timeouts interleaved every chunk: {pendings}");
    }

    #[test]
    fn frame_reader_eof_mid_frame_is_an_error() {
        let payload = encode_request(1, 0, &Request::Validate { txn: 1 });
        let mut stream = Vec::new();
        write_frame(&mut stream, &payload).unwrap();
        stream.truncate(stream.len() - 2); // sever inside the payload
        let mut reader = FrameReader::new(std::io::Cursor::new(stream));
        loop {
            match reader.poll_frame() {
                Ok(FrameProgress::Pending) => continue,
                Ok(FrameProgress::Frame(_)) => panic!("truncated frame decoded"),
                Ok(FrameProgress::Eof) => panic!("mid-frame EOF reported as clean"),
                Err(e) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
                    break;
                }
            }
        }
    }

    #[test]
    fn frame_reader_rejects_oversized_length_prefix() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let mut reader = FrameReader::new(std::io::Cursor::new(stream));
        let err = reader.poll_frame().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
