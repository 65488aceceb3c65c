//! The TCP front end: one pool of threads serving every connection off a
//! single epoll [`Poller`], scaled to tens of thousands of connections.
//!
//! * **One-shot owners.** The listener and every connection are
//!   registered with `EPOLLONESHOT`, so a readiness event is delivered to
//!   one pool thread and the registration stays silent until that thread
//!   re-arms it. The thread an event lands on owns the connection for
//!   that turn: it reads a frame off the nonblocking socket with the
//!   incremental [`FrameState`] machine (a frame that straddles readiness
//!   events is resumed, not restarted, and its payload buffer comes from
//!   the shared bounded [`BufferPool`], so an idle connection holds no
//!   decode buffer), runs it through the transport-agnostic [`ConnCore`],
//!   writes the reply itself and re-arms. Requests on one connection
//!   therefore run in arrival order with no queue between the reader and
//!   the executor. A turn runs one request, so a connection whose next
//!   request is already waiting queues behind the other ready ones
//!   instead of holding its thread. The pool is sized from
//!   [`std::thread::available_parallelism`] (at least two threads).
//! * **Backpressure: no reads while a reply is unflushed.** When the
//!   socket will not take a whole reply, the owner arms `EPOLLOUT` only
//!   and reads nothing more until the reply is written, then re-arms
//!   `EPOLLIN`. A connection holds
//!   at most one unflushed reply (≤ [`MAX_FRAME`](crate::MAX_FRAME)), and
//!   a peer that pipelines requests without reading replies blocks in
//!   TCP backpressure instead of growing server memory.
//!
//! **Why a pool thread may block.** No server call waits for another
//! connection's next request: 2PL's wait-or-die, CPC's final-commit gate
//! and a full shard queue all answer `Busy` or `Backpressure` instead of
//! waiting. A pool thread can therefore wait only on a shard mutex (one
//! certifier call) or, in a logged commit, in `await_durable`, on a flush
//! that is already running or that it leads itself — each of which
//! finishes without any other connection being served. The cost is that
//! a durable commit holds its pool thread through its fsync, so at most
//! pool-size commits can share one flush.
//!
//! Wire-visible transaction ids are connection-scoped `u64`s mapped to
//! in-process handles inside the core, so server handles never cross the
//! wire. Shutdown drains: stop accepting and re-arm every connection; its
//! owner finishes the request it is running, flushes the reply, then
//! sweeps and closes the connection. Stragglers are force-closed after
//! the drain timeout, the pool is joined, and the embedded [`TxnService`]
//! shuts down and hands back its shard certifiers for verification.

use crate::conn::{handshake_reply, ConnAction, ConnCore, ConnHost};
use crate::poll::{BufferPool, Events, Interest, Poller, PoolStats, Waker};
use crate::wire::{self, FrameProgress, FrameState, Response};
use ks_obs::{ObsEvent, ObsKind, ObsSink, Recorder, NO_TXN};
use ks_protocol::Certifier;
use ks_server::{Backend, MetricsSnapshot, ServerError, TxnService};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for the network front end (the embedded service has its own
/// [`ServerConfig`](ks_server::ServerConfig)).
#[derive(Clone)]
pub struct NetConfig {
    /// The pool threads' readiness-wait timeout: bounds how stale the
    /// handshake-deadline scan can get on a fully idle server. Traffic
    /// wakes the pool immediately regardless.
    pub poll_interval: Duration,
    /// Recorder for connection-lifecycle events ([`ObsKind::ConnOpened`]
    /// / [`ObsKind::ConnClosed`]); usually the same recorder the embedded
    /// service uses.
    pub recorder: Option<Recorder>,
    /// Teeth knob: when nonzero, every connection pins a private decode
    /// scratch of this many (resident) bytes for its lifetime instead of
    /// borrowing from the shared pool — the naive per-connection-buffer
    /// sizing the pool replaces. Exists so the connection-scale bench
    /// can prove its memory gate actually trips; leave 0 in production.
    pub pinned_buffers: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            poll_interval: Duration::from_millis(50),
            recorder: None,
            pinned_buffers: 0,
        }
    }
}

/// Free-list capacity of the shared frame-decode [`BufferPool`]: bounds
/// pooled buffers retained across requests. Live decode memory is bounded
/// by frames concurrently in flight, not by the connection count.
const POOL_BUFFERS: usize = 256;

/// How long [`NetServer::shutdown`] waits for connections to drain
/// before force-closing them.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a fresh connection may sit without completing the Hello
/// handshake before the server closes it.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// How many exported span events the server retains for
/// [`wire::Request::TraceExport`] pollers. Old events fall off the front
/// (the cursor keeps advancing, so a slow poller sees a gap, never a
/// duplicate).
const TRACE_BUF_CAP: usize = 1 << 16;

/// The server-side trace-export buffer: an append-only (bounded) log of
/// span events with an absolute cursor, refreshed from the recorder on
/// every pull. Recorder rings are non-destructive snapshots, so repeat
/// pulls re-see retained events; span events are unique by
/// `(trace, hop, start|end)` — each request attempt owns its trace id —
/// which is what `seen` dedupes on.
struct TraceBuf {
    events: VecDeque<ObsEvent>,
    seen: HashSet<(u64, u32, bool)>,
    /// Absolute index of `events[0]`.
    base: u64,
    /// Admission floor: the newest timestamp ever trimmed off the front.
    /// Trimming removes an event's dedup key (so `seen` stays bounded by
    /// the buffer), but the event may still sit in a recorder ring — the
    /// floor keeps the next refresh from readmitting it as "new".
    floor: u64,
}

impl TraceBuf {
    fn new() -> Self {
        TraceBuf {
            events: VecDeque::new(),
            seen: HashSet::new(),
            base: 0,
            floor: 0,
        }
    }

    fn refresh(&mut self, recorder: &Recorder) {
        for ev in recorder.drain() {
            if self.floor > 0 && ev.ts <= self.floor {
                continue;
            }
            let key = match ev.kind {
                ObsKind::SpanStart { hop, trace, .. } => (trace, hop.code(), true),
                ObsKind::SpanEnd { hop, trace, .. } => (trace, hop.code(), false),
                _ => continue,
            };
            if self.seen.insert(key) {
                self.events.push_back(ev);
            }
        }
        while self.events.len() > TRACE_BUF_CAP {
            if let Some(ev) = self.events.pop_front() {
                let key = match ev.kind {
                    ObsKind::SpanStart { hop, trace, .. } => (trace, hop.code(), true),
                    ObsKind::SpanEnd { hop, trace, .. } => (trace, hop.code(), false),
                    _ => unreachable!("trace buffer only holds span events"),
                };
                self.seen.remove(&key);
                self.floor = self.floor.max(ev.ts);
            }
            self.base += 1;
        }
    }

    fn export(&self, since: u64, max: u32) -> (u64, Vec<ObsEvent>) {
        let start = since.max(self.base);
        let offset = (start - self.base) as usize;
        let cap = (max as usize).min(wire::MAX_TRACE_EVENTS);
        let events: Vec<ObsEvent> = self.events.iter().skip(offset).take(cap).copied().collect();
        (start + events.len() as u64, events)
    }
}

/// Request phase of one connection.
enum Phase {
    /// Nothing allocated server-side until a well-formed Hello arrives.
    Handshake,
    /// Handshake done: a live session behind the unchanged request core.
    Open(ConnCore),
    /// Swept; the session is released.
    Finished,
}

/// Everything one connection's owner touches during its turn.
struct ConnState {
    phase: Phase,
    /// Incremental frame decode, surviving readiness events mid-frame.
    frame: FrameState,
    /// The reply not yet written, from byte `sent` on. Empty whenever a
    /// frame is read: that is the backpressure rule.
    out: Vec<u8>,
    sent: usize,
    /// No more reads ever: EOF, a transport error, Bye, a failed
    /// handshake or shutdown.
    read_done: bool,
    /// Teeth ballast: the private decode scratch a connection pins for
    /// its lifetime when [`NetConfig::pinned_buffers`] is nonzero.
    _pinned: Option<Vec<u8>>,
}

/// One accepted connection. Its token in the poller is its id.
struct Conn {
    id: u64,
    stream: TcpStream,
    /// Locked by the thread a one-shot event landed on, so it is
    /// uncontended except against shutdown and the handshake scan.
    state: Mutex<ConnState>,
}

impl Conn {
    fn lock(&self) -> MutexGuard<'_, ConnState> {
        self.state
            .lock()
            .expect("a pool thread panicked serving this connection")
    }
}

struct NetShared {
    service: Mutex<Option<TxnService>>,
    poller: Poller,
    /// `None` once shutdown stopped accepting.
    listener: Mutex<Option<TcpListener>>,
    /// Set when shutdown starts: owners close instead of reading.
    stop: AtomicBool,
    /// Fired (and never drained) to send the pool home.
    halt: Waker,
    /// Every live connection by id (= poller token).
    registry: Mutex<HashMap<u64, Arc<Conn>>>,
    config: NetConfig,
    obs: Option<ObsSink>,
    traces: Mutex<TraceBuf>,
    pool: BufferPool,
    next_conn: AtomicU64,
    /// Accepted connections in accept order, for the handshake deadline.
    handshakes: Mutex<VecDeque<(Instant, Weak<Conn>)>>,
    /// Most reply bytes one connection ever held unwritten.
    backlog_peak: AtomicUsize,
}

impl NetShared {
    fn with_service<T>(&self, f: impl FnOnce(&TxnService) -> T) -> Option<T> {
        self.service
            .lock()
            .expect("service lock poisoned")
            .as_ref()
            .map(f)
    }

    fn registry(&self) -> MutexGuard<'_, HashMap<u64, Arc<Conn>>> {
        self.registry.lock().expect("registry lock poisoned")
    }

    fn emit_closed(&self, id: u64) {
        if let Some(obs) = &self.obs {
            obs.emit(NO_TXN, ObsKind::ConnClosed { conn: id as u32 });
        }
    }

    fn put_buffer(&self, buf: Vec<u8>) {
        if self.config.pinned_buffers == 0 {
            self.pool.put(buf);
        }
    }
}

/// The [`ConnHost`] the TCP server exposes to its connection cores:
/// metrics and telemetry straight off the embedded service, trace export
/// off the shared recorder-backed buffer.
struct NetHost<'a>(&'a NetShared);

impl ConnHost for NetHost<'_> {
    fn metrics(&self) -> Option<MetricsSnapshot> {
        self.0.with_service(|svc| svc.metrics())
    }

    fn backend(&self) -> Backend {
        self.0.with_service(|svc| svc.backend()).unwrap_or_default()
    }

    fn telemetry(&self, since: u64) -> Option<ks_obs::TelemetryDelta> {
        self.0.with_service(|svc| svc.telemetry(since))
    }

    fn trace_export(&self, since: u64, max: u32) -> Option<(u64, Vec<ObsEvent>)> {
        let recorder = self.0.config.recorder.as_ref()?;
        let mut buf = self.0.traces.lock().expect("trace buffer lock poisoned");
        buf.refresh(recorder);
        Some(buf.export(since, max))
    }
}

/// A TCP server speaking the ks-net wire protocol over an embedded
/// [`TxnService`].
pub struct NetServer {
    shared: Arc<NetShared>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

/// Poller token of the halt waker.
const TOKEN_HALT: u64 = 0;
/// Poller token of the listener.
const TOKEN_LISTEN: u64 = 1;
/// Connection ids start here so their tokens never collide with the
/// fixed tokens above (token == connection id).
const FIRST_CONN_ID: u64 = 2;

impl NetServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `service`.
    pub fn start(service: TxnService, addr: &str, config: NetConfig) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let halt = Waker::new(&poller, TOKEN_HALT)?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTEN, Interest::READ)?;
        let obs = config.recorder.as_ref().map(|r| r.sink(u32::MAX));
        let shared = Arc::new(NetShared {
            service: Mutex::new(Some(service)),
            poller,
            listener: Mutex::new(Some(listener)),
            stop: AtomicBool::new(false),
            halt,
            registry: Mutex::new(HashMap::new()),
            config,
            obs,
            traces: Mutex::new(TraceBuf::new()),
            pool: BufferPool::new(POOL_BUFFERS),
            next_conn: AtomicU64::new(FIRST_CONN_ID),
            handshakes: Mutex::new(VecDeque::new()),
            backlog_peak: AtomicUsize::new(0),
        });
        let size = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
        let threads = (0..size)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || pool_loop(&shared))
            })
            .collect();
        Ok(NetServer {
            shared,
            addr,
            threads,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently open. A connection is registered with the
    /// poller for exactly its lifetime, so this also counts
    /// registrations; the connection-churn tests assert it returns to
    /// baseline (no leaked registrations).
    pub fn connections(&self) -> usize {
        self.shared.registry().len()
    }

    /// Counters of the shared frame-decode buffer pool.
    pub fn pool_stats(&self) -> PoolStats {
        self.shared.pool.stats()
    }

    /// The most reply bytes any one connection has held unwritten in the
    /// server so far. A connection is not read while its reply is
    /// unflushed, so this never exceeds one reply frame
    /// (≤ [`MAX_FRAME`](crate::MAX_FRAME)), however many requests a peer
    /// sends without reading.
    pub fn reply_backlog_peak(&self) -> usize {
        self.shared.backlog_peak.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop accepting, let every connection's owner
    /// finish its request, sweep and close, force-close stragglers after
    /// the drain timeout, stop the embedded service, and return its
    /// shard certifiers for verification (see
    /// [`ks_server::verify_certifiers`]).
    pub fn shutdown(self) -> Vec<Box<dyn Certifier>> {
        let shared = &self.shared;
        shared.stop.store(true, Ordering::SeqCst);
        // Taking the listener waits out an accept burst, so every
        // connection it accepted is in the registry below.
        let listener = shared
            .listener
            .lock()
            .expect("listener lock poisoned")
            .take();
        if let Some(listener) = listener {
            let _ = shared.poller.deregister(listener.as_raw_fd());
        }
        // Re-arm every connection under its lock: an owner mid-request
        // either re-armed before this (and the write-readiness here hands
        // the connection to a thread that sees `stop`) or sees `stop`
        // itself when it next looks.
        let conns: Vec<Arc<Conn>> = shared.registry().values().cloned().collect();
        for conn in &conns {
            let _turn = conn.lock();
            let _ = shared
                .poller
                .rearm(conn.stream.as_raw_fd(), conn.id, Interest::WRITE);
        }
        drop(conns);
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while !shared.registry().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Force-close anything still open past the deadline: its owner's
        // next write fails and it closes.
        for conn in shared.registry().values() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        shared.halt.wake();
        for h in self.threads {
            let _ = h.join();
        }
        // Final sweep: a connection the pool did not finalize (force-closed
        // mid-request) still must not leak locks or sessions.
        let leftovers: Vec<Arc<Conn>> = shared.registry().drain().map(|(_, c)| c).collect();
        for conn in leftovers {
            sweep(&mut conn.lock());
            shared.emit_closed(conn.id);
        }
        let service = shared
            .service
            .lock()
            .expect("service lock poisoned")
            .take()
            .expect("shutdown called twice");
        service.shutdown()
    }
}

// ---------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------

fn pool_loop(shared: &Arc<NetShared>) {
    // One event per wait: an event is a connection's whole turn, and a
    // thread holding several would make the others wait behind it.
    let mut events = Events::with_capacity(1);
    loop {
        let _ = shared
            .poller
            .wait(&mut events, Some(shared.config.poll_interval));
        let token = events.iter().next().map(|ev| ev.token);
        match token {
            Some(TOKEN_HALT) => {
                // Pass the (still set) wakeup on to the next thread.
                let _ = shared.halt.rearm(&shared.poller);
                return;
            }
            Some(TOKEN_LISTEN) => accept_burst(shared),
            Some(id) => {
                let conn = shared.registry().get(&id).cloned();
                if let Some(conn) = conn {
                    serve(&conn, shared);
                }
            }
            None => {}
        }
        expire_handshakes(shared);
    }
}

fn accept_burst(shared: &Arc<NetShared>) {
    let guard = shared.listener.lock().expect("listener lock poisoned");
    let Some(listener) = guard.as_ref() else {
        return;
    };
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            // Drained, or a transient failure (e.g. fd exhaustion): the
            // re-armed listener reports the next connection.
            Err(_) => break,
        };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        let pinned = (shared.config.pinned_buffers > 0).then(|| {
            // A zeroed Vec comes from alloc_zeroed, whose pages stay lazily
            // mapped and invisible to RSS; write one byte per page so the
            // ballast is actually resident — the whole point of the teeth
            // mode is the RSS it wastes.
            let mut ballast = vec![0u8; shared.config.pinned_buffers];
            for slot in ballast.iter_mut().step_by(4096) {
                *slot = 1;
            }
            ballast
        });
        let conn = Arc::new(Conn {
            id,
            stream,
            state: Mutex::new(ConnState {
                phase: Phase::Handshake,
                frame: FrameState::new(),
                out: Vec::new(),
                sent: 0,
                read_done: false,
                _pinned: pinned,
            }),
        });
        // In the registry before the poller can hand its token out.
        shared.registry().insert(id, Arc::clone(&conn));
        shared
            .handshakes
            .lock()
            .expect("handshake queue lock poisoned")
            .push_back((Instant::now(), Arc::downgrade(&conn)));
        if let Some(obs) = &shared.obs {
            obs.emit(NO_TXN, ObsKind::ConnOpened { conn: id as u32 });
        }
        if shared
            .poller
            .register(conn.stream.as_raw_fd(), id, Interest::READ)
            .is_err()
        {
            // Could not watch the socket (e.g. epoll limits): give up on
            // the connection cleanly.
            shared.registry().remove(&id);
            shared.emit_closed(id);
        }
    }
    let _ = shared
        .poller
        .rearm(listener.as_raw_fd(), TOKEN_LISTEN, Interest::READ);
}

/// A connection's turn: flush what is pending, then read and run at most
/// one frame and write its reply, and re-arm; or close the connection
/// once it is done. One request per turn keeps a connection whose next
/// request is already waiting from holding its thread while other ready
/// connections wait: its re-armed event queues behind theirs.
fn serve(conn: &Conn, shared: &NetShared) {
    let mut st = conn.lock();
    let fd = conn.stream.as_raw_fd();
    let mut ran = false;
    loop {
        match flush(&conn.stream, &mut st) {
            Flush::Done => {}
            Flush::Blocked => {
                let backlog = st.out.len() - st.sent;
                shared.backlog_peak.fetch_max(backlog, Ordering::Relaxed);
                let _ = shared.poller.rearm(fd, conn.id, Interest::WRITE);
                return;
            }
            Flush::Broken => st.read_done = true,
        }
        if st.read_done || shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if ran {
            let _ = shared.poller.rearm(fd, conn.id, Interest::READ);
            return;
        }
        let pinned = shared.config.pinned_buffers > 0;
        let mut alloc = |len: usize| {
            if pinned {
                vec![0u8; len]
            } else {
                shared.pool.get(len)
            }
        };
        match st.frame.poll_with(&mut (&conn.stream), &mut alloc) {
            Ok(FrameProgress::Frame(payload)) => {
                handle_frame(&mut st, shared, &payload);
                shared.put_buffer(payload);
                ran = true;
            }
            Ok(FrameProgress::Pending) => {
                let _ = shared.poller.rearm(fd, conn.id, Interest::READ);
                return;
            }
            Ok(FrameProgress::Eof) | Err(_) => st.read_done = true,
        }
    }
    // Close: sweep, stop watching, forget. A thread that raced here on a
    // stale event finds the connection already gone from the registry.
    sweep(&mut st);
    if let Some(buf) = st.frame.reset() {
        shared.put_buffer(buf);
    }
    if shared.registry().remove(&conn.id).is_some() {
        let _ = shared.poller.deregister(fd);
        shared.emit_closed(conn.id);
    }
}

enum Flush {
    /// Nothing left to write.
    Done,
    /// The socket took part of it; the rest waits for `EPOLLOUT`.
    Blocked,
    /// The socket is broken; what was left is dropped.
    Broken,
}

fn flush(stream: &TcpStream, st: &mut ConnState) -> Flush {
    while st.sent < st.out.len() {
        match (&*stream).write(&st.out[st.sent..]) {
            Ok(0) => break,
            Ok(n) => st.sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Flush::Blocked,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    let done = st.sent == st.out.len();
    st.out.clear();
    st.sent = 0;
    if done {
        Flush::Done
    } else {
        Flush::Broken
    }
}

/// Close connections that have not said Hello within the handshake
/// deadline: the socket is shut down, and its owner reads the end of
/// stream and closes it. Whichever pool thread finds the queue free
/// does the scan; a connection being served is looked at next time.
fn expire_handshakes(shared: &NetShared) {
    let Ok(mut queue) = shared.handshakes.try_lock() else {
        return;
    };
    while let Some((opened, conn)) = queue.front() {
        if opened.elapsed() <= HANDSHAKE_TIMEOUT {
            break;
        }
        let conn = conn.upgrade();
        if let Some(conn) = conn {
            match conn.state.try_lock() {
                Ok(st) if matches!(st.phase, Phase::Handshake) => {
                    let _ = conn.stream.shutdown(Shutdown::Both);
                }
                // Being served right now: look again next time.
                Err(TryLockError::WouldBlock) => break,
                _ => {}
            }
        }
        queue.pop_front();
    }
}

/// Decode and run one frame, and put its reply in the (empty) output
/// buffer. Bye and a failed handshake sweep the connection and end its
/// reads; the reply is still written before it closes.
fn handle_frame(st: &mut ConnState, shared: &NetShared, payload: &[u8]) {
    let (corr, trace, resp, last) = match &mut st.phase {
        Phase::Handshake => match handshake(shared, payload) {
            Ok((corr, trace, resp, core)) => {
                st.phase = Phase::Open(core);
                (corr, trace, resp, false)
            }
            Err((corr, trace, resp)) => (corr, trace, resp, true),
        },
        Phase::Open(core) => match wire::decode_request(payload) {
            Ok((corr, trace, req)) => match core.handle(trace, req, &NetHost(shared)) {
                ConnAction::Reply(resp) => (corr, trace, resp, false),
                ConnAction::Bye => (corr, trace, Response::Bye, true),
            },
            // A payload too mangled to decode still gets a best-effort
            // correlated error: the id lives in a fixed header slot, so
            // it usually survives even when the body does not.
            Err(e) => (
                wire::peek_corr(payload).unwrap_or(u64::MAX),
                0,
                Response::error(&ServerError::from(e)),
                false,
            ),
        },
        Phase::Finished => return,
    };
    if last {
        sweep(st);
    }
    // An over-MAX_FRAME reply is refused and leaves the buffer empty:
    // nothing sendable.
    let _ = wire::encode_response_frame(&mut st.out, corr, trace, &resp);
}

/// Validate the first frame as a Hello and open the session. `Err`
/// carries the reply to send before closing.
type HandshakeReply = (u64, u64, Response);
fn handshake(
    shared: &NetShared,
    payload: &[u8],
) -> Result<(u64, u64, Response, ConnCore), HandshakeReply> {
    let (corr, trace, first) = match wire::decode_request(payload) {
        Ok(parts) => parts,
        Err(e) => {
            let corr = wire::peek_corr(payload).unwrap_or(0);
            return Err((corr, 0, Response::error(&ServerError::from(e))));
        }
    };
    let (shards, backend) = shared
        .with_service(|svc| (svc.shard_map().shards(), svc.backend()))
        .unwrap_or((0, Backend::default()));
    let ok = match handshake_reply(&first, shards, backend) {
        Ok(ok) => ok,
        Err(resp) => return Err((corr, trace, resp)),
    };
    let session = match shared.with_service(|svc| svc.session()) {
        Some(Ok(s)) => s,
        Some(Err(e)) => return Err((corr, trace, Response::error(&e))),
        None => return Err((corr, trace, Response::error(&ServerError::Shutdown))),
    };
    let mut core = ConnCore::new(session);
    if let Some(obs) = &shared.obs {
        core.attach_obs(obs.clone());
    }
    Ok((corr, trace, ok, core))
}

/// The abort-on-disconnect sweep: no closed (or crashed) connection may
/// leave transactions holding locks. Releases the session *after* the
/// sweep — a client that observes the session gone can rely on the
/// locks being gone too. Idempotent; ends the connection's reads.
fn sweep(st: &mut ConnState) {
    if let Phase::Open(core) = &mut st.phase {
        core.abort_open_txns();
    }
    st.phase = Phase::Finished;
    st.read_done = true;
}
