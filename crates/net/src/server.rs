//! The TCP front end: a readiness-based event loop scaled to tens of
//! thousands of connections.
//!
//! Architecture (replacing the old two-threads-per-connection design,
//! whose thread-spawn cost capped concurrency — ROADMAP item 2):
//!
//! * A fixed pool of **I/O threads** ([`NetConfig::io_threads`]), each
//!   owning one epoll [`Poller`] that multiplexes
//!   its share of the connections (round-robin assignment at accept; the
//!   listener itself is a registration on the first I/O thread, so there
//!   is no dedicated acceptor). Sockets are nonblocking; frame decode
//!   runs the incremental [`FrameState`]
//!   machine, so a frame that straddles readiness ticks is resumed, not
//!   restarted, and payload buffers come from a shared bounded
//!   [`BufferPool`] — an idle connection holds
//!   *no* decode buffer, which is what keeps 10k+ mostly-idle
//!   connections cheap.
//! * A fixed pool of **executor threads** (`EXECUTORS`) that
//!   run the blocking part: decoded frames queue into a per-connection
//!   FIFO inbox, a connection with pending work is scheduled onto the
//!   executor pool (at most once at a time, so requests on one
//!   connection stay in order), and the executor drives the unchanged
//!   transport-agnostic [`ConnCore`] — blocking
//!   session calls (commit barriers, WAL group-commit fsyncs) therefore
//!   never stall an I/O thread.
//! * **Nonblocking writes with per-connection backpressure.** Replies
//!   append to a per-connection output buffer flushed opportunistically
//!   by the executor and drained via `EPOLLOUT` when the socket pushes
//!   back. The buffer is bounded by the in-flight window: a request
//!   counts against the window until its reply bytes are buffered, and
//!   the I/O thread stops *reading* a connection at the window — so at
//!   most `WINDOW` (16) replies (≤ `MAX_FRAME` each) can ever sit in one
//!   connection's output queue, and a client that pipelines deeper
//!   blocks in TCP backpressure instead of ballooning server memory.
//!
//! Wire-visible transaction ids are connection-scoped `u64`s mapped to
//! in-process handles inside the core, so server handles never cross the
//! wire. Shutdown drains: stop accepting, enqueue a close behind every
//! connection's already-buffered requests, give in-flight work up to the
//! drain timeout, force-close stragglers, join both pools, then shut the
//! embedded [`TxnService`] down and hand back its shard certifiers for
//! verification.

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
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for the network front end (the embedded service has its own
/// [`ServerConfig`](ks_server::ServerConfig)).
#[derive(Clone)]
pub struct NetConfig {
    /// The I/O threads' readiness-wait timeout: bounds how stale the
    /// stop flag and the handshake-deadline scan can get on a fully idle
    /// server. Traffic wakes the loop immediately regardless.
    pub poll_interval: Duration,
    /// Recorder for connection-lifecycle events ([`ObsKind::ConnOpened`]
    /// / [`ObsKind::ConnClosed`]); usually the same recorder the embedded
    /// service uses.
    pub recorder: Option<Recorder>,
    /// I/O threads multiplexing the connections (min 1).
    pub io_threads: usize,
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
            io_threads: 2,
            pinned_buffers: 0,
        }
    }
}

/// Per-connection in-flight request window: how many decoded requests
/// may be awaiting execution or reply flush before the I/O thread stops
/// reading the socket. Also bounds the reply output buffer (see the
/// module docs). A lock-step client never has more than one request in
/// flight; the window is what bounds a peer that pipelines.
const WINDOW: usize = 16;

/// Executor threads running blocking request handling. Sizes the number
/// of *concurrent* blocking calls — e.g. commits rendezvousing in one WAL
/// group-commit barrier.
const EXECUTORS: usize = 8;

/// Free-list capacity of the shared frame-decode [`BufferPool`]: bounds
/// pooled buffers retained across requests. Live decode memory is bounded
/// by frames concurrently in flight, not by the connection count.
const POOL_BUFFERS: usize = 256;

/// How long [`NetServer::shutdown`] waits for in-flight connections to
/// drain before force-closing them.
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

/// One unit of per-connection work for the executor pool.
enum Work {
    /// A decoded frame payload (returned to the buffer pool afterwards).
    Frame(Vec<u8>),
    /// The connection is going away: run the abort-on-disconnect sweep
    /// and release the session. Always the last item in a FIFO, so
    /// already-buffered requests finish first (graceful drain).
    Close,
}

/// The per-connection FIFO between the I/O thread and the executors.
struct Inbox {
    queue: VecDeque<Work>,
    /// The connection is on (or running in) the executor pool. At most
    /// one executor drains a connection at a time — this is what keeps
    /// replies in request order.
    scheduled: bool,
    /// Requests decoded but not yet answered-and-buffered. The I/O
    /// thread pauses reading at `WINDOW`.
    in_flight: usize,
    /// No further frames will be queued (close pending or done).
    closing: bool,
}

/// The reply output buffer, drained nonblockingly by whoever holds the
/// lock (executor appends flush opportunistically; the I/O thread drains
/// the rest on `EPOLLOUT`).
struct OutBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the socket.
    pos: usize,
    /// The last flush hit `WouldBlock`: `EPOLLOUT` is (being) armed.
    want_write: bool,
    /// Finalize the connection once the buffer drains.
    close_after_flush: bool,
    /// The socket is broken; stop buffering, drop what is left.
    error: bool,
}

impl OutBuf {
    fn is_drained(&self) -> bool {
        self.pos >= self.buf.len()
    }
}

/// Executor phase of one connection.
enum Phase {
    /// Nothing allocated server-side until a well-formed Hello arrives.
    Handshake,
    /// Handshake done: a live session behind the unchanged request core.
    Open(ConnCore),
    /// Swept; the session is released.
    Finished,
}

/// Connection state shared between its I/O thread and the executors.
/// Split into three independently locked pieces so the I/O thread never
/// waits on a lock held across a blocking session call: `exec` (the only
/// lock held during request handling) is touched exclusively by
/// executors, serialized by `Inbox::scheduled`.
struct ConnShared {
    id: u64,
    /// Index of the owning I/O thread (for executor → I/O pokes).
    io: usize,
    stream: TcpStream,
    inbox: Mutex<Inbox>,
    exec: Mutex<Phase>,
    out: Mutex<OutBuf>,
    /// The executor ran the close sweep; the I/O thread may finalize.
    swept: AtomicBool,
    /// Handshake completed (read by the I/O thread's deadline scan).
    hello_done: AtomicBool,
}

/// What rides the executor queue.
enum ExecItem {
    Conn(Arc<ConnShared>),
    Exit,
}

/// Cross-thread mailbox of one I/O thread.
struct IoShared {
    inbox: Mutex<IoInbox>,
    waker: Waker,
}

#[derive(Default)]
struct IoInbox {
    /// Freshly accepted connections to register.
    adopt: Vec<Arc<ConnShared>>,
    /// Connection ids whose readiness bookkeeping needs a second look
    /// (resume reading, arm `EPOLLOUT`, finalize).
    attention: Vec<u64>,
}

struct NetShared {
    service: Mutex<Option<TxnService>>,
    stop: AtomicBool,
    /// Set after drain/force-close: I/O threads exit their loops.
    halt: AtomicBool,
    active: AtomicUsize,
    /// Every live connection, for force-close and the final sweep.
    registry: Mutex<HashMap<u64, Arc<ConnShared>>>,
    config: NetConfig,
    obs: Option<ObsSink>,
    traces: Mutex<TraceBuf>,
    pool: BufferPool,
    io: Vec<Arc<IoShared>>,
    exec_tx: Sender<ExecItem>,
    next_conn: AtomicU64,
}

impl NetShared {
    fn with_service<T>(&self, f: impl FnOnce(&TxnService) -> T) -> Option<T> {
        self.service.lock().unwrap().as_ref().map(f)
    }

    /// Ask a connection's I/O thread to re-evaluate it.
    fn poke(&self, conn: &ConnShared) {
        let io = &self.io[conn.io];
        let mut inbox = io.inbox.lock().unwrap();
        let was_idle = inbox.attention.is_empty() && inbox.adopt.is_empty();
        inbox.attention.push(conn.id);
        drop(inbox);
        if was_idle {
            io.waker.wake();
        }
    }

    fn emit_closed(&self, id: u64) {
        if let Some(obs) = &self.obs {
            obs.emit(NO_TXN, ObsKind::ConnClosed { conn: id as u32 });
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
        let mut buf = self.0.traces.lock().unwrap();
        buf.refresh(recorder);
        Some(buf.export(since, max))
    }
}

/// A TCP server speaking the ks-net wire protocol over an embedded
/// [`TxnService`].
pub struct NetServer {
    shared: Arc<NetShared>,
    addr: SocketAddr,
    io_handles: Vec<JoinHandle<()>>,
    exec_handles: Vec<JoinHandle<()>>,
}

/// Poller token of an I/O thread's waker eventfd.
const TOKEN_WAKER: u64 = 0;
/// Poller token of the listener (first I/O thread only).
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
        let obs = config.recorder.as_ref().map(|r| r.sink(u32::MAX));

        let io_threads = config.io_threads.max(1);
        let mut pollers = Vec::with_capacity(io_threads);
        let mut io = Vec::with_capacity(io_threads);
        for _ in 0..io_threads {
            let poller = Poller::new()?;
            let waker = Waker::new(&poller, TOKEN_WAKER)?;
            pollers.push(poller);
            io.push(Arc::new(IoShared {
                inbox: Mutex::new(IoInbox::default()),
                waker,
            }));
        }
        pollers[0].register(listener.as_raw_fd(), TOKEN_LISTEN, Interest::READ)?;

        let (exec_tx, exec_rx) = mpsc::channel::<ExecItem>();
        // The one multi-consumer queue: executors take turns receiving.
        let exec_rx = Arc::new(Mutex::new(exec_rx));
        let pool = BufferPool::new(POOL_BUFFERS);
        let shared = Arc::new(NetShared {
            service: Mutex::new(Some(service)),
            stop: AtomicBool::new(false),
            halt: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            registry: Mutex::new(HashMap::new()),
            config,
            obs,
            traces: Mutex::new(TraceBuf::new()),
            pool,
            io,
            exec_tx,
            next_conn: AtomicU64::new(FIRST_CONN_ID),
        });

        let mut listener = Some(listener);
        let io_handles = pollers
            .into_iter()
            .enumerate()
            .map(|(idx, poller)| {
                let shared = Arc::clone(&shared);
                let listener = if idx == 0 { listener.take() } else { None };
                std::thread::spawn(move || io_loop(idx, poller, listener, &shared))
            })
            .collect();
        let exec_handles = (0..EXECUTORS)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&exec_rx);
                std::thread::spawn(move || exec_loop(&rx, &shared))
            })
            .collect();
        Ok(NetServer {
            shared,
            addr,
            io_handles,
            exec_handles,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently open.
    pub fn connections(&self) -> usize {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Connections currently registered with the pollers — equals
    /// [`NetServer::connections`] in steady state; the connection-churn
    /// tests assert it returns to baseline (no leaked registrations).
    pub fn registrations(&self) -> usize {
        self.shared.registry.lock().unwrap().len()
    }

    /// Counters of the shared frame-decode buffer pool.
    pub fn pool_stats(&self) -> PoolStats {
        self.shared.pool.stats()
    }

    /// Graceful shutdown: stop accepting, enqueue a close behind every
    /// connection's buffered requests, drain up to the drain timeout,
    /// force-close stragglers, stop the embedded service, and return its
    /// shard certifiers for verification (see
    /// [`ks_server::verify_certifiers`]).
    pub fn shutdown(self) -> Vec<Box<dyn Certifier>> {
        let shared = &self.shared;
        shared.stop.store(true, Ordering::SeqCst);
        for io in &shared.io {
            io.waker.wake();
        }
        // Drain: I/O threads stop reading and queue closes behind
        // whatever is already windowed; executors finish it.
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while shared.active.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Force-close anything still open past the deadline; pending
        // writes fail over to the error path and unblock the pools.
        for conn in shared.registry.lock().unwrap().values() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        for _ in &self.exec_handles {
            let _ = shared.exec_tx.send(ExecItem::Exit);
        }
        for h in self.exec_handles {
            let _ = h.join();
        }
        shared.halt.store(true, Ordering::SeqCst);
        for io in &shared.io {
            io.waker.wake();
        }
        for h in self.io_handles {
            let _ = h.join();
        }
        // Final sweep: anything the pools did not finalize (force-closed
        // mid-request, or queued work dropped at executor exit) still
        // must not leak locks or sessions.
        let leftovers: Vec<Arc<ConnShared>> = shared
            .registry
            .lock()
            .unwrap()
            .drain()
            .map(|(_, c)| c)
            .collect();
        for conn in leftovers {
            let mut phase = conn.exec.lock().unwrap();
            if let Phase::Open(core) = &mut *phase {
                core.abort_open_txns();
            }
            *phase = Phase::Finished;
            drop(phase);
            shared.emit_closed(conn.id);
            shared.active.fetch_sub(1, Ordering::SeqCst);
        }
        let service = shared
            .service
            .lock()
            .unwrap()
            .take()
            .expect("shutdown called twice");
        service.shutdown()
    }
}

// ---------------------------------------------------------------------
// I/O threads
// ---------------------------------------------------------------------

/// Per-connection state owned by its I/O thread alone (never locked).
struct IoConn {
    shared: Arc<ConnShared>,
    /// Incremental frame decode, surviving readiness ticks mid-frame.
    state: FrameState,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Reading paused: the in-flight window is full.
    paused: bool,
    /// No more reads ever (EOF, error, or close pending).
    read_done: bool,
    /// Teeth ballast: the private decode scratch a connection pins for
    /// its lifetime when [`NetConfig::pinned_buffers`] is nonzero.
    _pinned: Option<Vec<u8>>,
}

fn io_loop(idx: usize, poller: Poller, mut listener: Option<TcpListener>, shared: &Arc<NetShared>) {
    let mut conns: HashMap<u64, IoConn> = HashMap::new();
    let mut pending_hello: HashMap<u64, Instant> = HashMap::new();
    let mut events = Events::with_capacity(256);
    let mut draining = false;
    loop {
        if shared.halt.load(Ordering::SeqCst) {
            break;
        }
        if shared.stop.load(Ordering::SeqCst) && !draining {
            draining = true;
            // Close the listener (deregisters on drop) and queue a close
            // behind every connection's already-decoded requests.
            listener = None;
            let ids: Vec<u64> = conns.keys().copied().collect();
            for id in ids {
                if let Some(conn) = conns.get_mut(&id) {
                    initiate_close(conn, shared, &poller);
                    try_finalize(id, &mut conns, &mut pending_hello, shared, &poller);
                }
            }
        }
        let _ = poller.wait(&mut events, Some(shared.config.poll_interval));
        let ready: Vec<_> = events.iter().collect();
        for ev in ready {
            match ev.token {
                TOKEN_WAKER => shared.io[idx].waker.drain(),
                TOKEN_LISTEN => {
                    if let Some(l) = &listener {
                        accept_burst(l, shared, &mut conns, &mut pending_hello, &poller);
                    }
                }
                id => {
                    let Some(conn) = conns.get_mut(&id) else {
                        continue;
                    };
                    if ev.failed {
                        let mut out = conn.shared.out.lock().unwrap();
                        out.error = true;
                        drop(out);
                        initiate_close(conn, shared, &poller);
                    } else {
                        if ev.writable {
                            flush_out(&conn.shared);
                            update_interest(conn, &poller);
                        }
                        if ev.readable && !conn.read_done && !conn.paused {
                            read_drain(conn, shared, &poller);
                        }
                    }
                    try_finalize(id, &mut conns, &mut pending_hello, shared, &poller);
                }
            }
        }
        // Cross-thread mail: adopt fresh connections, re-evaluate poked
        // ones (resume reading, arm EPOLLOUT, finalize).
        let mail = {
            let mut inbox = shared.io[idx].inbox.lock().unwrap();
            std::mem::take(&mut *inbox)
        };
        for conn in mail.adopt {
            adopt(conn, shared, &mut conns, &mut pending_hello, &poller);
        }
        for id in mail.attention {
            if let Some(conn) = conns.get_mut(&id) {
                let want_write = conn.shared.out.lock().unwrap().want_write;
                if want_write {
                    flush_out(&conn.shared);
                }
                if conn.paused && !conn.read_done {
                    let inbox = conn.shared.inbox.lock().unwrap();
                    if inbox.in_flight < WINDOW && !inbox.closing {
                        conn.paused = false;
                    }
                }
                update_interest(conn, &poller);
                try_finalize(id, &mut conns, &mut pending_hello, shared, &poller);
            }
        }
        // Handshake deadline scan: a connection that never says Hello
        // must not hold a registration forever.
        if !pending_hello.is_empty() {
            let expired: Vec<u64> = pending_hello
                .iter()
                .filter_map(|(&id, &since)| {
                    let conn = conns.get(&id)?;
                    if conn.shared.hello_done.load(Ordering::Acquire) {
                        return None; // handled below: drop from the scan
                    }
                    (since.elapsed() > HANDSHAKE_TIMEOUT).then_some(id)
                })
                .collect();
            pending_hello.retain(|id, _| {
                conns
                    .get(id)
                    .is_some_and(|c| !c.shared.hello_done.load(Ordering::Acquire))
            });
            for id in expired {
                if let Some(conn) = conns.get_mut(&id) {
                    let _ = conn.shared.stream.shutdown(Shutdown::Both);
                    initiate_close(conn, shared, &poller);
                    try_finalize(id, &mut conns, &mut pending_hello, shared, &poller);
                }
            }
        }
    }
}

fn accept_burst(
    listener: &TcpListener,
    shared: &Arc<NetShared>,
    conns: &mut HashMap<u64, IoConn>,
    pending_hello: &mut HashMap<u64, Instant>,
    poller: &Poller,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            // Transient accept failure (e.g. fd exhaustion): the
            // listener stays registered, so we simply retry on the next
            // readiness event instead of spinning.
            Err(_) => return,
        };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        let target = (id % shared.io.len() as u64) as usize;
        let conn = Arc::new(ConnShared {
            id,
            io: target,
            stream,
            inbox: Mutex::new(Inbox {
                queue: VecDeque::new(),
                scheduled: false,
                in_flight: 0,
                closing: false,
            }),
            exec: Mutex::new(Phase::Handshake),
            out: Mutex::new(OutBuf {
                buf: Vec::new(),
                pos: 0,
                want_write: false,
                close_after_flush: false,
                error: false,
            }),
            swept: AtomicBool::new(false),
            hello_done: AtomicBool::new(false),
        });
        shared
            .registry
            .lock()
            .unwrap()
            .insert(id, Arc::clone(&conn));
        shared.active.fetch_add(1, Ordering::SeqCst);
        if let Some(obs) = &shared.obs {
            obs.emit(NO_TXN, ObsKind::ConnOpened { conn: id as u32 });
        }
        if target == 0 {
            adopt(conn, shared, conns, pending_hello, poller);
        } else {
            let io = &shared.io[target];
            let mut inbox = io.inbox.lock().unwrap();
            let was_idle = inbox.attention.is_empty() && inbox.adopt.is_empty();
            inbox.adopt.push(conn);
            drop(inbox);
            if was_idle {
                io.waker.wake();
            }
        }
    }
}

fn adopt(
    conn: Arc<ConnShared>,
    shared: &Arc<NetShared>,
    conns: &mut HashMap<u64, IoConn>,
    pending_hello: &mut HashMap<u64, Instant>,
    poller: &Poller,
) {
    let id = conn.id;
    if poller
        .register(conn.stream.as_raw_fd(), id, Interest::READ)
        .is_err()
    {
        // Could not watch the socket (e.g. epoll limits): give up on the
        // connection cleanly.
        shared.registry.lock().unwrap().remove(&id);
        shared.emit_closed(id);
        shared.active.fetch_sub(1, Ordering::SeqCst);
        return;
    }
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
    let mut io_conn = IoConn {
        shared: conn,
        state: FrameState::new(),
        interest: Interest::READ,
        paused: false,
        read_done: false,
        _pinned: pinned,
    };
    pending_hello.insert(id, Instant::now());
    // Bytes may already be waiting (client sent Hello immediately):
    // level-triggered epoll would report them on the next wait, but
    // draining now saves the first request a tick.
    read_drain(&mut io_conn, shared, poller);
    conns.insert(id, io_conn);
}

/// Pull frames off a readable socket until it would block, the window
/// fills, or the stream ends.
fn read_drain(conn: &mut IoConn, shared: &Arc<NetShared>, poller: &Poller) {
    let pinned = shared.config.pinned_buffers > 0;
    loop {
        let progress = {
            let pool = &shared.pool;
            let mut alloc = |len: usize| {
                if pinned {
                    vec![0u8; len]
                } else {
                    pool.get(len)
                }
            };
            conn.state.poll_with(&mut (&conn.shared.stream), &mut alloc)
        };
        match progress {
            Ok(FrameProgress::Frame(payload)) => {
                let mut inbox = conn.shared.inbox.lock().unwrap();
                if inbox.closing {
                    drop(inbox);
                    if !pinned {
                        shared.pool.put(payload);
                    }
                    conn.read_done = true;
                    break;
                }
                inbox.queue.push_back(Work::Frame(payload));
                inbox.in_flight += 1;
                let full = inbox.in_flight >= WINDOW;
                let schedule = !inbox.scheduled;
                if schedule {
                    inbox.scheduled = true;
                }
                drop(inbox);
                if schedule {
                    let _ = shared
                        .exec_tx
                        .send(ExecItem::Conn(Arc::clone(&conn.shared)));
                }
                if full {
                    conn.paused = true;
                    break;
                }
            }
            Ok(FrameProgress::Pending) => break,
            Ok(FrameProgress::Eof) | Err(_) => {
                initiate_close(conn, shared, poller);
                break;
            }
        }
    }
    update_interest(conn, poller);
}

/// Queue a [`Work::Close`] behind whatever is already buffered and stop
/// reading. Idempotent.
fn initiate_close(conn: &mut IoConn, shared: &Arc<NetShared>, poller: &Poller) {
    conn.read_done = true;
    // A frame cut off mid-decode is abandoned; its pooled buffer goes
    // back to the free list.
    if let Some(buf) = conn.state.reset() {
        if shared.config.pinned_buffers == 0 {
            shared.pool.put(buf);
        }
    }
    let schedule = {
        let mut inbox = conn.shared.inbox.lock().unwrap();
        if inbox.closing {
            false
        } else {
            inbox.closing = true;
            inbox.queue.push_back(Work::Close);
            let schedule = !inbox.scheduled;
            inbox.scheduled = true;
            schedule
        }
    };
    if schedule {
        let _ = shared
            .exec_tx
            .send(ExecItem::Conn(Arc::clone(&conn.shared)));
    }
    update_interest(conn, poller);
}

/// Re-register the connection's interest if it changed: reads while the
/// window has room, writes while the output buffer has a backlog.
fn update_interest(conn: &mut IoConn, poller: &Poller) {
    let want = Interest {
        readable: !conn.read_done && !conn.paused,
        writable: conn.shared.out.lock().unwrap().want_write,
    };
    if want != conn.interest {
        conn.interest = want;
        let _ = poller.modify(conn.shared.stream.as_raw_fd(), conn.shared.id, want);
    }
}

/// Drop the connection once the executor swept it and the reply buffer
/// drained (or broke): deregister, close, emit `ConnClosed`.
fn try_finalize(
    id: u64,
    conns: &mut HashMap<u64, IoConn>,
    pending_hello: &mut HashMap<u64, Instant>,
    shared: &Arc<NetShared>,
    poller: &Poller,
) {
    let Some(conn) = conns.get(&id) else { return };
    if !conn.shared.swept.load(Ordering::Acquire) {
        return;
    }
    {
        let out = conn.shared.out.lock().unwrap();
        if !out.is_drained() && !out.error {
            return; // EPOLLOUT will drain it, then poke us again
        }
    }
    let conn = conns.remove(&id).expect("checked above");
    pending_hello.remove(&id);
    let _ = poller.deregister(conn.shared.stream.as_raw_fd());
    shared.registry.lock().unwrap().remove(&id);
    shared.emit_closed(id);
    shared.active.fetch_sub(1, Ordering::SeqCst);
    // The fd itself closes when the last Arc drops (usually right here).
}

/// Write as much of the output backlog as the socket accepts. Called
/// with the lock taken inside, by executors (opportunistic flush) and
/// I/O threads (`EPOLLOUT`) alike.
fn flush_out(conn: &ConnShared) {
    let mut out = conn.out.lock().unwrap();
    if out.error {
        return;
    }
    while out.pos < out.buf.len() {
        match (&conn.stream).write(&out.buf[out.pos..]) {
            Ok(0) => {
                out.error = true;
                break;
            }
            Ok(n) => out.pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                out.want_write = true;
                return;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                out.error = true;
                break;
            }
        }
    }
    out.buf.clear();
    out.pos = 0;
    out.want_write = false;
}

// ---------------------------------------------------------------------
// Executor threads
// ---------------------------------------------------------------------

fn exec_loop(rx: &Mutex<Receiver<ExecItem>>, shared: &Arc<NetShared>) {
    // Reply frames are built in this reused buffer — no per-reply
    // allocation on the hot path.
    let mut scratch: Vec<u8> = Vec::with_capacity(256);
    loop {
        // The guard drops at the end of this statement, before the work.
        let next = rx.lock().expect("executor queue lock poisoned").recv();
        match next {
            Ok(ExecItem::Conn(conn)) => run_conn(&conn, shared, &mut scratch),
            Ok(ExecItem::Exit) | Err(_) => break,
        }
    }
}

/// Drain one connection's inbox: requests leave in order, replies are
/// buffered in the same order (each echoing its request's correlation
/// id), and the socket is flushed once when the inbox momentarily
/// empties — so a pipelined burst coalesces into few writes.
fn run_conn(conn: &Arc<ConnShared>, shared: &Arc<NetShared>, scratch: &mut Vec<u8>) {
    let mut poke = false;
    loop {
        let work = {
            let mut inbox = conn.inbox.lock().unwrap();
            match inbox.queue.pop_front() {
                Some(w) => w,
                None => {
                    // Checked under the lock, so a frame the I/O thread
                    // pushes concurrently either lands before this or
                    // reschedules the connection — no lost wakeups.
                    inbox.scheduled = false;
                    break;
                }
            }
        };
        match work {
            Work::Frame(payload) => {
                let closed = handle_frame(conn, shared, &payload, scratch);
                if shared.config.pinned_buffers == 0 {
                    shared.pool.put(payload);
                }
                let mut inbox = conn.inbox.lock().unwrap();
                let was = inbox.in_flight;
                inbox.in_flight = was.saturating_sub(1);
                drop(inbox);
                if was >= WINDOW {
                    poke = true; // the I/O thread paused reads: resume
                }
                if closed {
                    poke = true;
                }
            }
            Work::Close => {
                sweep(conn);
                poke = true;
            }
        }
    }
    flush_out(conn);
    {
        let out = conn.out.lock().unwrap();
        if out.want_write || (out.close_after_flush && out.is_drained()) || out.error {
            poke = true;
        }
    }
    if poke {
        shared.poke(conn);
    }
}

/// Decode and execute one frame; buffer the reply. Returns `true` when
/// the connection is closing as a result (Bye or failed handshake).
fn handle_frame(
    conn: &Arc<ConnShared>,
    shared: &Arc<NetShared>,
    payload: &[u8],
    scratch: &mut Vec<u8>,
) -> bool {
    let mut phase = conn.exec.lock().unwrap();
    match &mut *phase {
        Phase::Handshake => {
            let reply = handshake(conn, shared, payload, &mut phase);
            let closing = reply.is_err();
            let (corr, trace, resp) = match &reply {
                Ok((corr, trace, resp)) | Err((corr, trace, resp)) => (*corr, *trace, resp),
            };
            drop(phase);
            append_reply(conn, scratch, corr, trace, resp);
            if closing {
                close_from_exec(conn);
            }
            closing
        }
        Phase::Open(_) => {
            let (corr, trace, action) = {
                let Phase::Open(core) = &mut *phase else {
                    unreachable!()
                };
                match wire::decode_request(payload) {
                    Ok((corr, trace, req)) => {
                        (corr, trace, core.handle(trace, req, &NetHost(shared)))
                    }
                    // A payload too mangled to decode still gets a
                    // best-effort correlated error: the id lives in a
                    // fixed header slot, so it usually survives even
                    // when the body does not.
                    Err(e) => (
                        wire::peek_corr(payload).unwrap_or(u64::MAX),
                        0,
                        ConnAction::Reply(Response::error(&ServerError::from(e))),
                    ),
                }
            };
            drop(phase);
            match action {
                ConnAction::Reply(resp) => {
                    append_reply(conn, scratch, corr, trace, &resp);
                    false
                }
                ConnAction::Bye => {
                    // Shutdown request: acknowledge, then close (dropping
                    // anything the client pipelined after it).
                    append_reply(conn, scratch, corr, trace, &Response::Bye);
                    close_from_exec(conn);
                    true
                }
            }
        }
        Phase::Finished => false, // frame raced a close; drop it
    }
}

/// Validate the first frame as a Hello, open the session, and move to
/// [`Phase::Open`]. `Err` carries the reply to send before closing.
type HandshakeReply = (u64, u64, Response);
fn handshake(
    conn: &Arc<ConnShared>,
    shared: &Arc<NetShared>,
    payload: &[u8],
    phase: &mut Phase,
) -> Result<HandshakeReply, HandshakeReply> {
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
    *phase = Phase::Open(core);
    conn.hello_done.store(true, Ordering::Release);
    Ok((corr, trace, ok))
}

/// Frame `resp` into the scratch buffer and append it to the output
/// queue (bounded by the in-flight window — see the module docs).
fn append_reply(conn: &ConnShared, scratch: &mut Vec<u8>, corr: u64, trace: u64, resp: &Response) {
    if wire::encode_response_frame(scratch, corr, trace, resp).is_err() {
        return; // over-MAX_FRAME reply: nothing sendable
    }
    let mut out = conn.out.lock().unwrap();
    if !out.error {
        out.buf.extend_from_slice(scratch);
    }
}

/// Executor-initiated close (Bye or failed handshake): stop accepting
/// frames, drop whatever was pipelined behind this one, sweep, and ask
/// the I/O thread to finalize once the goodbye flushes.
fn close_from_exec(conn: &Arc<ConnShared>) {
    {
        let mut inbox = conn.inbox.lock().unwrap();
        inbox.closing = true;
        inbox.queue.clear();
        inbox.in_flight = 0;
    }
    conn.out.lock().unwrap().close_after_flush = true;
    sweep(conn);
}

/// The abort-on-disconnect sweep: no closed (or crashed) connection may
/// leave transactions holding locks. Releases the session *after* the
/// sweep — a client that observes the session gone can rely on the
/// locks being gone too.
fn sweep(conn: &Arc<ConnShared>) {
    let mut phase = conn.exec.lock().unwrap();
    if let Phase::Open(core) = &mut *phase {
        core.abort_open_txns();
    }
    *phase = Phase::Finished;
    drop(phase);
    conn.out.lock().unwrap().close_after_flush = true;
    conn.swept.store(true, Ordering::Release);
}
