//! The simulated network and the single-threaded world it lives in.
//!
//! [`World`] embeds a real [`TxnService`] (real shard workers, real
//! protocol managers, the real WAL group commit) and serves it through the
//! *production* server-side connection machinery: every delivered byte
//! goes through
//! [`wire::FrameReader`] and every decoded request through
//! [`ConnCore::handle`] — the exact code the TCP server runs. Clients are
//! real [`RemoteSession`](ks_net::RemoteSession)s whose [`Transport`] is
//! a [`SimLink`]: writing a frame hands it to the world, which applies
//! the current fault directive (drop, duplicate, trickle, readiness
//! starvation, reset, forged server timeout) and pumps the server
//! synchronously; reading serves the
//! in-memory inbox or fails with `WouldBlock`, which the client maps to a
//! deadline expiry exactly as it would on a socket.
//!
//! Determinism: the driver is single-threaded and every client call is
//! synchronous, so at most one request is ever in flight inside the
//! service. Certifier calls run on the driver's own thread under their
//! shard's lock, and each commit leads its own WAL flush on that thread
//! too: the service starts no thread. Combined with the plan being fully
//! expanded from the seed (see [`crate::plan`]) and the server-side state
//! being ordered containers throughout, a run is a pure function of
//! `(seed, protections)`.

use crate::plan::{trickle_cuts, Fault, ENTITIES_PER_SHARD, MAX_VALUE, SHARDS};
use ks_kernel::{Domain, Schema, UniqueState};
use ks_net::wire::{self, FrameProgress, FrameReader, Response};
use ks_net::{ConnAction, ConnCore, Transport};
use ks_obs::{ObsKind, ObsSink, Recorder, NO_TXN};
use ks_protocol::{Backend, Certifier, TxnState};
use ks_server::{Durability, ServerConfig, ServerError, TxnService, WalOptions};
use ks_wal::{MemStore, SegmentStore};
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::io::{self, Read, Write};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// The four known-fixed protections the harness can switch off to prove
/// its oracles catch the bugs they guard against (the "teeth" of the
/// acceptance criteria). All on = the production configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Protections {
    /// `FrameReader` retains partial-frame progress across read timeouts
    /// (off = recreate the reader on every `Pending`, resurrecting the
    /// PR 3 stream-desync bug).
    pub frame_retention: bool,
    /// Server-signalled `Timeout` is not retried for non-idempotent
    /// requests (off = set the client's `unsafe_retry_non_idempotent`
    /// hook, resurrecting the at-least-once double-apply bug).
    pub timeout_carveout: bool,
    /// A dying connection aborts its open transactions (off = skip the
    /// [`ConnCore::abort_open_txns`] sweep, leaking validated
    /// transactions and the locks they hold).
    pub abort_on_disconnect: bool,
    /// A commit's WAL record is fsynced before the commit is
    /// acknowledged (off = the server still logs everything but never
    /// flushes at commit time, so a [`Fault::Crash`] tears acked commits
    /// out of the log and the durability oracle catches the lie).
    pub commit_flush: bool,
}

impl Default for Protections {
    fn default() -> Self {
        Protections {
            frame_retention: true,
            timeout_carveout: true,
            abort_on_disconnect: true,
            commit_flush: true,
        }
    }
}

impl Protections {
    /// The production configuration.
    pub fn all_on() -> Protections {
        Protections::default()
    }

    /// Switch one protection off by its CLI name (`frame-retention`,
    /// `timeout-carveout`, `abort-on-disconnect`, `commit-flush`).
    pub fn disable(name: &str) -> Option<Protections> {
        let mut p = Protections::all_on();
        match name {
            "frame-retention" => p.frame_retention = false,
            "timeout-carveout" => p.timeout_carveout = false,
            "abort-on-disconnect" => p.abort_on_disconnect = false,
            "commit-flush" => p.commit_flush = false,
            _ => return None,
        }
        Some(p)
    }

    /// The CLI names [`Protections::disable`] accepts.
    pub const NAMES: [&'static str; 4] = [
        "frame-retention",
        "timeout-carveout",
        "abort-on-disconnect",
        "commit-flush",
    ];
}

/// Server-side receive buffer: bytes the world has delivered but the
/// frame reader has not yet consumed, plus a budget bounding how much a
/// single pump may read before the stream "goes quiet" (`WouldBlock`) —
/// that is what makes a trickled frame straddle poll ticks.
struct RxBuf {
    buf: VecDeque<u8>,
    budget: usize,
}

/// The `Read` half the server's [`FrameReader`] sees.
struct RxHandle(Rc<RefCell<RxBuf>>);

impl Read for RxHandle {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let mut rx = self.0.borrow_mut();
        let n = out.len().min(rx.buf.len()).min(rx.budget);
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "stream quiet"));
        }
        for slot in out.iter_mut().take(n) {
            *slot = rx.buf.pop_front().unwrap();
        }
        rx.budget -= n;
        Ok(n)
    }
}

/// One simulated connection's server side.
struct ServerConn {
    rx: Rc<RefCell<RxBuf>>,
    reader: FrameReader<RxHandle>,
    core: Option<ConnCore>,
    hello_done: bool,
    open: bool,
}

/// One simulated connection's client side.
struct ClientEnd {
    inbox: VecDeque<u8>,
    reset: bool,
}

/// Everything a simulation run shares: the embedded service, every
/// connection's two ends, the pending fault directive, the logical
/// clock, and the journals the oracles read afterwards.
pub struct World {
    service: Option<TxnService>,
    recorder: Recorder,
    obs: ObsSink,
    conns: Vec<ServerConn>,
    clients: Vec<ClientEnd>,
    fault: Option<Fault>,
    protections: Protections,
    clock: u64,
    journal: Vec<String>,
    /// The simulated durable media every service incarnation logs to.
    sim_store: MemStore,
    /// Schema/initial kept so a crash can boot a fresh incarnation.
    schema: Schema,
    initial: UniqueState,
    /// Which certification backend every incarnation runs.
    backend: Backend,
    /// Shard certifiers of every crashed incarnation, in crash order, so
    /// the oracles can account for commits across the whole run.
    epochs: Vec<Vec<Box<dyn Certifier>>>,
    /// Durability-oracle findings (acked commits lost by a crash,
    /// aborted commits resurrected, recovered state diverging).
    durability_violations: Vec<String>,
    /// Crash-restarts executed.
    crashes: usize,
    /// Frame/decode errors the server side hit. The simulator never
    /// corrupts bytes, so with a correct stack this stays empty — any
    /// entry is a reassembly desync (the frame-retention oracle).
    stream_errors: Vec<String>,
    /// Every `(conn, wire txn id)` whose `Commit` the server answered
    /// with `Done` — server ground truth for the outcome-coherence
    /// oracle (a client may never be told such a commit failed).
    acked_commits: BTreeSet<(usize, u64)>,
}

/// Ring capacity for DST recorders: far above what a plan can emit, so
/// `dropped() == 0` holds and the causality oracle never runs blind.
const DST_RING_CAPACITY: usize = 1 << 13;

/// What [`World::finish`] hands the oracles.
pub struct WorldEnd {
    /// The final incarnation's shard certifiers, drained for
    /// verification.
    pub certifiers: Vec<Box<dyn Certifier>>,
    /// Shard certifiers of every crashed incarnation, in crash order.
    pub epochs: Vec<Vec<Box<dyn Certifier>>>,
    /// The shared flight recorder (service + world + clients).
    pub recorder: Recorder,
    /// The world's human-readable fault/delivery journal.
    pub journal: String,
    /// Server-side stream desync records (must be empty when correct).
    pub stream_errors: Vec<String>,
    /// `(conn, wire txn id)` pairs whose commit the server acked.
    pub acked_commits: BTreeSet<(usize, u64)>,
    /// Durability-oracle findings across every crash and the final
    /// graceful shutdown (must be empty when commit flushing is on).
    pub durability_violations: Vec<String>,
    /// Crash-restarts the run executed.
    pub crashes: usize,
}

impl World {
    /// Build the world: a real `TxnService` over [`SHARDS`] shards of
    /// [`ENTITIES_PER_SHARD`] entities each, domain `[0, MAX_VALUE]`,
    /// initial state all zeros, with a generous request timeout so real
    /// machine stalls can never masquerade as injected ones.
    ///
    /// Every incarnation runs with [`Durability::Wal`] over one shared
    /// simulated [`MemStore`], naive (non-group) fsync so sync counts
    /// are a pure function of the plan, and commit-time flushing
    /// following the `commit_flush` protection. Runs the paper's CPC
    /// backend; [`World::new_with_backend`] picks another certifier.
    pub fn new(protections: Protections) -> World {
        World::new_with_backend(protections, Backend::Cpc)
    }

    /// [`World::new`], but every incarnation runs the given
    /// certification backend — same shards, WAL, faults, and oracles.
    pub fn new_with_backend(protections: Protections, backend: Backend) -> World {
        let n = SHARDS * ENTITIES_PER_SHARD;
        let schema = Schema::uniform(
            (0..n).map(|i| format!("e{i}")),
            Domain::Range {
                min: 0,
                max: MAX_VALUE,
            },
        );
        let initial = UniqueState::constant(n, 0);
        let recorder = Recorder::new(DST_RING_CAPACITY);
        let sim_store = MemStore::new();
        let obs = recorder.sink(u32::MAX);
        let mut world = World {
            service: None,
            recorder,
            obs,
            conns: Vec::new(),
            clients: Vec::new(),
            fault: None,
            protections,
            clock: 0,
            journal: Vec::new(),
            sim_store,
            schema,
            initial,
            backend,
            epochs: Vec::new(),
            durability_violations: Vec::new(),
            crashes: 0,
            stream_errors: Vec::new(),
            acked_commits: BTreeSet::new(),
        };
        world.service = Some(TxnService::new(
            world.schema.clone(),
            &world.initial,
            world.service_config(),
        ));
        world
    }

    /// The config every incarnation boots with: same recorder, same
    /// simulated media, commit flushing per the protections.
    fn service_config(&self) -> ServerConfig {
        let media = self.sim_store.clone();
        let mut wal = WalOptions::new(Arc::new(move || {
            Box::new(media.clone()) as Box<dyn SegmentStore>
        }));
        wal.sync_on_commit = self.protections.commit_flush;
        wal.segment_bytes = 1 << 16;
        ServerConfig::builder()
            .shards(SHARDS)
            .backend(self.backend)
            .request_timeout(Duration::from_secs(60))
            .recorder(self.recorder.clone())
            .durability(Durability::Wal(wal))
            .build()
            .expect("static DST config is valid")
    }

    /// The protections this world runs under.
    pub fn protections(&self) -> Protections {
        self.protections
    }

    /// The shared recorder (for trace assembly after the run).
    pub fn recorder(&self) -> Recorder {
        self.recorder.clone()
    }

    /// Arm the fault directive for the next client flush.
    pub fn set_fault(&mut self, fault: Option<Fault>) {
        self.fault = fault;
    }

    /// Disarm an unconsumed directive (the step's op was a no-op), so it
    /// cannot leak onto the next step's request.
    pub fn clear_fault(&mut self) {
        self.fault = None;
    }

    fn note(&mut self, line: String) {
        self.journal.push(format!("t{:04} {line}", self.clock));
    }

    /// Open a new simulated connection; returns its id.
    pub fn connect(&mut self) -> usize {
        let id = self.conns.len();
        let rx = Rc::new(RefCell::new(RxBuf {
            buf: VecDeque::new(),
            budget: 0,
        }));
        self.conns.push(ServerConn {
            reader: FrameReader::new(RxHandle(Rc::clone(&rx))),
            rx,
            core: None,
            hello_done: false,
            open: true,
        });
        self.clients.push(ClientEnd {
            inbox: VecDeque::new(),
            reset: false,
        });
        self.clock += 1;
        self.obs
            .emit_at(self.clock, NO_TXN, ObsKind::ConnOpened { conn: id as u32 });
        self.note(format!("conn {id} opened"));
        id
    }

    /// Reap a connection server-side: run the abort-on-disconnect sweep
    /// (when that protection is on) and drop its session.
    pub fn reap(&mut self, conn: usize, why: &str) {
        if !self.conns[conn].open {
            return;
        }
        self.conns[conn].open = false;
        let mut core = self.conns[conn].core.take();
        let swept = if let Some(core) = core.as_mut() {
            let open = core.open_txns();
            if self.protections.abort_on_disconnect {
                core.abort_open_txns();
            }
            open
        } else {
            0
        };
        drop(core);
        self.clock += 1;
        self.obs.emit_at(
            self.clock,
            NO_TXN,
            ObsKind::ConnClosed { conn: conn as u32 },
        );
        let sweep = if self.protections.abort_on_disconnect {
            "swept"
        } else {
            "LEAKED (abort-on-disconnect off)"
        };
        self.note(format!(
            "conn {conn} closed ({why}); {sweep} {swept} open txns"
        ));
    }

    /// Ids of connections the server still considers open.
    pub fn open_conns(&self) -> Vec<usize> {
        (0..self.conns.len())
            .filter(|&i| self.conns[i].open)
            .collect()
    }

    /// Reap every still-open connection (end of run).
    pub fn reap_all(&mut self) {
        for id in self.open_conns() {
            self.reap(id, "end of run");
        }
    }

    /// A whole-server power cut followed by a restart.
    ///
    /// Order matters: the media crashes *first* (losing a torn,
    /// salt-derived suffix of every segment's unsynced bytes), so the
    /// dying shards' graceful shutdown syncs are no-ops and can never
    /// make the cut look cleaner than it was. Connections vaporize with
    /// no goodbye and *no abort sweep* — a power cut runs nothing. The
    /// dying incarnation's managers are snapshotted for their committed
    /// effects, a fresh incarnation recovers from the log, and any
    /// divergence (acked commit lost, uncommitted txn resurrected,
    /// recovered state off) is recorded for the durability oracle.
    pub fn crash_restart(&mut self, torn_salt: u32) {
        self.crashes += 1;
        self.clock += 1;
        self.note(format!("CRASH: power cut (torn_salt={torn_salt:#010x})"));
        self.sim_store.crash(u64::from(torn_salt));
        for id in 0..self.conns.len() {
            if !self.conns[id].open {
                continue;
            }
            self.conns[id].open = false;
            // Dropped without the abort_open_txns sweep: nothing runs
            // during a power cut.
            self.conns[id].core = None;
            self.clients[id].inbox.clear();
            self.clients[id].reset = true;
            self.clock += 1;
            self.obs
                .emit_at(self.clock, NO_TXN, ObsKind::ConnClosed { conn: id as u32 });
            self.note(format!("conn {id} vaporized by crash"));
        }
        let dying = self
            .service
            .take()
            .expect("crash_restart needs a live service")
            .shutdown();
        let (want_states, want_committed) = committed_snapshot(&dying);
        self.epochs.push(dying);
        self.sim_store.revive();

        let service = TxnService::new(self.schema.clone(), &self.initial, self.service_config());
        let report = service
            .recovery_report()
            .expect("DST services always run with a WAL")
            .clone();
        let got_committed: BTreeSet<(u32, u64)> = report.committed.iter().copied().collect();
        let crash = self.crashes;
        for &(shard, txn) in want_committed.difference(&got_committed) {
            self.durability_violations.push(format!(
                "durability: crash {crash}: acked commit (shard {shard}, txn {txn}) \
                 missing after recovery"
            ));
        }
        for &(shard, txn) in got_committed.difference(&want_committed) {
            self.durability_violations.push(format!(
                "durability: crash {crash}: recovery resurrected (shard {shard}, \
                 txn {txn}) which the dying server did not hold committed"
            ));
        }
        if report.states.as_ref() != Some(&want_states) {
            self.durability_violations.push(format!(
                "durability: crash {crash}: recovered state {:?} != dying committed \
                 effects {want_states:?}",
                report.states
            ));
        }
        self.note(format!(
            "restart: recovered {} committed txns from {} log records{}",
            got_committed.len(),
            report.records,
            report
                .torn
                .as_deref()
                .map(|t| format!(" (torn tail: {t})"))
                .unwrap_or_default()
        ));
        self.service = Some(service);
    }

    /// A client flushed `bytes` (one request frame): apply the armed
    /// fault directive and pump the server side.
    pub fn client_flush(&mut self, conn: usize, bytes: Vec<u8>) {
        self.clock += 1;
        if !self.conns[conn].open {
            // Writing into a severed connection: bytes vanish; the client
            // discovers the failure at its next read.
            self.note(format!("conn {conn}: {} bytes into dead conn", bytes.len()));
            return;
        }
        match self.fault.take() {
            None => self.deliver(conn, &bytes, &[], true),
            Some(Fault::DropRequest) => {
                self.note(format!("conn {conn}: DROPPED request ({}B)", bytes.len()));
            }
            Some(Fault::DropResponse) => {
                self.note(format!("conn {conn}: request delivered, response DROPPED"));
                self.deliver(conn, &bytes, &[], false);
            }
            Some(Fault::DupRequest) => {
                self.note(format!("conn {conn}: request DUPLICATED"));
                self.deliver(conn, &bytes, &[], true);
                if self.conns[conn].open {
                    self.deliver(conn, &bytes, &[], false);
                }
            }
            Some(Fault::Trickle { chunks, salt }) => {
                let cuts = trickle_cuts(salt, chunks, bytes.len());
                self.note(format!(
                    "conn {conn}: request TRICKLED ({}B at cuts {cuts:?})",
                    bytes.len()
                ));
                self.deliver(conn, &bytes, &cuts, true);
            }
            Some(Fault::Starve { ticks }) => {
                // Readiness starvation: the whole frame arrives (the
                // connection is readable) but the event loop does not
                // schedule it — the bytes sit in the receive buffer with
                // no pump while the clock runs, exactly a busy I/O
                // thread servicing other connections. When the loop
                // finally gets to it, the frame must decode intact and
                // the request execute normally.
                self.note(format!(
                    "conn {conn}: request STARVED ({}B readable, unscheduled \
                     for {ticks} ticks)",
                    bytes.len()
                ));
                {
                    let mut rx = self.conns[conn].rx.borrow_mut();
                    rx.buf.extend(&bytes);
                    rx.budget += bytes.len();
                }
                self.clock += u64::from(ticks);
                self.note(format!("conn {conn}: starved bytes finally scheduled"));
                self.pump(conn, true);
            }
            Some(Fault::ServerTimeoutApplied) => {
                self.note(format!(
                    "conn {conn}: request applied, reply replaced by server Timeout"
                ));
                // The forged reply must still correlate with the request
                // it displaces, or the client would rightly discard it.
                let corr = forged_corr(&bytes);
                self.deliver(conn, &bytes, &[], false);
                // Forged frames echo trace 0: the fault injector peeks
                // only the correlation id, and the client ignores the
                // echoed trace anyway.
                self.push_response(conn, corr, 0, &Response::error(&ServerError::Timeout));
            }
            Some(Fault::ServerTimeoutLost) => {
                self.note(format!(
                    "conn {conn}: request shed, server Timeout signalled"
                ));
                let corr = forged_corr(&bytes);
                self.push_response(conn, corr, 0, &Response::error(&ServerError::Timeout));
            }
            Some(Fault::Reset) => {
                self.note(format!("conn {conn}: RESET before delivery"));
                self.reap(conn, "reset");
                self.clients[conn].inbox.clear();
                self.clients[conn].reset = true;
            }
            Some(Fault::Crash { .. }) => {
                // Crashes are step-level events the driver runs *after*
                // the op (see `crash_restart`); one can never be armed as
                // a wire directive. Deliver cleanly if it ever is.
                self.deliver(conn, &bytes, &[], true);
            }
        }
    }

    /// Deliver `bytes` to the server side in chunks split at `cuts`,
    /// pumping the frame reader after each chunk. `keep` controls whether
    /// responses reach the client inbox.
    fn deliver(&mut self, conn: usize, bytes: &[u8], cuts: &[usize], keep: bool) {
        let mut start = 0;
        let bounds: Vec<(usize, usize)> = cuts
            .iter()
            .chain(std::iter::once(&bytes.len()))
            .map(|&end| {
                let seg = (start, end);
                start = end;
                seg
            })
            .collect();
        for (i, (a, b)) in bounds.into_iter().enumerate() {
            if !self.conns[conn].open {
                return;
            }
            {
                let mut rx = self.conns[conn].rx.borrow_mut();
                rx.buf.extend(&bytes[a..b]);
                rx.budget += b - a;
            }
            if i > 0 {
                self.clock += 1;
            }
            self.pump(conn, keep);
        }
    }

    /// Poll the connection's frame reader until the stream goes quiet,
    /// handling every complete frame. This is the simulated counterpart
    /// of the TCP server's reader loop.
    fn pump(&mut self, conn: usize, keep: bool) {
        loop {
            if !self.conns[conn].open {
                return;
            }
            match self.conns[conn].reader.poll_frame() {
                Ok(FrameProgress::Frame(payload)) => self.on_frame(conn, payload, keep),
                Ok(FrameProgress::Pending) | Ok(FrameProgress::Eof) => {
                    if !self.protections.frame_retention {
                        // Resurrected bug: throw the incremental reader
                        // away on every quiet tick, losing any partial
                        // length-prefix/payload progress it held.
                        let rx = Rc::clone(&self.conns[conn].rx);
                        self.conns[conn].reader = FrameReader::new(RxHandle(rx));
                    }
                    return;
                }
                Err(e) => {
                    let desc = format!("conn {conn}: server stream error: {e}");
                    self.note(desc.clone());
                    self.stream_errors.push(desc);
                    self.reap(conn, "stream error");
                    return;
                }
            }
        }
    }

    /// Handle one decoded-or-not frame payload.
    fn on_frame(&mut self, conn: usize, payload: Vec<u8>, keep: bool) {
        let (corr, trace, req) = match wire::decode_request(&payload) {
            Ok(decoded) => decoded,
            Err(e) => {
                let desc = format!("conn {conn}: request decode error: {e}");
                self.note(desc.clone());
                self.stream_errors.push(desc);
                self.reap(conn, "decode error");
                return;
            }
        };
        if !self.conns[conn].hello_done {
            let shards = self.service.as_ref().map_or(0, |s| s.shard_map().shards());
            let backend = self.service.as_ref().map_or(self.backend, |s| s.backend());
            match ks_net::conn::handshake_reply(&req, shards, backend) {
                Ok(resp) => {
                    let session = match self.service.as_ref().map(|s| s.session()) {
                        Some(Ok(session)) => session,
                        Some(Err(e)) => {
                            self.push_response(conn, corr, trace, &Response::error(&e));
                            self.reap(conn, "session refused");
                            return;
                        }
                        None => {
                            self.reap(conn, "service down");
                            return;
                        }
                    };
                    self.conns[conn].core = Some(ConnCore::new(session));
                    self.conns[conn].hello_done = true;
                    self.push_response(conn, corr, trace, &resp);
                }
                Err(resp) => {
                    self.push_response(conn, corr, trace, &resp);
                    self.reap(conn, "bad hello");
                }
            }
            return;
        }
        let commit_id = match &req {
            wire::Request::Commit { txn } => Some(*txn),
            _ => None,
        };
        let action = {
            let service = self.service.as_ref();
            let core = self.conns[conn]
                .core
                .as_mut()
                .expect("post-hello connection has a core");
            core.handle(trace, req, &|| service.map(|s| s.metrics()))
        };
        match action {
            ConnAction::Reply(resp) => {
                if let (Some(id), Response::Done) = (commit_id, &resp) {
                    self.acked_commits.insert((conn, id));
                }
                if keep {
                    self.push_response(conn, corr, trace, &resp);
                } else {
                    self.note(format!("conn {conn}: response swallowed"));
                }
            }
            ConnAction::Bye => {
                self.push_response(conn, corr, trace, &Response::Bye);
                self.reap(conn, "bye");
            }
        }
    }

    /// Frame and enqueue a response for the client to read, echoing the
    /// request's correlation and trace ids.
    fn push_response(&mut self, conn: usize, corr: u64, trace: u64, resp: &Response) {
        let payload = wire::encode_response(corr, trace, resp);
        let inbox = &mut self.clients[conn].inbox;
        inbox.extend((payload.len() as u32).to_le_bytes());
        inbox.extend(&payload);
    }

    /// The client side of `conn` reads from its inbox.
    fn client_read(&mut self, conn: usize, out: &mut [u8]) -> io::Result<usize> {
        let end = &mut self.clients[conn];
        if end.reset {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "simulated connection reset",
            ));
        }
        let n = out.len().min(end.inbox.len());
        if n == 0 {
            // An empty inbox is indistinguishable from a reply that will
            // never come: the read deadline expires.
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "simulated read deadline expired",
            ));
        }
        for slot in out.iter_mut().take(n) {
            *slot = end.inbox.pop_front().unwrap();
        }
        Ok(n)
    }

    /// End the run: reap every connection, shut the service down
    /// gracefully, and hand the oracles the managers, recorder, and
    /// journals. Graceful shutdown always syncs the log, so the final
    /// durability check (media vs managers) holds even with the
    /// commit-flush protection off — only a [`Fault::Crash`] can expose
    /// that hole.
    pub fn finish(mut self) -> WorldEnd {
        self.reap_all();
        let certifiers = self.service.take().expect("finish called once").shutdown();
        let (want_states, want_committed) = committed_snapshot(&certifiers);
        match ks_wal::recover(&self.sim_store) {
            Ok(recovered) => {
                let got: BTreeSet<(u32, u64)> = recovered.committed.iter().copied().collect();
                if got != want_committed || recovered.states.as_ref() != Some(&want_states) {
                    self.durability_violations.push(format!(
                        "durability: graceful shutdown: log replays to \
                         {:?}/{got:?} but the certifiers committed \
                         {want_states:?}/{want_committed:?}",
                        recovered.states
                    ));
                }
            }
            Err(e) => self
                .durability_violations
                .push(format!("durability: end-of-run log unreadable: {e}")),
        }
        WorldEnd {
            certifiers,
            epochs: self.epochs,
            recorder: self.recorder,
            journal: self.journal.join("\n"),
            stream_errors: self.stream_errors,
            acked_commits: self.acked_commits,
            durability_violations: self.durability_violations,
            crashes: self.crashes,
        }
    }
}

/// The committed effects of a dying (or finished) incarnation's shard
/// certifiers: per shard, the latest committed value of every entity (in
/// shard-local entity order — [`Certifier::checkpoint`] is specified to
/// match the WAL checkpoint layout), plus the set of `(shard, txn)` ids
/// the certifiers hold committed. This is exactly what WAL recovery must
/// reproduce, whichever backend produced it.
fn committed_snapshot(certs: &[Box<dyn Certifier>]) -> (Vec<Vec<i64>>, BTreeSet<(u32, u64)>) {
    let mut states = Vec::with_capacity(certs.len());
    let mut committed = BTreeSet::new();
    for (shard, cert) in certs.iter().enumerate() {
        for txn in cert.txns() {
            if cert.state_of(txn) == Ok(TxnState::Committed) {
                committed.insert((shard as u32, txn.0 as u64));
            }
        }
        states.push(cert.checkpoint());
    }
    (states, committed)
}

/// The correlation id to stamp on a forged (fault-injected) reply to the
/// framed request in `bytes`: the id the client is actually awaiting.
/// Frames too mangled to carry one get `u64::MAX`, which the client
/// discards — exactly what a real server would provoke.
fn forged_corr(bytes: &[u8]) -> u64 {
    bytes.get(4..).and_then(wire::peek_corr).unwrap_or(u64::MAX)
}

/// The client-side [`Transport`]: an in-memory link into a shared
/// [`World`]. Writes accumulate until `flush` hands one frame to the
/// world; reads serve the inbox or fail like an expired socket deadline.
pub struct SimLink {
    world: Rc<RefCell<World>>,
    conn: usize,
    out: Vec<u8>,
}

impl SimLink {
    /// Open a fresh simulated connection into `world`.
    pub fn connect(world: &Rc<RefCell<World>>) -> SimLink {
        let conn = world.borrow_mut().connect();
        SimLink {
            world: Rc::clone(world),
            conn,
            out: Vec::new(),
        }
    }

    /// This link's connection id (for reaping after the client side is
    /// dropped or poisoned).
    pub fn conn_id(&self) -> usize {
        self.conn
    }
}

impl Read for SimLink {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        self.world.borrow_mut().client_read(self.conn, out)
    }
}

impl Write for SimLink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.out.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.out.is_empty() {
            let frame = std::mem::take(&mut self.out);
            self.world.borrow_mut().client_flush(self.conn, frame);
        }
        Ok(())
    }
}

impl Transport for SimLink {
    fn set_read_deadline(&mut self, _deadline: Option<Duration>) -> io::Result<()> {
        // The simulated clock decides when a reply is "late": an empty
        // inbox at read time *is* the deadline expiring.
        Ok(())
    }
}
