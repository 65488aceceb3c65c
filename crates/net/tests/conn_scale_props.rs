//! Property tests for poll-loop frame reassembly: the decode path the
//! event-loop server runs — [`FrameState::poll_with`] fed by readiness
//! ticks, payload buffers borrowed from a shared [`BufferPool`] — under
//! adversarial readiness schedules: byte-at-a-time arrival, frames
//! straddling ticks (cuts inside the 4-byte length prefix, the classic
//! desync spot), and many connections interleaved on one thread so
//! each connection's mid-frame state must survive the others' progress.
//! The oracle is the same as `frame_props.rs`: a one-shot decode of each
//! connection's unsplit stream.

use ks_net::poll::BufferPool;
use ks_net::wire::{read_frame, write_frame, FrameProgress, FrameState};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read};

/// A nonblocking-socket stand-in: bytes become readable only as the
/// schedule releases them; reading past what has arrived is
/// `WouldBlock`, and EOF only after the peer closes.
#[derive(Default)]
struct SimSocket {
    arrived: VecDeque<u8>,
    closed: bool,
}

impl SimSocket {
    fn release(&mut self, bytes: &[u8]) {
        self.arrived.extend(bytes);
    }
}

impl Read for SimSocket {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.arrived.is_empty() {
            if self.closed {
                return Ok(0);
            }
            return Err(std::io::Error::new(ErrorKind::WouldBlock, "nothing yet"));
        }
        let n = out.len().min(self.arrived.len());
        for slot in out[..n].iter_mut() {
            *slot = self.arrived.pop_front().unwrap();
        }
        Ok(n)
    }
}

/// One simulated connection on the shared thread: its socket, its
/// retained decode state, its not-yet-released byte stream, and what it
/// has reassembled so far.
struct SimConn {
    socket: SimSocket,
    state: FrameState,
    stream: Vec<u8>,
    sent: usize,
    frames: Vec<Vec<u8>>,
}

impl SimConn {
    fn new(payloads: &[Vec<u8>]) -> Self {
        let mut stream = Vec::new();
        for p in payloads {
            write_frame(&mut stream, p).unwrap();
        }
        SimConn {
            socket: SimSocket::default(),
            state: FrameState::new(),
            stream,
            sent: 0,
            frames: Vec::new(),
        }
    }

    /// The oracle: one-shot decode of the unsplit stream.
    fn expected(&self) -> Vec<Vec<u8>> {
        let mut cursor = std::io::Cursor::new(&self.stream);
        let mut frames = Vec::new();
        while let Some(f) = read_frame(&mut cursor).unwrap() {
            frames.push(f);
        }
        frames
    }

    /// One readiness tick: up to `n` more bytes arrive, then the decode
    /// loop runs until the socket would block — exactly what the
    /// connection's owner does on `EPOLLIN`. Returns decoded-frame payload
    /// buffers to the pool, as the owner does after handling.
    fn tick(&mut self, n: usize, pool: &BufferPool) {
        let n = n.min(self.stream.len() - self.sent);
        self.socket.release(&self.stream[self.sent..self.sent + n]);
        self.sent += n;
        if self.sent == self.stream.len() {
            self.socket.closed = true;
        }
        loop {
            let mut alloc = |len: usize| pool.get(len);
            match self.state.poll_with(&mut self.socket, &mut alloc) {
                Ok(FrameProgress::Frame(payload)) => {
                    self.frames.push(payload.clone());
                    pool.put(payload);
                }
                Ok(FrameProgress::Pending) | Ok(FrameProgress::Eof) => break,
                Err(e) => panic!("well-formed stream failed to decode: {e}"),
            }
        }
    }

    fn done(&self) -> bool {
        self.sent == self.stream.len()
    }
}

/// A pool whose free list starts out full of garbage-filled buffers, so
/// any decode that trusts recycled contents (instead of overwriting
/// every byte) corrupts a frame and fails the oracle comparison.
fn dirty_pool(cap: usize) -> BufferPool {
    let pool = BufferPool::new(cap);
    for _ in 0..cap {
        pool.put(vec![0xAA; 48]);
    }
    pool
}

/// Run `conns` to completion under a schedule of (connection, byte
/// budget) readiness ticks, then compare every connection against its
/// one-shot oracle. Leftover ticks (or starved connections) are topped
/// up round-robin so every stream finishes.
fn run_schedule(mut conns: Vec<SimConn>, schedule: &[(usize, usize)], pool: &BufferPool) {
    for &(c, n) in schedule {
        let c = c % conns.len();
        conns[c].tick(n.max(1), pool);
    }
    while conns.iter().any(|c| !c.done()) {
        for c in &mut conns {
            if !c.done() {
                c.tick(7, pool);
            }
        }
    }
    for (i, conn) in conns.iter().enumerate() {
        assert_eq!(conn.frames, conn.expected(), "connection {i} desynced");
    }
}

/// Mixed-size frames (empty, tiny, bigger-than-read-chunk) for conn `i`,
/// each payload tagged with the connection so cross-connection buffer
/// mixups cannot cancel out.
fn payloads_for(i: u8) -> Vec<Vec<u8>> {
    vec![
        vec![i; 3],
        Vec::new(),
        (0u8..=255).map(|b| b ^ i).collect(),
        vec![i.wrapping_add(1); 37],
    ]
}

/// Byte-at-a-time arrival: a `Pending` tick between every pair of bytes,
/// with the decode state carrying a partial length prefix or payload
/// across every single tick.
#[test]
fn byte_at_a_time_schedule_reassembles() {
    let pool = dirty_pool(4);
    let conns = vec![SimConn::new(&payloads_for(1))];
    let total = conns[0].stream.len();
    let schedule: Vec<(usize, usize)> = (0..total).map(|_| (0, 1)).collect();
    run_schedule(conns, &schedule, &pool);
}

/// Frames straddling ticks at every boundary: for each cut position —
/// including all four length-prefix bytes — the stream arrives in two
/// releases separated by a quiet tick.
#[test]
fn every_frame_straddling_cut_reassembles() {
    let payloads = payloads_for(2);
    let total = SimConn::new(&payloads).stream.len();
    for cut in 1..total {
        let pool = dirty_pool(2);
        let conns = vec![SimConn::new(&payloads)];
        run_schedule(conns, &[(0, cut)], &pool);
    }
}

/// Eight connections interleaved on one simulated thread, each
/// receiving one byte per round-robin turn: every connection's mid-frame
/// state must survive all the others being serviced in between, and the
/// shared pool must hand each decode a buffer the previous user's bytes
/// cannot leak through.
#[test]
fn interleaved_connections_reassemble_independently() {
    let pool = dirty_pool(3);
    let conns: Vec<SimConn> = (0..8).map(|i| SimConn::new(&payloads_for(i))).collect();
    let longest = conns.iter().map(|c| c.stream.len()).max().unwrap();
    let mut schedule = Vec::new();
    for _ in 0..longest {
        for c in 0..8 {
            schedule.push((c, 1));
        }
    }
    run_schedule(conns, &schedule, &pool);
}

proptest! {
    /// Arbitrary frame mixes over arbitrary interleavings: any number of
    /// connections, any readiness order, any tick granularity — all
    /// streams reassemble to their one-shot oracle through one shared
    /// (pre-dirtied, recycling) pool.
    #[test]
    fn adversarial_schedules_reassemble(
        per_conn in prop::collection::vec(
            prop::collection::vec(
                prop::collection::vec(any::<u8>(), 0..48), 0..5),
            1..6),
        schedule in prop::collection::vec((any::<usize>(), 1usize..13), 0..200),
        pool_cap in 0usize..5,
    ) {
        let pool = dirty_pool(pool_cap);
        let conns: Vec<SimConn> =
            per_conn.iter().map(|p| SimConn::new(p)).collect();
        run_schedule(conns, &schedule, &pool);
    }
}

// ---------------------------------------------------------------------
// The same adversarial shapes against the real server
// ---------------------------------------------------------------------

mod live {
    use ks_kernel::{Domain, Schema, UniqueState};
    use ks_net::wire::{self, Request, Response, HELLO_MAGIC};
    use ks_net::{NetConfig, NetServer};
    use ks_server::{ServerConfig, TxnService};
    use std::io::Write as _;

    /// Eight real sockets on one server, every client's pipelined frames
    /// trickled one byte per round-robin turn (so every frame of every
    /// connection straddles many readiness events, interleaved with all
    /// the others and landing on whichever pool thread is free): each
    /// connection must get exactly its own replies, in order, with its
    /// own correlation ids.
    #[test]
    fn trickled_clients_get_their_own_replies_in_order() {
        const CLIENTS: usize = 8;
        const REQUESTS: u64 = 3;
        let schema = Schema::uniform(
            (0..4).map(|i| format!("d{i}")),
            Domain::Range { min: 0, max: 100 },
        );
        let svc = TxnService::new(
            schema,
            &UniqueState::constant(4, 0),
            ServerConfig {
                max_sessions: CLIENTS + 1,
                ..ServerConfig::default()
            },
        );
        let server = NetServer::start(
            svc,
            "127.0.0.1:0",
            NetConfig {
                poll_interval: std::time::Duration::from_millis(5),
                ..NetConfig::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr();

        // Build each client's whole pipelined byte stream up front:
        // Hello, then `REQUESTS` Metrics requests with client-tagged
        // correlation ids.
        let mut streams: Vec<Vec<u8>> = (0..CLIENTS as u64)
            .map(|c| {
                let mut s = Vec::new();
                wire::write_frame(
                    &mut s,
                    &wire::encode_request(c << 32, 0, &Request::Hello { magic: HELLO_MAGIC }),
                )
                .unwrap();
                for r in 1..=REQUESTS {
                    wire::write_frame(
                        &mut s,
                        &wire::encode_request((c << 32) | r, 0, &Request::Metrics),
                    )
                    .unwrap();
                }
                s
            })
            .collect();

        let socks: Vec<std::net::TcpStream> = (0..CLIENTS)
            .map(|_| {
                let s = std::net::TcpStream::connect(addr).expect("connect");
                s.set_nodelay(true).unwrap();
                s
            })
            .collect();

        // Trickle: one byte from each client per turn, a pause every few
        // turns so the server's event loop observes genuinely partial
        // frames rather than coalesced reads.
        let longest = streams.iter().map(Vec::len).max().unwrap();
        for turn in 0..longest {
            for (sock, stream) in socks.iter().zip(&streams) {
                if let Some(&b) = stream.get(turn) {
                    (&*sock).write_all(&[b]).unwrap();
                }
            }
            if turn % 5 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(300));
            }
        }
        streams.clear();

        // Every client reads back exactly its replies, in its order.
        for (c, sock) in socks.iter().enumerate() {
            let c = c as u64;
            let mut reader = std::io::BufReader::new(sock);
            let hello = wire::read_frame(&mut reader).unwrap().expect("HelloOk");
            match wire::decode_response(&hello) {
                Ok((corr, 0, Response::HelloOk { .. })) => assert_eq!(corr, c << 32),
                other => panic!("client {c}: bad handshake reply: {other:?}"),
            }
            for r in 1..=REQUESTS {
                let frame = wire::read_frame(&mut reader).unwrap().expect("reply");
                match wire::decode_response(&frame) {
                    Ok((corr, 0, Response::Metrics(_))) => {
                        assert_eq!(corr, (c << 32) | r, "client {c} reply {r} out of order");
                    }
                    other => panic!("client {c} reply {r}: {other:?}"),
                }
            }
        }
        drop(socks);
        drop(server.shutdown());
    }
}
