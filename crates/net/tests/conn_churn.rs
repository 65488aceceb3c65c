//! Connection-churn hygiene: the event-loop server must shed every
//! per-connection resource when a connection goes away. Waves of
//! short-lived connections open, handshake, and vanish; afterwards the
//! process file-descriptor count, the server's poller registrations,
//! and the ConnOpened/ConnClosed observability ledger must all return
//! to baseline — a leaked epoll registration, socket fd, or registry
//! entry shows up as a monotonically growing count long before 10k
//! connections would make it fatal. The same test then shuts the server
//! down and holds the OS thread count to its pre-start baseline, which
//! is what catches a server that spawns threads it never reaps (the
//! old thread-per-connection design leaked exited handler JoinHandles
//! until shutdown; a pooled design must not leak anything at all).

use ks_kernel::{Domain, Schema, UniqueState};
use ks_net::poll::fd_count;
use ks_net::wire::{self, Request, Response, HELLO_MAGIC};
use ks_net::{NetConfig, NetServer};
use ks_obs::{ObsKind, Recorder};
use ks_server::{ServerConfig, TxnService};
use std::io::{BufReader, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const WAVES: usize = 10;
const CONNS_PER_WAVE: usize = 100;

/// Current open-fd count of this process.
fn fds() -> usize {
    fd_count().expect("/proc/self/fd readable")
}

/// Current OS thread count of this process (the `Threads:` line of
/// `/proc/self/status`).
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line present")
}

/// Wait (bounded) until `probe` reports success; returns whether it did.
/// Resource release lags the client-side drop — the server has to
/// observe the EOF, sweep the session, and deregister — so every
/// baseline comparison polls instead of asserting instantly.
fn wait_for(deadline: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    loop {
        if probe() {
            return true;
        }
        if start.elapsed() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn churn_waves_leak_nothing_and_shutdown_restores_thread_baseline() {
    let threads_before_server = thread_count();

    let schema = Schema::uniform(
        (0..4).map(|i| format!("d{i}")),
        Domain::Range { min: 0, max: 100 },
    );
    let svc = TxnService::new(
        schema,
        &UniqueState::constant(4, 0),
        ServerConfig {
            max_sessions: CONNS_PER_WAVE + 8,
            ..ServerConfig::default()
        },
    );
    let recorder = Recorder::new(1 << 14);
    let server = NetServer::start(
        svc,
        "127.0.0.1:0",
        NetConfig {
            recorder: Some(recorder.clone()),
            poll_interval: Duration::from_millis(5),
            ..NetConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // Baseline after the server is up: listener, epoll fds, eventfds,
    // and the thread pool are all part of steady state, not leakage.
    let fd_baseline = fds();

    for wave in 0..WAVES {
        let socks: Vec<TcpStream> = (0..CONNS_PER_WAVE)
            .map(|i| {
                let s = TcpStream::connect(addr).expect("connect");
                s.set_nodelay(true).unwrap();
                let mut frame = Vec::new();
                wire::write_frame(
                    &mut frame,
                    &wire::encode_request(i as u64, 0, &Request::Hello { magic: HELLO_MAGIC }),
                )
                .unwrap();
                (&s).write_all(&frame).unwrap();
                s
            })
            .collect();
        // Every connection completes its handshake (so each one holds a
        // real session server-side, the heaviest per-connection state).
        for (i, sock) in socks.iter().enumerate() {
            let mut reader = BufReader::new(sock);
            let reply = wire::read_frame(&mut reader).unwrap().expect("HelloOk");
            match wire::decode_response(&reply) {
                Ok((corr, 0, Response::HelloOk { .. })) => assert_eq!(corr, i as u64),
                other => panic!("wave {wave} conn {i}: bad handshake reply: {other:?}"),
            }
        }
        drop(socks);
        // The wave must fully drain before the next starts: connections,
        // sessions, and poller registrations (one per open connection) all
        // back to zero.
        assert!(
            wait_for(Duration::from_secs(10), || server.connections() == 0),
            "wave {wave}: {} connections still alive",
            server.connections()
        );
    }

    // File descriptors return to the post-start baseline: no leaked
    // sockets, no leaked epoll registrations holding fds alive.
    assert!(
        wait_for(Duration::from_secs(10), || fds() <= fd_baseline),
        "fd count {} never returned to baseline {} after {} churned connections",
        fds(),
        fd_baseline,
        WAVES * CONNS_PER_WAVE
    );

    // The observability ledger balances: every accepted connection
    // emitted exactly one ConnOpened and one ConnClosed.
    let events = recorder.drain();
    let opened = events
        .iter()
        .filter(|e| matches!(e.kind, ObsKind::ConnOpened { .. }))
        .count();
    let closed = events
        .iter()
        .filter(|e| matches!(e.kind, ObsKind::ConnClosed { .. }))
        .count();
    assert_eq!(opened, WAVES * CONNS_PER_WAVE, "ConnOpened count off");
    assert_eq!(closed, WAVES * CONNS_PER_WAVE, "ConnClosed count off");

    // Graceful shutdown reaps every thread the server ever started —
    // the pool, and anything per-connection.
    drop(server.shutdown());
    assert!(
        wait_for(Duration::from_secs(10), || thread_count()
            <= threads_before_server),
        "thread count {} never returned to pre-server baseline {}",
        thread_count(),
        threads_before_server
    );
}
