//! Loopback integration: concurrent TCP connections drive real
//! transactions through a `NetServer`, and after the graceful drain every
//! shard manager still passes the paper's model checker — the wire must
//! not be able to smuggle an incorrect execution past the protocol.

use ks_core::Specification;
use ks_kernel::{Domain, EntityId, Schema, UniqueState};
use ks_net::{NetClientConfig, NetConfig, NetServer, RemoteSession};
use ks_obs::{ObsKind, Recorder};
use ks_predicate::Strategy;
use ks_server::{
    verify_certifiers, Client, Durability, ServerConfig, ServerError, TxnBuilder, TxnService,
    WalOptions,
};
use ks_wal::{MemStore, SegmentStore};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const ENTITIES: usize = 16;
const CLIENTS: usize = 5;
const TXNS_PER_CLIENT: usize = 8;

fn start_server_with(shards: usize, config: NetConfig) -> NetServer {
    let schema = Schema::uniform(
        (0..ENTITIES).map(|i| format!("d{i}")),
        Domain::Range {
            min: i64::MIN / 2,
            max: i64::MAX / 2,
        },
    );
    let initial = UniqueState::constant(ENTITIES, 0);
    let svc = TxnService::new(
        schema,
        &initial,
        ServerConfig {
            shards,
            max_sessions: CLIENTS + 2,
            ..ServerConfig::default()
        },
    );
    NetServer::start(svc, "127.0.0.1:0", config).expect("bind loopback")
}

fn start_server(shards: usize, recorder: Option<Recorder>) -> NetServer {
    start_server_with(
        shards,
        NetConfig {
            recorder,
            ..NetConfig::default()
        },
    )
}

/// The workload body, written once against the trait: it cannot tell a
/// `Session` from a `RemoteSession`.
fn run_one_client<C: Client>(session: &C, client: usize, shards: usize) -> u64 {
    let home = client % shards;
    let per_shard = ENTITIES / shards;
    let mut committed = 0;
    for round in 0..TXNS_PER_CLIENT {
        let entities: Vec<EntityId> = (0..2.min(per_shard))
            .map(|i| EntityId(((i + round) % per_shard * shards + home) as u32))
            .collect();
        let mut sorted = entities.clone();
        sorted.sort_unstable_by_key(|e| e.0);
        sorted.dedup();
        let txn = match session.open(TxnBuilder::new(Specification::unconstrained(&sorted))) {
            Ok(t) => t,
            Err(e) if e.is_retryable() => continue,
            Err(e) => panic!("open: {e}"),
        };
        let step = || -> Result<(), ServerError> {
            session.validate(txn)?;
            for (i, &e) in sorted.iter().enumerate() {
                if i % 2 == 0 {
                    session.write(txn, e, (client * 100 + round) as i64)?;
                } else {
                    session.read(txn, e)?;
                }
            }
            session.commit(txn)
        };
        match step() {
            Ok(()) => committed += 1,
            Err(_) => {
                let _ = session.abort(txn);
            }
        }
    }
    committed
}

/// ≥ 4 concurrent connections, real transactions, graceful shutdown,
/// model check clean.
#[test]
fn concurrent_connections_commit_and_verify_clean() {
    let recorder = Recorder::new(1 << 14);
    let server = start_server(2, Some(recorder.clone()));
    let addr = server.local_addr();
    const { assert!(CLIENTS >= 4, "the test must exercise ≥4 connections") };
    let committed: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let session =
                        RemoteSession::connect(addr, NetClientConfig::default()).expect("connect");
                    assert_eq!(session.shards(), 2, "HelloOk reports the shard count");
                    let n = run_one_client(&session, client, session.shards());
                    session.close().expect("goodbye");
                    n
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert!(committed > 0, "the workload must make progress");
    let report = verify_certifiers(&server.shutdown());
    assert!(report.is_correct(), "{:?}", report.violations);
    assert_eq!(report.committed as u64, committed, "wire loses no commits");
    // Connection lifecycle is observable: one opened/closed pair per
    // client connection.
    let events = recorder.drain();
    let opened = events
        .iter()
        .filter(|e| matches!(e.kind, ObsKind::ConnOpened { .. }))
        .count();
    let closed = events
        .iter()
        .filter(|e| matches!(e.kind, ObsKind::ConnClosed { .. }))
        .count();
    assert_eq!(opened, CLIENTS);
    assert_eq!(closed, CLIENTS);
}

/// Sibling ordering and strategy overrides survive the wire: a `before`
/// edge opened remotely gates the earlier sibling's commit exactly as it
/// does in-process.
#[test]
fn ordering_edges_and_strategy_cross_the_wire() {
    let server = start_server(1, None);
    let addr = server.local_addr();
    let session = RemoteSession::connect(addr, NetClientConfig::default()).expect("connect");
    let e = EntityId(0);
    let early = session
        .open(TxnBuilder::new(Specification::unconstrained(&[e])).strategy(Strategy::GreedyLatest))
        .expect("open early");
    let late = session
        .open(TxnBuilder::new(Specification::unconstrained(&[e])).before(early))
        .expect("open late, ordered before early");
    // `early` may not commit while its predecessor `late` is still live.
    session.validate(early).expect("validate early");
    session.write(early, e, 1).expect("write early");
    match session.commit(early) {
        Err(ServerError::Busy) => {}
        other => panic!("commit before the predecessor finished: {other:?}"),
    }
    session.validate(late).expect("validate late");
    session.commit(late).expect("commit late");
    session.commit(early).expect("commit early after late");
    session.close().expect("goodbye");
    let report = verify_certifiers(&server.shutdown());
    assert!(report.is_correct(), "{:?}", report.violations);
    assert_eq!(report.committed, 2);
}

/// A dropped connection (no Shutdown frame, no aborts) must not wedge the
/// server: its open transactions are aborted by the connection reaper and
/// other clients proceed.
#[test]
fn dropped_connection_releases_its_transactions() {
    let server = start_server(1, None);
    let addr = server.local_addr();
    let e = EntityId(0);
    {
        // This client validates (acquiring R_v locks) and vanishes.
        let session = RemoteSession::connect(addr, NetClientConfig::default()).expect("connect");
        let txn = session
            .open(TxnBuilder::new(Specification::unconstrained(&[e])))
            .unwrap();
        session.validate(txn).unwrap();
        session.write(txn, e, 42).unwrap();
        // Drop without close(): simulates a client crash.
    }
    // Rendezvous with the reaper instead of retrying the whole workload:
    // the server aborts the dead connection's transactions *before* its
    // session drops out of `sessions_in_flight`, so once the survivor
    // observes itself as the only session, the crashed client's locks
    // are provably released and a single attempt must succeed.
    let session = RemoteSession::connect(addr, NetClientConfig::default()).expect("connect");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while session.metrics().expect("metrics").sessions_in_flight > 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "server never reaped the dead connection"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let txn = session
        .open(TxnBuilder::new(Specification::unconstrained(&[e])))
        .unwrap();
    session.validate(txn).expect("validate after reap");
    session.write(txn, e, 7).expect("write after reap");
    session
        .commit(txn)
        .expect("survivor must commit after the crash is reaped");
    session.close().expect("goodbye");
    let report = verify_certifiers(&server.shutdown());
    assert!(report.is_correct(), "{:?}", report.violations);
}

/// A frame that straddles the server's read-timeout poll interval —
/// trickled in chunks split inside the length prefix *and* inside the
/// payload, with pauses several poll ticks long — must be reassembled,
/// not desynchronized: the reader retains partial-frame progress across
/// its stop-flag checks instead of restarting the frame from scratch.
#[test]
fn slow_frames_straddling_the_poll_interval_stay_in_sync() {
    use ks_net::wire::{self, Request, Response, HELLO_MAGIC};
    use std::io::Write as _;
    use std::time::Duration;

    let poll = Duration::from_millis(10);
    let server = start_server_with(
        1,
        NetConfig {
            poll_interval: poll,
            ..NetConfig::default()
        },
    );
    let addr = server.local_addr();
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    // Handshake, whole frames.
    wire::write_frame(
        &mut stream,
        &wire::encode_request(0, 0, &Request::Hello { magic: HELLO_MAGIC }),
    )
    .unwrap();
    let hello_ok = wire::read_frame(&mut reader).unwrap().expect("HelloOk");
    assert!(matches!(
        wire::decode_response(&hello_ok),
        Ok((0, 0, Response::HelloOk { .. }))
    ));
    // Trickle an Open frame: 2 bytes of the length prefix, then a sliver
    // spanning the prefix/payload boundary, then the rest — each chunk
    // separated by several poll ticks (derived from the configured
    // interval, so the pause stays meaningful if the interval changes).
    let payload = wire::encode_request(
        1,
        0,
        &Request::Open {
            spec: Specification::unconstrained(&[EntityId(0)]),
            after: vec![],
            before: vec![],
            strategy: None,
            backend: None,
        },
    );
    let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&payload);
    for chunk in [&framed[..2], &framed[2..7], &framed[7..]] {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(poll * 4);
    }
    let reply = wire::read_frame(&mut reader).unwrap().expect("reply");
    match wire::decode_response(&reply) {
        Ok((1, 0, Response::Opened { txn })) => assert_eq!(txn, 0),
        other => panic!("stream desynchronized: {other:?}"),
    }
    // The stream is still in sync: ordinary frames keep round-tripping,
    // each reply echoing its request's correlation id.
    for (corr, req) in [
        (2, Request::Validate { txn: 0 }),
        (3, Request::Commit { txn: 0 }),
    ] {
        wire::write_frame(&mut stream, &wire::encode_request(corr, 0, &req)).unwrap();
        let reply = wire::read_frame(&mut reader).unwrap().expect("reply");
        match wire::decode_response(&reply) {
            Ok((c, 0, Response::Done)) => assert_eq!(c, corr, "{req:?} reply corr"),
            other => panic!("{req:?} after the trickled frame: {other:?}"),
        }
    }
    wire::write_frame(&mut stream, &wire::encode_request(4, 0, &Request::Shutdown)).unwrap();
    let bye = wire::read_frame(&mut reader).unwrap().expect("Bye");
    assert!(matches!(
        wire::decode_response(&bye),
        Ok((4, 0, Response::Bye))
    ));
    let report = verify_certifiers(&server.shutdown());
    assert!(report.is_correct(), "{:?}", report.violations);
    assert_eq!(report.committed, 1);
}

/// Metrics cross the wire: the remote snapshot sees the same commits the
/// client made.
#[test]
fn remote_metrics_reflect_the_work() {
    let server = start_server(1, None);
    let addr = server.local_addr();
    let session = RemoteSession::connect(addr, NetClientConfig::default()).expect("connect");
    let e = EntityId(0);
    let txn = session
        .open(TxnBuilder::new(Specification::unconstrained(&[e])))
        .unwrap();
    session.validate(txn).unwrap();
    session.write(txn, e, 9).unwrap();
    session.commit(txn).unwrap();
    let m = session.metrics().expect("metrics over the wire");
    assert_eq!(m.committed, 1);
    assert!(
        m.requests >= 4,
        "define+validate+write+commit: {}",
        m.requests
    );
    assert_eq!(m.sessions_in_flight, 1);
    session.close().expect("goodbye");
    drop(verify_certifiers(&server.shutdown()));
}

/// The server's pool size: one thread per available core, at least two.
fn pool_threads() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get().max(2))
}

/// Durable commits over the network with every pool thread parked: four
/// lock-step connections per pool thread commit at once on one shard of
/// a logged service, so the pool threads all sit in commits' durability
/// waits at the same time, one leading a flush and the rest waiting on
/// it. Each commit is acknowledged, none twice, the server's tally
/// equals the clients', and the history checks clean.
#[test]
fn durable_commits_with_every_pool_thread_parked() {
    const COMMITS: usize = 50;
    let clients = 4 * pool_threads();
    let schema = Schema::uniform(
        (0..clients).map(|i| format!("d{i}")),
        Domain::Range {
            min: 0,
            max: 1 << 20,
        },
    );
    let media = MemStore::new();
    let opts = WalOptions::new(Arc::new(move || {
        Box::new(media.clone()) as Box<dyn SegmentStore>
    }));
    let config = ServerConfig::builder()
        .shards(1)
        .max_sessions(clients + 1)
        .durability(Durability::Wal(opts))
        .build()
        .expect("server config");
    let svc = TxnService::new(schema, &UniqueState::constant(clients, 0), config);
    let server = NetServer::start(svc, "127.0.0.1:0", NetConfig::default()).expect("bind");
    let addr = server.local_addr();
    let start = Barrier::new(clients);
    let acked: usize = std::thread::scope(|scope| {
        let start = &start;
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let session =
                        RemoteSession::connect(addr, NetClientConfig::default()).expect("connect");
                    let e = EntityId(client as u32);
                    start.wait();
                    for round in 0..COMMITS {
                        let txn = session
                            .open(TxnBuilder::new(Specification::unconstrained(&[e])))
                            .expect("open");
                        session.validate(txn).expect("validate");
                        session.write(txn, e, round as i64).expect("write");
                        session
                            .commit(txn)
                            .expect("every durable commit is acknowledged");
                    }
                    session.close().expect("goodbye");
                    COMMITS
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let report = verify_certifiers(&server.shutdown());
    assert!(report.is_correct(), "{:?}", report.violations);
    assert_eq!(
        report.committed, acked,
        "server and clients tally the same commits"
    );
    assert_eq!(acked, clients * COMMITS);
}

/// A peer that floods requests and never reads its replies: the server
/// stops reading it once a reply cannot be flushed, so the peer stalls
/// in TCP backpressure, the server holds at most one unflushed reply for
/// it, and another connection's lock-step calls still finish within
/// their reply deadline.
#[test]
fn a_flooding_peer_that_never_reads_is_held_to_one_reply() {
    use ks_net::wire::{self, Request, HELLO_MAGIC};
    use ks_net::MAX_FRAME;
    use std::io::Write as _;

    let server = start_server(1, None);
    let addr = server.local_addr();
    let flooder = std::net::TcpStream::connect(addr).expect("connect");
    flooder
        .set_write_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut hello = Vec::new();
    wire::write_frame(
        &mut hello,
        &wire::encode_request(0, 0, &Request::Hello { magic: HELLO_MAGIC }),
    )
    .unwrap();
    (&flooder).write_all(&hello).expect("hello");
    let mut chunk = Vec::new();
    for corr in 1..=1024 {
        wire::write_frame(
            &mut chunk,
            &wire::encode_request(corr, 0, &Request::Metrics),
        )
        .unwrap();
    }
    // Flood until the server stops reading: a write times out after the
    // server has held a reply back. Far more than any socket buffers if
    // it never does.
    let cap: usize = 256 << 20;
    let mut sent = 0;
    let stalled = loop {
        let wrote = (&flooder).write_all(&chunk);
        if wrote.is_err() && server.reply_backlog_peak() > 0 {
            break true;
        }
        sent += chunk.len();
        if sent > cap {
            break false;
        }
    };
    assert!(stalled, "the server never stopped reading the flooder");

    let session = RemoteSession::connect(
        addr,
        NetClientConfig {
            request_deadline: Duration::from_secs(2),
            ..NetClientConfig::default()
        },
    )
    .expect("connect beside the flooder");
    let e = EntityId(0);
    for round in 0..50 {
        let txn = session
            .open(TxnBuilder::new(Specification::unconstrained(&[e])))
            .expect("open");
        session.validate(txn).expect("validate");
        session.write(txn, e, round).expect("write");
        session.commit(txn).expect("commit");
        session.metrics().expect("metrics");
    }
    session.close().expect("goodbye");

    let peak = server.reply_backlog_peak();
    assert!(
        (1..=MAX_FRAME).contains(&peak),
        "server-side reply backlog peaked at {peak} bytes"
    );
    drop(flooder);
    let report = verify_certifiers(&server.shutdown());
    assert!(report.is_correct(), "{:?}", report.violations);
    assert_eq!(report.committed, 50);
}

/// A connection that never says Hello is closed once the handshake
/// deadline (5 s) passes, while a connection that did say Hello stays.
#[test]
fn a_silent_connection_is_closed_at_the_handshake_deadline() {
    use std::io::Read as _;

    let server = start_server(1, None);
    let addr = server.local_addr();
    let silent = std::net::TcpStream::connect(addr).expect("connect");
    let session = RemoteSession::connect(addr, NetClientConfig::default()).expect("connect");
    silent
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let opened = std::time::Instant::now();
    let mut byte = [0u8; 1];
    let n = (&silent).read(&mut byte).unwrap_or(0);
    let waited = opened.elapsed();
    assert_eq!(
        n, 0,
        "the server closes a silent connection without a reply"
    );
    assert!(
        (Duration::from_secs(4)..Duration::from_secs(20)).contains(&waited),
        "closed after {waited:?}"
    );
    session
        .metrics()
        .expect("the greeted connection is still served");
    session.close().expect("goodbye");
    drop(verify_certifiers(&server.shutdown()));
}
