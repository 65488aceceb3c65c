//! End-to-end distributed tracing over a real loopback socket: a
//! 4-shard WAL-backed server and a sampling client share one flight
//! recorder, and the wire's `TraceExport` endpoint must hand back span
//! events that stitch into a single-rooted tree covering every pipeline
//! hop — client send, connection handler, shard queue, execute,
//! certifier decision, WAL group commit — with per-hop latency
//! attribution that adds up to the measured request latency. The same
//! connection's `Telemetry` endpoint must expose enough windowed state
//! to detect an SLO breach from deltas alone.

use ks_core::Specification;
use ks_kernel::{Domain, EntityId, Schema, UniqueState};
use ks_net::{NetClientConfig, NetConfig, NetServer, RemoteSession};
use ks_obs::{stitch_traces, ObsEvent, ObsKind, OpCode, Recorder, SloSpec, SpanHop, TraceTree};
use ks_server::{Client, Durability, ServerConfig, TxnBuilder, TxnService, WalOptions};
use ks_wal::{MemStore, SegmentStore};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const ENTITIES: usize = 16;

/// A 4-shard WAL-durable server whose service, net layer, and (later)
/// client all share `recorder` — one clock, so cross-hop interval
/// arithmetic is meaningful and the server's trace export carries the
/// client-side `Request` hop too.
fn start_traced_server(recorder: &Recorder) -> NetServer {
    let schema = Schema::uniform(
        (0..ENTITIES).map(|i| format!("d{i}")),
        Domain::Range {
            min: i64::MIN / 2,
            max: i64::MAX / 2,
        },
    );
    let media = MemStore::default();
    let opts = WalOptions::new(Arc::new(move || {
        Box::new(media.clone()) as Box<dyn SegmentStore>
    }));
    let config = ServerConfig::builder()
        .shards(SHARDS)
        .durability(Durability::Wal(opts))
        .recorder(recorder.clone())
        .build()
        .expect("server config");
    let svc = TxnService::new(schema, &UniqueState::constant(ENTITIES, 0), config);
    NetServer::start(
        svc,
        "127.0.0.1:0",
        NetConfig {
            recorder: Some(recorder.clone()),
            ..NetConfig::default()
        },
    )
    .expect("bind loopback")
}

fn traced_client(addr: std::net::SocketAddr, recorder: &Recorder) -> RemoteSession {
    RemoteSession::connect(
        addr,
        NetClientConfig {
            recorder: Some(recorder.clone()),
            trace_sample: 1.0,
            ..NetClientConfig::default()
        },
    )
    .expect("connect")
}

/// Commit one single-entity transaction; panics on any error.
fn commit_one(session: &RemoteSession, entity: EntityId, value: i64) {
    let txn = session
        .open(TxnBuilder::new(Specification::unconstrained(&[entity])))
        .expect("open");
    session.validate(txn).expect("validate");
    session.write(txn, entity, value).expect("write");
    session.commit(txn).expect("commit");
}

/// Page the server's trace export to exhaustion from `cursor`, asserting
/// the cursor advances monotonically and no event is served twice.
fn drain_export(session: &RemoteSession, mut cursor: u64, page: u32) -> (u64, Vec<ObsEvent>) {
    let mut all = Vec::new();
    let mut seen = std::collections::HashSet::new();
    // Telemetry pulls are untraced (the observability plane must not
    // observe itself), so paging reaches a genuinely empty page instead
    // of chasing its own spans forever. The bound is a tripwire for that
    // property regressing.
    for _ in 0..10_000 {
        let (next, events) = session.trace_export(cursor, page).expect("trace export");
        assert!(next >= cursor, "cursor must never move backwards");
        assert!(events.len() <= page as usize, "page size is a hard cap");
        if events.is_empty() {
            assert_eq!(next, cursor, "an empty page must not advance the cursor");
            return (cursor, all);
        }
        for ev in &events {
            let key = match ev.kind {
                ObsKind::SpanStart { hop, trace, .. } => (trace, hop.code(), true),
                ObsKind::SpanEnd { hop, trace, .. } => (trace, hop.code(), false),
                other => panic!("trace export must only carry span events, got {other:?}"),
            };
            assert!(seen.insert(key), "event served twice across pages: {ev:?}");
        }
        all.extend(events);
        cursor = next;
    }
    panic!("trace export never drained: the endpoint is feeding itself");
}

/// The well-formed commit trees in `events`: single `Request` root with
/// `op == Commit`, every span closed.
fn commit_trees(events: &[ObsEvent]) -> Vec<TraceTree> {
    stitch_traces(events)
        .into_iter()
        .filter(|t| {
            t.is_well_formed()
                && t.root()
                    .is_some_and(|r| r.hop == SpanHop::Request && r.op == Some(OpCode::Commit))
        })
        .collect()
}

/// The tentpole acceptance path: a commit's exported trace covers every
/// hop from client send to WAL fsync to client receive, and the per-hop
/// self times sum to the measured request latency.
#[test]
fn exported_commit_trace_covers_every_hop_and_latency_adds_up() {
    let recorder = Recorder::new(1 << 16);
    let server = start_traced_server(&recorder);
    let session = traced_client(server.local_addr(), &recorder);

    // Warm every shard so the measured commit below hits a running
    // pipeline, not cold worker threads.
    for i in 0..2 * SHARDS {
        commit_one(&session, EntityId((i % ENTITIES) as u32), i as i64);
    }

    // Advance the export cursor past the warmup so the measured commit's
    // events are isolated in the next drain. Small pages exercise paging.
    let (cursor, warmup) = drain_export(&session, 0, 16);
    assert!(
        !warmup.is_empty(),
        "warmup commits at sampling 1.0 must export span events"
    );

    // Time the commit request alone: the exported tree roots at the
    // commit exchange, so that is the latency the hop breakdown must
    // account for.
    let txn = session
        .open(TxnBuilder::new(Specification::unconstrained(&[EntityId(
            3,
        )])))
        .expect("open");
    session.validate(txn).expect("validate");
    session.write(txn, EntityId(3), 42).expect("write");
    let wall = Instant::now();
    session.commit(txn).expect("commit");
    let wall_ns = wall.elapsed().as_nanos() as u64;

    // Pause briefly, then drain everything new since the warmup cursor
    // (every server span of the commit ends before its reply is sent).
    std::thread::sleep(Duration::from_millis(50));
    let (_, fresh) = drain_export(&session, cursor, 4096);

    let trees = commit_trees(&fresh);
    assert_eq!(
        trees.len(),
        1,
        "exactly one commit ran since the cursor; got {} trees from {} events",
        trees.len(),
        fresh.len()
    );
    let tree = &trees[0];

    // Every pipeline hop is present: client send → conn handler → shard
    // queue → execute → certifier decision → WAL fsync.
    let hops = tree.hops();
    for hop in [
        SpanHop::Request,
        SpanHop::ConnHandle,
        SpanHop::Queue,
        SpanHop::Exec,
        SpanHop::Certify,
        SpanHop::WalEnqueue,
        SpanHop::WalBarrier,
        SpanHop::WalFsync,
    ] {
        assert!(hops.contains(&hop), "missing {hop:?} in {}", tree.render());
    }
    let certify = tree
        .spans
        .iter()
        .find(|s| s.hop == SpanHop::Certify)
        .unwrap();
    assert_eq!(certify.ok, Some(true), "the certifier admitted the commit");

    // Per-hop latency attribution: self times sum exactly to the root
    // (the client-measured send→receive interval), and that interval
    // agrees with the wall clock around the call to within 5% plus a
    // fixed scheduling-jitter allowance.
    let self_sum: u64 = tree.hop_latencies().iter().map(|h| h.self_ns).sum();
    let total = tree.total_ns();
    assert_eq!(
        self_sum,
        total,
        "self times must sum to the root duration\n{}",
        tree.render()
    );
    assert!(total > 0, "a real round trip takes time");
    assert!(
        total <= wall_ns,
        "the span ({total} ns) sits inside the wall-clock interval ({wall_ns} ns)"
    );
    let slack = wall_ns / 20 + 250_000;
    assert!(
        wall_ns - total <= slack,
        "span {total} ns vs wall {wall_ns} ns: more than 5% (+250µs jitter) unaccounted"
    );

    session.close().expect("goodbye");
    server.shutdown();
}

/// The `Telemetry` endpoint alone — no shared memory, no recorder access
/// — is enough to reconstruct the series and detect an SLO breach, and
/// pulling the same cursor twice is idempotent.
#[test]
fn slo_breach_is_detectable_from_wire_deltas_alone() {
    let recorder = Recorder::new(1 << 16);
    let server = start_traced_server(&recorder);
    let session = traced_client(server.local_addr(), &recorder);

    for i in 0..8 {
        commit_one(&session, EntityId(i % ENTITIES as u32), i as i64);
    }

    // The series closes a window only once time moves past it; the
    // width is fixed at 1 s, so outlast one window boundary.
    std::thread::sleep(Duration::from_millis(1100));

    let delta = session.telemetry(0).expect("telemetry");
    assert_eq!(delta.width_ns, 1_000_000_000, "1 s windows");
    assert!(
        !delta.windows.is_empty(),
        "the traffic window must have closed and shipped"
    );
    let served: u64 = delta.windows.iter().map(|w| w.requests).sum();
    let committed: u64 = delta.windows.iter().map(|w| w.committed).sum();
    assert!(served >= 8 * 4, "every request lands in a window");
    assert!(committed >= 8, "every commit lands in a window");
    assert!(
        delta.next_seq > delta.windows.last().unwrap().seq,
        "the cursor points past the newest shipped window"
    );

    // Idempotent pulls: the same cursor yields the same closed windows.
    let again = session.telemetry(0).expect("telemetry");
    assert_eq!(again.windows[0], delta.windows[0]);

    // Declarative SLO checks run on the wire-shipped windows. Loopback
    // commits take well over a nanosecond, so a 1 ns p99 must breach;
    // a one-minute budget must not.
    let strict = SloSpec::parse("p99<=1ns@1s").unwrap();
    let breaches = strict.check(&delta.windows);
    assert!(
        !breaches.is_empty(),
        "a 1 ns p99 budget must breach: {:?}",
        delta.windows
    );
    assert!(breaches[0].value_ns > 1);
    let lax = SloSpec::parse("p99<=60s@1s").unwrap();
    assert!(
        lax.check(&delta.windows).is_empty(),
        "a 60 s p99 budget must hold on loopback"
    );

    // A cursor past the shipped windows returns nothing old.
    let tail = session.telemetry(delta.next_seq).expect("telemetry");
    assert!(tail.windows.iter().all(|w| w.seq >= delta.next_seq));

    session.close().expect("goodbye");
    server.shutdown();
}
