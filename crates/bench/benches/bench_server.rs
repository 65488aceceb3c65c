//! Criterion: the serving layer's scaling claim — the same 8-client
//! closed-loop workload completes faster when entities are spread over
//! more shard workers, because each shard's protocol manager decides
//! independently.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ks_core::Specification;
use ks_kernel::{Domain, EntityId, Schema, UniqueState};
use ks_server::{Client, MetricsSnapshot, ServerConfig, ServerError, TxnBuilder, TxnService};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};

const CLIENTS: usize = 8;
const ENTITIES: usize = 32;
const TXNS_PER_CLIENT: usize = 4;

/// One full service lifetime: start, run the closed loop, shut down.
/// Returns the commit count so the work can't be optimized away.
fn run_service(shards: usize) -> u64 {
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
            max_sessions: CLIENTS,
            ..ServerConfig::default()
        },
    );
    let shards = svc.shard_map().shards();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let svc = &svc;
            scope.spawn(move || {
                let session = svc.session().unwrap();
                let home = client % shards;
                let entities: Vec<EntityId> = (0..ENTITIES / shards)
                    .map(|i| EntityId((i * shards + home) as u32))
                    .collect();
                for round in 0..TXNS_PER_CLIENT {
                    let spec = Specification::unconstrained(&entities);
                    let txn = session.open(TxnBuilder::new(spec)).unwrap();
                    loop {
                        match session.validate(txn) {
                            Ok(()) => break,
                            Err(ServerError::Busy) | Err(ServerError::Backpressure) => {
                                std::thread::yield_now()
                            }
                            Err(e) => panic!("validate: {e}"),
                        }
                    }
                    let mut doomed = false;
                    for (i, &e) in entities.iter().enumerate() {
                        let value = (client * 1000 + round * 10 + i) as i64;
                        match session.write(txn, e, value) {
                            Ok(()) => {}
                            Err(ServerError::ReEvalAborted) => {
                                session.abort(txn).unwrap();
                                doomed = true;
                                break;
                            }
                            Err(e) => panic!("write: {e}"),
                        }
                    }
                    if !doomed {
                        match session.commit(txn) {
                            Ok(()) | Err(ServerError::ReEvalAborted) => {}
                            Err(e) => panic!("commit: {e}"),
                        }
                    }
                }
            });
        }
    });
    let snap = svc.metrics();
    // One snapshot per shard count, in the columnar format shared with
    // `ks-top` (criterion runs this closure many times; print only the
    // first).
    static HEADER_SHOWN: AtomicBool = AtomicBool::new(false);
    if !HEADER_SHOWN.swap(true, Ordering::Relaxed) {
        eprintln!("{}", MetricsSnapshot::header());
        eprintln!("{snap}");
    }
    let committed = snap.committed;
    drop(svc.shutdown());
    committed
}

fn bench_server(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_closed_loop");
    for shards in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            b.iter(|| black_box(run_service(shards)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_server);
criterion_main!(benches);
