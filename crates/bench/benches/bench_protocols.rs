//! Criterion: scheduler overhead end-to-end — one workload, four
//! schedulers (the Section 2.4 comparison as a throughput bench).

use criterion::{criterion_group, criterion_main, Criterion};
use ks_baselines::{MultiversionTimestampOrdering, TimestampOrdering};
use ks_bench::{bridged_2pl, bridged_cpc};
use ks_sim::{Engine, EngineConfig, Workload, WorkloadSpec};
use std::hint::black_box;

fn workload(think: u64) -> Workload {
    Workload::generate(WorkloadSpec {
        num_txns: 16,
        ops_per_txn: 8,
        num_entities: 32,
        read_pct: 60,
        think_time: think,
        hot_fraction_pct: 25,
        hot_access_pct: 75,
        arrival_spread: 10,
        chain_length: 1,
        seed: 7,
    })
}

fn bench_protocols(c: &mut Criterion) {
    for think in [5u64, 50] {
        let w = workload(think);
        let mut group = c.benchmark_group(format!("schedulers_think{think}"));
        group.bench_function("strict_2pl", |b| {
            b.iter(|| {
                black_box(
                    Engine::new(&w, bridged_2pl(&w), EngineConfig::default())
                        .run()
                        .0,
                )
            })
        });
        group.bench_function("timestamp_ordering", |b| {
            b.iter(|| {
                black_box(
                    Engine::new(&w, TimestampOrdering::new(), EngineConfig::default())
                        .run()
                        .0,
                )
            })
        });
        group.bench_function("mvto", |b| {
            b.iter(|| {
                black_box(
                    Engine::new(
                        &w,
                        MultiversionTimestampOrdering::new(),
                        EngineConfig::default(),
                    )
                    .run()
                    .0,
                )
            })
        });
        group.bench_function("ks_protocol", |b| {
            b.iter(|| {
                black_box(
                    Engine::new(&w, bridged_cpc(&w), EngineConfig::default())
                        .run()
                        .0,
                )
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_protocols);
criterion_main!(benches);
