//! `wal-load`: what the commit flusher charges a lone committer and
//! what concurrent committers share.
//!
//! Closed-loop clients drive the sharded `TxnService` with the WAL on.
//! A commit becomes durable one way only: the worker parks a ticket, the
//! flusher thread batches the tickets of a short window behind one fsync
//! and acknowledges them all — and skips the window when no other
//! session is open. The two things to check are the ends, on a store
//! whose sync latency is known (`SlowSync`: a `MemStore` taking
//! `SLOW_SYNC` per sync):
//!
//! * **1 client**: `fsync_per_commit` within 5 % of 1.0 and a median
//!   commit latency under 2 × `SLOW_SYNC` — a lone committer pays for
//!   its own sync and waits for nobody;
//! * **8 clients**: `fsync_per_commit` at most half the 1-client figure
//!   — concurrent committers share syncs.
//!
//! The same 8 clients also run over a plain `MemStore` and the real
//! `FileStore`; those rows are recorded, not gated (their sync latency
//! is whatever the machine gives). `fsync_per_commit` is total
//! durability barriers over committed transactions, read from the
//! service's live [`WalStats`](ks_wal::WalStats) after the clients
//! drain. The verdict lands in `BENCH_wal.json` (`gate.pass`) and a
//! failed one exits 1, which fails `scripts/check.sh`; the injected
//! latency dwarfs scheduling noise, so smoke runs carry it too.

use ks_bench::driver::{
    bench_service, drive_client, fan_out, micros, percentile, DriverConfig, Run,
};
use ks_bench::report::{write_report, Json};
use ks_server::{verify_certifiers, Durability, ServerConfig, StoreFactory, WalOptions};
use ks_wal::{FileStore, MemStore, SegmentStore};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 8;
/// Shard count: the WAL (and its flusher) is shared across shards, so
/// commits batch globally regardless. Four shards keep the protocol
/// layer fast enough at full size that a transaction stays well under
/// `SLOW_SYNC` — a single manager degrades with transaction count
/// (validate cost grows with history: `certifier.validate_growth` in
/// `benchmark/`) until commits arrive too sparsely to share a sync,
/// which would measure manager aging, not batching.
const SHARDS: usize = 4;
/// Wide enough that the full run's version chains stay shallow: 1600
/// transactions × ~2.4 writes over 128 entities is ~30 versions/entity.
const TOTAL_ENTITIES: usize = 128;
/// Per-client transaction count (smoke / full).
const TXNS_SMOKE: usize = 40;
const TXNS_FULL: usize = 200;
/// Injected sync latency of the `slow` rows.
const SLOW_SYNC: Duration = Duration::from_millis(2);
/// A lone committer's `fsync_per_commit` must be within this of 1.0.
const LONE_TOLERANCE: f64 = 0.05;
/// A lone committer's median commit latency, in units of `SLOW_SYNC`.
const LONE_LATENCY_GATE: f64 = 2.0;
/// Eight committers' `fsync_per_commit` over the lone committer's.
const SHARED_GATE: f64 = 0.5;

/// Test double: a disk with a known fsync latency.
struct SlowSync(MemStore);

impl SegmentStore for SlowSync {
    fn create(&mut self, id: u64) -> io::Result<()> {
        self.0.create(id)
    }
    fn append(&mut self, id: u64, bytes: &[u8]) -> io::Result<()> {
        self.0.append(id, bytes)
    }
    fn sync(&mut self, id: u64) -> io::Result<()> {
        std::thread::sleep(SLOW_SYNC);
        self.0.sync(id)
    }
    fn list(&self) -> io::Result<Vec<u64>> {
        self.0.list()
    }
    fn len(&self, id: u64) -> io::Result<u64> {
        self.0.len(id)
    }
    fn read(&self, id: u64) -> io::Result<Vec<u8>> {
        self.0.read(id)
    }
    fn remove(&mut self, id: u64) -> io::Result<()> {
        self.0.remove(id)
    }
}

struct RunResult {
    store: &'static str,
    clients: usize,
    run: Run,
    fsyncs: u64,
    violations: usize,
}

impl RunResult {
    fn fsync_per_commit(&self) -> f64 {
        self.fsyncs as f64 / (self.run.outcome.committed.max(1)) as f64
    }

    /// Exact percentile of the clients' commit-call latencies, in µs.
    fn commit_us(&self, p: f64) -> f64 {
        micros(percentile(&self.run.outcome.commit_latencies, p))
    }
}

/// A fresh in-memory log, optionally behind the slow-sync double.
fn mem_store(slow: bool) -> StoreFactory {
    let store = MemStore::new();
    Arc::new(move || {
        if slow {
            Box::new(SlowSync(store.clone())) as Box<dyn SegmentStore>
        } else {
            Box::new(store.clone())
        }
    })
}

/// A file log in `target/wal_bench/`, wiped first so the run starts empty.
fn file_store() -> StoreFactory {
    let dir = PathBuf::from("target").join("wal_bench");
    let _ = std::fs::remove_dir_all(&dir);
    Arc::new(move || Box::new(FileStore::open(&dir).expect("open bench WAL dir")))
}

fn run_one(store: &'static str, clients: usize, log: StoreFactory, txns: usize) -> RunResult {
    let config = ServerConfig::builder()
        .shards(SHARDS)
        .max_sessions(CLIENTS)
        .durability(Durability::Wal(WalOptions::new(log)))
        .build()
        .expect("static bench config is valid");
    let svc = bench_service(TOTAL_ENTITIES, config);
    // Start-up rotates and syncs a checkpoint fence; not commit-path syncs.
    let booted = svc.wal_stats().expect("bench runs with the WAL on").syncs;
    let run = fan_out(
        clients,
        |_| svc.session().expect("admission (sessions \u{2264} cap)"),
        |client, session| {
            drive_client(
                &session,
                &DriverConfig::new(client, SHARDS, TOTAL_ENTITIES, txns, 0xF5C_0DE),
            )
        },
    );
    // Every client has its commit ack in hand, so the fsync that made it
    // durable has already been counted — read the stats before shutdown
    // adds its quiescing barrier.
    let stats = svc.wal_stats().expect("bench runs with the WAL on");
    assert_eq!(
        run.outcome.committed,
        svc.metrics().committed,
        "client/server agree"
    );
    RunResult {
        store,
        clients,
        run,
        fsyncs: stats.syncs - booted,
        violations: verify_certifiers(&svc.shutdown()).violations.len(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let txns = if smoke { TXNS_SMOKE } else { TXNS_FULL };
    let slow_us = micros(SLOW_SYNC);
    println!("wal-load — closed-loop clients, one commit path (the flusher)");
    println!(
        "{txns} txns/client, {TOTAL_ENTITIES} entities, {SHARDS} shards, \
         slow store = {slow_us:.0} µs/sync{}\n",
        if smoke { " (smoke mode)" } else { "" }
    );
    println!(
        "{:>5} {:>7} {:>9} {:>8} {:>14} {:>11} {:>14} {:>14} {:>10}",
        "store",
        "clients",
        "committed",
        "fsyncs",
        "fsync/commit",
        "thru(txn/s)",
        "commit p50(µs)",
        "commit p99(µs)",
        "violations"
    );

    let runs: Vec<RunResult> = [
        ("slow", 1, mem_store(true)),
        ("slow", CLIENTS, mem_store(true)),
        ("mem", CLIENTS, mem_store(false)),
        ("file", CLIENTS, file_store()),
    ]
    .into_iter()
    .map(|(store, clients, log)| {
        let r = run_one(store, clients, log, txns);
        println!(
            "{:>5} {:>7} {:>9} {:>8} {:>14.4} {:>11.0} {:>14.1} {:>14.1} {:>10}",
            r.store,
            r.clients,
            r.run.outcome.committed,
            r.fsyncs,
            r.fsync_per_commit(),
            r.run.throughput(),
            r.commit_us(0.50),
            r.commit_us(0.99),
            r.violations,
        );
        r
    })
    .collect();
    let total_violations: usize = runs.iter().map(|r| r.violations).sum();

    let (lone, shared) = (&runs[0], &runs[1]);
    let shared_over_lone = shared.fsync_per_commit() / lone.fsync_per_commit();
    let pass = (lone.fsync_per_commit() - 1.0).abs() <= LONE_TOLERANCE
        && lone.commit_us(0.50) < LONE_LATENCY_GATE * slow_us
        && shared_over_lone <= SHARED_GATE;
    println!(
        "\nlone committer: {:.4} fsync/commit (gate 1 \u{b1} {LONE_TOLERANCE}), commit p50 \
         {:.0} µs (gate < {:.0}); {CLIENTS} committers: {shared_over_lone:.4}\u{d7} the lone \
         figure (gate \u{2264} {SHARED_GATE}) — {}",
        lone.fsync_per_commit(),
        lone.commit_us(0.50),
        LONE_LATENCY_GATE * slow_us,
        if pass { "PASS" } else { "FAIL" }
    );

    let report = Json::obj([
        ("bench", Json::Str("wal".into())),
        ("smoke", Json::Bool(smoke)),
        ("txns_per_client", Json::Num(txns as f64)),
        ("slow_sync_us", Json::Num(slow_us)),
        (
            "runs",
            Json::Arr(
                runs.iter()
                    .map(|r| {
                        let own = [
                            ("store", Json::Str(r.store.into())),
                            ("clients", Json::Num(r.clients as f64)),
                            ("fsyncs", Json::Num(r.fsyncs as f64)),
                            ("fsync_per_commit", Json::Num(r.fsync_per_commit())),
                        ];
                        let tail = r
                            .run
                            .row_tail(&r.run.outcome.commit_latencies, r.violations);
                        Json::obj(own.into_iter().chain(tail))
                    })
                    .collect(),
            ),
        ),
        (
            "gate",
            Json::obj([
                ("lone_fsync_per_commit", Json::Num(lone.fsync_per_commit())),
                ("lone_commit_p50_us", Json::Num(lone.commit_us(0.50))),
                (
                    "shared_over_lone_fsync_per_commit",
                    Json::Num(shared_over_lone),
                ),
                ("pass", Json::Bool(pass)),
            ]),
        ),
        ("total_violations", Json::Num(total_violations as f64)),
    ]);
    write_report("wal", smoke, &report);

    if total_violations > 0 || !pass {
        std::process::exit(1);
    }
    println!("\nmodel check: every extracted execution is correct (0 violations)");
}
