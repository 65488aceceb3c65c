//! `net-load`: the unified-client story, measured — with pipelining.
//!
//! The same deterministic closed-loop workload (the transport-generic
//! driver in `ks_bench::driver`) runs against identically configured
//! services: once through in-process [`Session`]s as the baseline, then
//! through loopback-TCP [`RemoteSession`]s across a pipeline-depth ×
//! op-batching sweep — one connection per client thread, deadlines and
//! bounded retry/backoff active. Every run ends with a graceful shutdown
//! that hands every shard manager to the model checker, so the table's
//! last column is a correctness gate, not a decoration: the binary exits
//! non-zero on any violation.
//!
//! Besides the stdout table the binary writes `BENCH_net.json` (schema
//! checked by `validate_bench`): per-run throughput and exact
//! client-side per-transaction p50/p99, plus the loopback/in-process
//! throughput ratio — the one thing only this experiment gates (the
//! shard sweep is `benchmark/`'s and `tests/interleaving.rs`'s job).
//! Batching packs a transaction's access phase into `Batch` wire frames
//! and pipelining keeps several of them in flight, so the wire's
//! per-request syscall round trip amortizes — the ratio is the measured
//! answer to "what does the network cost?". `--smoke` shrinks the run
//! for CI and writes under `target/bench/` instead of the tracked file.

use ks_bench::driver::{bench_service, drive_client, fan_out, DriverConfig, Run};
use ks_bench::report::{write_report, Json};
use ks_net::{NetClientConfig, NetConfig, NetServer, RemoteSession};
use ks_server::{verify_certifiers, ServerConfig, TxnService};

const TOTAL_ENTITIES: usize = 64;
/// Loopback must reach this fraction of in-process throughput (checked
/// in full mode, recorded always).
const RATIO_GATE: f64 = 0.7;

fn service(shards: usize, clients: usize) -> TxnService {
    bench_service(
        TOTAL_ENTITIES,
        ServerConfig {
            shards,
            max_sessions: clients,
            ..ServerConfig::default()
        },
    )
}

fn driver_config(client: usize, shards: usize, txns: usize) -> DriverConfig {
    DriverConfig::new(client, shards, TOTAL_ENTITIES, txns, 0xC0FFEE)
}

/// The in-process baseline: client threads drive `Session`s directly,
/// one call per op (the historical configuration the ratio is against).
fn run_in_process(shards: usize, clients: usize, txns: usize) -> (Run, usize) {
    let svc = service(shards, clients);
    let run = fan_out(
        clients,
        |_| svc.session().expect("admission"),
        |client, session| drive_client(&session, &driver_config(client, shards, txns)),
    );
    (run, verify_certifiers(&svc.shutdown()).violations.len())
}

/// One loopback run: the same service behind a `NetServer`, one TCP
/// connection per client thread, at the given pipeline depth and
/// batching mode.
fn run_loopback(
    shards: usize,
    clients: usize,
    txns: usize,
    pipeline_depth: usize,
    batch: bool,
) -> (Run, usize) {
    let server = NetServer::start(
        service(shards, clients),
        "127.0.0.1:0",
        NetConfig::default(),
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let run = fan_out(
        clients,
        |_| {
            RemoteSession::connect(addr, NetClientConfig::default()).expect("connect over loopback")
        },
        |client, session| {
            let out = drive_client(
                &session,
                &DriverConfig {
                    pipeline_depth,
                    batch,
                    ..driver_config(client, shards, txns)
                },
            );
            session.close().expect("orderly goodbye");
            out
        },
    );
    (run, verify_certifiers(&server.shutdown()).violations.len())
}

fn row(transport: &str, depth: usize, batch: bool, r: &Run, violations: usize) -> String {
    format!(
        "{:>11} {:>5} {:>5} {:>9} {:>7} {:>6} {:>11.0} {:>8.1} {:>8.1} {:>10}",
        transport,
        depth,
        if batch { "yes" } else { "no" },
        r.outcome.committed,
        r.outcome.aborted,
        r.outcome.busy_retries,
        r.throughput(),
        r.txn_us(0.50),
        r.txn_us(0.99),
        violations,
    )
}

fn run_json(
    shards: usize,
    transport: &str,
    depth: usize,
    batch: bool,
    r: &Run,
    violations: usize,
) -> Json {
    let own = [
        ("shards", Json::Num(shards as f64)),
        ("transport", Json::Str(transport.to_string())),
        ("pipeline_depth", Json::Num(depth as f64)),
        ("batch", Json::Bool(batch)),
        ("rejected", Json::Num(r.outcome.rejected as f64)),
        ("busy_retries", Json::Num(r.outcome.busy_retries as f64)),
    ];
    Json::obj(
        own.into_iter()
            .chain(r.row_tail(&r.outcome.latencies, violations)),
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Full size is long enough that the measured window (~400 txns)
    // dwarfs scheduler noise — the ratio gate needs stable numbers.
    let (clients, txns, shards) = if smoke { (4, 6, 2) } else { (8, 48, 4) };
    let ops_per_txn = driver_config(0, shards, txns).ops_per_txn;
    println!("net-load — identical closed-loop workload, in-process vs loopback TCP");
    println!(
        "{clients} clients, {txns} txns/client, {ops_per_txn} ops/txn, {TOTAL_ENTITIES} entities, \
         {shards} shards, pipeline×batch sweep{}\n",
        if smoke { " (smoke mode)" } else { "" }
    );
    println!(
        "{:>11} {:>5} {:>5} {:>9} {:>7} {:>6} {:>11} {:>8} {:>8} {:>10}",
        "transport",
        "depth",
        "batch",
        "committed",
        "aborted",
        "busy",
        "thru(txn/s)",
        "p50(µs)",
        "p99(µs)",
        "violations"
    );

    let (local, mut total_violations) = run_in_process(shards, clients, txns);
    println!("{}", row("in-process", 1, false, &local, total_violations));
    let mut runs = vec![run_json(
        shards,
        "in-process",
        1,
        false,
        &local,
        total_violations,
    )];
    let local_accounted = local.outcome.committed + local.outcome.aborted + local.outcome.rejected;

    let mut best: Option<(f64, usize, bool)> = None;
    for depth in [1, 4] {
        for batch in [false, true] {
            let (remote, violations) = run_loopback(shards, clients, txns, depth, batch);
            total_violations += violations;
            println!("{}", row("loopback", depth, batch, &remote, violations));
            runs.push(run_json(
                shards, "loopback", depth, batch, &remote, violations,
            ));
            // Identical deterministic workloads must commit the same
            // work on both transports and under every wire shape
            // (retries differ; outcomes must not).
            assert_eq!(
                local_accounted,
                remote.outcome.committed + remote.outcome.aborted + remote.outcome.rejected,
                "every transaction accounted for (depth {depth}, batch {batch})"
            );
            let thru = remote.throughput();
            if best.is_none_or(|(b, _, _)| thru > b) {
                best = Some((thru, depth, batch));
            }
        }
    }
    let (best_thru, best_depth, best_batch) = best.expect("sweep is non-empty");
    let ratio = best_thru / local.throughput();
    println!(
        "  best loopback/in-process throughput ratio: {ratio:.2} \
         (depth {best_depth}, batch {})\n",
        if best_batch { "on" } else { "off" }
    );
    let mut ratio_entry = vec![
        ("shards", Json::Num(shards as f64)),
        ("in_process_txn_s", Json::Num(local.throughput())),
        ("loopback_best_txn_s", Json::Num(best_thru)),
        ("best_pipeline_depth", Json::Num(best_depth as f64)),
        ("best_batch", Json::Bool(best_batch)),
        ("loopback_over_in_process", Json::Num(ratio)),
        ("gate", Json::Num(RATIO_GATE)),
    ];
    // The perf gate binds only to the full-size run: smoke mode exists
    // for CI boxes whose timing proves nothing.
    if !smoke {
        ratio_entry.push(("pass", Json::Bool(ratio >= RATIO_GATE)));
    }

    let report = Json::obj([
        ("bench", Json::Str("net_load".to_string())),
        ("smoke", Json::Bool(smoke)),
        ("clients", Json::Num(clients as f64)),
        ("txns_per_client", Json::Num(txns as f64)),
        ("ops_per_txn", Json::Num(ops_per_txn as f64)),
        ("total_entities", Json::Num(TOTAL_ENTITIES as f64)),
        ("runs", Json::Arr(runs)),
        ("ratio", Json::obj(ratio_entry)),
        ("total_violations", Json::Num(total_violations as f64)),
    ]);
    write_report("net", smoke, &report);

    if total_violations == 0 {
        println!("model check: every extracted execution is correct (0 violations)");
    } else {
        println!("model check FAILED: {total_violations} violations");
        std::process::exit(1);
    }
    println!("expected shape: per-request syscall latency dominates the naive");
    println!("wire client; batching packs the access phase into Batch frames and");
    println!("pipelining overlaps them, so the best loopback config lands within");
    println!("{RATIO_GATE}× of in-process throughput at {shards} shards.");
}
