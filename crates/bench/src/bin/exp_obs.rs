//! `obs-overhead`: what does distributed tracing cost?
//!
//! The same deterministic closed-loop workload as `net-load` runs over
//! loopback TCP three times, varying only the client's trace sampling
//! rate — 0 (tracing compiled in but never sampled), 0.01 (the
//! recommended production rate), and 1.0 (every request traced through
//! every hop; the service runs without a WAL). Server, net layer, and
//! clients share one flight recorder in every run, so the A/B isolates
//! the cost of *sampling* — span emission at each pipeline hop plus the
//! wire's trace-context header is always present — not the cost of
//! having a recorder attached.
//!
//! Rounds alternate through the rates (rate₀ round 1, rate₁ round 1, …,
//! rate₀ round N, …) so slow-machine drift hits every rate equally, and
//! each rate keeps its best round. The acceptance metric is
//! `overhead = 1 − thru(rate)/thru(0)` at the gate rate (default 0.01),
//! which must stay within the budget (default 0.10): `BENCH_obs.json`
//! carries the verdict, and a failed one exits 1 (which fails
//! `scripts/check.sh`). Sampling wiring has teeth too: the 1.0 run must export
//! spans and the 0.0 run must export none.
//!
//! Flags: `--smoke` shrinks the run; `--gate-sample R`,
//! `--max-overhead B`, and `--expect-fail` let CI prove the gate *can*
//! fail (full tracing against an artificially tight budget must trip
//! it) without writing a report; `--smoke` reports go under
//! `target/bench/`, only a full-size run rewrites `BENCH_obs.json`.

use ks_bench::driver::{bench_service, drive_client, fan_out, DriverConfig, Run};
use ks_bench::report::{write_report, Json};
use ks_net::{NetClientConfig, NetConfig, NetServer, RemoteSession};
use ks_obs::{ObsKind, Recorder};
use ks_server::{verify_certifiers, ServerConfig};

const TOTAL_ENTITIES: usize = 64;
const SHARDS: usize = 4;
/// Alternating measurement rounds per rate; each rate keeps its best.
const ROUNDS: usize = 3;
/// Transactions per client in each run.
const TXNS: usize = 1500;
/// Default overhead budget at the default gate rate.
const DEFAULT_MAX_OVERHEAD: f64 = 0.10;
const DEFAULT_GATE_SAMPLE: f64 = 0.01;

/// The swept client-side sampling rates, baseline first.
const RATES: [f64; 3] = [0.0, 0.01, 1.0];

struct Options {
    smoke: bool,
    gate_sample: f64,
    max_overhead: f64,
    expect_fail: bool,
}

fn parse_options() -> Options {
    let mut opts = Options {
        smoke: false,
        gate_sample: DEFAULT_GATE_SAMPLE,
        max_overhead: DEFAULT_MAX_OVERHEAD,
        expect_fail: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut number = |name: &str| -> f64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs a number"))
        };
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--gate-sample" => opts.gate_sample = number("--gate-sample"),
            "--max-overhead" => opts.max_overhead = number("--max-overhead"),
            "--expect-fail" => opts.expect_fail = true,
            other => panic!(
                "unknown flag {other} (try --smoke --gate-sample R --max-overhead B --expect-fail)"
            ),
        }
    }
    assert!(
        RATES.contains(&opts.gate_sample),
        "--gate-sample must be one of the swept rates {RATES:?}"
    );
    opts
}

struct RunResult {
    run: Run,
    /// Span events left in the shared recorder after the run.
    spans: u64,
    violations: usize,
}

impl RunResult {
    fn throughput(&self) -> f64 {
        self.run.throughput()
    }
}

fn run_one(rate: f64, clients: usize, txns: usize) -> RunResult {
    let recorder = Recorder::new(1 << 14);
    let config = ServerConfig::builder()
        .shards(SHARDS)
        .max_sessions(clients)
        .recorder(recorder.clone())
        .build()
        .expect("static bench config is valid");
    let server = NetServer::start(
        bench_service(TOTAL_ENTITIES, config),
        "127.0.0.1:0",
        NetConfig {
            recorder: Some(recorder.clone()),
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let run = fan_out(
        clients,
        |_| {
            RemoteSession::connect(
                addr,
                NetClientConfig {
                    recorder: Some(recorder.clone()),
                    trace_sample: rate,
                    ..NetClientConfig::default()
                },
            )
            .expect("connect over loopback")
        },
        |client, session| {
            let out = drive_client(
                &session,
                &DriverConfig::new(client, SHARDS, TOTAL_ENTITIES, txns, 0x0B5_0DE),
            );
            session.close().expect("orderly goodbye");
            out
        },
    );
    let spans = recorder
        .drain()
        .iter()
        .filter(|ev| matches!(ev.kind, ObsKind::SpanStart { .. } | ObsKind::SpanEnd { .. }))
        .count() as u64;
    RunResult {
        run,
        spans,
        violations: verify_certifiers(&server.shutdown()).violations.len(),
    }
}

fn main() {
    let opts = parse_options();
    // A run must last long enough for its throughput to mean something
    // and for the 1 % rate to trace more than a couple of transactions:
    // 4×48 took ≈ 25 ms on a 2-core box at ≈ 8 000 txn/s, traced about two
    // transactions at 1 %, and its overhead swung −17…+14 % run to run.
    // 4×TXNS lasts ≈ 0.65 s there and traces ≈ 60.
    let (clients, txns) = if opts.smoke { (4, TXNS) } else { (8, TXNS) };
    println!("obs-overhead — loopback workload across trace sampling rates");
    println!(
        "{clients} clients, {txns} txns/client, {TOTAL_ENTITIES} entities, {SHARDS} shards, \
         {ROUNDS} alternating rounds{}\n",
        if opts.smoke { " (smoke mode)" } else { "" }
    );

    // best[i] = the best round for RATES[i]; alternation spreads machine
    // drift evenly across rates instead of penalizing whichever ran last.
    let mut best: [Option<RunResult>; RATES.len()] = [None, None, None];
    for round in 0..ROUNDS {
        for (i, &rate) in RATES.iter().enumerate() {
            let r = run_one(rate, clients, txns);
            println!(
                "round {} rate {:>4}: {:>9.0} txn/s  p50 {:>7.1}µs  p99 {:>7.1}µs  \
                 {:>6} spans  {} violations",
                round + 1,
                rate,
                r.throughput(),
                r.run.txn_us(0.50),
                r.run.txn_us(0.99),
                r.spans,
                r.violations,
            );
            let slot = &mut best[i];
            if slot
                .as_ref()
                .is_none_or(|b| r.throughput() > b.throughput())
            {
                *slot = Some(r);
            }
        }
    }
    let best: Vec<RunResult> = best
        .into_iter()
        .map(|r| r.expect("every rate ran"))
        .collect();
    let total_violations: usize = best.iter().map(|r| r.violations).sum();

    // Sampling wiring must have teeth: full tracing exports spans, and a
    // zero rate exports none (nothing server-side originates traces).
    assert!(
        best[2].spans > 0,
        "sampling 1.0 must leave span events in the recorder"
    );
    assert_eq!(
        best[0].spans, 0,
        "sampling 0.0 must leave no span events in the recorder"
    );

    let baseline = best[0].throughput();
    let overhead = |r: &RunResult| {
        if baseline > 0.0 {
            1.0 - r.throughput() / baseline
        } else {
            f64::NAN
        }
    };
    println!(
        "\n{:>6} {:>11} {:>9} {:>9}",
        "rate", "thru(txn/s)", "overhead", "spans"
    );
    for (i, &rate) in RATES.iter().enumerate() {
        println!(
            "{:>6} {:>11.0} {:>8.1}% {:>9}",
            rate,
            best[i].throughput(),
            overhead(&best[i]) * 100.0,
            best[i].spans,
        );
    }

    let gate_idx = RATES
        .iter()
        .position(|&r| r == opts.gate_sample)
        .expect("validated at parse");
    let gated_overhead = overhead(&best[gate_idx]);
    let pass = gated_overhead <= opts.max_overhead;
    println!(
        "\noverhead at sampling {}: {:.1}% (budget \u{2264} {:.0}%) — {}",
        opts.gate_sample,
        gated_overhead * 100.0,
        opts.max_overhead * 100.0,
        if pass { "PASS" } else { "FAIL" }
    );

    if opts.expect_fail {
        // Teeth mode: prove the gate can trip. No report is written —
        // this run's numbers exist only to fail the budget.
        if pass {
            eprintln!("expected the overhead gate to fail, but it passed");
            std::process::exit(1);
        }
        println!("gate failed as expected (teeth intact)");
        return;
    }

    let report = Json::obj([
        ("bench", Json::Str("obs".into())),
        ("smoke", Json::Bool(opts.smoke)),
        ("clients", Json::Num(clients as f64)),
        ("txns_per_client", Json::Num(txns as f64)),
        ("rounds", Json::Num(ROUNDS as f64)),
        (
            "runs",
            Json::Arr(
                RATES
                    .iter()
                    .zip(&best)
                    .map(|(&rate, r)| {
                        let own = [
                            ("trace_sample", Json::Num(rate)),
                            ("span_events", Json::Num(r.spans as f64)),
                            ("overhead", Json::Num(overhead(r))),
                        ];
                        let tail = r.run.row_tail(&r.run.outcome.latencies, r.violations);
                        Json::obj(own.into_iter().chain(tail))
                    })
                    .collect(),
            ),
        ),
        (
            "overhead",
            Json::obj([
                ("gate_sample", Json::Num(opts.gate_sample)),
                ("value", Json::Num(gated_overhead)),
                ("gate", Json::Num(opts.max_overhead)),
                ("pass", Json::Bool(pass)),
            ]),
        ),
        ("total_violations", Json::Num(total_violations as f64)),
    ]);
    write_report("obs", opts.smoke, &report);

    if total_violations > 0 || !pass {
        std::process::exit(1);
    }
    println!("\nmodel check: every extracted execution is correct (0 violations)");
}
