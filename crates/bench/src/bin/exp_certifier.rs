//! `certifier`: the paper's abort-rate shootout across certification
//! backends.
//!
//! Section 2's motivating workload is the long-duration transaction —
//! a CAD-style session that holds its reads open for seconds while
//! short update transactions stream past. Serializability-based
//! certifiers must kill one side of that race; the paper's CPC
//! protocol keeps both, because the long transaction's reads stay
//! pinned to its *assigned* versions and later writers simply create
//! new ones.
//!
//! This experiment runs that exact mix against the identical serving
//! stack (shard worker, WAL over in-memory media, telemetry) under
//! each [`Backend`]:
//!
//! * one **long transaction** per round: validate, read the hot set,
//!   hold for `--hold` milliseconds, write one hot entity, commit;
//! * meanwhile **short writers** stream read-modify-write transactions
//!   over the same hot set.
//!
//! Expected physics: CPC commits the long transaction every round
//! (abort rate ≈ 0); SSI kills it at commit (first-committer-wins —
//! a short writer always beat it to the hot entity) or earlier via
//! dangerous-structure detection; 2PL parks short writers behind the
//! long reader's shared locks, and the long transaction's own write
//! then closes a waits-for cycle often enough that wait-or-die kills
//! it in most rounds.
//! The machine-readable gate asserts the headline number: SSI's
//! long-txn abort rate exceeds CPC's by a wide margin.
//!
//! `--teeth` instead proves the *offline checker* has teeth: it runs a
//! deliberately broken SSI (dangerous-structure detection off — plain
//! snapshot isolation) through a directed write-skew and exits 0 only
//! if `verify_certifiers` catches the non-serializable history that
//! the live certifier waved through.

use ks_bench::driver::{bench_service, fan_out, DriveOutcome, Run};
use ks_bench::report::{write_report, Json};
use ks_core::Specification;
use ks_kernel::EntityId;
use ks_server::{
    verify_certifiers, Backend, Client, Durability, ServerConfig, ServerError, Session, TxnBuilder,
    TxnService, WalOptions,
};
use ks_wal::{MemStore, SegmentStore};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Entities on the single contended shard.
const ENTITIES: usize = 8;
/// The hot set the long transaction reads and short writers update.
const HOT: [EntityId; 2] = [EntityId(0), EntityId(1)];
/// The hot entity the long transaction writes at the end of its hold.
const LONG_WRITE: EntityId = HOT[0];
/// Short closed-loop writer threads.
const SHORT_CLIENTS: usize = 4;
/// Retries of one short transaction before it gives up (breaks 2PL
/// lock-wait livelock: aborting releases the locks the long txn needs).
const SHORT_RETRY_BUDGET: u32 = 2_000;
/// The shootout gate: SSI's long-txn abort rate must exceed CPC's by
/// at least this margin on the identical mix.
const GATE_MARGIN: f64 = 0.2;

struct Options {
    smoke: bool,
    teeth: bool,
    /// Long-transaction hold time per round.
    hold: Duration,
    /// Long-transaction rounds (each round = one long txn).
    rounds: usize,
}

fn parse_options() -> Options {
    let mut opts = Options {
        smoke: false,
        teeth: false,
        hold: Duration::from_millis(400),
        rounds: 5,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => {
                opts.smoke = true;
                opts.hold = Duration::from_millis(40);
                opts.rounds = 2;
            }
            "--teeth" => opts.teeth = true,
            "--hold" => {
                let ms: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--hold needs milliseconds");
                opts.hold = Duration::from_millis(ms);
            }
            "--rounds" => {
                opts.rounds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--rounds needs a number");
            }
            other => panic!("unknown flag {other} (try --smoke --teeth --hold MS --rounds N)"),
        }
    }
    opts
}

fn service(backend: Backend, ssi_detect: bool) -> TxnService {
    // Real durability pipeline: the WAL runs over in-memory media so the
    // shootout exercises commit logging and group flush for every
    // backend, without touching the filesystem.
    let media = MemStore::new();
    let wal = WalOptions::new(Arc::new(move || {
        Box::new(media.clone()) as Box<dyn SegmentStore>
    }));
    bench_service(
        ENTITIES,
        ServerConfig {
            shards: 1,
            max_sessions: SHORT_CLIENTS + 2,
            backend,
            ssi_detect,
            durability: Durability::Wal(wal),
            ..ServerConfig::default()
        },
    )
}

/// One short writer: read-modify-write over a hot entity plus a private
/// cold one, until `stop` flips. A busy reply (2PL lock waits, full
/// queues) spends one unit of the transaction's budget and moves on to
/// the next step; an exhausted budget aborts — that release is what
/// breaks 2PL wait livelock with the long reader.
fn run_short(session: &Session, client: usize, stop: &AtomicBool) -> DriveOutcome {
    let mut out = DriveOutcome::default();
    let cold = EntityId((HOT.len() + client) as u32 % ENTITIES as u32);
    let mut round = 0usize;
    while !stop.load(Ordering::Relaxed) {
        round += 1;
        let hot = HOT[round % HOT.len()];
        let start = Instant::now();
        let txn = match session.open(TxnBuilder::new(Specification::unconstrained(&[hot, cold]))) {
            Ok(t) => t,
            Err(ServerError::Busy | ServerError::Backpressure) => {
                std::thread::yield_now();
                continue;
            }
            Err(_) => return out,
        };
        let mut budget = SHORT_RETRY_BUDGET;
        // Ok(true) = proceed, Ok(false) = budget exhausted.
        let mut step = |r: Result<(), ServerError>| -> Result<bool, ServerError> {
            match r {
                Ok(()) => Ok(true),
                Err(ServerError::Busy | ServerError::Backpressure) => {
                    if budget == 0 || stop.load(Ordering::Relaxed) {
                        return Ok(false);
                    }
                    budget -= 1;
                    std::thread::yield_now();
                    Ok(true)
                }
                Err(e) => Err(e),
            }
        };
        let hot_value = (client * 10_000 + round) as i64;
        let outcome = (|| -> Result<bool, ServerError> {
            Ok(step(session.validate(txn))?
                && step(session.read(txn, hot).map(drop))?
                && step(session.write(txn, cold, round as i64))?
                && step(session.write(txn, hot, hot_value))?
                && step(session.commit(txn))?)
        })();
        match outcome {
            Ok(true) => {
                out.committed += 1;
                out.latencies.push(start.elapsed());
            }
            Ok(false) | Err(_) => {
                let _ = session.abort(txn);
                out.aborted += 1;
            }
        }
    }
    out
}

/// The long transaction, once per round: validate, read the hot set,
/// hold, write one hot entity, commit. Its latency is the hold, so it
/// contributes counts but no latency samples.
fn run_long(session: &Session, opts: &Options) -> DriveOutcome {
    let mut out = DriveOutcome::default();
    for round in 0..opts.rounds {
        let long = (|| -> Result<(), ServerError> {
            let txn = session.open(TxnBuilder::new(Specification::unconstrained(&HOT)))?;
            let body = |txn| -> Result<(), ServerError> {
                retry_busy(|| session.validate(txn))?;
                for e in HOT {
                    retry_busy(|| session.read(txn, e).map(drop))?;
                }
                // The CAD hold: reads stay open while short writers
                // stream past.
                std::thread::sleep(opts.hold);
                retry_busy(|| session.write(txn, LONG_WRITE, -(round as i64) - 1))?;
                retry_busy(|| session.commit(txn))
            };
            body(txn).inspect_err(|_| {
                let _ = session.abort(txn);
            })
        })();
        match long {
            Ok(()) => out.committed += 1,
            Err(_) => out.aborted += 1,
        }
    }
    out
}

struct RunResult {
    backend: Backend,
    /// Short and long clients merged; latencies are the short writers'.
    run: Run,
    long_committed: u64,
    long_aborted: u64,
    certifier_aborts: u64,
    violations: usize,
}

fn rate(aborted: u64, committed: u64) -> f64 {
    match aborted + committed {
        0 => 0.0,
        total => aborted as f64 / total as f64,
    }
}

impl RunResult {
    fn long_abort_rate(&self) -> f64 {
        rate(self.long_aborted, self.long_committed)
    }

    fn short_committed(&self) -> u64 {
        self.run.outcome.committed - self.long_committed
    }

    fn short_aborted(&self) -> u64 {
        self.run.outcome.aborted - self.long_aborted
    }
}

/// Run the long-transaction mix against one backend: clients
/// `0..SHORT_CLIENTS` are the short writers, the last one runs the long
/// transactions and stops the others when its rounds are done.
fn run_one(backend: Backend, opts: &Options) -> RunResult {
    let svc = service(backend, true);
    let stop = AtomicBool::new(false);
    let (long_committed, long_aborted) = (AtomicU64::new(0), AtomicU64::new(0));
    let run = fan_out(
        SHORT_CLIENTS + 1,
        |_| svc.session().expect("session admitted"),
        |client, session| {
            if client < SHORT_CLIENTS {
                return run_short(&session, client, &stop);
            }
            let out = run_long(&session, opts);
            stop.store(true, Ordering::Relaxed);
            long_committed.store(out.committed, Ordering::Relaxed);
            long_aborted.store(out.aborted, Ordering::Relaxed);
            out
        },
    );
    let stats = svc.protocol_stats().expect("stats before shutdown");
    RunResult {
        backend,
        run,
        long_committed: long_committed.into_inner(),
        long_aborted: long_aborted.into_inner(),
        certifier_aborts: stats.iter().map(|s| s.reeval_aborts).sum(),
        violations: verify_certifiers(&svc.shutdown()).violations.len(),
    }
}

/// Retry `Busy`/`Backpressure` indefinitely (the long transaction has
/// no deadline; 2PL makes it wait out the short writers' locks).
fn retry_busy(mut f: impl FnMut() -> Result<(), ServerError>) -> Result<(), ServerError> {
    loop {
        match f() {
            Err(ServerError::Busy | ServerError::Backpressure) => std::thread::yield_now(),
            other => return other,
        }
    }
}

/// `--teeth`: drive a directed write-skew through a *broken* SSI
/// (dangerous-structure detection off — plain snapshot isolation with
/// first-committer-wins only). The two transactions have disjoint
/// write sets, so FCW admits both and the live certifier commits a
/// non-serializable history; the offline conflict-graph checker must
/// catch it, or this gate fails. As a control, the same schedule runs
/// against *intact* SSI, which must abort one of the pair.
fn teeth() -> ! {
    // Broken detector: both sides of the skew must commit.
    let svc = service(Backend::Ssi, false);
    let s1 = svc.session().expect("session");
    let s2 = svc.session().expect("session");
    let [x, y] = HOT;
    let skew = |s1: &Session, s2: &Session| -> Result<(), ServerError> {
        let t1 = s1.open(TxnBuilder::new(Specification::unconstrained(&HOT)))?;
        let t2 = s2.open(TxnBuilder::new(Specification::unconstrained(&HOT)))?;
        s1.validate(t1)?;
        s2.validate(t2)?;
        s1.read(t1, x)?;
        s1.read(t1, y)?;
        s2.read(t2, x)?;
        s2.read(t2, y)?;
        s1.write(t1, x, 1)?;
        s2.write(t2, y, 1)?;
        s1.commit(t1)?;
        s2.commit(t2)
    };
    if let Err(e) = skew(&s1, &s2) {
        eprintln!("teeth: broken SSI refused the write-skew ({e}) — it should have admitted it");
        std::process::exit(1);
    }
    let report = verify_certifiers(&svc.shutdown());
    if report.violations.is_empty() {
        eprintln!(
            "teeth: broken SSI committed write-skew but the offline history \
             checker called it serializable — the oracle has no teeth"
        );
        std::process::exit(1);
    }
    println!(
        "teeth: offline checker caught the broken detector: {}",
        report.violations[0]
    );

    // Control: intact SSI must refuse the identical schedule.
    let svc = service(Backend::Ssi, true);
    let s1 = svc.session().expect("session");
    let s2 = svc.session().expect("session");
    match skew(&s1, &s2) {
        Ok(()) => {
            eprintln!("teeth: intact SSI admitted the same write-skew");
            std::process::exit(1);
        }
        Err(e) => println!("teeth: intact SSI refused it as expected ({e})"),
    }
    let report = verify_certifiers(&svc.shutdown());
    if !report.violations.is_empty() {
        eprintln!("teeth: intact SSI left a non-serializable history: {report:?}");
        std::process::exit(1);
    }
    println!("teeth: PASS");
    std::process::exit(0);
}

fn main() {
    let opts = parse_options();
    if opts.teeth {
        teeth();
    }
    println!("certifier — the long-duration-transaction shootout (paper §2)");
    println!(
        "{} rounds x {}ms hold, {SHORT_CLIENTS} short writers over {} hot entities{}\n",
        opts.rounds,
        opts.hold.as_millis(),
        HOT.len(),
        if opts.smoke { " (smoke mode)" } else { "" }
    );

    println!(
        "{:>8} {:>6} {:>7} {:>11} {:>9} {:>8} {:>11} {:>9} {:>8} {:>10}",
        "backend",
        "long✓",
        "long✗",
        "long-abort%",
        "short✓",
        "short✗",
        "thru(txn/s)",
        "p99(µs)",
        "cert-ab",
        "violations"
    );
    let mut runs = Vec::new();
    let mut results = Vec::new();
    let mut total_violations = 0usize;
    for backend in Backend::all() {
        let r = run_one(backend, &opts);
        total_violations += r.violations;
        println!(
            "{:>8} {:>6} {:>7} {:>10.1}% {:>9} {:>8} {:>11.0} {:>9.1} {:>8} {:>10}",
            r.backend.name(),
            r.long_committed,
            r.long_aborted,
            r.long_abort_rate() * 100.0,
            r.short_committed(),
            r.short_aborted(),
            r.run.throughput(),
            r.run.txn_us(0.99),
            r.certifier_aborts,
            r.violations,
        );
        let own = [
            ("backend", Json::Str(r.backend.name().to_string())),
            ("long_committed", Json::Num(r.long_committed as f64)),
            ("long_aborted", Json::Num(r.long_aborted as f64)),
            ("long_abort_rate", Json::Num(r.long_abort_rate())),
            ("short_committed", Json::Num(r.short_committed() as f64)),
            ("short_aborted", Json::Num(r.short_aborted() as f64)),
            (
                "short_abort_rate",
                Json::Num(rate(r.short_aborted(), r.short_committed())),
            ),
            ("certifier_aborts", Json::Num(r.certifier_aborts as f64)),
        ];
        let tail = r.run.row_tail(&r.run.outcome.latencies, r.violations);
        runs.push(Json::obj(own.into_iter().chain(tail)));
        results.push(r);
    }

    let long_rate = |b: Backend| {
        results
            .iter()
            .find(|r| r.backend == b)
            .map_or(f64::NAN, RunResult::long_abort_rate)
    };
    let (cpc_rate, ssi_rate) = (long_rate(Backend::Cpc), long_rate(Backend::Ssi));
    // The headline gate: abort rates are certification *logic*, not
    // wall-clock, so the verdict is mandatory — smoke runs included.
    let pass = ssi_rate >= cpc_rate + GATE_MARGIN;
    println!(
        "\ngate: ssi long-txn abort rate {:.0}% vs cpc {:.0}% (margin {:.0}%) — {}",
        ssi_rate * 100.0,
        cpc_rate * 100.0,
        GATE_MARGIN * 100.0,
        if pass { "pass" } else { "FAIL" }
    );

    let report = Json::obj([
        ("bench", Json::Str("certifier".to_string())),
        ("smoke", Json::Bool(opts.smoke)),
        ("rounds", Json::Num(opts.rounds as f64)),
        ("hold_ms", Json::Num(opts.hold.as_millis() as f64)),
        ("short_clients", Json::Num(SHORT_CLIENTS as f64)),
        ("runs", Json::Arr(runs)),
        (
            "gate",
            Json::obj([
                ("cpc_long_abort_rate", Json::Num(cpc_rate)),
                ("ssi_long_abort_rate", Json::Num(ssi_rate)),
                ("margin", Json::Num(GATE_MARGIN)),
                ("pass", Json::Bool(pass)),
            ]),
        ),
        ("total_violations", Json::Num(total_violations as f64)),
    ]);
    write_report("certifier", opts.smoke, &report);

    if total_violations > 0 {
        println!("history check FAILED: {total_violations} violations");
        std::process::exit(1);
    }
    if !pass {
        println!("abort-rate gate FAILED");
        std::process::exit(1);
    }
    println!("\nexpected shape: CPC commits the long transaction every round");
    println!("(reads pinned to assigned versions); SSI kills it at commit");
    println!("(first-committer-wins / dangerous structures); 2PL parks short");
    println!("writers on its read locks, and its own write is often the");
    println!("deadlock victim.");
}
