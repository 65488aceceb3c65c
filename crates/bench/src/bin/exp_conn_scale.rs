//! `conn-scale`: does the event-loop server actually scale to 10k+
//! connections?
//!
//! The thread-per-connection design it replaced spent a stack (and an OS
//! thread) per connection; the readiness-based server claims a fixed
//! thread pool and a bounded, pooled decode path whatever the connection
//! count. This experiment holds that claim to numbers: a small working
//! set of clients drives real transactions and records exact client-side
//! latencies, first against a fresh, otherwise-empty server (the in-run
//! baseline), then against a second fresh server with thousands of live,
//! handshaken, mostly-idle connections parked alongside them (fresh on
//! both sides because certification history grows with every commit —
//! one long-lived server would charge the second phase for the first
//! phase's accumulated state). Two gates:
//!
//! * **latency** — the working set's exact p99 with the idle horde
//!   present must stay within [`P99_RATIO_GATE`]× of the in-run
//!   baseline (best of [`ROUNDS`] rounds each, so one scheduler hiccup
//!   cannot fail the gate). The verdict is recorded only for full-size
//!   runs — smoke timing on a CI box proves nothing.
//! * **memory** — the RSS the idle horde adds must stay under
//!   [`MEM_PER_CONN_GATE`] bytes per connection (plus a fixed
//!   [`MEM_SLACK`] for allocator noise). Memory accounting is not
//!   wall-clock noise, so this verdict is mandatory, smoke included.
//!
//! The teeth: `--pinned-buffers N` switches the server into the naive
//! per-connection buffer sizing the shared pool replaces (every
//! connection pins N resident bytes for its lifetime), and
//! `--expect-violation` asserts the memory gate *fails* under it —
//! proving the bound has teeth. Writes `BENCH_conn.json` (validated by
//! `validate_bench`) in normal runs; `--smoke` shrinks the horde for CI.
//!
//! The horde's client ends live in a helper child process (this same
//! binary re-executed with a hidden `--horde` mode): `RLIMIT_NOFILE` is
//! per-process, so splitting the two ends of every loopback connection
//! across two processes doubles how many the hard limit allows — and as
//! a bonus the parent's `VmRSS` then measures pure server-side cost,
//! uncontaminated by 10k client sockets.

use ks_bench::driver::{
    bench_service, drive_txn, fan_out, micros, percentile, DriveOutcome, DriverConfig, Run,
};
use ks_bench::report::{write_report, Json};
use ks_kernel::EntityId;
use ks_net::poll::{fd_count, raise_nofile_limit, rss_bytes};
use ks_net::wire::{self, Request, Response, HELLO_MAGIC};
use ks_net::{NetClientConfig, NetConfig, NetServer, RemoteSession};
use ks_server::{verify_certifiers, ServerConfig};
use std::io::{BufReader, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const TOTAL_ENTITIES: usize = 64;
const SHARDS: usize = 4;
/// p99 with the idle horde ≤ this × the in-run baseline p99.
const P99_RATIO_GATE: f64 = 2.0;
/// RSS budget per idle connection (socket + registration + session +
/// its share of the shared decode pool).
const MEM_PER_CONN_GATE: u64 = 32 * 1024;
/// Fixed allowance for allocator/runtime noise in the RSS delta.
const MEM_SLACK: u64 = 16 * 1024 * 1024;
/// Measurement rounds per phase; the gate compares the best of each.
const ROUNDS: usize = 3;

/// One measurement phase: `working` closed-loop clients each run `txns`
/// small transactions (open, validate, two writes, commit) over their
/// home shard, every transaction timed client-side by the driver.
fn run_phase(addr: std::net::SocketAddr, working: usize, txns: usize) -> Run {
    fan_out(
        working,
        |_| {
            RemoteSession::connect(addr, NetClientConfig::default())
                .expect("working client connects")
        },
        |client, session| {
            let cfg = DriverConfig::new(client, SHARDS, TOTAL_ENTITIES, txns, 0);
            let (per_shard, home) = (TOTAL_ENTITIES / SHARDS, client % SHARDS);
            let mut backoff = cfg.backoff();
            let mut out = DriveOutcome::default();
            for round in 0..txns {
                let entities: Vec<EntityId> = (0..2)
                    .map(|i| EntityId(((i + round) % per_shard * SHARDS + home) as u32))
                    .collect();
                let ops: Vec<(bool, EntityId)> = entities.iter().map(|&e| (true, e)).collect();
                let value = (client * 1000 + round) as i64;
                drive_txn(
                    &session,
                    &cfg,
                    &ops,
                    &entities,
                    value,
                    &mut backoff,
                    &mut out,
                );
            }
            session.close().expect("orderly goodbye");
            out
        },
    )
}

fn p99(run: &Run) -> Duration {
    percentile(&run.outcome.latencies, 0.99)
}

/// The round with the best (lowest) p99 over `ROUNDS` runs of the phase.
fn best_of_rounds(addr: std::net::SocketAddr, working: usize, txns: usize) -> Run {
    (0..ROUNDS)
        .map(|_| run_phase(addr, working, txns))
        .min_by_key(p99)
        .expect("ROUNDS > 0")
}

/// Open one idle connection: TCP connect, complete the Hello handshake
/// (so the server holds a real session for it), then leave it parked.
fn open_idle(addr: std::net::SocketAddr, corr: u64) -> TcpStream {
    let sock = TcpStream::connect(addr).expect("idle connect");
    sock.set_nodelay(true).unwrap();
    let mut frame = Vec::new();
    wire::write_frame(
        &mut frame,
        &wire::encode_request(corr, 0, &Request::Hello { magic: HELLO_MAGIC }),
    )
    .unwrap();
    (&sock).write_all(&frame).unwrap();
    let mut reader = BufReader::new(&sock);
    let reply = wire::read_frame(&mut reader).unwrap().expect("HelloOk");
    match wire::decode_response(&reply) {
        Ok((c, 0, Response::HelloOk { .. })) => assert_eq!(c, corr),
        other => panic!("idle conn {corr}: bad handshake reply: {other:?}"),
    }
    sock
}

/// The hidden child mode holding the horde's client ends: open and
/// handshake `count` connections, report readiness on stdout, then park
/// until the parent closes our stdin.
fn horde_child(addr: std::net::SocketAddr, count: usize) -> ! {
    if let Err(e) = raise_nofile_limit((count + 64) as u64) {
        eprintln!("horde child: raise_nofile_limit failed: {e}");
    }
    let conns: Vec<TcpStream> = (0..count).map(|i| open_idle(addr, i as u64)).collect();
    println!("HORDE READY {}", conns.len());
    std::io::stdout().flush().unwrap();
    // Park: the parent holds our stdin open for as long as it wants the
    // horde alive; EOF is the signal to drop every connection and exit.
    let mut sink = String::new();
    let _ = std::io::Read::read_to_string(&mut std::io::stdin(), &mut sink);
    drop(conns);
    std::process::exit(0)
}

/// Spawn the horde child and wait until every connection is parked.
fn spawn_horde(addr: std::net::SocketAddr, count: usize) -> (std::process::Child, usize) {
    let exe = std::env::current_exe().expect("current exe");
    let mut child = std::process::Command::new(exe)
        .arg("--horde")
        .arg(addr.to_string())
        .arg(count.to_string())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn horde child");
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).expect("horde readiness line");
    let parked = line
        .trim()
        .strip_prefix("HORDE READY ")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| panic!("horde child failed to park: {line:?}"));
    (child, parked)
}

fn phase_json(phase: &str, run: &Run, idle: usize) -> Json {
    let own = [
        ("phase", Json::Str(phase.to_string())),
        ("idle_connections", Json::Num(idle as f64)),
    ];
    // Violations are per server, not per round: `total_violations`.
    Json::obj(
        own.into_iter()
            .chain(run.row_tail(&run.outcome.latencies, 0)),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).is_some_and(|a| a == "--horde") {
        let addr = args[2].parse().expect("horde address");
        let count = args[3].parse().expect("horde count");
        horde_child(addr, count);
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let expect_violation = args.iter().any(|a| a == "--expect-violation");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(|v| v.parse::<usize>().expect("numeric flag value"))
    };
    let (mut idle, working, txns) = if smoke {
        (200, 4, 40)
    } else {
        (10_000, 8, 200)
    };
    if let Some(n) = flag("--idle") {
        idle = n;
    }
    let pinned_buffers = flag("--pinned-buffers").unwrap_or(0);

    // One fd per idle connection in this process (the accepted socket —
    // the client ends live in the horde child) plus the working
    // clients' two ends each and steady-state plumbing.
    let want_fds = (idle + 2 * working + 192) as u64;
    match raise_nofile_limit(want_fds) {
        Ok(limit) if limit < want_fds => {
            let fit = (limit as usize)
                .saturating_sub(192)
                .saturating_sub(2 * working);
            eprintln!("nofile limit {limit} < {want_fds}: shrinking idle horde {idle} -> {fit}");
            idle = fit.min(idle);
        }
        Ok(_) => {}
        Err(e) => eprintln!("raise_nofile_limit failed ({e}); continuing with defaults"),
    }

    println!("conn-scale — working set under an idle connection horde");
    println!(
        "{idle} idle + {working} working connections, {txns} txns/client/round, \
         best of {ROUNDS} rounds{}{}\n",
        if smoke { " (smoke mode)" } else { "" },
        if pinned_buffers > 0 {
            format!(" [teeth: {pinned_buffers}B pinned per conn]")
        } else {
            String::new()
        },
    );

    let start_server = || {
        let svc = bench_service(
            TOTAL_ENTITIES,
            ServerConfig {
                shards: SHARDS,
                max_sessions: idle + working + 8,
                ..ServerConfig::default()
            },
        );
        NetServer::start(
            svc,
            "127.0.0.1:0",
            NetConfig {
                pinned_buffers,
                ..NetConfig::default()
            },
        )
        .expect("bind")
    };

    // Each phase gets its own fresh server: certification history grows
    // with every committed transaction, so measuring both phases against
    // one long-lived service would charge the second phase for the
    // first's accumulated state. Identical fresh starts isolate the one
    // variable under test — the idle horde.
    //
    // Phase 1: the baseline — the working set against an empty server.
    let server = start_server();
    let baseline = best_of_rounds(server.local_addr(), working, txns);
    println!(
        "baseline:  p50 {:>8.1}µs  p99 {:>8.1}µs  ({} committed / round)",
        baseline.txn_us(0.50),
        baseline.txn_us(0.99),
        baseline.outcome.committed,
    );
    let report = verify_certifiers(&server.shutdown());
    let mut violations = report.violations.len();

    // Phase 2: a fresh server with the horde parked, watching what the
    // horde costs before the working set returns.
    let server = start_server();
    let addr = server.local_addr();
    let rss_before = rss_bytes().expect("VmRSS readable");
    let fds_before = fd_count().expect("/proc/self/fd readable");
    let t0 = Instant::now();
    let (mut horde, parked) = spawn_horde(addr, idle);
    let connect_elapsed = t0.elapsed();
    assert_eq!(parked, idle, "horde child parked fewer connections");
    let rss_after = rss_bytes().expect("VmRSS readable");
    let fds_after = fd_count().expect("/proc/self/fd readable");
    let live = server.connections();
    assert!(
        live >= idle,
        "server reports {live} live connections with {idle} idle parked"
    );
    let rss_delta = rss_after.saturating_sub(rss_before);
    let per_conn = if idle > 0 { rss_delta / idle as u64 } else { 0 };
    println!(
        "idle horde: {idle} conns handshaken in {:.2}s; {live} live server-side",
        connect_elapsed.as_secs_f64()
    );
    println!(
        "memory:    RSS {:.1} MiB -> {:.1} MiB (Δ {:.1} MiB, {per_conn} B/conn); \
         fds {fds_before} -> {fds_after}",
        rss_before as f64 / (1 << 20) as f64,
        rss_after as f64 / (1 << 20) as f64,
        rss_delta as f64 / (1 << 20) as f64,
    );

    // Phase 3: the same working set with the horde parked alongside.
    let with_idle = best_of_rounds(addr, working, txns);
    println!(
        "with idle: p50 {:>8.1}µs  p99 {:>8.1}µs  ({} committed / round)",
        with_idle.txn_us(0.50),
        with_idle.txn_us(0.99),
        with_idle.outcome.committed,
    );

    let p99_ratio = if p99(&baseline) > Duration::ZERO {
        p99(&with_idle).as_secs_f64() / p99(&baseline).as_secs_f64()
    } else {
        1.0
    };
    let mem_budget = idle as u64 * MEM_PER_CONN_GATE + MEM_SLACK;
    let mem_pass = rss_delta <= mem_budget;
    let p99_pass = p99_ratio <= P99_RATIO_GATE;
    println!(
        "\np99 ratio (with idle / baseline): {p99_ratio:.2} (gate {P99_RATIO_GATE}); \
         RSS Δ {rss_delta} ≤ {mem_budget} budget: {mem_pass}"
    );

    // Closing the child's stdin tells it to drop the horde and exit.
    drop(horde.stdin.take());
    horde.wait().expect("horde child exits");
    let pool = server.pool_stats();
    println!(
        "decode pool: {} hits / {} misses, {} buffers free",
        pool.hits, pool.misses, pool.free
    );
    let report = verify_certifiers(&server.shutdown());
    violations += report.violations.len();

    if expect_violation {
        // Teeth mode: the (artificially naive) configuration must blow
        // the memory budget, or the bound is decoration. No report is
        // written — a deliberately failing run is not an artifact.
        if !mem_pass && violations == 0 {
            println!("teeth: memory gate tripped as expected ({rss_delta} > {mem_budget})");
            return;
        }
        eprintln!(
            "teeth FAILED: expected the memory gate to trip \
             (Δ {rss_delta} vs budget {mem_budget}, violations {violations})"
        );
        std::process::exit(1);
    }

    let mut gate = vec![
        ("p99_baseline_us", Json::Num(micros(p99(&baseline)))),
        ("p99_with_idle_us", Json::Num(micros(p99(&with_idle)))),
        ("p99_ratio", Json::Num(p99_ratio)),
        ("p99_ratio_gate", Json::Num(P99_RATIO_GATE)),
    ];
    // Timing verdicts bind only to full-size runs (smoke boxes prove
    // nothing); the memory verdict below is mandatory either way.
    if !smoke {
        gate.push(("pass", Json::Bool(p99_pass)));
    }
    let doc = Json::obj([
        ("bench", Json::Str("conn_scale".to_string())),
        ("smoke", Json::Bool(smoke)),
        ("idle_connections", Json::Num(idle as f64)),
        ("working_clients", Json::Num(working as f64)),
        ("txns_per_client", Json::Num(txns as f64)),
        ("rounds", Json::Num(ROUNDS as f64)),
        (
            "runs",
            Json::Arr(vec![
                phase_json("baseline", &baseline, 0),
                phase_json("with_idle", &with_idle, idle),
            ]),
        ),
        ("gate", Json::obj(gate)),
        (
            "mem",
            Json::obj([
                ("rss_before_bytes", Json::Num(rss_before as f64)),
                ("rss_after_bytes", Json::Num(rss_after as f64)),
                ("rss_delta_bytes", Json::Num(rss_delta as f64)),
                ("per_conn_bytes", Json::Num(per_conn as f64)),
                ("gate_bytes_per_conn", Json::Num(MEM_PER_CONN_GATE as f64)),
                ("slack_bytes", Json::Num(MEM_SLACK as f64)),
                ("budget_bytes", Json::Num(mem_budget as f64)),
                ("pass", Json::Bool(mem_pass)),
            ]),
        ),
        (
            "fds",
            Json::obj([
                ("before", Json::Num(fds_before as f64)),
                ("with_idle", Json::Num(fds_after as f64)),
            ]),
        ),
        ("total_violations", Json::Num(violations as f64)),
    ]);
    write_report("conn", smoke, &doc);

    if violations > 0 {
        eprintln!("model check FAILED: {violations} violations");
        std::process::exit(1);
    }
    if !mem_pass {
        eprintln!("memory gate FAILED: RSS Δ {rss_delta} exceeds the {mem_budget} budget");
        std::process::exit(1);
    }
    if !smoke && !p99_pass {
        eprintln!("latency gate FAILED: p99 ratio {p99_ratio:.2} exceeds {P99_RATIO_GATE}");
        std::process::exit(1);
    }
    println!("expected shape: the idle horde costs file descriptors and a bounded");
    println!("slice of RSS, not threads — the event loop never touches a quiet");
    println!("connection, so the working set's tail latency barely moves.");
}
