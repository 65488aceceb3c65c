//! The untraced run: set-up (repeated), one measured window, then the
//! correctness checks and what they cost. Produces every end-to-end metric.

use crate::deploy::{schema_of, service, Deployment, ServerView, WARMUP_TXNS};
use crate::drive::{ClientLog, ClientState, Until};
use crate::gen::{Workload, CLIENTS};
use crate::stats::{self, Timing};
use crate::{Check, Report};
use ks_protocol::Certifier;
use ks_server::{verify_certifiers, ShardMap};
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. All but the last are torn
/// down again before the window.
pub const SETUP_REPEATS: usize = 9;

/// The measured window of one deployment, reduced to what both the
/// untraced and the traced run report.
pub struct Window {
    pub seconds: f64,
    /// Process CPU over the window, `(user, system)` seconds.
    pub cpu_seconds: (f64, f64),
    pub attempted: u64,
    pub committed: u64,
    pub retries: u64,
    pub backoff_ns: u64,
    /// Latencies of committed transactions (ns), sorted.
    pub latencies: Vec<u64>,
    /// Same, long transactions of `cpc_long` only.
    pub long_latencies: Vec<u64>,
    pub flatness: f64,
    pub first_error: Option<String>,
}

impl Window {
    pub fn txn_per_s(&self) -> f64 {
        self.committed as f64 / self.seconds
    }
}

/// Run the measured window on a warmed-up deployment.
pub fn measure(
    deployment: &mut Deployment,
    seconds: Duration,
    trace: bool,
) -> (Window, Vec<ClientLog>) {
    let epoch = Instant::now();
    let (logs, cpu_seconds) = deployment.run(Until::Elapsed(seconds), epoch, trace);
    (reduce(&logs, cpu_seconds), logs)
}

fn reduce(logs: &[ClientLog], cpu_seconds: (f64, f64)) -> Window {
    let all = || logs.iter().flat_map(|l| l.txns.iter());
    let start = all().map(|t| t.start_ns).min().unwrap_or(0);
    let end = all().map(|t| t.end_ns).max().unwrap_or(0);
    let commit_ns: Vec<u64> = all().filter(|t| t.committed).map(|t| t.end_ns).collect();
    let latency = |long_only: bool| {
        let mut v: Vec<u64> = all()
            .filter(|t| t.committed && (t.long || !long_only))
            .map(|t| t.end_ns - t.start_ns)
            .collect();
        v.sort_unstable();
        v
    };
    Window {
        seconds: (end - start) as f64 / 1e9,
        cpu_seconds,
        attempted: all().count() as u64,
        committed: commit_ns.len() as u64,
        retries: logs.iter().map(|l| l.retries).sum(),
        backoff_ns: all().map(|t| t.backoff_ns).sum(),
        latencies: latency(false),
        long_latencies: latency(true),
        flatness: flatness(start, end, &commit_ns),
        first_error: logs.iter().find_map(|l| l.first_error.clone()),
    }
}

/// Transactions committed in the second half of the window over half of
/// all it committed: 1.0 when a transaction costs the same however much
/// history the service has seen, towards 0 as cost grows with history (and
/// up to 2 if the service speeds up). Of the definitions tried this one
/// repeated best on the 2-core box; see the README.
pub fn flatness(start_ns: u64, end_ns: u64, commit_ns: &[u64]) -> f64 {
    let mid = start_ns + (end_ns - start_ns) / 2;
    let second = commit_ns.iter().filter(|&&t| t >= mid).count();
    2.0 * second as f64 / commit_ns.len().max(1) as f64
}

/// Stop a deployment and check what every run checks: the server's commit
/// tally equals the clients', and each shard's checkpoint equals the last
/// value acknowledged to the (single) client writing it.
pub fn stop_and_check(
    deployment: Deployment,
    check: &mut Check,
) -> (ServerView, Vec<Box<dyn Certifier>>, Vec<ClientState>) {
    let workload = deployment.workload;
    let (view, certifiers, clients) = deployment.stop();
    let acked: u64 = clients.iter().map(|c| c.committed).sum();
    check.that(view.committed == acked, || {
        format!(
            "server committed {} but clients hold {acked} acks",
            view.committed
        )
    });
    // `cpc_long` has two writers per entity, so "last acked write" is not
    // defined there; verify_certifiers covers it.
    if workload != Workload::CpcLong {
        let state = global_state(workload, &certifiers);
        for c in &clients {
            for (&entity, &value) in &c.last_write {
                check.that(state[entity] == value, || {
                    format!(
                        "entity {entity}: checkpoint {} but last acked write {value}",
                        state[entity]
                    )
                });
            }
        }
    }
    (view, certifiers, clients)
}

/// Per-shard checkpoints mapped back to global entity order.
fn global_state(workload: Workload, certifiers: &[Box<dyn Certifier>]) -> Vec<i64> {
    let (schema, _) = schema_of(workload);
    let map = ShardMap::new(&schema, workload.shards());
    let mut state = vec![0; schema.len()];
    for (shard, cert) in certifiers.iter().enumerate() {
        for (local, value) in cert.checkpoint().into_iter().enumerate() {
            state[map
                .to_global(shard, ks_kernel::EntityId(local as u32))
                .index()] = value;
        }
    }
    state
}

/// Times the history check runs per run; its time is their median.
const VERIFY_REPEATS: usize = 5;

/// `verify_certifiers` on the drained certifiers, timed (the check only
/// reads, so it can repeat). Any violation fails the run.
pub fn verify(certifiers: &[Box<dyn Certifier>], check: &mut Check) -> (f64, usize) {
    let mut secs = Vec::with_capacity(VERIFY_REPEATS);
    let mut committed = 0;
    for _ in 0..VERIFY_REPEATS {
        let t = Instant::now();
        let report = verify_certifiers(certifiers);
        secs.push(t.elapsed().as_secs_f64());
        check.that(report.is_correct(), || {
            format!("verify_certifiers: {:?}", report.violations)
        });
        committed = report.committed;
    }
    (stats::median(&secs), committed)
}

/// Restart equivalence for `ssi_wal_write`: reopen a service on the used
/// log, timed until it is ready, then require that recovery replayed at
/// least every acknowledged commit and that the recovered state equals the
/// state before shutdown. (A power cut is ks-dst's oracle, not this one: a
/// clean process exit leaves the page cache intact.)
pub fn recover(
    workload: Workload,
    out: &Path,
    acked: u64,
    before: &[Box<dyn Certifier>],
    check: &mut Check,
) -> f64 {
    let t = Instant::now();
    let svc = service(workload, out, None);
    let secs = t.elapsed().as_secs_f64();
    let replayed = svc
        .recovery_report()
        .map_or(0, |r| r.committed.len() as u64);
    check.that(replayed >= acked, || {
        format!("recovery replayed {replayed} commits, clients hold {acked} acks")
    });
    let after = svc.shutdown();
    let (was, is) = (
        global_state(workload, before),
        global_state(workload, &after),
    );
    check.that(was == is, || {
        "recovered state differs from the state before shutdown".to_string()
    });
    secs
}

pub fn run(workload: Workload, seed: u64, seconds: Duration, out: &Path, report: &mut Report) {
    let mut check = Check::default();

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut deployment = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = deployment.take() {
            drop(Deployment::stop(old));
        }
        let t = Instant::now();
        deployment = Some(Deployment::new(
            workload,
            seed,
            out,
            false,
            workload == Workload::TplNet,
        ));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut deployment = deployment.expect("SETUP_REPEATS > 0");

    let (mut window, _) = measure(&mut deployment, seconds, false);
    // Before verification and recovery allocate: the serving path's peak.
    let peak_rss_kib = stats::status_kib("VmHWM");
    check.that(window.attempted == window.committed, || {
        format!(
            "{} of {} transactions failed, first: {:?}",
            window.attempted - window.committed,
            window.attempted,
            window.first_error
        )
    });
    // p90 wants ten samples beyond it; twice that is the least to ask.
    check.that(window.latencies.len() >= 200, || {
        format!("only {} latency samples", window.latencies.len())
    });

    let (_, certifiers, clients) = stop_and_check(deployment, &mut check);
    let (verify_s, verified) = verify(&certifiers, &mut check);
    let history = clients.iter().map(|c| c.committed).sum::<u64>();
    check.that(verified as u64 == history, || {
        format!("verified {verified} commits, clients hold {history} acks")
    });
    let recovery_s = (workload == Workload::SsiWalWrite)
        .then(|| recover(workload, out, history, &certifiers, &mut check));

    let lat = Timing::of(&mut window.latencies).expect("checked non-empty above");
    report.note(format!(
        "window {:.3} s, {} attempted, {} committed, {} retries, warm-up {} txns/client x {} clients",
        window.seconds, window.attempted, window.committed, window.retries, WARMUP_TXNS, CLIENTS
    ));
    report.note(format!(
        "txn latency: {}, p99 {:.1} us ({} samples beyond it)",
        lat.render_us(),
        stats::percentile(&window.latencies, 0.99) as f64 / 1e3,
        stats::samples_beyond(lat.n, 0.99)
    ));
    if let Some(long) = Timing::of(&mut window.long_latencies) {
        report.note(format!("long txn latency: {}", long.render_us()));
    }
    report.note(format!(
        "setup_s over {SETUP_REPEATS} set-ups: min {:.4} max {:.4}",
        setups.iter().cloned().fold(f64::INFINITY, f64::min),
        setups.iter().cloned().fold(0.0, f64::max)
    ));
    report.note(format!(
        "cpu over the window: user {:.2} s, system {:.2} s",
        window.cpu_seconds.0, window.cpu_seconds.1
    ));
    report.note(format!(
        "failed_share {:.6} (= failed / attempted)",
        (window.attempted - window.committed) as f64 / window.attempted.max(1) as f64
    ));
    report.note(format!(
        "verify_s {verify_s:.4} over {history} txns; peak_rss_mib {:.1}",
        peak_rss_kib / 1024.0
    ));
    if let Some(r) = recovery_s {
        report.note(format!("recovery_s {r:.4}"));
    }

    let committed = window.committed.max(1) as f64;
    report.attempted = window.attempted;
    report.failed = window.attempted - window.committed;
    report.metric("txn_per_s", window.txn_per_s());
    report.metric(
        "txn_p90_us",
        stats::percentile(&window.latencies, 0.9) as f64 / 1e3,
    );
    report.metric("flatness", window.flatness);
    let (user, sys) = window.cpu_seconds;
    report.metric("cpu_ms_per_txn", (user + sys) * 1e3 / committed);
    report.metric("rss_kib_per_txn", peak_rss_kib / history.max(1) as f64);
    report.metric("setup_s", stats::median(&setups));
    report.absorb(check);
}

#[cfg(test)]
mod tests {
    use super::flatness;

    #[test]
    fn flatness_is_one_for_a_steady_rate_and_falls_as_cost_grows() {
        let steady: Vec<u64> = (0..1000).map(|i| i * 10 + 5).collect();
        assert_eq!(flatness(0, 10_000, &steady), 1.0);
        // Three quarters of the commits land in the first half.
        let slowing: Vec<u64> = (0..750)
            .map(|i| i * 4)
            .chain((0..250).map(|i| 3000 + i * 12))
            .collect();
        assert_eq!(flatness(0, 6000, &slowing), 0.5);
        assert_eq!(flatness(0, 100, &[]), 0.0);
    }
}
