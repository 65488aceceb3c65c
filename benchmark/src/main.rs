//! `ks-benchmark`: the repo's one benchmark. `README.md` beside this crate
//! explains the workloads, the metrics and how to read the output;
//! `../BENCHMARK.json` (this binary's `--manifest`) is the contract.
//!
//! One invocation with `--workload` is one run in this process. Without it
//! the binary re-executes itself once per workload and mode, so every run
//! starts from a fresh process.

mod deploy;
mod drive;
mod e2e;
mod gen;
mod layers;
mod spec;
mod stats;

use gen::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

/// Correctness conditions of one run; any breach fails it.
#[derive(Default)]
pub struct Check {
    breaches: Vec<String>,
}

impl Check {
    pub fn that(&mut self, ok: bool, why: impl FnOnce() -> String) {
        // A systematic breach repeats per entity; a handful identifies it.
        if !ok && self.breaches.len() < 20 {
            self.breaches.push(why());
        }
    }
}

/// What one run prints: notes for people, metrics by name, the verdict.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64)>,
    notes: Vec<String>,
    breaches: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Report 0 for every per-layer metric of a layer (by name prefix) the
    /// workload does not exercise: the contract wants every declared
    /// metric on every workload.
    pub fn not_applicable(&mut self, prefix: &str) {
        for m in spec::PER_LAYER {
            if m.name.starts_with(prefix) {
                self.metric(m.name, 0.0);
            }
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn absorb(&mut self, check: Check) {
        self.breaches.extend(check.breaches);
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    /// `--selfcheck`: run the set twice and compare medians to the bounds.
    selfcheck: bool,
    /// `--spread N`: N seeds per workload, quartile spread per metric.
    spread: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        traced: false,
        selfcheck: false,
        spread: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut number = |name: &str| -> Result<u64, String> {
            args.next()
                .and_then(|v| v.parse().ok())
                .ok_or(format!("{name} needs a whole number"))
        };
        match arg.as_str() {
            "--seed" => a.seed = number("--seed")?,
            "--seconds" => a.seconds = number("--seconds")?.max(1),
            "--trace" => a.traced = number("--trace")? != 0,
            "--traced" => a.traced = true,
            "--selfcheck" => a.selfcheck = true,
            "--spread" => a.spread = Some(number("--spread")?.max(2)),
            "--workload" => {
                let name = args.next().ok_or("--workload needs a name")?;
                a.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--manifest" => {
                print!("{}", spec::manifest());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--selfcheck] [--spread N] [--manifest]");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.workload, args.selfcheck, args.spread) {
        (_, true, _) => selfcheck(&args),
        (_, _, Some(n)) => spread(&args, n),
        (Some(w), ..) => run_one(w, &args),
        (None, ..) => run_all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run in this process: notes, one `metric` line per metric, breaches,
/// and as the last line the result object the driver reads.
fn run_one(workload: Workload, args: &Args) -> bool {
    let dir = std::env::var("KS_BENCH_DIR").unwrap_or_else(|_| "benchmark".into());
    let out = PathBuf::from(dir).join("out");
    std::fs::create_dir_all(&out).expect("create benchmark/out");
    let mut report = Report::default();
    let seconds = Duration::from_secs(args.seconds);
    if args.traced {
        layers::run(workload, args.seed, seconds, &out, &mut report);
    } else {
        e2e::run(workload, args.seed, seconds, &out, &mut report);
    }

    let declared = spec::metrics_of(args.traced);
    let printed: Vec<&str> = report.metrics.iter().map(|(n, _)| n.as_str()).collect();
    for m in declared {
        if !printed.contains(&m.name) {
            report
                .breaches
                .push(format!("metric {} was not measured", m.name));
        }
    }
    println!(
        "workload {} seed {} seconds {} trace {} workload_hash {:016x} parallelism {}",
        workload.name(),
        args.seed,
        args.seconds,
        args.traced as u8,
        gen::workload_hash(workload, args.seed),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for n in &report.notes {
        println!("  {n}");
    }
    let mut fields = Vec::new();
    for (name, value) in &report.metrics {
        let Some(m) = declared.iter().find(|m| m.name == name) else {
            report
                .breaches
                .push(format!("metric {name} is not declared"));
            continue;
        };
        if !value.is_finite() {
            report.breaches.push(format!("metric {name} is {value}"));
            continue;
        }
        println!("metric {name} {value} {}", m.unit);
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.unit
        ));
    }
    for b in &report.breaches {
        println!("BREACH {b}");
    }
    let correct = report.breaches.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    correct
}

/// Re-execute this binary for one run and collect its `metric` lines.
/// `None` when the run failed or breached.
fn child(
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    echo: bool,
) -> Option<BTreeMap<String, f64>> {
    let exe = std::env::current_exe().expect("own path");
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .expect("re-execute the benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo || !output.status.success() {
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
    }
    if !output.status.success() {
        return None;
    }
    Some(
        stdout
            .lines()
            .filter_map(|l| {
                let mut parts = l.strip_prefix("metric ")?.split(' ');
                Some((parts.next()?.to_string(), parts.next()?.parse().ok()?))
            })
            .collect(),
    )
}

/// The default: every workload untraced, then every workload traced.
fn run_all(args: &Args) -> bool {
    let mut ok = true;
    for traced in [false, true] {
        for w in Workload::ALL {
            ok &= child(w, args.seed, args.seconds, traced, true).is_some();
            println!();
        }
    }
    ok
}

/// `repeats` untraced runs of one workload on consecutive seeds; per
/// metric, the values in seed order.
fn series(
    w: Workload,
    first_seed: u64,
    repeats: u64,
    seconds: u64,
) -> Option<BTreeMap<String, Vec<f64>>> {
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for seed in first_seed..first_seed + repeats {
        for (name, value) in child(w, seed, seconds, false, false)? {
            out.entry(name).or_default().push(value);
        }
    }
    Some(out)
}

fn workloads_of(args: &Args) -> Vec<Workload> {
    args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w])
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's own
/// direction (negative = better).
fn worse_by(m: &spec::Metric, a: f64, b: f64) -> f64 {
    match m.better {
        spec::Better::Higher => (a - b) / a.abs(),
        spec::Better::Lower => (b - a) / a.abs(),
    }
}

/// Sets of this many runs are compared by `--selfcheck`.
const SELFCHECK_REPEATS: u64 = 3;

/// Two sets of runs on the same build and seeds: both medians, how much
/// worse the second is, and the bound. Fails when a bound is exceeded.
fn selfcheck(args: &Args) -> bool {
    let mut ok = true;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "worse", "bound"
    );
    for w in workloads_of(args) {
        let (Some(a), Some(b)) = (
            series(w, args.seed, SELFCHECK_REPEATS, args.seconds),
            series(w, args.seed, SELFCHECK_REPEATS, args.seconds),
        ) else {
            println!("{}: a run failed", w.name());
            ok = false;
            continue;
        };
        for m in spec::END_TO_END {
            let (ma, mb) = (stats::median(&a[m.name]), stats::median(&b[m.name]));
            let worse = worse_by(m, ma, mb);
            let verdict = if worse > m.bound { "FAIL" } else { "" };
            ok &= worse <= m.bound;
            println!(
                "{:<14} {:<18} {:>14.4} {:>14.4} {:>+8.3} {:>6.2} {verdict}",
                w.name(),
                m.name,
                ma,
                mb,
                worse,
                m.bound
            );
        }
    }
    ok
}

/// The acceptance procedure for the benchmark itself: `n` seeds per
/// workload, and per end-to-end metric the distance between the first and
/// third quartile as a share of the median. Over the bound fails (the
/// driver would refuse the benchmark); over a third of it is marked WIDE
/// (the contract's target for a steady benchmark).
fn spread(args: &Args, n: u64) -> bool {
    let mut ok = true;
    println!(
        "{:<14} {:<18} {:>14} {:>8} {:>8}",
        "workload", "metric", "median", "iqr/med", "bound"
    );
    for w in workloads_of(args) {
        let Some(s) = series(w, args.seed, n, args.seconds) else {
            println!("{}: a run failed", w.name());
            ok = false;
            continue;
        };
        for m in spec::END_TO_END {
            let share = stats::iqr_share(&s[m.name]);
            // The contract exempts `setup_s` from the spread limit.
            let verdict = match share {
                _ if m.name == "setup_s" => "",
                x if x > m.bound => "FAIL",
                x if x > m.bound / 3.0 => "WIDE",
                _ => "",
            };
            ok &= verdict != "FAIL";
            println!(
                "{:<14} {:<18} {:>14.4} {:>8.4} {:>8.2} {verdict}",
                w.name(),
                m.name,
                stats::median(&s[m.name]),
                share,
                m.bound
            );
        }
    }
    ok
}
