//! `dst_replay`: re-run one DST seed and print its story.
//!
//! ```text
//! cargo run -p ks-dst --bin dst_replay -- --replay 14
//! cargo run -p ks-dst --bin dst_replay -- --replay 3 --disable timeout-carveout
//! ```
//!
//! The seed gate itself is `cargo test -p ks-dst` (`tests/teeth.rs` and
//! the `proto` lib tests); this binary is how a failing seed from those
//! tests is investigated. It prints the plan, double-runs the seed and
//! compares canonical traces (a built-in determinism self-check), and
//! prints the world journal. When the run fails its oracles it shrinks
//! twice, asserts both minimized plans are identical — the acceptance
//! bar for "replayable from the seed alone" — and writes the artifact
//! under `target/dst/`. Exits 1 when the seed fails.
//!
//! `--disable <protection>` switches one of the stack's protections off
//! (`frame-retention`, `timeout-carveout`, `abort-on-disconnect`,
//! `commit-flush`), as the teeth tests do.

use ks_dst::{artifact, generate, run_plan, shrink, Protections};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: dst_replay --replay SEED [--disable PROTECTION]\n\
         protections: frame-retention | timeout-carveout | abort-on-disconnect | commit-flush"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut seed: Option<u64> = None;
    let mut protections = Protections::all_on();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--replay" => {
                seed = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--disable" => {
                let name = args.next().unwrap_or_else(|| usage());
                protections = Protections::disable(&name).unwrap_or_else(|| {
                    eprintln!("unknown protection {name:?}");
                    usage()
                });
            }
            _ => usage(),
        }
    }
    let seed = seed.unwrap_or_else(|| usage());

    let plan = generate(seed);
    println!("{}", plan.render());
    let out = run_plan(&plan, protections);
    let again = run_plan(&plan, protections);
    assert_eq!(
        out.canonical_trace, again.canonical_trace,
        "replay of seed {seed} diverged — determinism broken"
    );
    assert_eq!(out.violations, again.violations);
    println!("journal:\n{}", out.journal);
    println!(
        "commits: definite={} ambiguous={} server={}",
        out.definite_commits, out.ambiguous_commits, out.report.committed
    );
    if !out.failed() {
        println!("seed {seed}: clean (determinism self-check passed)");
        return ExitCode::SUCCESS;
    }
    println!("seed {seed}: {} violations", out.violations.len());
    for v in &out.violations {
        println!("  - {v}");
    }
    let a = shrink(&plan, protections, 200);
    let b = shrink(&plan, protections, 200);
    assert_eq!(
        a.plan, b.plan,
        "shrinking seed {seed} twice minimized differently — replay broken"
    );
    println!(
        "shrunk: {} -> {} steps ({} runs); re-shrink identical",
        plan.steps.len(),
        a.plan.steps.len(),
        a.runs
    );
    let dir = PathBuf::from("target").join("dst");
    match artifact::write(&dir, "replay", &a.plan, &a.outcome, protections) {
        Ok(path) => println!("artifact: {}", path.display()),
        Err(e) => eprintln!("artifact write failed: {e}"),
    }
    ExitCode::FAILURE
}
