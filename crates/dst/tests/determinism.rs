//! Seed-determinism regression: the same seed must produce the same run,
//! down to the byte, twice in the same process — the property every
//! replay and shrink guarantee rests on.

use ks_dst::{generate, run_plan, Protections};

#[test]
fn same_seed_same_canonical_trace() {
    for seed in [0u64, 1, 7, 41] {
        let plan = generate(seed);
        let a = run_plan(&plan, Protections::all_on());
        let b = run_plan(&plan, Protections::all_on());
        assert_eq!(
            a.canonical_trace, b.canonical_trace,
            "seed {seed}: canonical obs traces diverged between two runs"
        );
        assert_eq!(
            a.journal, b.journal,
            "seed {seed}: world journals diverged between two runs"
        );
        assert_eq!(a.definite_commits, b.definite_commits, "seed {seed}");
        assert_eq!(a.ambiguous_commits, b.ambiguous_commits, "seed {seed}");
        assert_eq!(a.violations, b.violations, "seed {seed}");
    }
}

#[test]
fn traces_are_complete_and_nonempty() {
    let plan = generate(3);
    let out = run_plan(&plan, Protections::all_on());
    assert_eq!(out.dropped_events, 0, "DST rings must never overflow");
    assert!(
        out.canonical_trace.lines().count() > 10,
        "a 64-step run must leave a substantial trace:\n{}",
        out.canonical_trace
    );
}

/// The durability oracle judges the production commit path: every plan
/// runs over the WAL, and an acknowledged commit got durable through a
/// group commit its own call led — at least one `GroupCommit` per
/// definite commit, each a group of one because the driver is
/// synchronous. A shutdown's quiescing flush announces no group, so no
/// `GroupCommit` is ever empty.
#[test]
fn wal_plans_commit_through_group_commit() {
    let (mut commits, mut flushes) = (0, 0);
    for seed in 0..10u64 {
        let out = run_plan(&generate(seed), Protections::all_on());
        assert!(
            out.violations.is_empty(),
            "seed {seed}: {:?}",
            out.violations
        );
        let batches: Vec<&str> = out
            .canonical_trace
            .lines()
            .filter(|l| l.contains("\"kind\":\"group_commit\""))
            .collect();
        assert!(
            batches.len() >= out.definite_commits,
            "seed {seed}: {} commit groups for {} acked commits",
            batches.len(),
            out.definite_commits
        );
        assert!(
            batches.iter().all(|l| l.contains("\"n\":1")),
            "seed {seed}: a synchronous driver cannot batch: {batches:?}"
        );
        commits += out.definite_commits;
        flushes += batches.len();
    }
    assert!(
        commits > 0 && flushes > 0,
        "ten plans must ack some commit ({commits}) through a group commit ({flushes})"
    );
}
