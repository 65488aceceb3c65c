//! The DST seed gate and its teeth: with every protection on, the fixed
//! seed range is clean; switching any one protection off makes some seed
//! in the same range fail; and shrinking a failure twice minimizes to the
//! identical plan (the replay guarantee). A failing seed replays with the
//! `dst_replay` command its assertion message prints.

use ks_dst::{generate, run_plan, shrink, Protections};

/// The fixed seed range the gate scans (the `proto` lib tests scan the
/// same range).
const SEEDS: u64 = 25;

/// How to re-run `seed` under `disabled` with its story and artifact.
fn replay_command(seed: u64, disabled: Option<&str>) -> String {
    let disable = disabled.map_or(String::new(), |p| format!(" --disable {p}"));
    format!("cargo run -p ks-dst --bin dst_replay -- --replay {seed}{disable}")
}

#[test]
fn all_protections_on_seed_range_is_clean() {
    for seed in 0..SEEDS {
        let out = run_plan(&generate(seed), Protections::all_on());
        assert!(
            !out.failed(),
            "seed {seed} violated with all protections on:\n{:#?}\njournal:\n{}\nreplay: {}",
            out.violations,
            out.journal,
            replay_command(seed, None)
        );
    }
}

fn first_failing_seed(protections: Protections) -> Option<u64> {
    (0..SEEDS).find(|&seed| run_plan(&generate(seed), protections).failed())
}

#[test]
fn disabling_any_protection_is_caught_within_the_seed_range() {
    for name in Protections::NAMES {
        let protections = Protections::disable(name).unwrap();
        assert!(
            first_failing_seed(protections).is_some(),
            "disabling {name} went undetected across seeds 0..{SEEDS}"
        );
    }
}

#[test]
fn shrinking_is_reproducible_and_still_failing() {
    let disabled = "timeout-carveout";
    let protections = Protections::disable(disabled).unwrap();
    let seed =
        first_failing_seed(protections).expect("some seed must fail with the carve-out disabled");
    let replay = replay_command(seed, Some(disabled));
    let plan = generate(seed);
    let a = shrink(&plan, protections, 150);
    let b = shrink(&plan, protections, 150);
    assert!(
        a.outcome.failed(),
        "shrunk plan must still fail; replay: {replay}"
    );
    assert_eq!(
        a.plan, b.plan,
        "shrinking the same failure twice must minimize identically; replay: {replay}"
    );
    assert_eq!(
        a.outcome.violations, b.outcome.violations,
        "replay: {replay}"
    );
    assert!(
        a.plan.steps.len() <= plan.steps.len(),
        "shrinking must not grow the plan; replay: {replay}"
    );
}
