//! Faults landing on `Batch` frames.
//!
//! A batch burst goes out as one wire frame, and the fault directive
//! arms on it — so a `Reset` kills the connection under the burst, a
//! `Trickle` delivers the frame in pieces, and a dropped request or
//! reply must poison the caller of that burst. These hand-built
//! plans pin each of those shapes; the generator-coverage test keeps the
//! seeded gates exercising them; and the final test re-checks the
//! commit-coherence oracle still bites now that plans contain batches.

use ks_dst::{generate, run_plan, Fault, OpKind, Protections, RunPlan, Step};

/// A minimal full lifecycle around one batch burst: open → validate →
/// 8-op batch (one frame) → commit, with `fault` armed on the batch step.
fn batch_plan(fault: Option<Fault>) -> RunPlan {
    let open = OpKind::Open {
        slot: 0,
        spec_salt: 5,
        after: Vec::new(),
        before: Vec::new(),
        strategy: None,
    };
    let steps = vec![
        Step {
            client: 0,
            op: open,
            fault: None,
        },
        Step {
            client: 0,
            op: OpKind::Validate { slot: 0 },
            fault: None,
        },
        Step {
            client: 0,
            op: OpKind::Batch {
                slot: 0,
                ops_salt: 1,
                len: 8,
            },
            fault,
        },
        Step {
            client: 0,
            op: OpKind::Commit { slot: 0 },
            fault: None,
        },
    ];
    RunPlan { seed: 0, steps }
}

#[test]
fn clean_batch_commits() {
    let out = run_plan(&batch_plan(None), Protections::all_on());
    assert!(!out.failed(), "{:#?}", out.violations);
    assert_eq!(
        out.definite_commits, 1,
        "the batched lifecycle must commit cleanly:\n{}",
        out.journal
    );
}

#[test]
fn trickled_batch_frame_reassembles_mid_burst() {
    // Benign by construction: the oracle inside `run_plan` flags the run
    // if the trickled frame desyncs reassembly and the burst times out.
    let out = run_plan(
        &batch_plan(Some(Fault::Trickle {
            chunks: 4,
            salt: 99,
        })),
        Protections::all_on(),
    );
    assert!(!out.failed(), "{:#?}", out.violations);
    assert_eq!(
        out.definite_commits, 1,
        "a trickled batch frame must still complete the lifecycle:\n{}",
        out.journal
    );
}

#[test]
fn poisoning_faults_inside_a_batch_stay_coherent() {
    // Drop the burst's first frame / its reply / the whole connection:
    // the burst fails, the client reconnects, and every oracle (end
    // state, accounting, coherence) must still hold.
    for fault in [Fault::DropRequest, Fault::DropResponse, Fault::Reset] {
        let out = run_plan(&batch_plan(Some(fault)), Protections::all_on());
        assert!(!out.failed(), "{fault:?}: {:#?}", out.violations);
        assert_eq!(
            out.definite_commits, 0,
            "{fault:?} poisons the connection before the commit step:\n{}",
            out.journal
        );
    }
}

#[test]
fn forged_timeouts_on_a_batch_classify_as_ambiguous() {
    for fault in [Fault::ServerTimeoutApplied, Fault::ServerTimeoutLost] {
        let out = run_plan(&batch_plan(Some(fault)), Protections::all_on());
        assert!(!out.failed(), "{fault:?}: {:#?}", out.violations);
    }
}

#[test]
fn seeded_plans_land_poisoning_faults_on_batches() {
    // The gate scans seeds 0..25 (`tests/teeth.rs`); within that
    // range the generator must land drop/trickle/reset faults on batch
    // steps, or the hand-built shapes above are the only coverage.
    let mut hit = 0usize;
    for seed in 0..25u64 {
        for step in generate(seed).steps {
            if matches!(step.op, OpKind::Batch { .. })
                && matches!(
                    step.fault,
                    Some(
                        Fault::DropRequest
                            | Fault::DropResponse
                            | Fault::Reset
                            | Fault::Trickle { .. }
                    )
                )
            {
                hit += 1;
            }
        }
    }
    assert!(
        hit >= 3,
        "only {hit} drop/trickle/reset faults landed on batch steps across the gate's seed range"
    );
}

#[test]
fn commit_coherence_oracle_still_bites_with_batches_in_plans() {
    // Disable the timeout carve-out (the client will blindly retry a
    // timed-out commit) and scan the gate's seed range: some seed must
    // fail, and specifically on the commit-coherence oracle — batches in
    // the op mix must not dilute the oracle's teeth.
    let protections = Protections::disable("timeout-carveout").unwrap();
    let coherence_bites = (0..25u64).any(|seed| {
        run_plan(&generate(seed), protections)
            .violations
            .iter()
            .any(|v| v.contains("commit coherence"))
    });
    assert!(
        coherence_bites,
        "no commit-coherence violation across seeds 0..25 with the carve-out disabled"
    );
}
