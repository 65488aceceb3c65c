//! Failure shrinking: minimize a failing plan while it keeps failing.
//!
//! A ddmin-style pass first deletes step chunks (halves, then smaller,
//! down to single steps), then a second pass strips fault annotations
//! one at a time. Every candidate is re-executed with [`run_plan`] under
//! the same protections; because a run is a pure function of `(plan,
//! protections)`, shrinking the same failure twice produces the same
//! minimized plan — the replay guarantee `dst_replay` checks.
//!
//! Slot-based ops make every subset plan well-formed (a step whose
//! `Open` was deleted just no-ops), and each fault's randomness is
//! keyed by its own salt, so deleting neighbors never perturbs the
//! steps that remain.

use crate::link::Protections;
use crate::plan::RunPlan;
use crate::run::{run_plan, RunOutcome};

/// A minimized failure.
#[derive(Debug)]
pub struct ShrinkResult {
    /// The smallest still-failing plan found.
    pub plan: RunPlan,
    /// Its outcome (same violation class as the original, usually).
    pub outcome: RunOutcome,
    /// Simulation runs spent shrinking.
    pub runs: usize,
}

/// Shrink `plan` (which must fail under `protections`) within a budget
/// of `max_runs` simulation runs.
///
/// Returns the original plan's outcome unshrunk if it does not actually
/// fail (so callers need not special-case).
pub fn shrink(plan: &RunPlan, protections: Protections, max_runs: usize) -> ShrinkResult {
    let mut best = plan.clone();
    let mut best_out = run_plan(&best, protections);
    let mut runs = 1usize;
    if !best_out.failed() {
        return ShrinkResult {
            plan: best,
            outcome: best_out,
            runs,
        };
    }

    // Pass 1: delete contiguous chunks, halving the granularity.
    let mut chunk = (best.steps.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < best.steps.len() && runs < max_runs {
            let end = (i + chunk).min(best.steps.len());
            let mut steps = best.steps.clone();
            steps.drain(i..end);
            if steps.is_empty() {
                i = end;
                continue;
            }
            let cand = RunPlan {
                seed: best.seed,
                steps,
            };
            let out = run_plan(&cand, protections);
            runs += 1;
            if out.failed() {
                best = cand;
                best_out = out;
                // Retry the same offset: the next chunk slid into place.
            } else {
                i = end;
            }
        }
        if chunk == 1 || runs >= max_runs {
            break;
        }
        chunk = (chunk / 2).max(1);
    }

    // Pass 2: strip fault annotations that are not load-bearing.
    let mut i = 0;
    while i < best.steps.len() && runs < max_runs {
        if best.steps[i].fault.is_some() {
            let mut cand = best.clone();
            cand.steps[i].fault = None;
            let out = run_plan(&cand, protections);
            runs += 1;
            if out.failed() {
                best = cand;
                best_out = out;
            }
        }
        i += 1;
    }

    ShrinkResult {
        plan: best,
        outcome: best_out,
        runs,
    }
}
