//! Replayable failure artifacts.
//!
//! When a run fails its oracles, the harness writes one self-contained
//! text file: the seed and protections (everything needed to replay),
//! the violations, the minimized plan, the world's fault journal, and
//! the canonical observability trace. `dst_replay --replay <seed>`
//! regenerates the identical artifact from the seed alone.

use crate::link::Protections;
use crate::plan::RunPlan;
use crate::run::RunOutcome;
use std::io;
use std::path::{Path, PathBuf};

/// Render the artifact text for a (usually minimized) failing run.
pub fn render(plan: &RunPlan, outcome: &RunOutcome, protections: Protections) -> String {
    let mut out = String::new();
    out.push_str("# ks-dst failure artifact\n");
    out.push_str(&format!("seed: {}\n", plan.seed));
    out.push_str(&format!(
        "protections: frame_retention={} timeout_carveout={} abort_on_disconnect={} \
         commit_flush={}\n",
        protections.frame_retention,
        protections.timeout_carveout,
        protections.abort_on_disconnect,
        protections.commit_flush
    ));
    out.push_str(&format!(
        "commits: definite={} ambiguous={} server={}\n",
        outcome.definite_commits, outcome.ambiguous_commits, outcome.report.committed
    ));
    out.push_str("\n## violations\n");
    for v in &outcome.violations {
        out.push_str(&format!("- {v}\n"));
    }
    out.push_str("\n## plan (minimized)\n");
    out.push_str(&plan.render());
    out.push_str("\n## world journal\n");
    out.push_str(&outcome.journal);
    out.push_str("\n\n## canonical obs trace\n");
    out.push_str(&outcome.canonical_trace);
    out
}

/// Write the artifact under `dir` as `dst-<tag>-seed<seed>.txt`,
/// creating the directory if needed. Returns the written path.
pub fn write(
    dir: &Path,
    tag: &str,
    plan: &RunPlan,
    outcome: &RunOutcome,
    protections: Protections,
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("dst-{tag}-seed{}.txt", plan.seed));
    std::fs::write(&path, render(plan, outcome, protections))?;
    Ok(path)
}
