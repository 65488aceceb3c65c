//! Post-run correctness verification: every shard certifier re-checks
//! its own history offline against its backend's correctness criterion.
//!
//! This is the service's ground truth: whatever interleaving the workers
//! served, the committed transactions of each shard must satisfy what
//! the backend promised. The CPC backend extracts a model execution
//! ([`ks_protocol::extract`]) and checks the paper's parent-based
//! criterion with `ks_core::check`; the SSI and 2PL backends promise
//! *serializability*, so their recorded histories go through the
//! Biswas–Enea-style conflict-graph check (`ks_protocol::history`) —
//! polynomial and exact because the version order is known. Both paths
//! run behind [`Certifier::verify_history`]; this module only aggregates
//! per-shard verdicts into a service-level [`VerifyReport`].
//!
//! When a check fails **and** the run carried a flight recorder,
//! [`verify_certifiers_with_dump`] turns the failure into a
//! [`ViolationDump`]: the full JSONL event stream plus, for each
//! offending transaction, its causally-stitched timeline and the
//! protocol decision that produced the bad state — the difference
//! between "shard 0 failed" and "txn 2's input condition fails because
//! version 1 of entity 0 was force-assigned".

use ks_obs::to_jsonl;
use ks_obs::{event_to_json, stitch, Recorder, TxnTimeline};
use ks_protocol::Certifier;

/// Outcome of verifying a set of shard certifiers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Shards checked.
    pub shards: usize,
    /// Committed transactions across all shards.
    pub committed: usize,
    /// Human-readable descriptions of every violation found (empty ⇔ the
    /// run was correct).
    pub violations: Vec<String>,
    /// The offending transactions, when attributable: `(shard, node
    /// index)` pairs matching the `txn` stamp of flight-recorder events.
    pub offenders: Vec<(usize, u32)>,
}

impl VerifyReport {
    /// Did every shard's execution check out?
    pub fn is_correct(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Verify the certifiers returned by
/// [`TxnService::shutdown`](crate::TxnService::shutdown): each shard is
/// checked by its backend's own offline oracle, and the verdicts are
/// aggregated with shard-prefixed messages.
pub fn verify_certifiers(certifiers: &[Box<dyn Certifier>]) -> VerifyReport {
    let mut report = VerifyReport {
        shards: certifiers.len(),
        ..VerifyReport::default()
    };
    for (shard, cert) in certifiers.iter().enumerate() {
        let verdict = cert.verify_history();
        report.committed += verdict.committed;
        for violation in verdict.violations {
            report
                .violations
                .push(format!("shard {shard}: {violation}"));
        }
        for node in verdict.offenders {
            report.offenders.push((shard, node));
        }
    }
    report
}

/// A flight-recorder dump produced when verification fails.
#[derive(Debug, Clone)]
pub struct ViolationDump {
    /// The full drained event stream, JSONL-encoded (see `ks-obs::json`).
    pub jsonl: String,
    /// Every transaction's stitched timeline (causal edges mirrored).
    pub timelines: Vec<TxnTimeline>,
    /// Human summary: each violation, the offender's timeline, and the
    /// causal decision event that produced the bad state.
    pub summary: String,
}

/// Verify, and on failure drain `recorder` into a [`ViolationDump`] whose
/// summary names, per offender, the transaction, the entity, and the
/// protocol decision event the failure traces back to.
pub fn verify_certifiers_with_dump(
    certifiers: &[Box<dyn Certifier>],
    recorder: &Recorder,
) -> (VerifyReport, Option<ViolationDump>) {
    let report = verify_certifiers(certifiers);
    if report.is_correct() {
        return (report, None);
    }
    let events = recorder.drain();
    let timelines = stitch(&events);
    let mut summary = String::new();
    for violation in &report.violations {
        summary.push_str(violation);
        summary.push('\n');
    }
    if recorder.dropped() > 0 {
        summary.push_str(&format!(
            "(flight recorder overwrote {} events; timelines may be partial)\n",
            recorder.dropped()
        ));
    }
    for &(shard, node) in &report.offenders {
        let Some(tl) = timelines
            .iter()
            .find(|t| t.shard == shard as u32 && t.txn == node)
        else {
            summary.push_str(&format!(
                "shard {shard} txn {node}: no flight-recorder events retained\n"
            ));
            continue;
        };
        summary.push_str(&format!("--- {}\n", tl.summary()));
        match tl.causal_decision() {
            Some(cause) => {
                summary.push_str(&format!("    caused by: {}\n", event_to_json(cause)));
            }
            None => summary.push_str("    no decision event retained\n"),
        }
        for ev in &tl.events {
            summary.push_str(&format!("    {}\n", event_to_json(ev)));
        }
    }
    let dump = ViolationDump {
        jsonl: to_jsonl(&events),
        timelines,
        summary,
    };
    (report, Some(dump))
}
