//! Op-level traces of a simulation run.
//!
//! The committed interleaving (reads/writes of transactions in the order
//! they actually executed) can be handed to the `ks-schedule` classifiers
//! to verify scheduler guarantees — e.g. that strict 2PL emits only
//! conflict-serializable interleavings.

use crate::{SimTime, SimTxnId};
use ks_kernel::EntityId;

/// Kinds of trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Transaction (re)started.
    Begin,
    /// A read executed.
    Read(EntityId),
    /// A write executed.
    Write(EntityId),
    /// Commit.
    Commit,
    /// Abort (the attempt's reads/writes are discarded).
    Abort,
}

/// One trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time.
    pub time: SimTime,
    /// Acting transaction.
    pub txn: SimTxnId,
    /// What happened.
    pub kind: TraceKind,
}

/// Extract the committed interleaving: reads/writes of attempts that ended
/// in commit, in execution order. Events from aborted attempts are dropped.
pub fn committed_ops(trace: &[TraceEvent]) -> Vec<TraceEvent> {
    // For each txn, find the start index of its final (committed) attempt.
    use std::collections::BTreeMap;
    let mut last_begin: BTreeMap<SimTxnId, usize> = BTreeMap::new();
    let mut committed_from: BTreeMap<SimTxnId, usize> = BTreeMap::new();
    for (i, ev) in trace.iter().enumerate() {
        match ev.kind {
            TraceKind::Begin => {
                last_begin.insert(ev.txn, i);
            }
            TraceKind::Commit => {
                committed_from.insert(ev.txn, last_begin.get(&ev.txn).copied().unwrap_or(0));
            }
            _ => {}
        }
    }
    trace
        .iter()
        .enumerate()
        .filter(|(i, ev)| {
            matches!(ev.kind, TraceKind::Read(_) | TraceKind::Write(_))
                && committed_from.get(&ev.txn).is_some_and(|&from| *i >= from)
        })
        .map(|(_, ev)| *ev)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: SimTime, txn: u32, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            time,
            txn: SimTxnId(txn),
            kind,
        }
    }

    #[test]
    fn committed_ops_drop_aborted_attempts() {
        let e = EntityId(0);
        let trace = vec![
            ev(0, 1, TraceKind::Begin),
            ev(1, 1, TraceKind::Read(e)),
            ev(2, 1, TraceKind::Abort),
            ev(3, 1, TraceKind::Begin),
            ev(4, 1, TraceKind::Write(e)),
            ev(5, 1, TraceKind::Commit),
            ev(0, 2, TraceKind::Begin),
            ev(6, 2, TraceKind::Read(e)),
            // txn 2 never commits
        ];
        let ops = committed_ops(&trace);
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].kind, TraceKind::Write(e));
        assert_eq!(ops[0].txn, SimTxnId(1));
    }
}
