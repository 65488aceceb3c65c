//! Op-level traces of a simulation run.
//!
//! The committed interleaving (reads/writes of transactions in the order
//! they actually executed) can be handed to the `ks-schedule` classifiers
//! to verify scheduler guarantees — e.g. that strict 2PL emits only
//! conflict-serializable interleavings.

use crate::{SimTime, SimTxnId};
use ks_kernel::EntityId;
use ks_obs::{ObsEvent, ObsKind, ObsSink};

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

impl TraceEvent {
    /// This event in the `ks-obs` model: the simulated tick becomes the
    /// timestamp, the transaction id the `txn` stamp, and the kind one of
    /// the `Sim*` variants. `shard` is the caller's stamp (simulations are
    /// unsharded; pass `u32::MAX` unless replaying onto a partition).
    pub fn to_obs(&self, shard: u32) -> ObsEvent {
        let kind = match self.kind {
            TraceKind::Begin => ObsKind::SimBegin,
            TraceKind::Read(e) => ObsKind::SimRead {
                entity: e.index() as u32,
            },
            TraceKind::Write(e) => ObsKind::SimWrite {
                entity: e.index() as u32,
            },
            TraceKind::Commit => ObsKind::SimCommit,
            TraceKind::Abort => ObsKind::SimAbort,
        };
        ObsEvent {
            ts: self.time,
            shard,
            txn: self.txn.0,
            kind,
        }
    }
}

/// Bridge a finished run's trace into a flight-recorder sink, preserving
/// simulated time as the event timestamp. This lets `ks-obs` tooling
/// (JSONL export, timeline stitching) consume simulator output unchanged.
pub fn record_trace(trace: &[TraceEvent], sink: &ObsSink) {
    for ev in trace {
        let obs = ev.to_obs(sink.shard());
        sink.emit_at(obs.ts, obs.txn, obs.kind);
    }
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
    fn trace_bridges_to_obs_preserving_sim_time() {
        use ks_obs::Recorder;
        let e = EntityId(3);
        let trace = vec![
            ev(10, 1, TraceKind::Begin),
            ev(11, 1, TraceKind::Read(e)),
            ev(12, 1, TraceKind::Write(e)),
            ev(13, 1, TraceKind::Commit),
            ev(14, 2, TraceKind::Abort),
        ];
        let rec = Recorder::new(64);
        record_trace(&trace, &rec.sink(u32::MAX));
        let events = rec.drain();
        assert_eq!(events.len(), trace.len());
        assert_eq!(events[0].ts, 10);
        assert!(matches!(events[1].kind, ObsKind::SimRead { entity: 3 }));
        assert!(matches!(events[3].kind, ObsKind::SimCommit));
        assert_eq!(events[4].txn, 2);
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
