//! JSONL wire round-trip: every event kind survives encode → decode
//! exactly, through both the packed ring representation and the JSONL
//! text format. This is the CI gate `scripts/check.sh` runs by name.

use ks_obs::{
    event_from_json, event_to_json, from_jsonl, to_jsonl, ObsEvent, ObsKind, OpCode, SpanHop,
};

/// One event of every kind, with payload values that exercise edge cases
/// (zero, `u32::MAX` sentinels, large ns counts, both booleans).
fn corpus() -> Vec<ObsEvent> {
    let kinds = vec![
        ObsKind::SessionAdmit,
        ObsKind::SessionShed,
        ObsKind::Enqueue { op: OpCode::Define },
        ObsKind::Enqueue { op: OpCode::Stats },
        ObsKind::Execute {
            op: OpCode::Validate,
            queue_ns: u64::MAX / 2,
        },
        ObsKind::Reply {
            op: OpCode::Write,
            ok: true,
            exec_ns: 1,
        },
        ObsKind::Reply {
            op: OpCode::Read,
            ok: false,
            exec_ns: 0,
        },
        ObsKind::TxnBegin,
        ObsKind::TxnValidated,
        ObsKind::TxnCommitted,
        ObsKind::TxnAborted,
        ObsKind::CandidatesConsidered {
            entity: 0,
            count: u32::MAX,
        },
        ObsKind::VersionAssigned {
            entity: 7,
            version: 0,
            forced: true,
        },
        ObsKind::VersionAssigned {
            entity: 7,
            version: 3,
            forced: false,
        },
        ObsKind::ValidationUnsat { clause: 5 },
        ObsKind::ValidationUnsat { clause: u32::MAX },
        ObsKind::ReEvalTriggered {
            entity: 2,
            version: 9,
        },
        ObsKind::ReAssigned {
            holder: 4,
            entity: 2,
        },
        ObsKind::ReEvalAbort {
            holder: 1,
            entity: 0,
        },
        ObsKind::ReassignFailed {
            holder: 3,
            entity: 1,
        },
        ObsKind::CascadeEdge {
            from: 2,
            to: 6,
            entity: 0,
        },
        ObsKind::ConnOpened { conn: 0 },
        ObsKind::ConnOpened { conn: u32::MAX },
        ObsKind::ConnClosed { conn: 17 },
        ObsKind::NetRetry {
            op: OpCode::Validate,
            attempt: 1,
            delay_ns: 0,
        },
        ObsKind::NetRetry {
            op: OpCode::Define,
            attempt: u32::MAX,
            delay_ns: u64::MAX / 2,
        },
        ObsKind::NetBatch { ops: 0 },
        ObsKind::NetBatch { ops: u32::MAX },
        ObsKind::WorkerDrain { n: 1 },
        ObsKind::WorkerDrain { n: u32::MAX },
        ObsKind::WalAppend { bytes: 0 },
        ObsKind::WalAppend { bytes: u32::MAX },
        ObsKind::WalFsync {
            records: 0,
            sync_ns: u64::MAX / 2,
        },
        ObsKind::WalFsync {
            records: u32::MAX,
            sync_ns: 0,
        },
        ObsKind::GroupCommit { n: 1 },
        ObsKind::GroupCommit { n: u32::MAX },
        ObsKind::RecoveryReplay {
            writes: 0,
            committed: u32::MAX,
        },
        ObsKind::RecoveryReplay {
            writes: u32::MAX,
            committed: 0,
        },
        ObsKind::Enqueue { op: OpCode::Batch },
        ObsKind::Reply {
            op: OpCode::Batch,
            ok: true,
            exec_ns: 42,
        },
        ObsKind::TelemetryDelta {
            seq: 0,
            windows: u32::MAX,
        },
        ObsKind::TelemetryDelta {
            seq: u32::MAX,
            windows: 0,
        },
    ];
    // Every span hop, as both a start (each op exercised somewhere) and
    // an end (both outcomes), with edge-case trace ids.
    let kinds: Vec<ObsKind> = kinds
        .into_iter()
        .chain(SpanHop::all().into_iter().enumerate().flat_map(|(i, hop)| {
            let ops = [
                OpCode::Define,
                OpCode::Validate,
                OpCode::Read,
                OpCode::Write,
                OpCode::Commit,
                OpCode::Abort,
                OpCode::Stats,
                OpCode::Batch,
            ];
            [
                ObsKind::SpanStart {
                    hop,
                    op: ops[i % ops.len()],
                    trace: if i % 2 == 0 { 1 } else { u64::MAX },
                },
                ObsKind::SpanEnd {
                    hop,
                    ok: i % 2 == 0,
                    trace: u64::MAX / (i as u64 + 1),
                },
            ]
        }))
        .collect();
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| ObsEvent {
            ts: i as u64 * 1_000_003,
            shard: (i % 5) as u32,
            txn: if i % 7 == 0 { u32::MAX } else { i as u32 },
            kind,
        })
        .collect()
}

#[test]
fn jsonl_round_trips_every_kind() {
    let events = corpus();
    let text = to_jsonl(&events);
    let back = from_jsonl(&text).expect("decode");
    assert_eq!(events, back);
}

#[test]
fn single_lines_round_trip() {
    for ev in corpus() {
        let line = event_to_json(&ev);
        assert_eq!(event_from_json(1, &line).expect(&line), ev, "{line}");
    }
}

#[test]
fn packed_and_jsonl_agree() {
    // Ring packing and JSONL are two encodings of the same event; going
    // through either must yield the same value.
    for ev in corpus() {
        let via_pack = ObsEvent::unpack(ev.pack()).expect("pack");
        let via_json = event_from_json(1, &event_to_json(&ev)).expect("json");
        assert_eq!(via_pack, via_json);
    }
}

#[test]
fn decode_reports_line_numbers() {
    let mut text = to_jsonl(&corpus());
    text.push_str("{\"ts\":0,\"shard\":0,\"txn\":0,\"kind\":\"warp_drive\"}\n");
    let err = from_jsonl(&text).unwrap_err();
    assert_eq!(err.line, corpus().len() + 1);
    assert!(err.message.contains("warp_drive"), "{err}");
}
