//! JSONL serialization of event streams.
//!
//! Hand-written and dependency-free — no `serde_json`, a stable format,
//! and an exact round-trip. One event per line:
//!
//! ```text
//! {"ts":1201,"shard":0,"txn":3,"kind":"version_assigned","entity":1,"version":4,"forced":false}
//! ```
//!
//! Every value the encoder emits is an unsigned integer, a boolean, or one
//! of a fixed set of bare-word strings (kind and op names), so the parser
//! is a small exact-match scanner, not a general JSON implementation. It
//! rejects anything the encoder would not produce.

use crate::event::{ObsEvent, ObsKind, OpCode, SpanHop};
use std::fmt::Write as _;

/// A malformed JSONL document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line the error was detected at (0 for stream-level).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "jsonl error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Encode one event as a single JSON object (no trailing newline).
pub fn event_to_json(ev: &ObsEvent) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(
        s,
        "{{\"ts\":{},\"shard\":{},\"txn\":{},\"kind\":\"{}\"",
        ev.ts,
        ev.shard,
        ev.txn,
        ev.kind.name()
    );
    match ev.kind {
        ObsKind::SessionAdmit
        | ObsKind::SessionShed
        | ObsKind::TxnBegin
        | ObsKind::TxnValidated
        | ObsKind::TxnCommitted
        | ObsKind::TxnAborted => {}
        ObsKind::Enqueue { op } => {
            let _ = write!(s, ",\"op\":\"{}\"", op.name());
        }
        ObsKind::Execute { op, queue_ns } => {
            let _ = write!(s, ",\"op\":\"{}\",\"queue_ns\":{queue_ns}", op.name());
        }
        ObsKind::Reply { op, ok, exec_ns } => {
            let _ = write!(
                s,
                ",\"op\":\"{}\",\"ok\":{ok},\"exec_ns\":{exec_ns}",
                op.name()
            );
        }
        ObsKind::CandidatesConsidered { entity, count } => {
            let _ = write!(s, ",\"entity\":{entity},\"count\":{count}");
        }
        ObsKind::VersionAssigned {
            entity,
            version,
            forced,
        } => {
            let _ = write!(
                s,
                ",\"entity\":{entity},\"version\":{version},\"forced\":{forced}"
            );
        }
        ObsKind::ValidationUnsat { clause } => {
            let _ = write!(s, ",\"clause\":{clause}");
        }
        ObsKind::ReEvalTriggered { entity, version } => {
            let _ = write!(s, ",\"entity\":{entity},\"version\":{version}");
        }
        ObsKind::ReAssigned { holder, entity }
        | ObsKind::ReEvalAbort { holder, entity }
        | ObsKind::ReassignFailed { holder, entity } => {
            let _ = write!(s, ",\"holder\":{holder},\"entity\":{entity}");
        }
        ObsKind::CascadeEdge { from, to, entity } => {
            let _ = write!(s, ",\"from\":{from},\"to\":{to},\"entity\":{entity}");
        }
        ObsKind::ConnOpened { conn } | ObsKind::ConnClosed { conn } => {
            let _ = write!(s, ",\"conn\":{conn}");
        }
        ObsKind::NetRetry {
            op,
            attempt,
            delay_ns,
        } => {
            let _ = write!(
                s,
                ",\"op\":\"{}\",\"attempt\":{attempt},\"delay_ns\":{delay_ns}",
                op.name()
            );
        }
        ObsKind::NetBatch { ops } => {
            let _ = write!(s, ",\"ops\":{ops}");
        }
        ObsKind::WorkerDrain { n } => {
            let _ = write!(s, ",\"n\":{n}");
        }
        ObsKind::WalAppend { bytes } => {
            let _ = write!(s, ",\"bytes\":{bytes}");
        }
        ObsKind::WalFsync { records, sync_ns } => {
            let _ = write!(s, ",\"records\":{records},\"sync_ns\":{sync_ns}");
        }
        ObsKind::GroupCommit { n } => {
            let _ = write!(s, ",\"n\":{n}");
        }
        ObsKind::RecoveryReplay { writes, committed } => {
            let _ = write!(s, ",\"writes\":{writes},\"committed\":{committed}");
        }
        ObsKind::SpanStart { hop, op, trace } => {
            let _ = write!(
                s,
                ",\"hop\":\"{}\",\"op\":\"{}\",\"trace\":{trace}",
                hop.name(),
                op.name()
            );
        }
        ObsKind::SpanEnd { hop, ok, trace } => {
            let _ = write!(
                s,
                ",\"hop\":\"{}\",\"ok\":{ok},\"trace\":{trace}",
                hop.name()
            );
        }
        ObsKind::TelemetryDelta { seq, windows } => {
            let _ = write!(s, ",\"seq\":{seq},\"windows\":{windows}");
        }
    }
    s.push('}');
    s
}

/// Encode a stream as JSONL (one event per line, trailing newline).
pub fn to_jsonl(events: &[ObsEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        out.push_str(&event_to_json(ev));
        out.push('\n');
    }
    out
}

/// The flat key/value pairs of one encoded object.
struct Fields<'a> {
    pairs: Vec<(&'a str, &'a str)>,
    line: usize,
}

impl<'a> Fields<'a> {
    /// Split `{"k":v,...}` into raw pairs. Values never contain `,` `:`
    /// `{` `}` (integers, booleans, bare-word strings), so splitting on
    /// commas is exact for this format.
    fn parse(line_no: usize, text: &'a str) -> Result<Fields<'a>, JsonError> {
        let e = |m: String| JsonError {
            line: line_no,
            message: m,
        };
        let body = text
            .strip_prefix('{')
            .and_then(|t| t.strip_suffix('}'))
            .ok_or_else(|| e(format!("expected {{…}}, got {text:?}")))?;
        let mut pairs = Vec::new();
        for part in body.split(',') {
            let (k, v) = part
                .split_once(':')
                .ok_or_else(|| e(format!("expected \"key\":value, got {part:?}")))?;
            let k = k
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .ok_or_else(|| e(format!("unquoted key {k:?}")))?;
            pairs.push((k, v));
        }
        Ok(Fields {
            pairs,
            line: line_no,
        })
    }

    fn err(&self, m: String) -> JsonError {
        JsonError {
            line: self.line,
            message: m,
        }
    }

    fn raw(&self, key: &str) -> Result<&'a str, JsonError> {
        self.pairs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
            .ok_or_else(|| self.err(format!("missing field {key:?}")))
    }

    fn u64(&self, key: &str) -> Result<u64, JsonError> {
        let v = self.raw(key)?;
        v.parse()
            .map_err(|_| self.err(format!("field {key:?}: expected integer, got {v:?}")))
    }

    fn u32(&self, key: &str) -> Result<u32, JsonError> {
        let v = self.raw(key)?;
        v.parse()
            .map_err(|_| self.err(format!("field {key:?}: expected u32, got {v:?}")))
    }

    fn bool(&self, key: &str) -> Result<bool, JsonError> {
        match self.raw(key)? {
            "true" => Ok(true),
            "false" => Ok(false),
            v => Err(self.err(format!("field {key:?}: expected bool, got {v:?}"))),
        }
    }

    fn string(&self, key: &str) -> Result<&'a str, JsonError> {
        let v = self.raw(key)?;
        v.strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| self.err(format!("field {key:?}: expected string, got {v:?}")))
    }

    fn op(&self) -> Result<OpCode, JsonError> {
        let name = self.string("op")?;
        OpCode::from_name(name).ok_or_else(|| self.err(format!("unknown op {name:?}")))
    }

    fn hop(&self) -> Result<SpanHop, JsonError> {
        let name = self.string("hop")?;
        SpanHop::from_name(name).ok_or_else(|| self.err(format!("unknown hop {name:?}")))
    }
}

/// Decode one JSON object line back into an event.
pub fn event_from_json(line_no: usize, text: &str) -> Result<ObsEvent, JsonError> {
    let f = Fields::parse(line_no, text.trim())?;
    let kind_name = f.string("kind")?;
    let kind = match kind_name {
        "session_admit" => ObsKind::SessionAdmit,
        "session_shed" => ObsKind::SessionShed,
        "enqueue" => ObsKind::Enqueue { op: f.op()? },
        "execute" => ObsKind::Execute {
            op: f.op()?,
            queue_ns: f.u64("queue_ns")?,
        },
        "reply" => ObsKind::Reply {
            op: f.op()?,
            ok: f.bool("ok")?,
            exec_ns: f.u64("exec_ns")?,
        },
        "txn_begin" => ObsKind::TxnBegin,
        "txn_validated" => ObsKind::TxnValidated,
        "txn_committed" => ObsKind::TxnCommitted,
        "txn_aborted" => ObsKind::TxnAborted,
        "candidates_considered" => ObsKind::CandidatesConsidered {
            entity: f.u32("entity")?,
            count: f.u32("count")?,
        },
        "version_assigned" => ObsKind::VersionAssigned {
            entity: f.u32("entity")?,
            version: f.u32("version")?,
            forced: f.bool("forced")?,
        },
        "validation_unsat" => ObsKind::ValidationUnsat {
            clause: f.u32("clause")?,
        },
        "re_eval_triggered" => ObsKind::ReEvalTriggered {
            entity: f.u32("entity")?,
            version: f.u32("version")?,
        },
        "re_assigned" => ObsKind::ReAssigned {
            holder: f.u32("holder")?,
            entity: f.u32("entity")?,
        },
        "re_eval_abort" => ObsKind::ReEvalAbort {
            holder: f.u32("holder")?,
            entity: f.u32("entity")?,
        },
        "reassign_failed" => ObsKind::ReassignFailed {
            holder: f.u32("holder")?,
            entity: f.u32("entity")?,
        },
        "cascade_edge" => ObsKind::CascadeEdge {
            from: f.u32("from")?,
            to: f.u32("to")?,
            entity: f.u32("entity")?,
        },
        "conn_opened" => ObsKind::ConnOpened {
            conn: f.u32("conn")?,
        },
        "conn_closed" => ObsKind::ConnClosed {
            conn: f.u32("conn")?,
        },
        "net_retry" => ObsKind::NetRetry {
            op: f.op()?,
            attempt: f.u32("attempt")?,
            delay_ns: f.u64("delay_ns")?,
        },
        "net_batch" => ObsKind::NetBatch { ops: f.u32("ops")? },
        "worker_drain" => ObsKind::WorkerDrain { n: f.u32("n")? },
        "wal_append" => ObsKind::WalAppend {
            bytes: f.u32("bytes")?,
        },
        "wal_fsync" => ObsKind::WalFsync {
            records: f.u32("records")?,
            sync_ns: f.u64("sync_ns")?,
        },
        "group_commit" => ObsKind::GroupCommit { n: f.u32("n")? },
        "recovery_replay" => ObsKind::RecoveryReplay {
            writes: f.u32("writes")?,
            committed: f.u32("committed")?,
        },
        "span_start" => ObsKind::SpanStart {
            hop: f.hop()?,
            op: f.op()?,
            trace: f.u64("trace")?,
        },
        "span_end" => ObsKind::SpanEnd {
            hop: f.hop()?,
            ok: f.bool("ok")?,
            trace: f.u64("trace")?,
        },
        "telemetry_delta" => ObsKind::TelemetryDelta {
            seq: f.u32("seq")?,
            windows: f.u32("windows")?,
        },
        other => return Err(f.err(format!("unknown kind {other:?}"))),
    };
    Ok(ObsEvent {
        ts: f.u64("ts")?,
        shard: f.u32("shard")?,
        txn: f.u32("txn")?,
        kind,
    })
}

/// Decode a JSONL stream (blank lines are skipped).
pub fn from_jsonl(text: &str) -> Result<Vec<ObsEvent>, JsonError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(event_from_json(i + 1, line)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_TXN;

    #[test]
    fn encodes_the_documented_shape() {
        let ev = ObsEvent {
            ts: 1201,
            shard: 0,
            txn: 3,
            kind: ObsKind::VersionAssigned {
                entity: 1,
                version: 4,
                forced: false,
            },
        };
        assert_eq!(
            event_to_json(&ev),
            "{\"ts\":1201,\"shard\":0,\"txn\":3,\"kind\":\"version_assigned\",\
             \"entity\":1,\"version\":4,\"forced\":false}"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(event_from_json(1, "").is_err());
        assert!(event_from_json(1, "not json").is_err());
        assert!(event_from_json(1, "{\"ts\":1}").is_err());
        assert!(
            event_from_json(1, "{\"ts\":1,\"shard\":0,\"txn\":0,\"kind\":\"quantum\"}").is_err()
        );
        // Missing payload field.
        assert!(event_from_json(
            1,
            "{\"ts\":1,\"shard\":0,\"txn\":0,\"kind\":\"conn_opened\"}"
        )
        .is_err());
    }

    #[test]
    fn blank_lines_are_skipped() {
        let ev = ObsEvent {
            ts: 7,
            shard: 1,
            txn: NO_TXN,
            kind: ObsKind::SessionAdmit,
        };
        let text = format!("\n{}\n\n", event_to_json(&ev));
        assert_eq!(from_jsonl(&text).unwrap(), vec![ev]);
    }
}
