//! The typed event model.
//!
//! Events are deliberately flat and integer-valued so one event packs into
//! five `u64` words (see [`ObsEvent::pack`]) and the recording hot path
//! never allocates. Ids are raw integers, not the typed ids of the other
//! crates, so `ks-obs` sits at the bottom of the dependency DAG and every
//! layer (protocol, server, net) can emit into the same stream.

/// Sentinel for "no transaction" (service-level events).
pub const NO_TXN: u32 = u32::MAX;

/// Which service operation a lifecycle event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpCode {
    /// `define` — create a transaction.
    Define,
    /// `validate` — version assignment.
    Validate,
    /// `read`.
    Read,
    /// `write`.
    Write,
    /// `commit`.
    Commit,
    /// `abort`.
    Abort,
    /// statistics snapshot.
    Stats,
    /// `run_batch` — a read/write burst executed as one request.
    Batch,
}

impl OpCode {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            OpCode::Define => "define",
            OpCode::Validate => "validate",
            OpCode::Read => "read",
            OpCode::Write => "write",
            OpCode::Commit => "commit",
            OpCode::Abort => "abort",
            OpCode::Stats => "stats",
            OpCode::Batch => "batch",
        }
    }

    fn code(self) -> u32 {
        match self {
            OpCode::Define => 0,
            OpCode::Validate => 1,
            OpCode::Read => 2,
            OpCode::Write => 3,
            OpCode::Commit => 4,
            OpCode::Abort => 5,
            OpCode::Stats => 6,
            OpCode::Batch => 7,
        }
    }

    fn from_code(c: u32) -> Option<OpCode> {
        Some(match c {
            0 => OpCode::Define,
            1 => OpCode::Validate,
            2 => OpCode::Read,
            3 => OpCode::Write,
            4 => OpCode::Commit,
            5 => OpCode::Abort,
            6 => OpCode::Stats,
            7 => OpCode::Batch,
            _ => return None,
        })
    }

    /// Parse a wire name.
    pub fn from_name(s: &str) -> Option<OpCode> {
        Some(match s {
            "define" => OpCode::Define,
            "validate" => OpCode::Validate,
            "read" => OpCode::Read,
            "write" => OpCode::Write,
            "commit" => OpCode::Commit,
            "abort" => OpCode::Abort,
            "stats" => OpCode::Stats,
            "batch" => OpCode::Batch,
            _ => return None,
        })
    }
}

/// A distributed-trace hop: where in the request pipeline a span was
/// recorded. The hop taxonomy is fixed, so the span tree's shape is
/// encoded here once — [`SpanHop::parent`] gives the static topology the
/// stitcher uses — and a span event only needs `(trace, hop)` to place
/// itself, never an explicit span-id chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanHop {
    /// The whole request as the originator saw it: send → reply (remote
    /// client) or call → reply (in-process session).
    Request,
    /// Server connection handler: frame decoded → response bytes ready.
    ConnHandle,
    /// Wait for the shard lock: asked → held.
    Queue,
    /// Execution under the shard lock: held → protocol result.
    Exec,
    /// Certifier decision inside execution (validate / commit); the end
    /// event's `ok` carries the decision outcome.
    Certify,
    /// Group commit: ticket enqueued by the worker → picked up by the
    /// flusher.
    WalEnqueue,
    /// Group commit: flusher pickup → fsync issued (the wait for other
    /// sessions' commits; ≈ 0 for a lone session).
    WalBarrier,
    /// Durability barrier: fsync start → fsync complete.
    WalFsync,
}

impl SpanHop {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            SpanHop::Request => "request",
            SpanHop::ConnHandle => "conn_handle",
            SpanHop::Queue => "queue",
            SpanHop::Exec => "exec",
            SpanHop::Certify => "certify",
            SpanHop::WalEnqueue => "wal_enqueue",
            SpanHop::WalBarrier => "wal_barrier",
            SpanHop::WalFsync => "wal_fsync",
        }
    }

    /// Parse a wire name.
    pub fn from_name(s: &str) -> Option<SpanHop> {
        Some(match s {
            "request" => SpanHop::Request,
            "conn_handle" => SpanHop::ConnHandle,
            "queue" => SpanHop::Queue,
            "exec" => SpanHop::Exec,
            "certify" => SpanHop::Certify,
            "wal_enqueue" => SpanHop::WalEnqueue,
            "wal_barrier" => SpanHop::WalBarrier,
            "wal_fsync" => SpanHop::WalFsync,
            _ => return None,
        })
    }

    /// Packed code.
    pub fn code(self) -> u32 {
        match self {
            SpanHop::Request => 0,
            SpanHop::ConnHandle => 1,
            SpanHop::Queue => 2,
            SpanHop::Exec => 3,
            SpanHop::Certify => 4,
            SpanHop::WalEnqueue => 5,
            SpanHop::WalBarrier => 6,
            SpanHop::WalFsync => 7,
        }
    }

    /// Decode a packed code.
    pub fn from_code(c: u32) -> Option<SpanHop> {
        Some(match c {
            0 => SpanHop::Request,
            1 => SpanHop::ConnHandle,
            2 => SpanHop::Queue,
            3 => SpanHop::Exec,
            4 => SpanHop::Certify,
            5 => SpanHop::WalEnqueue,
            6 => SpanHop::WalBarrier,
            7 => SpanHop::WalFsync,
            _ => return None,
        })
    }

    /// The hop's static parent in the span topology, `None` for the
    /// root. A stitched trace may omit intermediate hops (an in-process
    /// request has no `ConnHandle`); the stitcher attaches a span to its
    /// nearest *present* ancestor.
    pub fn parent(self) -> Option<SpanHop> {
        match self {
            SpanHop::Request => None,
            SpanHop::ConnHandle => Some(SpanHop::Request),
            SpanHop::Queue | SpanHop::Exec => Some(SpanHop::ConnHandle),
            SpanHop::Certify => Some(SpanHop::Exec),
            // WAL hops overlap the worker's deferred-ack window, not the
            // execute interval, so they nest under the connection handler
            // (the conn thread blocks until the flusher acks).
            SpanHop::WalEnqueue | SpanHop::WalBarrier | SpanHop::WalFsync => {
                Some(SpanHop::ConnHandle)
            }
        }
    }

    /// Every hop, in topology order.
    pub fn all() -> [SpanHop; 8] {
        [
            SpanHop::Request,
            SpanHop::ConnHandle,
            SpanHop::Queue,
            SpanHop::Exec,
            SpanHop::Certify,
            SpanHop::WalEnqueue,
            SpanHop::WalBarrier,
            SpanHop::WalFsync,
        ]
    }
}

/// What happened. The taxonomy covers the three layers that emit:
///
/// * **request lifecycle** (server): [`ObsKind::Enqueue`] when a session
///   asks for a shard's lock, [`ObsKind::Execute`] once it holds it
///   (carrying the wait), [`ObsKind::Reply`] when the call finishes
///   (carrying the execute time);
/// * **transaction lifecycle** (protocol): begin / validated / committed /
///   aborted, plus session admission at the service edge;
/// * **protocol decisions** (the Figure 3/4 machinery): how many candidate
///   versions were considered per entity, which version was assigned (and
///   whether it was forced by a test hook), which CNF clause made a
///   validation unsatisfiable, each re-eval trigger, each re-assign /
///   re-eval abort, and each cascade edge (doomed author → dependent
///   sibling);
/// * **network lifecycle** (`ks-net`): connection open/close on the
///   server and retry/backoff decisions on the remote client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsKind {
    /// A session was admitted by the service.
    SessionAdmit,
    /// A session was shed by admission control.
    SessionShed,
    /// A session asked for a shard's lock to run a request.
    Enqueue {
        /// The operation.
        op: OpCode,
    },
    /// A request holds its shard's lock and starts executing.
    Execute {
        /// The operation.
        op: OpCode,
        /// Nanoseconds the request waited for the shard lock.
        queue_ns: u64,
    },
    /// A request finished executing under its shard's lock.
    Reply {
        /// The operation.
        op: OpCode,
        /// Did the call succeed (`Ok`)?
        ok: bool,
        /// Nanoseconds spent executing (dequeue → reply ready, before the
        /// send).
        exec_ns: u64,
    },
    /// A transaction was defined.
    TxnBegin,
    /// A transaction passed validation (versions assigned).
    TxnValidated,
    /// A transaction committed.
    TxnCommitted,
    /// A transaction aborted (explicitly, by re-eval, or by cascade).
    TxnAborted,
    /// Validation considered a candidate version set for one entity.
    CandidatesConsidered {
        /// The entity (shard-local id).
        entity: u32,
        /// Number of allowed candidate versions.
        count: u32,
    },
    /// A version was assigned to a transaction's input set.
    VersionAssigned {
        /// The entity.
        entity: u32,
        /// The assigned version's index in the entity's chain.
        version: u32,
        /// True when injected by the `force_assign` test hook rather than
        /// chosen by the solver — the smoking gun in a violation dump.
        forced: bool,
    },
    /// Validation found no satisfying assignment. `clause` is the index of
    /// the first input-CNF clause no candidate combination can satisfy, or
    /// `u32::MAX` when every clause is individually satisfiable and the
    /// conflict is cross-clause.
    ValidationUnsat {
        /// Failing clause index (`u32::MAX` = cross-clause conflict).
        clause: u32,
    },
    /// A write triggered the Figure 4 re-eval procedure.
    ReEvalTriggered {
        /// The written entity.
        entity: u32,
        /// The new version's index in the entity's chain.
        version: u32,
    },
    /// Re-eval salvaged a holder by re-assignment.
    ReAssigned {
        /// The salvaged sibling.
        holder: u32,
        /// The entity whose version went stale.
        entity: u32,
    },
    /// Re-eval aborted a holder that had already read the stale version.
    ReEvalAbort {
        /// The aborted sibling.
        holder: u32,
        /// The entity whose version went stale.
        entity: u32,
    },
    /// Re-assignment failed and the holder was aborted.
    ReassignFailed {
        /// The aborted sibling.
        holder: u32,
        /// The entity whose version went stale.
        entity: u32,
    },
    /// An abort cascaded: `from`'s doomed versions forced `to` down.
    CascadeEdge {
        /// The transaction whose versions are doomed.
        from: u32,
        /// The dependent sibling that was aborted or re-assigned.
        to: u32,
        /// The entity carrying the dependency.
        entity: u32,
    },
    /// Network: a TCP connection was accepted and its session admitted.
    ConnOpened {
        /// Server-assigned connection id.
        conn: u32,
    },
    /// Network: a connection closed (client bye, drain, or error).
    ConnClosed {
        /// Server-assigned connection id.
        conn: u32,
    },
    /// Network: a remote client backed off and retried a transient reply.
    NetRetry {
        /// The operation being retried.
        op: OpCode,
        /// 1-based retry attempt number.
        attempt: u32,
        /// Nanoseconds of jittered backoff slept before this attempt.
        delay_ns: u64,
    },
    /// Network: a remote client sent a `Batch` frame.
    NetBatch {
        /// Number of read/write ops packed into the frame.
        ops: u32,
    },
    /// Durability: a record was appended to the write-ahead log (not
    /// yet durable).
    WalAppend {
        /// Encoded frame length in bytes.
        bytes: u32,
    },
    /// Durability: an fsync barrier completed on the log.
    WalFsync {
        /// Records the barrier covered (the flush queue depth drained).
        records: u32,
        /// Nanoseconds the barrier took. Timing-dependent, so
        /// deterministic trace comparisons must zero it.
        sync_ns: u64,
    },
    /// Durability: the group-commit flusher amortized one fsync across
    /// a batch of concurrent commit acknowledgements.
    GroupCommit {
        /// Commits acknowledged by this single fsync.
        n: u32,
    },
    /// Durability: recovery replayed the log onto one shard's state at
    /// service startup.
    RecoveryReplay {
        /// Committed writes applied to the shard's base state.
        writes: u32,
        /// Finally-committed transactions recovered on the shard.
        committed: u32,
    },
    /// Tracing: a span opened at a pipeline hop. `trace` is the
    /// end-to-end trace id minted by the sampling originator (never 0 —
    /// 0 on the wire means "unsampled").
    SpanStart {
        /// Where in the pipeline.
        hop: SpanHop,
        /// The operation the traced request carries.
        op: OpCode,
        /// The trace id.
        trace: u64,
    },
    /// Tracing: a span closed at a pipeline hop.
    SpanEnd {
        /// Where in the pipeline.
        hop: SpanHop,
        /// Did the hop succeed? For [`SpanHop::Certify`] this is the
        /// certifier's decision outcome.
        ok: bool,
        /// The trace id.
        trace: u64,
    },
    /// Telemetry: a windowed snapshot delta was exported (over the wire
    /// or to an in-process puller).
    TelemetryDelta {
        /// The puller's cursor after this delta (next window sequence).
        seq: u32,
        /// Windows carried by the delta.
        windows: u32,
    },
}

impl ObsKind {
    /// Stable wire name (also the JSONL `kind` field).
    pub fn name(self) -> &'static str {
        match self {
            ObsKind::SessionAdmit => "session_admit",
            ObsKind::SessionShed => "session_shed",
            ObsKind::Enqueue { .. } => "enqueue",
            ObsKind::Execute { .. } => "execute",
            ObsKind::Reply { .. } => "reply",
            ObsKind::TxnBegin => "txn_begin",
            ObsKind::TxnValidated => "txn_validated",
            ObsKind::TxnCommitted => "txn_committed",
            ObsKind::TxnAborted => "txn_aborted",
            ObsKind::CandidatesConsidered { .. } => "candidates_considered",
            ObsKind::VersionAssigned { .. } => "version_assigned",
            ObsKind::ValidationUnsat { .. } => "validation_unsat",
            ObsKind::ReEvalTriggered { .. } => "re_eval_triggered",
            ObsKind::ReAssigned { .. } => "re_assigned",
            ObsKind::ReEvalAbort { .. } => "re_eval_abort",
            ObsKind::ReassignFailed { .. } => "reassign_failed",
            ObsKind::CascadeEdge { .. } => "cascade_edge",
            ObsKind::ConnOpened { .. } => "conn_opened",
            ObsKind::ConnClosed { .. } => "conn_closed",
            ObsKind::NetRetry { .. } => "net_retry",
            ObsKind::NetBatch { .. } => "net_batch",
            ObsKind::WalAppend { .. } => "wal_append",
            ObsKind::WalFsync { .. } => "wal_fsync",
            ObsKind::GroupCommit { .. } => "group_commit",
            ObsKind::RecoveryReplay { .. } => "recovery_replay",
            ObsKind::SpanStart { .. } => "span_start",
            ObsKind::SpanEnd { .. } => "span_end",
            ObsKind::TelemetryDelta { .. } => "telemetry_delta",
        }
    }

    /// `(tag, a, b, c)` — the packed payload.
    fn fields(self) -> (u32, u32, u32, u64) {
        match self {
            ObsKind::SessionAdmit => (0, 0, 0, 0),
            ObsKind::SessionShed => (1, 0, 0, 0),
            ObsKind::Enqueue { op } => (2, op.code(), 0, 0),
            ObsKind::Execute { op, queue_ns } => (3, op.code(), 0, queue_ns),
            ObsKind::Reply { op, ok, exec_ns } => (4, op.code(), ok as u32, exec_ns),
            ObsKind::TxnBegin => (5, 0, 0, 0),
            ObsKind::TxnValidated => (6, 0, 0, 0),
            ObsKind::TxnCommitted => (7, 0, 0, 0),
            ObsKind::TxnAborted => (8, 0, 0, 0),
            ObsKind::CandidatesConsidered { entity, count } => (9, entity, count, 0),
            ObsKind::VersionAssigned {
                entity,
                version,
                forced,
            } => (10, entity, version, forced as u64),
            ObsKind::ValidationUnsat { clause } => (11, clause, 0, 0),
            ObsKind::ReEvalTriggered { entity, version } => (12, entity, version, 0),
            ObsKind::ReAssigned { holder, entity } => (13, holder, entity, 0),
            ObsKind::ReEvalAbort { holder, entity } => (14, holder, entity, 0),
            ObsKind::ReassignFailed { holder, entity } => (15, holder, entity, 0),
            ObsKind::CascadeEdge { from, to, entity } => (16, from, to, entity as u64),
            ObsKind::ConnOpened { conn } => (22, conn, 0, 0),
            ObsKind::ConnClosed { conn } => (23, conn, 0, 0),
            ObsKind::NetRetry {
                op,
                attempt,
                delay_ns,
            } => (24, op.code(), attempt, delay_ns),
            ObsKind::NetBatch { ops } => (25, ops, 0, 0),
            ObsKind::WalAppend { bytes } => (27, bytes, 0, 0),
            ObsKind::WalFsync { records, sync_ns } => (28, records, 0, sync_ns),
            ObsKind::GroupCommit { n } => (29, n, 0, 0),
            ObsKind::RecoveryReplay { writes, committed } => (30, writes, committed, 0),
            ObsKind::SpanStart { hop, op, trace } => (31, hop.code(), op.code(), trace),
            ObsKind::SpanEnd { hop, ok, trace } => (32, hop.code(), ok as u32, trace),
            ObsKind::TelemetryDelta { seq, windows } => (33, seq, windows, 0),
        }
    }

    fn from_fields(tag: u32, a: u32, b: u32, c: u64) -> Option<ObsKind> {
        Some(match tag {
            0 => ObsKind::SessionAdmit,
            1 => ObsKind::SessionShed,
            2 => ObsKind::Enqueue {
                op: OpCode::from_code(a)?,
            },
            3 => ObsKind::Execute {
                op: OpCode::from_code(a)?,
                queue_ns: c,
            },
            4 => ObsKind::Reply {
                op: OpCode::from_code(a)?,
                ok: b != 0,
                exec_ns: c,
            },
            5 => ObsKind::TxnBegin,
            6 => ObsKind::TxnValidated,
            7 => ObsKind::TxnCommitted,
            8 => ObsKind::TxnAborted,
            9 => ObsKind::CandidatesConsidered {
                entity: a,
                count: b,
            },
            10 => ObsKind::VersionAssigned {
                entity: a,
                version: b,
                forced: c != 0,
            },
            11 => ObsKind::ValidationUnsat { clause: a },
            12 => ObsKind::ReEvalTriggered {
                entity: a,
                version: b,
            },
            13 => ObsKind::ReAssigned {
                holder: a,
                entity: b,
            },
            14 => ObsKind::ReEvalAbort {
                holder: a,
                entity: b,
            },
            15 => ObsKind::ReassignFailed {
                holder: a,
                entity: b,
            },
            16 => ObsKind::CascadeEdge {
                from: a,
                to: b,
                entity: c as u32,
            },
            22 => ObsKind::ConnOpened { conn: a },
            23 => ObsKind::ConnClosed { conn: a },
            24 => ObsKind::NetRetry {
                op: OpCode::from_code(a)?,
                attempt: b,
                delay_ns: c,
            },
            25 => ObsKind::NetBatch { ops: a },
            27 => ObsKind::WalAppend { bytes: a },
            28 => ObsKind::WalFsync {
                records: a,
                sync_ns: c,
            },
            29 => ObsKind::GroupCommit { n: a },
            30 => ObsKind::RecoveryReplay {
                writes: a,
                committed: b,
            },
            31 => ObsKind::SpanStart {
                hop: SpanHop::from_code(a)?,
                op: OpCode::from_code(b)?,
                trace: c,
            },
            32 => ObsKind::SpanEnd {
                hop: SpanHop::from_code(a)?,
                ok: b != 0,
                trace: c,
            },
            33 => ObsKind::TelemetryDelta { seq: a, windows: b },
            _ => return None,
        })
    }
}

/// One recorded event: a timestamp, a source coordinate, and a kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsEvent {
    /// Nanoseconds since the recorder's epoch.
    pub ts: u64,
    /// The shard (or `u32::MAX` for unsharded sources).
    pub shard: u32,
    /// The acting transaction's shard-local index, or [`NO_TXN`].
    pub txn: u32,
    /// What happened.
    pub kind: ObsKind,
}

impl ObsEvent {
    /// Pack into five words for the ring buffer.
    pub fn pack(&self) -> [u64; 5] {
        let (tag, a, b, c) = self.kind.fields();
        [
            self.ts,
            (u64::from(self.shard) << 32) | u64::from(self.txn),
            (u64::from(tag) << 32) | u64::from(a),
            u64::from(b),
            c,
        ]
    }

    /// Unpack five words; `None` when the tag is unknown (e.g. a torn or
    /// zero-initialized slot).
    pub fn unpack(words: [u64; 5]) -> Option<ObsEvent> {
        let kind = ObsKind::from_fields(
            (words[2] >> 32) as u32,
            words[2] as u32,
            words[3] as u32,
            words[4],
        )?;
        Some(ObsEvent {
            ts: words[0],
            shard: (words[1] >> 32) as u32,
            txn: words[1] as u32,
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn all_kinds() -> Vec<ObsKind> {
        vec![
            ObsKind::SessionAdmit,
            ObsKind::SessionShed,
            ObsKind::Enqueue { op: OpCode::Define },
            ObsKind::Execute {
                op: OpCode::Validate,
                queue_ns: 12_345,
            },
            ObsKind::Reply {
                op: OpCode::Commit,
                ok: true,
                exec_ns: 99,
            },
            ObsKind::Reply {
                op: OpCode::Abort,
                ok: false,
                exec_ns: 0,
            },
            ObsKind::TxnBegin,
            ObsKind::TxnValidated,
            ObsKind::TxnCommitted,
            ObsKind::TxnAborted,
            ObsKind::CandidatesConsidered {
                entity: 3,
                count: 17,
            },
            ObsKind::VersionAssigned {
                entity: 1,
                version: 4,
                forced: true,
            },
            ObsKind::ValidationUnsat { clause: 2 },
            ObsKind::ValidationUnsat { clause: u32::MAX },
            ObsKind::ReEvalTriggered {
                entity: 0,
                version: 7,
            },
            ObsKind::ReAssigned {
                holder: 2,
                entity: 0,
            },
            ObsKind::ReEvalAbort {
                holder: 5,
                entity: 1,
            },
            ObsKind::ReassignFailed {
                holder: 6,
                entity: 2,
            },
            ObsKind::CascadeEdge {
                from: 1,
                to: 9,
                entity: 3,
            },
            ObsKind::ConnOpened { conn: 3 },
            ObsKind::ConnClosed { conn: u32::MAX },
            ObsKind::NetRetry {
                op: OpCode::Commit,
                attempt: 4,
                delay_ns: 2_500_000,
            },
            ObsKind::NetBatch { ops: 6 },
            ObsKind::WalAppend { bytes: 33 },
            ObsKind::WalFsync {
                records: 12,
                sync_ns: 1_250_000,
            },
            ObsKind::GroupCommit { n: 8 },
            ObsKind::RecoveryReplay {
                writes: 40,
                committed: 13,
            },
            ObsKind::Enqueue { op: OpCode::Batch },
            ObsKind::SpanStart {
                hop: SpanHop::Request,
                op: OpCode::Commit,
                trace: u64::MAX / 3,
            },
            ObsKind::SpanEnd {
                hop: SpanHop::Certify,
                ok: true,
                trace: 1,
            },
            ObsKind::SpanEnd {
                hop: SpanHop::WalFsync,
                ok: false,
                trace: u64::MAX,
            },
            ObsKind::TelemetryDelta {
                seq: 42,
                windows: u32::MAX,
            },
        ]
    }

    #[test]
    fn pack_round_trips_every_kind() {
        for (i, kind) in all_kinds().into_iter().enumerate() {
            let ev = ObsEvent {
                ts: 1_000 + i as u64,
                shard: i as u32,
                txn: if i % 3 == 0 { NO_TXN } else { i as u32 },
                kind,
            };
            assert_eq!(ObsEvent::unpack(ev.pack()), Some(ev), "{kind:?}");
        }
    }

    #[test]
    fn zeroed_slot_is_a_session_admit_tag_but_unknown_tag_is_none() {
        // A zeroed slot decodes as tag 0; rings guard against this with
        // the seq field, not the payload. Unknown tags still fail closed.
        assert!(ObsEvent::unpack([0, 0, u64::from(u32::MAX) << 32, 0, 0]).is_none());
        // Tags 17–21 were the retired sim bridge's; they stay unassigned.
        assert!(ObsEvent::unpack([0, 0, 17u64 << 32, 0, 0]).is_none());
        // Tag 26 was the retired shard-worker drain event's.
        assert!(ObsEvent::unpack([0, 0, 26u64 << 32, 0, 0]).is_none());
    }
}
