//! The single-threaded driver and the post-run oracles.
//!
//! [`run_plan`] executes a [`RunPlan`] against a fresh [`World`]: each
//! step picks its client, arms the step's fault directive, and issues the
//! op through a real [`RemoteSession`] over a [`SimLink`]. The driver
//! tracks only what a correct client can know — which commits are
//! *definitely* applied (clean `Ok`) and which are *ambiguous* (a
//! timeout or transport failure after the commit may or may not have
//! landed) — and the oracles reconcile that against what the shard
//! certifiers actually did.
//!
//! Oracles, in order:
//!
//! 1. **History correctness** — [`verify_certifiers`]: every committed
//!    transaction re-checked against its backend's own criterion (CPC:
//!    the paper's input predicate holds on the assigned version state;
//!    SSI/2PL: conflict-graph serializability of the recorded history —
//!    catches double-applied commits and forced misassignments).
//! 2. **End state** — after every connection is reaped, no transaction
//!    is left non-terminal (catches a missing abort-on-disconnect sweep).
//! 3. **Commit coherence** — a commit the server acked `Done` may never
//!    be reported to its client as a definitive failure: the world keeps
//!    the set of acked `(conn, id)` pairs and the driver keeps the set
//!    the client concluded "definitely not committed"; they must be
//!    disjoint (this is exactly the lie an unsafe retry of a timed-out
//!    commit produces — the retried frame hits a spent id and the
//!    client is told a committed transaction failed).
//! 4. **Commit accounting** — the server's committed count must lie in
//!    `[definite, definite + ambiguous]`: the server may resolve
//!    ambiguity either way but can never commit more than the clients
//!    submitted, and never loses a commit it acknowledged.
//! 5. **Benign-fault liveness** — a step whose fault is
//!    [benign](Fault::is_benign) (the server provably produced a
//!    readable reply) must not end in a transport timeout, and the
//!    server-side stream must never record a framing/decode error
//!    (catches reassembly desync without corrupting a single byte).
//! 6. **Obs causality** — per ring and transaction: at most one
//!    `TxnCommitted`, no abort after a commit (a commit is final), no
//!    validation after termination, no begin after termination (catches
//!    trace corruption and double-retired txns).

use crate::link::{Protections, SimLink, World};
use crate::plan::{
    batch_ops_for, client_entities, spec_for, Fault, OpKind, RunPlan, CLIENTS, SLOTS,
};
use ks_net::{NetClientConfig, RemoteSession, RemoteTxn};
use ks_obs::{event_to_json, ObsEvent, ObsKind, Recorder};
use ks_protocol::{Backend, TxnState};
use ks_server::{verify_certifiers, Client, ServerError, TxnBuilder, VerifyReport};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// Everything a finished run exposes to tests, the shrinker, and the
/// artifact writer.
#[derive(Debug)]
pub struct RunOutcome {
    /// Every oracle violation (empty ⇔ the run passed).
    pub violations: Vec<String>,
    /// The predicate-correctness report.
    pub report: VerifyReport,
    /// Commits the clients saw succeed.
    pub definite_commits: usize,
    /// Commits whose outcome the clients could not observe.
    pub ambiguous_commits: usize,
    /// The run's observability trace with every wall-clock-valued field
    /// zeroed: byte-identical across runs of the same `(plan,
    /// protections)` — the seed-determinism regression surface.
    pub canonical_trace: String,
    /// The world's fault/delivery journal.
    pub journal: String,
    /// Flight-recorder events lost to ring wraparound (0 in practice;
    /// the causality oracle is skipped when nonzero).
    pub dropped_events: u64,
    /// Crash-restarts the plan executed (each one ran the durability
    /// oracle against the dying incarnation's committed effects).
    pub crashes: usize,
}

impl RunOutcome {
    /// Did any oracle fire?
    pub fn failed(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// What one op call told the driver.
enum Outcome {
    /// Clean success.
    Ok,
    /// A typed server error on a healthy connection: the op definitively
    /// did not happen (`Rejected`, unknown id, unsatisfiable, …).
    Definitive,
    /// `Busy`/`Backpressure` surfaced after the client's retries: the op
    /// did not happen and the step is simply skipped.
    Congested,
    /// A server-signalled `Timeout` on a healthy connection: the op may
    /// or may not have been applied.
    AmbiguousTimeout,
    /// The transport poisoned (read deadline, reset, desync): outcome
    /// unknown and the connection is dead.
    TransportFail,
}

/// Per-client driver state.
struct ClientState {
    client_index: usize,
    session: Option<RemoteSession<SimLink>>,
    conn_id: usize,
    slots: Vec<Option<RemoteTxn>>,
}

/// The client config the harness runs under: one attempt deadline is
/// irrelevant (the sim decides timeouts), backoff is nanoscale so runs
/// are fast, and the carve-out knob follows the protections.
fn dst_client_config(protections: Protections, recorder: &Recorder) -> NetClientConfig {
    NetClientConfig {
        connect_timeout: Duration::from_secs(5),
        request_deadline: Duration::from_secs(5),
        max_retries: 3,
        backoff_base: Duration::from_nanos(50),
        backoff_cap: Duration::from_nanos(400),
        unsafe_retry_non_idempotent: !protections.timeout_carveout,
        recorder: Some(recorder.clone()),
        // Trace every request: span breadcrumbs are filtered out of the
        // canonical trace (they carry wall-clock timestamps) but feed the
        // causality oracle's span bookkeeping.
        trace_sample: 1.0,
    }
}

/// Execute `plan` under `protections` with the paper's CPC backend and
/// run every oracle.
pub fn run_plan(plan: &RunPlan, protections: Protections) -> RunOutcome {
    run_plan_with(plan, protections, Backend::Cpc)
}

/// [`run_plan`], but the embedded service certifies with `backend` — the
/// cross-backend gate runs the same seed through all three and expects
/// every oracle to hold for each.
pub fn run_plan_with(plan: &RunPlan, protections: Protections, backend: Backend) -> RunOutcome {
    let recorder;
    let world = {
        let w = World::new_with_backend(protections, backend);
        recorder = w.recorder();
        Rc::new(RefCell::new(w))
    };
    let config = dst_client_config(protections, &recorder);

    let mut clients: Vec<ClientState> = (0..CLIENTS)
        .map(|client_index| ClientState {
            client_index,
            session: None,
            conn_id: usize::MAX,
            slots: vec![None; SLOTS],
        })
        .collect();
    let mut definite_commits = 0usize;
    let mut ambiguous_commits = 0usize;
    // Commits the client was definitively told failed, by (conn, wire id).
    let mut claimed_failed: Vec<(usize, u64)> = Vec::new();
    let mut violations: Vec<String> = Vec::new();

    for (i, step) in plan.steps.iter().enumerate() {
        let c = step.client as usize;
        // (Re)connect outside the fault window: the handshake itself is
        // not a step and is always delivered cleanly.
        if clients[c].session.as_ref().is_none_or(|s| s.is_poisoned()) {
            if clients[c].session.take().is_some() {
                // The server side of the poisoned connection is reaped
                // now (this is when a real server's reader loop would see
                // the disconnect), releasing or leaking its open
                // transactions per the protections.
                world.borrow_mut().reap(clients[c].conn_id, "client gone");
            }
            clients[c].slots = vec![None; SLOTS];
            let link = SimLink::connect(&world);
            clients[c].conn_id = link.conn_id();
            match RemoteSession::over(link, config.clone()) {
                Ok(s) => clients[c].session = Some(s),
                Err(e) => {
                    violations.push(format!("step {i}: clean reconnect failed: {e}"));
                    break;
                }
            }
        }

        // A crash fires *after* the step's op completes cleanly (so "ack
        // then power cut" is exercised); it is never armed as a wire
        // directive.
        let crash_salt = match step.fault {
            Some(Fault::Crash { torn_salt }) => Some(torn_salt),
            fault => {
                world.borrow_mut().set_fault(fault);
                None
            }
        };
        let outcome = exec_step(
            &mut clients[c],
            &step.op,
            &mut definite_commits,
            &mut ambiguous_commits,
            &mut claimed_failed,
        );
        // An op that never sent a request (empty/occupied slot) leaves
        // the directive armed; disarm it so it cannot leak forward.
        world.borrow_mut().clear_fault();

        if step.fault.is_some_and(Fault::is_benign) {
            if let Some(Outcome::TransportFail | Outcome::AmbiguousTimeout) = outcome {
                violations.push(format!(
                    "step {i}: benign fault {:?} ended in a lost reply \
                     (frame reassembly desync)",
                    step.fault.unwrap()
                ));
            }
        }

        if let Some(salt) = crash_salt {
            world.borrow_mut().crash_restart(salt);
            // Every connection died with the server; the next step each
            // client takes reconnects into the new incarnation.
            for cs in clients.iter_mut() {
                cs.session = None;
                cs.slots = vec![None; SLOTS];
            }
        }
    }

    // Orderly goodbyes where possible; the world reaps the rest.
    for cs in &mut clients {
        if let Some(session) = cs.session.take() {
            let poisoned = session.is_poisoned();
            let _ = session.close();
            if poisoned {
                world.borrow_mut().reap(cs.conn_id, "client gone");
            }
        }
    }

    let world = Rc::try_unwrap(world)
        .unwrap_or_else(|_| panic!("driver holds the last World reference"))
        .into_inner();
    let end = world.finish();

    // Oracle 1: history correctness on the final incarnation. Crashed
    // epochs are *incomplete* executions (a power cut leaves live
    // children mid-flight), so the finished-session model check does not
    // apply to them — their committed work is instead held to account by
    // the durability oracle (replayed exactly) and the commit-accounting
    // oracle below, whose server-side count sums every incarnation:
    // recovery bakes prior commits into the next incarnation's initial
    // state rather than re-creating the transactions, so each commit is
    // counted exactly once.
    let report = verify_certifiers(&end.certifiers);
    violations.extend(report.violations.iter().cloned());
    let mut server_committed = report.committed;
    for certs in &end.epochs {
        for cert in certs.iter() {
            server_committed += cert
                .txns()
                .into_iter()
                .filter(|&t| cert.state_of(t) == Ok(TxnState::Committed))
                .count();
        }
    }

    // Oracle 7: durability — every acked commit survives recovery,
    // nothing uncommitted is resurrected, recovered state matches the dying
    // incarnation's committed effects (collected by the world at each
    // crash and at the final graceful shutdown).
    violations.extend(end.durability_violations.iter().cloned());

    // Oracle 2: end state — every transaction terminal.
    for (shard, cert) in end.certifiers.iter().enumerate() {
        for txn in cert.txns() {
            match cert.state_of(txn) {
                Ok(TxnState::Committed | TxnState::Aborted) => {}
                Ok(state) => violations.push(format!(
                    "shard {shard}: txn {} left {state:?} after every \
                     connection closed (abort-on-disconnect missing)",
                    txn.0
                )),
                Err(e) => violations.push(format!(
                    "shard {shard}: txn {} state unreadable: {e}",
                    txn.0
                )),
            }
        }
    }

    // Oracle 3: commit coherence — a server-acked commit may never be
    // reported to its client as a definitive failure.
    for &(conn, id) in &claimed_failed {
        if end.acked_commits.contains(&(conn, id)) {
            violations.push(format!(
                "commit coherence: conn {conn} txn id {id} was committed \
                 server-side but the client was told the commit \
                 definitively failed (double-sent commit)"
            ));
        }
    }

    // Oracle 5 (second half): the stream itself must never desync.
    for e in &end.stream_errors {
        violations.push(format!("server stream desync: {e}"));
    }

    // Oracle 6: obs causality, meaningful only on a complete trace.
    let rings = end.recorder.drain_rings();
    let dropped_events = end.recorder.dropped();
    if dropped_events == 0 {
        check_causality(&rings, &mut violations);
    }

    // Oracle 4: commit accounting. Counts span every incarnation.
    if server_committed < definite_commits
        || server_committed > definite_commits + ambiguous_commits
    {
        violations.push(format!(
            "commit accounting: server committed {server_committed} but clients saw \
             {definite_commits} definite + {ambiguous_commits} ambiguous \
             (double-applied or lost commit)"
        ));
    }

    RunOutcome {
        violations,
        report,
        definite_commits,
        ambiguous_commits,
        canonical_trace: canonical_trace(&rings, dropped_events),
        journal: end.journal,
        dropped_events,
        crashes: end.crashes,
    }
}

/// Issue one op. Returns `None` if the op was a no-op (slot state made it
/// inapplicable), otherwise the classified outcome.
fn exec_step(
    cs: &mut ClientState,
    op: &OpKind,
    definite: &mut usize,
    ambiguous: &mut usize,
    claimed_failed: &mut Vec<(usize, u64)>,
) -> Option<Outcome> {
    let session = cs.session.as_ref().expect("connected above");
    match op {
        OpKind::Open {
            slot,
            spec_salt,
            after,
            before,
            strategy,
        } => {
            let slot = *slot as usize;
            if cs.slots[slot].is_some() {
                return None;
            }
            let pool = client_entities(client_of(cs));
            let mut builder = TxnBuilder::new(spec_for(*spec_salt, &pool));
            for &s in after {
                if let Some(h) = cs.slots[s as usize] {
                    builder = builder.after(h);
                }
            }
            for &s in before {
                if let Some(h) = cs.slots[s as usize] {
                    builder = builder.before(h);
                }
            }
            if let Some(st) = strategy {
                builder = builder.strategy(*st);
            }
            match session.open(builder) {
                Ok(h) => {
                    cs.slots[slot] = Some(h);
                    Some(Outcome::Ok)
                }
                Err(e) => Some(classify(session, &e)),
            }
        }
        OpKind::Validate { slot } => cs.unit_op(*slot, |s, h| s.validate(h)),
        OpKind::Read { slot, entity_ix } => {
            let pool = client_entities(client_of(cs));
            let entity = pool[*entity_ix as usize % pool.len()];
            cs.unit_op(*slot, |s, h| s.read(h, entity).map(|_| ()))
        }
        OpKind::Write {
            slot,
            entity_ix,
            value,
        } => {
            let pool = client_entities(client_of(cs));
            let entity = pool[*entity_ix as usize % pool.len()];
            cs.unit_op(*slot, |s, h| s.write(h, entity, *value))
        }
        OpKind::Batch {
            slot,
            ops_salt,
            len,
        } => {
            let pool = client_entities(client_of(cs));
            let ops = batch_ops_for(*ops_salt, *len, &pool);
            // Per-op errors (wrong-phase probes, unsatisfiable reads) are
            // expected and typed; only the *burst's* outcome classifies.
            cs.unit_op(*slot, |s, h| s.run_batch(h, &ops).map(|_| ()))
        }
        OpKind::Commit { slot } => {
            let slot = *slot as usize;
            let h = cs.slots[slot]?;
            match session.commit(h) {
                Ok(()) => {
                    *definite += 1;
                    cs.slots[slot] = None;
                    Some(Outcome::Ok)
                }
                Err(e) => {
                    let outcome = classify(session, &e);
                    match outcome {
                        // The commit may have landed; the id is gone (or
                        // the conn is dead) either way, so the slot is
                        // abandoned without a follow-up abort.
                        Outcome::AmbiguousTimeout | Outcome::TransportFail => {
                            *ambiguous += 1;
                            cs.slots[slot] = None;
                        }
                        // The server *told* the client this commit did
                        // not happen — record the claim so the
                        // coherence oracle can hold the server to it.
                        Outcome::Definitive => {
                            claimed_failed.push((cs.conn_id, h.0));
                            cs.slots[slot] = None;
                        }
                        // Busy: the txn is intact; a later step may retry.
                        Outcome::Congested | Outcome::Ok => {}
                    }
                    Some(outcome)
                }
            }
        }
        OpKind::Abort { slot } => {
            let slot = *slot as usize;
            let h = cs.slots[slot]?;
            let result = session.abort(h);
            let outcome = result.map_or_else(|e| classify(session, &e), |()| Outcome::Ok);
            // Whatever happened, the client is done with this handle; a
            // dead connection's server side sweeps it, and a definitive
            // error means it was already gone.
            if !matches!(outcome, Outcome::Congested) {
                cs.slots[slot] = None;
            }
            Some(outcome)
        }
        OpKind::Metrics => {
            let result = session.metrics();
            Some(result.map_or_else(|e| classify(session, &e), |_| Outcome::Ok))
        }
    }
}

impl ClientState {
    /// Run a unit op against a slot's live handle; on a definitive error
    /// or ambiguous timeout, abort-and-release the slot (the abort is
    /// idempotent server-side, and tolerated if the id is already gone).
    fn unit_op(
        &mut self,
        slot: u8,
        f: impl FnOnce(&RemoteSession<SimLink>, RemoteTxn) -> Result<(), ServerError>,
    ) -> Option<Outcome> {
        let slot = slot as usize;
        let h = self.slots[slot]?;
        let session = self.session.as_ref().expect("connected above");
        let outcome = match f(session, h) {
            Ok(()) => Outcome::Ok,
            Err(e) => classify(session, &e),
        };
        match outcome {
            Outcome::Definitive | Outcome::AmbiguousTimeout => {
                // Clean up: the txn's fate is sealed (or sealable) —
                // release the slot and make sure the server side agrees.
                let _ = session.abort(h);
                self.slots[slot] = None;
            }
            Outcome::TransportFail => {
                // Connection dead; reconnect wipes the slots and the
                // server's reap sweeps the open txns.
            }
            Outcome::Ok | Outcome::Congested => {}
        }
        Some(outcome)
    }
}

/// The plan-level client index a driver state belongs to (decides its
/// home-shard entity pool).
fn client_of(cs: &ClientState) -> usize {
    cs.client_index
}

/// Classify an op error against the connection's health.
fn classify(session: &RemoteSession<SimLink>, e: &ServerError) -> Outcome {
    if session.is_poisoned() {
        return Outcome::TransportFail;
    }
    match e {
        ServerError::Timeout => Outcome::AmbiguousTimeout,
        ServerError::Busy | ServerError::Backpressure => Outcome::Congested,
        _ => Outcome::Definitive,
    }
}

/// Per-ring, per-txn lifecycle checks plus cross-ring span pairing on a
/// complete trace.
fn check_causality(rings: &[Vec<ObsEvent>], violations: &mut Vec<String>) {
    use std::collections::BTreeMap;
    for (ring_ix, ring) in rings.iter().enumerate() {
        // txn -> (seen_begin, committed, aborted)
        let mut life: BTreeMap<(u32, u32), (bool, bool, bool)> = BTreeMap::new();
        for ev in ring {
            // A recovery replay marks an epoch boundary: the restarted
            // shard reuses worker-local txn ids, so lifecycle tracking
            // starts over (the WAL's checkpoint fence is what makes the
            // reuse safe on the durability side).
            if matches!(ev.kind, ObsKind::RecoveryReplay { .. }) {
                life.clear();
                continue;
            }
            if ev.txn == ks_obs::NO_TXN {
                continue;
            }
            let key = (ev.shard, ev.txn);
            let entry = life.entry(key).or_insert((false, false, false));
            match &ev.kind {
                ObsKind::TxnBegin => {
                    if entry.0 {
                        violations.push(format!("obs ring {ring_ix}: txn {key:?} begins twice"));
                    }
                    if entry.1 || entry.2 {
                        violations.push(format!(
                            "obs ring {ring_ix}: txn {key:?} begins after terminating"
                        ));
                    }
                    entry.0 = true;
                }
                ObsKind::TxnCommitted => {
                    if entry.1 {
                        violations.push(format!(
                            "obs ring {ring_ix}: txn {key:?} committed twice \
                             (double-applied commit)"
                        ));
                    }
                    entry.1 = true;
                }
                ObsKind::TxnAborted => {
                    if entry.1 {
                        violations.push(format!(
                            "obs ring {ring_ix}: txn {key:?} aborted after committing \
                             (undone commit)"
                        ));
                    }
                    entry.2 = true;
                }
                ObsKind::TxnValidated if entry.2 => {
                    violations.push(format!(
                        "obs ring {ring_ix}: txn {key:?} validated after aborting"
                    ));
                }
                _ => {}
            }
        }
    }
    check_spans(rings, violations);
}

/// Distributed-trace span pairing. Spans cross rings — a `Queue` span
/// opens on the session's sink and closes on the shard's — so the check
/// runs on the merged, time-ordered stream. The network
/// may legally replay a frame (`Fault::DupRequest` executes the same
/// traced request twice), so repeated starts open *incarnations* of the
/// same `(trace, hop)` span; the invariant is that every end closes an
/// incarnation some start opened before it. A `RecoveryReplay` marks an
/// epoch boundary: a crash legitimately strands open spans (the thread
/// that would close them died mid-request), so open incarnations are
/// *forgiven* — their late ends are accepted silently.
fn check_spans(rings: &[Vec<ObsEvent>], violations: &mut Vec<String>) {
    use std::collections::BTreeMap;
    let mut merged: Vec<&ObsEvent> = rings.iter().flatten().collect();
    // Starts sort before ends at equal timestamps, so a span opened and
    // closed within one clock tick still pairs in causal order.
    merged.sort_by_key(|ev| (ev.ts, !matches!(ev.kind, ObsKind::SpanStart { .. })));
    // (trace, hop) -> (open incarnations, forgiven incarnations).
    let mut spans: BTreeMap<(u64, u32), (u64, u64)> = BTreeMap::new();
    for ev in merged {
        match ev.kind {
            ObsKind::RecoveryReplay { .. } => {
                for (open, forgiven) in spans.values_mut() {
                    *forgiven += *open;
                    *open = 0;
                }
            }
            ObsKind::SpanStart { hop, trace, .. } => {
                spans.entry((trace, hop.code())).or_insert((0, 0)).0 += 1;
            }
            ObsKind::SpanEnd { hop, trace, .. } => {
                let (open, forgiven) = spans.entry((trace, hop.code())).or_insert((0, 0));
                if *open > 0 {
                    *open -= 1;
                } else if *forgiven > 0 {
                    *forgiven -= 1;
                } else {
                    violations.push(format!(
                        "span causality: trace {trace:#x} hop {hop:?} ends without a start"
                    ));
                }
            }
            _ => {}
        }
    }
}

/// Serialize the rings with every wall-clock-valued field zeroed, so the
/// result is a pure function of the run's logical behavior.
fn canonical_trace(rings: &[Vec<ObsEvent>], dropped: u64) -> String {
    let mut out = String::new();
    if dropped > 0 {
        out.push_str(&format!("# WARNING: {dropped} events dropped\n"));
    }
    for (i, ring) in rings.iter().enumerate() {
        // Span breadcrumbs and telemetry deltas are dropped from the
        // canonical trace: which WAL flush group a commit lands in and
        // which 1-second window a request falls into are wall-clock
        // facts, not logical ones (the span causality oracle checks them
        // instead).
        let logical = ring.iter().filter(|ev| {
            !matches!(
                ev.kind,
                ObsKind::SpanStart { .. }
                    | ObsKind::SpanEnd { .. }
                    | ObsKind::TelemetryDelta { .. }
            )
        });
        out.push_str(&format!(
            "# ring {i} ({} events)\n",
            logical.clone().count()
        ));
        for ev in logical {
            let mut ev = *ev;
            ev.ts = 0;
            ev.kind = match ev.kind {
                ObsKind::Execute { op, .. } => ObsKind::Execute { op, queue_ns: 0 },
                ObsKind::Reply { op, ok, .. } => ObsKind::Reply { op, ok, exec_ns: 0 },
                ObsKind::NetRetry { op, attempt, .. } => ObsKind::NetRetry {
                    op,
                    attempt,
                    delay_ns: 0,
                },
                ObsKind::WalFsync { records, .. } => ObsKind::WalFsync {
                    records,
                    sync_ns: 0,
                },
                other => other,
            };
            out.push_str(&event_to_json(&ev));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_obs::{OpCode, SpanHop, NO_TXN};

    fn ev(ts: u64, kind: ObsKind) -> ObsEvent {
        ObsEvent {
            ts,
            shard: 0,
            txn: NO_TXN,
            kind,
        }
    }

    fn start(ts: u64, hop: SpanHop, trace: u64) -> ObsEvent {
        ev(
            ts,
            ObsKind::SpanStart {
                hop,
                op: OpCode::Commit,
                trace,
            },
        )
    }

    fn end(ts: u64, hop: SpanHop, trace: u64) -> ObsEvent {
        ev(
            ts,
            ObsKind::SpanEnd {
                hop,
                ok: true,
                trace,
            },
        )
    }

    /// A start/end pair split across two rings (the Queue span opens on
    /// the session's sink and closes on the shard's) pairs cleanly.
    #[test]
    fn spans_pair_across_rings() {
        let rings = vec![
            vec![start(10, SpanHop::Queue, 7)],
            vec![end(20, SpanHop::Queue, 7)],
        ];
        let mut violations = Vec::new();
        check_spans(&rings, &mut violations);
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// An end with no start anywhere is a causality violation.
    #[test]
    fn orphan_end_is_a_violation() {
        let rings = vec![vec![end(5, SpanHop::Exec, 9)]];
        let mut violations = Vec::new();
        check_spans(&rings, &mut violations);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("ends without a start"),
            "{violations:?}"
        );
    }

    /// A replayed frame (Fault::DupRequest) opens two incarnations of
    /// the same span; two ends close them without complaint, a third
    /// would not.
    #[test]
    fn duplicate_delivery_opens_incarnations() {
        let rings = vec![vec![
            start(1, SpanHop::Exec, 3),
            start(2, SpanHop::Exec, 3),
            end(3, SpanHop::Exec, 3),
            end(4, SpanHop::Exec, 3),
        ]];
        let mut violations = Vec::new();
        check_spans(&rings, &mut violations);
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// A crash strands open spans; the RecoveryReplay epoch boundary
    /// forgives them, so a late end (the client's Request span closing
    /// after the server restarted) is not a violation — but an end with
    /// no start in *any* epoch still is.
    #[test]
    fn recovery_epoch_forgives_spans_open_across_the_crash() {
        let replay = ev(
            15,
            ObsKind::RecoveryReplay {
                writes: 1,
                committed: 1,
            },
        );
        let rings = vec![
            vec![start(10, SpanHop::Request, 11)],
            vec![replay],
            vec![end(20, SpanHop::Request, 11), end(21, SpanHop::Certify, 12)],
        ];
        let mut violations = Vec::new();
        check_spans(&rings, &mut violations);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("0xc"), "{violations:?}");
    }
}
