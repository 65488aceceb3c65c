//! End-to-end protocol scenarios: the four phases, the Figure 4 `re-eval`
//! procedure, and the Theorem 2 property — every execution the protocol
//! admits is parent-based and correct under the `ks-core` checkers.

use ks_core::{check, Specification};
use ks_kernel::{Domain, EntityId, Schema, UniqueState};
use ks_predicate::{parse_cnf, Strategy};
use ks_protocol::extract::model_execution;
use ks_protocol::{
    CommitOutcome, ProtocolManager, ReEvalAction, ReadOutcome, TxnState, ValidationOutcome,
};

fn schema_xy() -> Schema {
    Schema::uniform(["x", "y"], Domain::Range { min: 0, max: 999 })
}

fn manager_with_constraint(constraint: &str) -> (Schema, ProtocolManager) {
    let schema = schema_xy();
    let c = parse_cnf(&schema, constraint).unwrap();
    let initial = UniqueState::new(&schema, vec![5, 5]).unwrap();
    let pm = ProtocolManager::new(schema.clone(), &initial, Specification::classical(&c));
    (schema, pm)
}

fn spec(schema: &Schema, input: &str, output: &str) -> Specification {
    Specification::new(
        parse_cnf(schema, input).unwrap(),
        parse_cnf(schema, output).unwrap(),
    )
}

fn x() -> EntityId {
    EntityId(0)
}
fn y() -> EntityId {
    EntityId(1)
}

/// The Section 2.3 cooperation scenario, end to end: two subtransactions
/// individually violate the constraint x = y, their composition restores
/// it, and the protocol admits the whole thing.
#[test]
fn cooperation_through_all_four_phases() {
    let (schema, mut pm) = manager_with_constraint("x = y");
    let root = pm.root();
    // c0: bumps x while x = y holds; leaves x > y.
    let c0 = pm
        .define(root, spec(&schema, "x = 5 & y = 5", "x > y"), &[], &[])
        .unwrap();
    // c1: repairs y; requires x > y; restores x = y; ordered after c0.
    let c1 = pm
        .define(root, spec(&schema, "x = 6 & y = 5", "x = y"), &[c0], &[])
        .unwrap();

    assert_eq!(
        pm.validate(c0, Strategy::Backtracking).unwrap(),
        ValidationOutcome::Validated
    );
    assert_eq!(pm.read(c0, x()).unwrap(), ReadOutcome::Value(5));
    pm.write(c0, x(), 6).unwrap();

    // c1 validates against the candidate set that now includes c0's x = 6
    // (c0 is its predecessor, so that version is mandatory).
    assert_eq!(
        pm.validate(c1, Strategy::Backtracking).unwrap(),
        ValidationOutcome::Validated
    );
    assert_eq!(pm.read(c1, x()).unwrap(), ReadOutcome::Value(6));
    assert_eq!(pm.read(c1, y()).unwrap(), ReadOutcome::Value(5));

    // c1 cannot commit before its predecessor c0.
    assert_eq!(
        pm.commit(c1).unwrap(),
        CommitOutcome::PredecessorsPending(c0)
    );
    // c0's output x > y holds on its result view (x=6, y=5).
    assert_eq!(pm.commit(c0).unwrap(), CommitOutcome::Committed);
    // c1 still needs its own output x = y — write the repair first.
    assert_eq!(pm.commit(c1).unwrap(), CommitOutcome::OutputViolated);
    pm.write(c1, y(), 6).unwrap();
    assert_eq!(pm.commit(c1).unwrap(), CommitOutcome::Committed);

    // Root sees a consistent final state and commits.
    let view = pm.result_view(root).unwrap();
    assert_eq!((view.get(x()), view.get(y())), (6, 6));
    assert_eq!(pm.commit(root).unwrap(), CommitOutcome::Committed);
}

/// Theorem 2, executed: extract the model-level execution from the
/// protocol session and verify it with the ks-core checkers.
#[test]
fn theorem2_protocol_output_is_correct_and_parent_based() {
    let (schema, mut pm) = manager_with_constraint("x = y");
    let root = pm.root();
    let c0 = pm
        .define(root, spec(&schema, "x = 5 & y = 5", "x > y"), &[], &[])
        .unwrap();
    let c1 = pm
        .define(root, spec(&schema, "x = 6 & y = 5", "x = y"), &[c0], &[])
        .unwrap();
    pm.validate(c0, Strategy::Backtracking).unwrap();
    pm.read(c0, x()).unwrap();
    pm.write(c0, x(), 6).unwrap();
    pm.validate(c1, Strategy::Backtracking).unwrap();
    pm.read(c1, x()).unwrap();
    pm.read(c1, y()).unwrap();
    pm.write(c1, y(), 6).unwrap();
    assert_eq!(pm.commit(c0).unwrap(), CommitOutcome::Committed);
    assert_eq!(pm.commit(c1).unwrap(), CommitOutcome::Committed);

    let (txn, parent_state, exec) = model_execution(&pm, root).unwrap();
    let report = check::check(&schema, &txn, &parent_state, &exec);
    assert!(report.is_correct(), "{report:?}");
    assert!(report.parent_based, "{report:?}");
    // c1 read c0's version of x: the extracted R relation must say so.
    assert!(exec.reads_from.contains(&(0, 1)), "{:?}", exec.reads_from);
}

/// Figure 4, branch 1: a sibling that already *read* a superseded
/// predecessor version is aborted by `re-eval`.
#[test]
fn reeval_aborts_reader_of_stale_predecessor_version() {
    let (schema, mut pm) = manager_with_constraint("x >= 0");
    let root = pm.root();
    // writer ordered BEFORE reader; reader validates early (optimism),
    // reads x (initial version), then the predecessor writes x.
    let writer = pm
        .define(root, spec(&schema, "x >= 0", "true"), &[], &[])
        .unwrap();
    let reader = pm
        .define(root, spec(&schema, "x >= 0", "true"), &[writer], &[])
        .unwrap();
    pm.validate(writer, Strategy::Backtracking).unwrap();
    pm.validate(reader, Strategy::Backtracking).unwrap();
    assert_eq!(pm.read(reader, x()).unwrap(), ReadOutcome::Value(5));
    // The predecessor now writes: the reader consumed a version that the
    // partial order says should have come from the writer → abort.
    let report = pm.write(writer, x(), 7).unwrap();
    assert_eq!(report.reeval, vec![ReEvalAction::Aborted(reader)]);
    assert_eq!(pm.state_of(reader).unwrap(), TxnState::Aborted);
}

/// A `re-eval` abort's cascade can reach a later holder of the same
/// entity: `h2` read `h1`'s y, and both read `w`'s x. When `w`
/// overwrites x, `h1` is aborted and takes `h2` with it; `h2` is then
/// no longer a holder to repair, and is aborted once.
#[test]
fn reeval_cascade_victim_is_aborted_once() {
    let (schema, mut pm) = manager_with_constraint("x >= 0");
    let root = pm.root();
    let w = pm
        .define(root, spec(&schema, "x >= 0", "true"), &[], &[])
        .unwrap();
    pm.validate(w, Strategy::Backtracking).unwrap();
    pm.write(w, x(), 1).unwrap();
    let h1 = pm
        .define(root, spec(&schema, "x >= 0", "true"), &[w], &[])
        .unwrap();
    pm.validate(h1, Strategy::Backtracking).unwrap();
    pm.read(h1, x()).unwrap();
    pm.write(h1, y(), 6).unwrap();
    let h2 = pm
        .define(root, spec(&schema, "x >= 0 & y = 6", "true"), &[w], &[])
        .unwrap();
    pm.validate(h2, Strategy::Backtracking).unwrap();
    assert_eq!(pm.read(h2, x()).unwrap(), ReadOutcome::Value(1));
    assert_eq!(pm.read(h2, y()).unwrap(), ReadOutcome::Value(6));
    let report = pm.write(w, x(), 2).unwrap();
    assert_eq!(
        report.reeval,
        vec![ReEvalAction::Aborted(h1), ReEvalAction::Aborted(h2)]
    );
    assert_eq!(pm.stats().reeval_aborts, 1);
}

/// Figure 4, branch 2: a sibling holding only `R_v` (validated, nothing
/// read yet) is salvaged by `re-assign` — its snapshot moves to the new
/// version.
#[test]
fn reeval_reassigns_validation_holder() {
    let (schema, mut pm) = manager_with_constraint("x >= 0");
    let root = pm.root();
    let writer = pm
        .define(root, spec(&schema, "x >= 0", "true"), &[], &[])
        .unwrap();
    let holder = pm
        .define(root, spec(&schema, "x >= 0", "true"), &[writer], &[])
        .unwrap();
    pm.validate(writer, Strategy::Backtracking).unwrap();
    pm.validate(holder, Strategy::Backtracking).unwrap();
    let report = pm.write(writer, x(), 7).unwrap();
    assert_eq!(report.reeval, vec![ReEvalAction::Reassigned(holder)]);
    // The holder now reads the new version.
    assert_eq!(pm.read(holder, x()).unwrap(), ReadOutcome::Value(7));
    assert_eq!(pm.state_of(holder).unwrap(), TxnState::Validated);
}

/// Figure 4, negative case: writes by a NON-predecessor do not disturb
/// sibling readers — multiversion independence (Example 1's essence).
#[test]
fn unordered_writer_does_not_disturb_readers() {
    let (schema, mut pm) = manager_with_constraint("x >= 0");
    let root = pm.root();
    let reader = pm
        .define(root, spec(&schema, "x >= 0", "true"), &[], &[])
        .unwrap();
    let writer = pm
        .define(root, spec(&schema, "x >= 0", "true"), &[], &[]) // unordered
        .unwrap();
    pm.validate(reader, Strategy::Backtracking).unwrap();
    pm.validate(writer, Strategy::Backtracking).unwrap();
    assert_eq!(pm.read(reader, x()).unwrap(), ReadOutcome::Value(5));
    let report = pm.write(writer, x(), 9).unwrap();
    assert!(report.reeval.is_empty());
    // The reader keeps its old version — and both can commit.
    assert_eq!(pm.commit(reader).unwrap(), CommitOutcome::Committed);
    assert_eq!(pm.commit(writer).unwrap(), CommitOutcome::Committed);
}

/// Failed re-assignment aborts the holder: the predecessor's new version
/// is mandatory but violates the holder's input predicate.
#[test]
fn reassign_failure_aborts_holder() {
    let (schema, mut pm) = manager_with_constraint("x >= 0");
    let root = pm.root();
    let writer = pm
        .define(root, spec(&schema, "x >= 0", "true"), &[], &[])
        .unwrap();
    // The holder insists on x = 5 (the initial value).
    let holder = pm
        .define(root, spec(&schema, "x = 5", "true"), &[writer], &[])
        .unwrap();
    pm.validate(writer, Strategy::Backtracking).unwrap();
    pm.validate(holder, Strategy::Backtracking).unwrap();
    let report = pm.write(writer, x(), 7).unwrap();
    assert_eq!(
        report.reeval,
        vec![ReEvalAction::ReassignFailedAborted(holder)]
    );
    assert_eq!(pm.state_of(holder).unwrap(), TxnState::Aborted);
}

/// Validation phase: a predecessor's version is the only one allowed.
#[test]
fn validation_forces_predecessor_version() {
    let (schema, mut pm) = manager_with_constraint("x >= 0");
    let root = pm.root();
    let first = pm
        .define(root, spec(&schema, "x >= 0", "true"), &[], &[])
        .unwrap();
    pm.validate(first, Strategy::Backtracking).unwrap();
    pm.write(first, x(), 7).unwrap();
    // successor wants x = 5 (initial) — but the predecessor wrote 7.
    let second = pm
        .define(root, spec(&schema, "x = 5", "true"), &[first], &[])
        .unwrap();
    assert_eq!(
        pm.validate(second, Strategy::Backtracking).unwrap(),
        ValidationOutcome::CannotSatisfy
    );
    // an unordered sibling with the same predicate CAN read the initial
    // version (multiversion freedom):
    let third = pm
        .define(root, spec(&schema, "x = 5", "true"), &[], &[])
        .unwrap();
    assert_eq!(
        pm.validate(third, Strategy::Backtracking).unwrap(),
        ValidationOutcome::Validated
    );
    assert_eq!(pm.read(third, x()).unwrap(), ReadOutcome::Value(5));
}

/// Reads require membership in `I_t` ("every entity read by t must appear
/// in I_t") — otherwise there is no `R_v` lock and the read is rejected.
#[test]
fn read_outside_input_set_rejected() {
    let (schema, mut pm) = manager_with_constraint("x >= 0");
    let root = pm.root();
    let t = pm
        .define(root, spec(&schema, "x >= 0", "true"), &[], &[])
        .unwrap();
    pm.validate(t, Strategy::Backtracking).unwrap();
    let err = pm.read(t, y()).unwrap_err();
    assert!(matches!(
        err,
        ks_protocol::ProtocolError::ReadWithoutValidationLock(_)
    ));
}

/// Definition-phase rules: phase errors, non-siblings, cycles, and the
/// committed-predecessor prohibition.
#[test]
fn definition_phase_rules() {
    let (schema, mut pm) = manager_with_constraint("x >= 0");
    let root = pm.root();
    let a = pm
        .define(root, spec(&schema, "x >= 0", "x >= 0"), &[], &[])
        .unwrap();
    // `after` must be a sibling, not the root.
    assert!(matches!(
        pm.define(root, Specification::trivial(), &[root], &[]),
        Err(ks_protocol::ProtocolError::NotASibling)
    ));
    // cannot define a child under a transaction that is merely Defined
    assert!(pm.define(a, Specification::trivial(), &[], &[]).is_err());
    // commit `a`, then try to define a transaction BEFORE it that writes
    // what `a` read: prohibited.
    pm.validate(a, Strategy::Backtracking).unwrap();
    pm.commit(a).unwrap();
    let err = pm
        .define(root, spec(&schema, "true", "x = 9"), &[], &[a])
        .unwrap_err();
    assert_eq!(err, ks_protocol::ProtocolError::PrecedesCommittedReader);
    // ...but a non-overlapping one is fine (y only).
    assert!(pm
        .define(root, spec(&schema, "true", "y = 9"), &[], &[a])
        .is_ok());
}

/// Abort cascades: a sibling that READ a doomed version is aborted too;
/// one that was merely assigned it is re-assigned.
#[test]
fn abort_cascade_and_salvage() {
    let (schema, mut pm) = manager_with_constraint("x >= 0");
    let root = pm.root();
    let producer = pm
        .define(root, spec(&schema, "x >= 0", "true"), &[], &[])
        .unwrap();
    pm.validate(producer, Strategy::Backtracking).unwrap();
    pm.write(producer, x(), 42).unwrap();
    // consumer_read reads the dirty version (cooperation!), consumer_hold
    // merely validates against it.
    let consumer_read = pm
        .define(root, spec(&schema, "x = 42", "true"), &[producer], &[])
        .unwrap();
    let consumer_hold = pm
        .define(root, spec(&schema, "x >= 0", "true"), &[producer], &[])
        .unwrap();
    pm.validate(consumer_read, Strategy::GreedyLatest).unwrap();
    pm.validate(consumer_hold, Strategy::GreedyLatest).unwrap();
    assert_eq!(pm.read(consumer_read, x()).unwrap(), ReadOutcome::Value(42));
    // The producer aborts: the dirty reader cascades, the holder survives.
    let cascaded = pm.abort(producer).unwrap();
    assert_eq!(cascaded, vec![consumer_read]);
    assert_eq!(pm.state_of(consumer_read).unwrap(), TxnState::Aborted);
    assert_eq!(pm.state_of(consumer_hold).unwrap(), TxnState::Validated);
    // The salvaged holder now reads the initial version again.
    assert_eq!(pm.read(consumer_hold, x()).unwrap(), ReadOutcome::Value(5));
}

/// Commit requires children to have terminated.
#[test]
fn commit_waits_for_children() {
    let (schema, mut pm) = manager_with_constraint("x >= 0");
    let root = pm.root();
    let parent = pm
        .define(root, spec(&schema, "x >= 0", "true"), &[], &[])
        .unwrap();
    pm.validate(parent, Strategy::Backtracking).unwrap();
    let child = pm
        .define(parent, spec(&schema, "x >= 0", "true"), &[], &[])
        .unwrap();
    assert_eq!(
        pm.commit(parent).unwrap(),
        CommitOutcome::ChildrenPending(child)
    );
    pm.validate(child, Strategy::Backtracking).unwrap();
    pm.commit(child).unwrap();
    assert_eq!(pm.commit(parent).unwrap(), CommitOutcome::Committed);
}

/// Nested cooperation: the Figure 1 shape — a designer splits work between
/// two sub-designers whose writes interleave; everything verifies at the
/// root.
#[test]
fn nested_designers_interleaved() {
    let (schema, mut pm) = manager_with_constraint("x = y");
    let root = pm.root();
    let design = pm
        .define(root, spec(&schema, "x = 5 & y = 5", "x = y"), &[], &[])
        .unwrap();
    pm.validate(design, Strategy::Backtracking).unwrap();
    let d0 = pm
        .define(design, spec(&schema, "x = 5", "x = 7"), &[], &[])
        .unwrap();
    let d1 = pm
        .define(design, spec(&schema, "x = 7 & y = 5", "x = y"), &[d0], &[])
        .unwrap();
    pm.validate(d0, Strategy::Backtracking).unwrap();
    pm.read(d0, x()).unwrap();
    pm.write(d0, x(), 7).unwrap();
    pm.validate(d1, Strategy::Backtracking).unwrap();
    pm.read(d1, x()).unwrap();
    pm.write(d1, y(), 7).unwrap();
    pm.commit(d0).unwrap();
    assert_eq!(pm.commit(d1).unwrap(), CommitOutcome::Committed);
    assert_eq!(pm.commit(design).unwrap(), CommitOutcome::Committed);
    let view = pm.result_view(root).unwrap();
    assert_eq!((view.get(x()), view.get(y())), (7, 7));
    assert_eq!(pm.commit(root).unwrap(), CommitOutcome::Committed);
    // Names follow Figure 1's scheme.
    assert_eq!(pm.name_of(design).unwrap().to_string(), "t.0");
    assert_eq!(pm.name_of(d1).unwrap().to_string(), "t.0.1");
}

/// The pessimistic variant waits where the optimistic one proceeds — the
/// trade Section 5.1 makes explicit.
#[test]
fn pessimistic_validation_waits_optimistic_does_not() {
    let (schema, mut pm) = manager_with_constraint("x >= 0");
    let root = pm.root();
    // writer declares it will produce x; reader is its successor.
    let writer = pm
        .define(root, spec(&schema, "x >= 0", "x = 7"), &[], &[])
        .unwrap();
    let reader = pm
        .define(root, spec(&schema, "x >= 0", "true"), &[writer], &[])
        .unwrap();
    pm.validate(writer, Strategy::Backtracking).unwrap();
    // Pessimistic: the live predecessor may still write x → wait.
    assert_eq!(
        pm.validate_pessimistic(reader, Strategy::Backtracking)
            .unwrap(),
        ValidationOutcome::MustWait(writer)
    );
    // Resolve the wait: the writer writes and commits; now it validates.
    pm.write(writer, x(), 7).unwrap();
    pm.commit(writer).unwrap();
    assert_eq!(
        pm.validate_pessimistic(reader, Strategy::Backtracking)
            .unwrap(),
        ValidationOutcome::Validated
    );
    assert_eq!(pm.read(reader, x()).unwrap(), ReadOutcome::Value(7));

    // Optimistic on a fresh session: validates immediately, repaired later
    // by re-eval if the optimism was wrong.
    let (schema, mut pm) = manager_with_constraint("x >= 0");
    let root = pm.root();
    let writer = pm
        .define(root, spec(&schema, "x >= 0", "x = 7"), &[], &[])
        .unwrap();
    let reader = pm
        .define(root, spec(&schema, "x >= 0", "true"), &[writer], &[])
        .unwrap();
    pm.validate(writer, Strategy::Backtracking).unwrap();
    assert_eq!(
        pm.validate(reader, Strategy::Backtracking).unwrap(),
        ValidationOutcome::Validated
    );
    let report = pm.write(writer, x(), 7).unwrap();
    assert_eq!(report.reeval, vec![ReEvalAction::Reassigned(reader)]);
}

/// Figure 3's "false" entries: a held `W` lock briefly blocks readers and
/// validators; completing the write releases them.
#[test]
fn held_write_lock_blocks_reads_and_validation() {
    let (schema, mut pm) = manager_with_constraint("x >= 0");
    let root = pm.root();
    let writer = pm
        .define(root, spec(&schema, "x >= 0", "true"), &[], &[])
        .unwrap();
    let reader = pm
        .define(root, spec(&schema, "x >= 0", "true"), &[], &[])
        .unwrap();
    let late = pm
        .define(root, spec(&schema, "x >= 0", "true"), &[], &[])
        .unwrap();
    pm.validate(writer, Strategy::Backtracking).unwrap();
    pm.validate(reader, Strategy::Backtracking).unwrap();

    // Writer holds W on x mid-write.
    pm.begin_write(writer, x()).unwrap();
    // R vs held W: "false" → blocked.
    assert_eq!(pm.read(reader, x()).unwrap(), ReadOutcome::Blocked(x()));
    // R_v vs held W: validation blocked too.
    assert_eq!(
        pm.validate(late, Strategy::Backtracking).unwrap(),
        ValidationOutcome::Blocked(x())
    );
    // The writer itself is not blocked by its own lock.
    assert_eq!(pm.read(writer, x()).unwrap(), ReadOutcome::Value(5));

    // Completing the write releases the lock; everyone proceeds.
    pm.finish_write(writer, x(), 9).unwrap();
    assert_eq!(pm.read(reader, x()).unwrap(), ReadOutcome::Value(5)); // old version!
    assert_eq!(
        pm.validate(late, Strategy::Backtracking).unwrap(),
        ValidationOutcome::Validated
    );
    // All three commit: versions keep readers independent of the writer.
    assert_eq!(pm.commit(writer).unwrap(), CommitOutcome::Committed);
    assert_eq!(pm.commit(reader).unwrap(), CommitOutcome::Committed);
    assert_eq!(pm.commit(late).unwrap(), CommitOutcome::Committed);
}

/// `begin_write`/`finish_write` is equivalent to `write` (provenance and
/// re-eval included).
#[test]
fn split_write_equals_atomic_write() {
    let (schema, mut pm) = manager_with_constraint("x >= 0");
    let root = pm.root();
    let w1 = pm
        .define(root, spec(&schema, "x >= 0", "true"), &[], &[])
        .unwrap();
    let succ = pm
        .define(root, spec(&schema, "x >= 0", "true"), &[w1], &[])
        .unwrap();
    pm.validate(w1, Strategy::Backtracking).unwrap();
    pm.validate(succ, Strategy::Backtracking).unwrap();
    pm.begin_write(w1, x()).unwrap();
    let report = pm.finish_write(w1, x(), 7).unwrap();
    // Same re-eval behaviour as the atomic path: the successor holding
    // only R_v is re-assigned to the new version.
    assert_eq!(report.reeval, vec![ReEvalAction::Reassigned(succ)]);
    assert_eq!(pm.read(succ, x()).unwrap(), ReadOutcome::Value(7));
}

/// A write below a child is that child's subtree's last write as far as
/// the grandparent's other children can see — until the grandchild aborts.
/// Then the child's own earlier version is the last one again, and a
/// child that never wrote the item itself stops being a writer of it.
#[test]
fn grandchild_abort_falls_back_to_the_childs_own_version() {
    let (schema, mut pm) = manager_with_constraint("x >= 0");
    let root = pm.root();
    let any_x = || spec(&schema, "x >= 0", "true");
    let version_seen_by = |pm: &mut ProtocolManager, predecessor| {
        let observer = pm.define(root, any_x(), &[predecessor], &[]).unwrap();
        pm.validate(observer, Strategy::GreedyLatest).unwrap();
        pm.snapshot_of(observer).unwrap().version_of(x()).unwrap()
    };

    // `wrote` writes x itself, then its child overwrites it.
    let wrote = pm.define(root, any_x(), &[], &[]).unwrap();
    pm.validate(wrote, Strategy::Backtracking).unwrap();
    let own = pm.write(wrote, x(), 10).unwrap().version;
    let grandchild = pm.define(wrote, any_x(), &[], &[]).unwrap();
    pm.validate(grandchild, Strategy::Backtracking).unwrap();
    let nested = pm.write(grandchild, x(), 11).unwrap().version;
    // A successor of `wrote` must take its subtree's last version.
    assert_eq!(version_seen_by(&mut pm, wrote), nested);
    pm.abort(grandchild).unwrap();
    assert_eq!(version_seen_by(&mut pm, wrote), own);

    // `silent` writes nothing itself; only its child does.
    let silent = pm.define(root, any_x(), &[wrote], &[]).unwrap();
    pm.validate(silent, Strategy::Backtracking).unwrap();
    let grandchild = pm.define(silent, any_x(), &[], &[]).unwrap();
    pm.validate(grandchild, Strategy::Backtracking).unwrap();
    let nested = pm.write(grandchild, x(), 12).unwrap().version;
    assert_eq!(version_seen_by(&mut pm, silent), nested);
    pm.abort(grandchild).unwrap();
    // `silent` is no longer a writer of x: its predecessor `wrote` is the
    // nearest one, not shadowed by it.
    assert_eq!(version_seen_by(&mut pm, silent), own);
}

/// Lemma 4's minimal counterexample: an unordered sibling `h` validates
/// against `w`'s *uncommitted* version of x and reads it; `w` then
/// overwrites x. Had `h` committed first, it would keep an input that is
/// neither the parent's version nor `w`'s final one, and the extracted
/// execution would not be parent-based with every input predicate still
/// true. So `h`'s commit waits for `w`, and `w`'s overwrite aborts the
/// reader of its superseded version.
#[test]
fn reader_of_an_overwritten_uncommitted_version_stays_parent_based() {
    let (schema, mut pm) = manager_with_constraint("x >= 0");
    let root = pm.root();
    let w = pm
        .define(root, spec(&schema, "x >= 0", "true"), &[], &[])
        .unwrap();
    pm.validate(w, Strategy::Backtracking).unwrap();
    pm.write(w, x(), 7).unwrap();
    // Unordered with `w`: its only candidate with x = 7 is `w`'s version.
    let h = pm
        .define(root, spec(&schema, "x = 7", "true"), &[], &[])
        .unwrap();
    assert_eq!(
        pm.validate(h, Strategy::Backtracking).unwrap(),
        ValidationOutcome::Validated
    );
    assert_eq!(pm.read(h, x()).unwrap(), ReadOutcome::Value(7));
    assert_eq!(pm.commit(h).unwrap(), CommitOutcome::PredecessorsPending(w));
    assert_eq!(
        pm.write(w, x(), 8).unwrap().reeval,
        vec![ReEvalAction::Aborted(h)]
    );
    assert_eq!(pm.commit(w).unwrap(), CommitOutcome::Committed);

    let (txn, parent_state, exec) = model_execution(&pm, root).unwrap();
    let report = check::check(&schema, &txn, &parent_state, &exec);
    assert!(report.is_correct_parent_based(), "{report:?}");
}

/// An abort below a child cascades at every enclosing level: `c`, a
/// child of `p`, writes x; `q`, a sibling of `p`, is assigned `c`'s
/// version (it is `p`'s subtree's last write) and reads it. When `c`
/// aborts, `q` has consumed a dead version and must abort too, even
/// though `p` itself survives and commits.
#[test]
fn nested_abort_cascades_to_the_enclosing_level() {
    let (schema, mut pm) = manager_with_constraint("x >= 0");
    let root = pm.root();
    let any_x = || spec(&schema, "x >= 0", "true");
    let p = pm.define(root, any_x(), &[], &[]).unwrap();
    pm.validate(p, Strategy::Backtracking).unwrap();
    let c = pm.define(p, any_x(), &[], &[]).unwrap();
    pm.validate(c, Strategy::Backtracking).unwrap();
    pm.write(c, x(), 7).unwrap();
    let q = pm
        .define(root, spec(&schema, "x = 7", "true"), &[], &[])
        .unwrap();
    assert_eq!(
        pm.validate(q, Strategy::Backtracking).unwrap(),
        ValidationOutcome::Validated
    );
    assert_eq!(pm.read(q, x()).unwrap(), ReadOutcome::Value(7));
    assert_eq!(pm.abort(c).unwrap(), vec![q]);
    assert_eq!(pm.state_of(q).unwrap(), TxnState::Aborted);
    assert_eq!(pm.commit(p).unwrap(), CommitOutcome::Committed);

    let (txn, parent_state, exec) = model_execution(&pm, root).unwrap();
    let report = check::check(&schema, &txn, &parent_state, &exec);
    assert!(report.is_correct_parent_based(), "{report:?}");
}
