//! Property test for Lemma 2: every view serializable schedule of
//! consistency-preserving transactions induces a correct execution of the
//! standard-model embedding.

use ks_core::embed::{lemma2_execution, WriteRules};
use ks_core::{check, Expr};
use ks_kernel::{Domain, EntityId, Schema, UniqueState};
use ks_predicate::parse_cnf;
use ks_schedule::search::Interleavings;
use ks_schedule::vsr::is_vsr;
use ks_schedule::{Op, Schedule, TxnId};
use proptest::prelude::*;

/// Consistency constraint `x = y`; every transaction is the template
/// `R(x) W(x) R(y) W(y)` with both entities incremented by the same
/// per-transaction delta — individually consistency-preserving.
fn setup(num_txns: u32) -> (Schema, ks_predicate::Cnf, WriteRules, Vec<Vec<Op>>) {
    let schema = Schema::uniform(["x", "y"], Domain::Range { min: 0, max: 9999 });
    let constraint = parse_cnf(&schema, "x = y").unwrap();
    let mut rules = WriteRules::identity();
    let mut programs = Vec::new();
    for t in 0..num_txns {
        let txn = TxnId(t);
        let delta = (t + 1) as i64;
        rules.set(txn, 0, Expr::plus_const(EntityId(0), delta));
        rules.set(txn, 1, Expr::plus_const(EntityId(1), delta));
        programs.push(vec![
            Op::read(txn, EntityId(0)),
            Op::write(txn, EntityId(0)),
            Op::read(txn, EntityId(1)),
            Op::write(txn, EntityId(1)),
        ]);
    }
    (schema, constraint, rules, programs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pick a random interleaving; if it is view serializable, the
    /// induced execution must be correct AND parent-based.
    #[test]
    fn lemma2_on_random_interleavings(choice in prop::collection::vec(0..2u32, 0..8)) {
        let (schema, constraint, rules, programs) = setup(2);
        // Drive the interleaving choice from the proptest input: take ops
        // from program `choice[i] % live` at each step.
        let mut cursors = vec![0usize; programs.len()];
        let total: usize = programs.iter().map(|p| p.len()).sum();
        let mut ops = Vec::new();
        let mut i = 0;
        while ops.len() < total {
            let live: Vec<usize> = (0..programs.len())
                .filter(|&p| cursors[p] < programs[p].len())
                .collect();
            let pick = live[*choice.get(i).unwrap_or(&0) as usize % live.len()];
            ops.push(programs[pick][cursors[pick]]);
            cursors[pick] += 1;
            i += 1;
        }
        let s = Schedule::from_ops(ops);
        let initial = UniqueState::new(&schema, vec![0, 0]).unwrap();
        let (txn, parent, exec) = lemma2_execution(&schema, &s, &constraint, &rules, &initial).unwrap();
        let report = check::check(&schema, &txn, &parent, &exec);
        if is_vsr(&s) {
            prop_assert!(report.is_correct(), "{}: {report:?}", s);
            prop_assert!(report.parent_based, "{}: {report:?}", s);
        }
    }
}

/// Exhaustive version over every interleaving of two and three templates.
#[test]
fn lemma2_exhaustive_two_transactions() {
    let (schema, constraint, rules, programs) = setup(2);
    let initial = UniqueState::new(&schema, vec![0, 0]).unwrap();
    let mut vsr_count = 0;
    for s in Interleavings::new(programs) {
        let (txn, parent, exec) =
            lemma2_execution(&schema, &s, &constraint, &rules, &initial).unwrap();
        let report = check::check(&schema, &txn, &parent, &exec);
        if is_vsr(&s) {
            vsr_count += 1;
            assert!(
                report.is_correct() && report.parent_based,
                "{s}: {report:?}"
            );
        }
    }
    assert_eq!(vsr_count, 12, "VSR interleavings of the two templates");
}

#[test]
fn lemma2_exhaustive_three_transactions_sampled() {
    let (schema, constraint, rules, programs) = setup(3);
    let initial = UniqueState::new(&schema, vec![0, 0]).unwrap();
    let mut checked = 0;
    for (i, s) in Interleavings::new(programs).enumerate() {
        if i % 37 != 0 {
            continue; // sample the 34k interleavings
        }
        if !is_vsr(&s) {
            continue;
        }
        let (txn, parent, exec) =
            lemma2_execution(&schema, &s, &constraint, &rules, &initial).unwrap();
        let report = check::check(&schema, &txn, &parent, &exec);
        assert!(
            report.is_correct() && report.parent_based,
            "{s}: {report:?}"
        );
        checked += 1;
    }
    assert!(checked > 0);
}
