//! Property test for Lemma 4 + Theorem 2: randomized protocol sessions,
//! extracted and verified against the formal model. Each session draws
//! 2–5 transactions over 2–4 entities; a transaction's input is a
//! tautology over every entity, sometimes strengthened with one
//! `(e = v) ∨ (e ≥ 1)` clause, and it is ordered after a random subset
//! (≈ 40 %) of its earlier siblings. A random script of validates, reads,
//! writes, commits and aborts drives the session, and whatever commits is
//! checked with the `ks-core` checkers.

use ks_core::{check, Specification};
use ks_kernel::{Domain, EntityId, Schema, UniqueState};
use ks_predicate::{Atom, Clause, CmpOp, Cnf, Strategy as SolveStrategy};
use ks_protocol::extract::model_execution;
use ks_protocol::{CommitOutcome, ProtocolManager, TxnState, ValidationOutcome};
use proptest::prelude::*;

/// One scripted action against the manager.
#[derive(Debug, Clone, Copy)]
enum Act {
    Validate(usize),
    Read(usize, u32),
    Write(usize, u32, i64),
    Commit(usize),
    Abort(usize),
}

/// One transaction of a session: its optional `(e = v) ∨ (e ≥ 1)` input
/// clause, and which earlier siblings it is ordered after.
#[derive(Debug, Clone)]
struct TxnShape {
    clause: Option<(u32, i64)>,
    after: Vec<bool>,
}

/// A script of up to 60 actions. Reads and writes outweigh commits and
/// aborts (3 : 3 : 2 : 1, validates 1), so a transaction often reads a
/// sibling's version while its writer is still live.
fn acts(num_txns: usize, num_entities: u32) -> impl Strategy<Value = Vec<Act>> {
    let act =
        (0..10u8, 0..num_txns, 0..num_entities, 0..10i64).prop_map(|(kind, t, e, v)| match kind {
            0 => Act::Validate(t),
            1..=3 => Act::Read(t, e),
            4..=6 => Act::Write(t, e, v),
            7 | 8 => Act::Commit(t),
            _ => Act::Abort(t),
        });
    prop::collection::vec(act, 0..60)
}

/// A session: the entity count, the transactions, and the script.
fn sessions() -> impl Strategy<Value = (u32, Vec<TxnShape>, Vec<Act>)> {
    (2..=5usize, 2..=4u32).prop_flat_map(|(k, n)| {
        let txn = (
            prop::bool::ANY,
            0..n,
            0..3i64,
            prop::collection::vec(0..5u8, k),
        )
            .prop_map(|(strengthen, e, v, draws)| TxnShape {
                clause: strengthen.then_some((e, v)),
                after: draws.iter().map(|&d| d < 2).collect(),
            });
        (Just(n), prop::collection::vec(txn, k), acts(k, n))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// However the session is driven, the committed children always form a
    /// correct, parent-based execution.
    #[test]
    fn protocol_always_yields_correct_executions((n_entities, txns, script) in sessions()) {
        let schema = Schema::uniform(
            (0..n_entities).map(|i| format!("d{i}")),
            Domain::Range { min: 0, max: 9 },
        );
        let initial = UniqueState::from_values_unchecked(vec![0; n_entities as usize]);
        let mut pm = ProtocolManager::new(schema.clone(), &initial, Specification::trivial());
        let root = pm.root();
        let mut handles = Vec::new();
        for shape in &txns {
            let mut clauses: Vec<Clause> = (0..n_entities)
                .map(|i| Clause::unit(Atom::cmp_const(EntityId(i), CmpOp::Ge, 0)))
                .collect();
            if let Some((e, v)) = shape.clause {
                clauses.push(Clause::new(vec![
                    Atom::cmp_const(EntityId(e), CmpOp::Eq, v),
                    Atom::cmp_const(EntityId(e), CmpOp::Ge, 1),
                ]));
            }
            let after: Vec<_> = handles
                .iter()
                .zip(&shape.after)
                .filter_map(|(&h, &ordered)| ordered.then_some(h))
                .collect();
            let spec = Specification::new(Cnf::new(clauses), Cnf::truth());
            handles.push(pm.define(root, spec, &after, &[]).unwrap());
        }
        // Drive the script; every call must be handled gracefully. A read or
        // write by a transaction that has not validated yet validates it.
        for act in script {
            let (Act::Validate(t)
            | Act::Read(t, _)
            | Act::Write(t, _, _)
            | Act::Commit(t)
            | Act::Abort(t)) = act;
            let handle = handles[t];
            let state = pm.state_of(handle).unwrap();
            match act {
                Act::Validate(_) | Act::Read(..) | Act::Write(..) if state == TxnState::Defined => {
                    let out = pm.validate(handle, SolveStrategy::GreedyLatest).unwrap();
                    prop_assert!(!matches!(out, ValidationOutcome::Blocked(_)));
                }
                Act::Read(_, e) if state == TxnState::Validated => {
                    let _ = pm.read(handle, EntityId(e));
                }
                Act::Write(_, e, v) if state == TxnState::Validated => {
                    let _ = pm.write(handle, EntityId(e), v);
                }
                Act::Commit(_) if state == TxnState::Validated => {
                    let _ = pm.commit(handle).unwrap();
                }
                Act::Abort(_) if matches!(state, TxnState::Defined | TxnState::Validated) => {
                    let _ = pm.abort(handle);
                }
                _ => {}
            }
        }
        // Terminate everything still live, committing where the protocol
        // allows it.
        let mut progress = true;
        while progress {
            progress = false;
            for &handle in &handles {
                if pm.state_of(handle).unwrap() == TxnState::Defined {
                    if let Ok(ValidationOutcome::Validated) =
                        pm.validate(handle, SolveStrategy::GreedyLatest)
                    {
                        progress = true;
                    }
                }
                if pm.state_of(handle).unwrap() == TxnState::Validated {
                    match pm.commit(handle).unwrap() {
                        CommitOutcome::Committed => progress = true,
                        CommitOutcome::OutputViolated => {
                            pm.abort(handle).unwrap();
                            progress = true;
                        }
                        _ => {}
                    }
                }
            }
        }
        for &handle in &handles {
            let st = pm.state_of(handle).unwrap();
            if st == TxnState::Defined || st == TxnState::Validated {
                let _ = pm.abort(handle);
            }
        }
        // The moment of truth.
        let (txn, parent, exec) = model_execution(&pm, root).unwrap();
        let report = check::check(&schema, &txn, &parent, &exec);
        prop_assert!(report.is_correct(), "{report:?}");
        prop_assert!(report.parent_based, "{report:?}");
    }
}
