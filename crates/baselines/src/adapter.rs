//! Run the Korth–Speegle protocol under the `ks-sim` engine.
//!
//! Each simulated transaction becomes a top-level subtransaction of the
//! protocol root. Its input predicate is a tautology over the entities it
//! will access (so they are in `N_t` and receive `R_v` locks, as the paper
//! requires for every read), and its output predicate is `true`: the sim
//! workloads carry no application constraint, which is the apples-to-apples
//! setting against 2PL and T/O — those schedulers also know nothing about
//! predicates, they enforce serializability instead. The experiment's
//! point: when correctness is defined by the paper's model rather than
//! serializability, the waits of 2PL and the aborts of T/O simply do not
//! arise.

use ks_core::Specification;
use ks_kernel::{Domain, EntityId, Schema, UniqueState};
use ks_predicate::{Atom, Clause, CmpOp, Cnf, Strategy};
use ks_protocol::manager::{
    CommitOutcome, ProtocolManager, ReadOutcome, Txn, TxnState as PTxnState, ValidationOutcome,
};
use ks_sim::{ConcurrencyControl, Decision, SimTime, SimTxnId, Workload};
use std::collections::{BTreeMap, BTreeSet};

/// Adapter: the KS protocol as a `ks-sim` scheduler.
pub struct KsProtocolAdapter {
    manager: ProtocolManager,
    /// Entities each sim transaction will touch (from the workload).
    access_sets: Vec<BTreeSet<EntityId>>,
    /// Cooperation: the workload's chain predecessors.
    predecessors: Vec<Option<SimTxnId>>,
    /// Active protocol handle per sim transaction.
    handles: BTreeMap<SimTxnId, Txn>,
    /// Sim transactions doomed by re-eval or cascade; they abort at their
    /// next request.
    doomed: BTreeSet<SimTxnId>,
    /// Reverse map protocol handle → sim transaction.
    owners: BTreeMap<Txn, SimTxnId>,
    /// Monotone value source for writes (values are irrelevant to the sim).
    next_value: i64,
}

impl KsProtocolAdapter {
    /// Build the adapter for a workload over `num_entities` entities.
    pub fn for_workload(workload: &Workload) -> Self {
        let n = workload.spec.num_entities;
        let schema = Schema::uniform(
            (0..n).map(|i| format!("d{i}")),
            Domain::Range {
                min: i64::MIN / 2,
                max: i64::MAX / 2,
            },
        );
        let initial = UniqueState::constant(n, 0);
        let manager = ProtocolManager::new(schema, &initial, Specification::trivial());
        let access_sets = workload
            .txns
            .iter()
            .map(|t| t.ops.iter().map(|o| o.entity).collect())
            .collect();
        let predecessors = workload.txns.iter().map(|t| t.predecessor).collect();
        KsProtocolAdapter {
            manager,
            access_sets,
            predecessors,
            handles: BTreeMap::new(),
            doomed: BTreeSet::new(),
            owners: BTreeMap::new(),
            next_value: 1,
        }
    }

    /// Tautological input predicate over an access set (puts the entities
    /// into `N_t` without constraining values).
    fn tautology(entities: &BTreeSet<EntityId>) -> Cnf {
        Cnf::new(
            entities
                .iter()
                .map(|&e| Clause::unit(Atom::cmp_const(e, CmpOp::Ge, i64::MIN / 2)))
                .collect(),
        )
    }

    /// Protocol statistics (for experiment reporting).
    pub fn protocol_stats(&self) -> ks_protocol::manager::ProtocolStats {
        self.manager.stats()
    }

    /// The underlying manager (for post-run extraction and model checking).
    pub fn manager(&self) -> &ProtocolManager {
        &self.manager
    }

    fn handle(&self, txn: SimTxnId) -> Option<Txn> {
        self.handles.get(&txn).copied()
    }

    fn check_doomed(&mut self, txn: SimTxnId) -> bool {
        if self.doomed.remove(&txn) {
            if let Some(h) = self.handle(txn) {
                if self.manager.state_of(h) == Ok(PTxnState::Validated) {
                    let _ = self.manager.abort(h);
                }
            }
            true
        } else {
            false
        }
    }

    fn doom_owners(&mut self, affected: &[ks_protocol::manager::ReEvalAction]) {
        for action in affected {
            let t = match action {
                ks_protocol::manager::ReEvalAction::Aborted(t)
                | ks_protocol::manager::ReEvalAction::ReassignFailedAborted(t) => *t,
                ks_protocol::manager::ReEvalAction::Reassigned(_) => continue,
            };
            if let Some(&owner) = self.owners.get(&t) {
                self.doomed.insert(owner);
            }
        }
    }
}

impl ConcurrencyControl for KsProtocolAdapter {
    fn on_begin(&mut self, txn: SimTxnId, _now: SimTime) {
        let access = self.access_sets[txn.index()].clone();
        let spec = Specification::new(Self::tautology(&access), Cnf::truth());
        let root = self.manager.root();
        // Cooperation: order after the chain predecessor's live handle
        // (restarted predecessors get fresh handles; an edge to an aborted
        // one is harmless — aborted predecessors don't gate commit).
        let after: Vec<Txn> = self.predecessors[txn.index()]
            .and_then(|p| self.handles.get(&p).copied())
            .into_iter()
            .collect();
        let handle = self
            .manager
            .define(root, spec, &after, &[])
            .expect("root accepts definitions");
        // Trivial tautologies always validate immediately. Oldest-first
        // assignment (Backtracking) pins the parent's versions: with no
        // application predicate there is no reason to consume a sibling's
        // in-flight data, and parent versions are never superseded.
        match self
            .manager
            .validate(handle, Strategy::Backtracking)
            .expect("defined")
        {
            ValidationOutcome::Validated => {}
            ValidationOutcome::Blocked(_)
            | ValidationOutcome::CannotSatisfy
            | ValidationOutcome::MustWait(_) => {
                unreachable!("tautological input predicates always validate")
            }
        }
        self.handles.insert(txn, handle);
        self.owners.insert(handle, txn);
        self.doomed.remove(&txn);
    }

    fn on_read(&mut self, txn: SimTxnId, entity: EntityId, _now: SimTime) -> Decision {
        if self.check_doomed(txn) {
            return Decision::Abort;
        }
        let h = self.handle(txn).expect("began");
        match self.manager.read(h, entity).expect("entity in N_t") {
            ReadOutcome::Value(_) => Decision::Proceed,
            ReadOutcome::Blocked(_) => Decision::Block,
        }
    }

    fn on_write(&mut self, txn: SimTxnId, entity: EntityId, _now: SimTime) -> Decision {
        if self.check_doomed(txn) {
            return Decision::Abort;
        }
        let h = self.handle(txn).expect("began");
        self.next_value += 1;
        let value = self.next_value;
        match self.manager.write(h, entity, value) {
            Ok(report) => {
                self.doom_owners(&report.reeval);
                Decision::Proceed
            }
            Err(_) => Decision::Abort,
        }
    }

    fn on_commit(&mut self, txn: SimTxnId, _now: SimTime) -> Decision {
        if self.check_doomed(txn) {
            return Decision::Abort;
        }
        let h = self.handle(txn).expect("began");
        match self.manager.commit(h).expect("validated") {
            CommitOutcome::Committed => Decision::Proceed,
            CommitOutcome::PredecessorsPending(_) | CommitOutcome::ChildrenPending(_) => {
                Decision::Block
            }
            CommitOutcome::OutputViolated => Decision::Abort,
        }
    }

    fn on_abort(&mut self, txn: SimTxnId, _now: SimTime) {
        if let Some(h) = self.handles.remove(&txn) {
            self.owners.remove(&h);
            if self.manager.state_of(h) == Ok(PTxnState::Validated) {
                let _ = self.manager.abort(h);
            }
        }
        self.doomed.remove(&txn);
    }

    fn name(&self) -> &'static str {
        "ks-protocol"
    }

    fn counters(&self) -> ks_sim::CcCounters {
        let s = self.manager.stats();
        ks_sim::CcCounters {
            re_evals: s.re_evals,
            re_assigns: s.re_assigns,
            reeval_aborts: s.reeval_aborts,
            cascade_aborts: s.cascade_aborts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_sim::{Engine, EngineConfig, WorkloadSpec};

    #[test]
    fn all_transactions_commit_without_waits_or_aborts() {
        let w = Workload::generate(WorkloadSpec {
            num_txns: 12,
            ops_per_txn: 6,
            num_entities: 8,
            read_pct: 50,
            think_time: 25,
            hot_access_pct: 90, // heavy contention — 2PL would queue up
            ..WorkloadSpec::default()
        });
        let adapter = KsProtocolAdapter::for_workload(&w);
        let (m, _, adapter) = Engine::new(&w, adapter, EngineConfig::default()).run();
        assert_eq!(m.committed, 12);
        assert_eq!(m.waits, 0, "no partial order ⇒ no read-side conflicts");
        assert_eq!(m.aborts, 0);
        let stats = adapter.protocol_stats();
        assert_eq!(stats.validations, 12);
        assert!(stats.writes > 0);
    }

    #[test]
    fn deterministic_under_fixed_workload() {
        let w = Workload::generate(WorkloadSpec::default());
        let run = |w: &Workload| {
            let adapter = KsProtocolAdapter::for_workload(w);
            let (m, t, _) = Engine::new(w, adapter, EngineConfig::default()).run();
            (m, t)
        };
        let (m1, t1) = run(&w);
        let (m2, t2) = run(&w);
        assert_eq!(m1, m2);
        assert_eq!(t1, t2);
    }
}
