//! Run any served [`Certifier`] under the `ks-sim` engine.
//!
//! Each attempt of a simulated transaction opens a fresh certifier
//! transaction whose input predicate is a tautology over the entities it
//! will access ([`Specification::unconstrained`]: they are in `N_t`, as
//! the paper requires for every read, and nothing is constrained) and whose
//! `after` edge is its chain predecessor's live handle — the ordering edges
//! a served session would declare. The sim workloads carry no application
//! constraint, which is the apples-to-apples setting against T/O and MVTO:
//! those schedulers know nothing about predicates either. The experiment's
//! point: under the paper's correctness model (`cpc`) the waits of strict
//! 2PL (`2pl`) and the aborts of T/O do not arise.
//!
//! The bridge has no per-backend branch. Outcomes map onto [`Decision`]s
//! uniformly: granted → `Proceed`; blocked, would-block or an ordering /
//! child wait at commit → `Block`; a handle the certifier aborted
//! underneath the session (re-eval, cascade, deadlock victim) or any other
//! error → `Abort`.

use ks_core::Specification;
use ks_kernel::{Domain, EntityId, Schema, UniqueState, Value};
use ks_predicate::Strategy;
use ks_protocol::{
    Certifier, CommitOutcome, ProtocolError, ReadOutcome, Txn, TxnState, ValidationOutcome,
};
use ks_sim::{CcCounters, ConcurrencyControl, Decision, SimTime, SimTxnId, Workload};

/// A [`Certifier`] as a `ks-sim` scheduler.
pub struct CertifierBridge<C> {
    certifier: C,
    /// Entities each sim transaction will touch, sorted and deduplicated.
    access_sets: Vec<Vec<EntityId>>,
    /// Cooperation: the workload's chain predecessors.
    predecessors: Vec<Option<SimTxnId>>,
    /// The current attempt's handle per sim transaction (`None` between an
    /// abort and the restart).
    handles: Vec<Option<Txn>>,
    /// Monotone value source for writes (values are irrelevant to the sim).
    next_value: Value,
}

impl<C: Certifier> CertifierBridge<C> {
    /// Bridge the certifier `make` builds over the workload's entities
    /// `d0, d1, …` (the widest range, all initially 0).
    pub fn for_workload(workload: &Workload, make: impl FnOnce(Schema, &UniqueState) -> C) -> Self {
        let n = workload.spec.num_entities;
        let schema = Schema::uniform(
            (0..n).map(|i| format!("d{i}")),
            Domain::Range {
                min: i64::MIN / 2,
                max: i64::MAX / 2,
            },
        );
        let access_sets = workload
            .txns
            .iter()
            .map(|t| {
                let mut set: Vec<EntityId> = t.ops.iter().map(|o| o.entity).collect();
                set.sort_unstable();
                set.dedup();
                set
            })
            .collect();
        CertifierBridge {
            certifier: make(schema, &UniqueState::constant(n, 0)),
            access_sets,
            predecessors: workload.txns.iter().map(|t| t.predecessor).collect(),
            handles: vec![None; workload.txns.len()],
            next_value: 1,
        }
    }

    /// The bridged certifier (for post-run statistics and history checks).
    pub fn certifier(&self) -> &C {
        &self.certifier
    }

    /// Run `op` on `txn`'s current attempt. A handle the certifier has
    /// aborted underneath the session, or any refusal, is `Abort`; a
    /// would-block is `Block`.
    fn decide(
        &mut self,
        txn: SimTxnId,
        op: impl FnOnce(&mut C, Txn) -> Result<Decision, ProtocolError>,
    ) -> Decision {
        let h = self.handles[txn.index()].expect("began");
        if self.certifier.state_of(h) == Ok(TxnState::Aborted) {
            return Decision::Abort;
        }
        match op(&mut self.certifier, h) {
            Ok(decision) => decision,
            Err(ProtocolError::WouldBlock(_)) => Decision::Block,
            Err(_) => Decision::Abort,
        }
    }
}

impl<C: Certifier> ConcurrencyControl for CertifierBridge<C> {
    fn on_begin(&mut self, txn: SimTxnId, _now: SimTime) {
        let spec = Specification::unconstrained(&self.access_sets[txn.index()]);
        let after = self.predecessors[txn.index()].and_then(|p| self.handles[p.index()]);
        let h = self
            .certifier
            .open(spec, after.as_slice(), &[])
            .expect("a fresh transaction opens");
        // Oldest-first assignment (Backtracking) pins the parent's
        // versions: with no application predicate there is no reason to
        // consume a sibling's in-flight data.
        let validated = self.certifier.validate(h, Strategy::Backtracking);
        assert_eq!(
            validated,
            Ok(ValidationOutcome::Validated),
            "tautologies validate"
        );
        self.handles[txn.index()] = Some(h);
    }

    fn on_read(&mut self, txn: SimTxnId, entity: EntityId, _now: SimTime) -> Decision {
        self.decide(txn, |c, h| {
            Ok(match c.read(h, entity)? {
                ReadOutcome::Value(_) => Decision::Proceed,
                ReadOutcome::Blocked(_) => Decision::Block,
            })
        })
    }

    fn on_write(&mut self, txn: SimTxnId, entity: EntityId, _now: SimTime) -> Decision {
        self.next_value += 1;
        let value = self.next_value;
        self.decide(txn, |c, h| {
            c.write(h, entity, value).map(|_| Decision::Proceed)
        })
    }

    fn on_commit(&mut self, txn: SimTxnId, _now: SimTime) -> Decision {
        self.decide(txn, |c, h| {
            Ok(match c.commit(h)? {
                CommitOutcome::Committed => Decision::Proceed,
                CommitOutcome::PredecessorsPending(_) | CommitOutcome::ChildrenPending(_) => {
                    Decision::Block
                }
                CommitOutcome::OutputViolated => Decision::Abort,
            })
        })
    }

    fn on_abort(&mut self, txn: SimTxnId, _now: SimTime) {
        if let Some(h) = self.handles[txn.index()].take() {
            if self.certifier.state_of(h) == Ok(TxnState::Validated) {
                let _ = self.certifier.abort(h);
            }
        }
    }

    fn name(&self) -> &'static str {
        self.certifier.backend().name()
    }

    fn counters(&self) -> CcCounters {
        let s = self.certifier.stats();
        CcCounters {
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
    use ks_protocol::{ProtocolManager, TplCertifier};
    use ks_sim::{Engine, EngineConfig, WorkloadSpec};

    fn cpc(w: &Workload) -> CertifierBridge<ProtocolManager> {
        CertifierBridge::for_workload(w, |schema, initial| {
            ProtocolManager::new(schema, initial, Specification::trivial())
        })
    }

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
        let (m, _, bridge) = Engine::new(&w, cpc(&w), EngineConfig::default()).run();
        assert_eq!(m.scheduler, "cpc");
        assert_eq!(m.committed, 12);
        assert_eq!(m.waits, 0, "no partial order ⇒ no read-side conflicts");
        assert_eq!(m.aborts, 0);
        let stats = bridge.certifier().stats();
        assert_eq!(stats.validations, 12);
        assert!(stats.writes > 0);
        assert!(bridge.certifier().verify_history().is_correct());
    }

    #[test]
    fn deterministic_under_fixed_workload() {
        let w = Workload::generate(WorkloadSpec::default());
        let cpc_run = || {
            let (m, t, _) = Engine::new(&w, cpc(&w), EngineConfig::default()).run();
            (m, t)
        };
        assert_eq!(cpc_run(), cpc_run());
        let tpl_run = || {
            let bridge = CertifierBridge::for_workload(&w, TplCertifier::new);
            let (m, t, _) = Engine::new(&w, bridge, EngineConfig::default()).run();
            (m, t)
        };
        let (m, t) = tpl_run();
        assert_eq!(m.scheduler, "2pl");
        assert_eq!((m, t), tpl_run());
    }
}
