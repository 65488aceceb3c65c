//! Predicate-wise two-phase locking (after Korth et al. 1988).
//!
//! The paper derives its `PWSR` class from "a protocol called predicate-wise
//! two-phase locking": if the consistency constraint is in CNF, it suffices
//! to be two-phase **per conjunct** — a transaction may release one
//! object's locks while still acquiring another's, because each conjunct is
//! independently responsible for consistency. Lock hold times shrink from
//! "the rest of the transaction" to "the rest of the accesses *to that
//! object*", and the committed interleavings are guaranteed `PWCSR`, not
//! `CSR`.
//!
//! This implementation partitions entities into objects and uses the
//! workload's access plans (the same information the certifier bridge
//! uses) to detect each transaction's last access to an object, releasing
//! that object's locks immediately afterwards.

use ks_kernel::EntityId;
use ks_sim::{ConcurrencyControl, Decision, SimTime, SimTxnId, Workload};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Default, Clone)]
struct LockState {
    shared: BTreeSet<SimTxnId>,
    exclusive: Option<SimTxnId>,
}

/// Predicate-wise strict-per-object 2PL.
#[derive(Debug)]
pub struct PredicatewiseTwoPhaseLocking {
    /// Object index of each entity (the conjunct partition).
    object_of: Vec<usize>,
    /// Planned remaining accesses per transaction per object.
    plan: Vec<BTreeMap<usize, usize>>,
    /// Live remaining-access counters (reset on restart).
    remaining: Vec<BTreeMap<usize, usize>>,
    locks: BTreeMap<EntityId, LockState>,
    /// txn → entities it holds locks on, grouped by object.
    held: BTreeMap<SimTxnId, BTreeMap<usize, BTreeSet<EntityId>>>,
    waits_for: BTreeMap<SimTxnId, BTreeSet<SimTxnId>>,
    deadlocks_detected: u64,
    early_releases: u64,
}

impl PredicatewiseTwoPhaseLocking {
    /// Build for a workload with an explicit entity → object partition
    /// (`object_of[e]` = object index). Entities in the same conjunct of
    /// the database constraint share an object.
    pub fn for_workload_with_objects(workload: &Workload, object_of: Vec<usize>) -> Self {
        assert!(object_of.len() >= workload.spec.num_entities);
        let plan: Vec<BTreeMap<usize, usize>> = workload
            .txns
            .iter()
            .map(|t| {
                let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
                for op in &t.ops {
                    *counts.entry(object_of[op.entity.index()]).or_insert(0) += 1;
                }
                counts
            })
            .collect();
        PredicatewiseTwoPhaseLocking {
            object_of,
            remaining: plan.clone(),
            plan,
            locks: BTreeMap::new(),
            held: BTreeMap::new(),
            waits_for: BTreeMap::new(),
            deadlocks_detected: 0,
            early_releases: 0,
        }
    }

    /// Build with the loosest partition: every entity its own object (each
    /// conjunct mentions one entity).
    pub fn for_workload(workload: &Workload) -> Self {
        let object_of = (0..workload.spec.num_entities).collect();
        Self::for_workload_with_objects(workload, object_of)
    }

    /// Deadlocks resolved by aborting the requester.
    pub fn deadlocks_detected(&self) -> u64 {
        self.deadlocks_detected
    }

    /// Object lock groups released before commit (the whole point).
    pub fn early_releases(&self) -> u64 {
        self.early_releases
    }

    fn conflicts(&self, txn: SimTxnId, e: EntityId, write: bool) -> Vec<SimTxnId> {
        let ls = match self.locks.get(&e) {
            Some(ls) => ls,
            None => return vec![],
        };
        let mut out = Vec::new();
        if let Some(x) = ls.exclusive {
            if x != txn {
                out.push(x);
            }
        }
        if write {
            out.extend(ls.shared.iter().copied().filter(|&t| t != txn));
        }
        out
    }

    fn would_deadlock(&self, txn: SimTxnId, targets: &[SimTxnId]) -> bool {
        let mut stack: Vec<SimTxnId> = targets.to_vec();
        let mut seen = BTreeSet::new();
        while let Some(v) = stack.pop() {
            if v == txn {
                return true;
            }
            if seen.insert(v) {
                if let Some(next) = self.waits_for.get(&v) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    }

    fn release_object(&mut self, txn: SimTxnId, object: usize) {
        if let Some(groups) = self.held.get_mut(&txn) {
            if let Some(entities) = groups.remove(&object) {
                for e in entities {
                    if let Some(ls) = self.locks.get_mut(&e) {
                        ls.shared.remove(&txn);
                        if ls.exclusive == Some(txn) {
                            ls.exclusive = None;
                        }
                    }
                }
                self.early_releases += 1;
            }
        }
    }

    fn release_all(&mut self, txn: SimTxnId) {
        if let Some(groups) = self.held.remove(&txn) {
            for (_, entities) in groups {
                for e in entities {
                    if let Some(ls) = self.locks.get_mut(&e) {
                        ls.shared.remove(&txn);
                        if ls.exclusive == Some(txn) {
                            ls.exclusive = None;
                        }
                    }
                }
            }
        }
        self.waits_for.remove(&txn);
    }

    fn request(&mut self, txn: SimTxnId, e: EntityId, write: bool) -> Decision {
        let conflicting = self.conflicts(txn, e, write);
        if !conflicting.is_empty() {
            if self.would_deadlock(txn, &conflicting) {
                self.deadlocks_detected += 1;
                return Decision::Abort;
            }
            self.waits_for
                .insert(txn, conflicting.into_iter().collect());
            return Decision::Block;
        }
        // Grant.
        let object = self.object_of[e.index()];
        let ls = self.locks.entry(e).or_default();
        if write {
            ls.exclusive = Some(txn);
            ls.shared.remove(&txn);
        } else {
            ls.shared.insert(txn);
        }
        self.held
            .entry(txn)
            .or_default()
            .entry(object)
            .or_default()
            .insert(e);
        self.waits_for.remove(&txn);
        // Account the access; release the object's locks when this was the
        // transaction's last access to it.
        let rem = self.remaining[txn.index()]
            .get_mut(&object)
            .expect("access within plan");
        *rem -= 1;
        if *rem == 0 {
            self.release_object(txn, object);
        }
        Decision::Proceed
    }
}

impl ConcurrencyControl for PredicatewiseTwoPhaseLocking {
    fn on_begin(&mut self, txn: SimTxnId, _now: SimTime) {
        // Restart: reset the remaining-access plan.
        self.remaining[txn.index()] = self.plan[txn.index()].clone();
    }

    fn on_read(&mut self, txn: SimTxnId, entity: EntityId, _now: SimTime) -> Decision {
        self.request(txn, entity, false)
    }

    fn on_write(&mut self, txn: SimTxnId, entity: EntityId, _now: SimTime) -> Decision {
        self.request(txn, entity, true)
    }

    fn on_commit(&mut self, txn: SimTxnId, _now: SimTime) -> Decision {
        self.release_all(txn);
        Decision::Proceed
    }

    fn on_abort(&mut self, txn: SimTxnId, _now: SimTime) {
        self.release_all(txn);
        // The restart is a new attempt: nobody waits on it yet.
        for waited_on in self.waits_for.values_mut() {
            waited_on.remove(&txn);
        }
    }

    fn name(&self) -> &'static str {
        "pw-2pl"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_sim::{Engine, EngineConfig, TraceKind, WorkloadSpec};

    fn workload(seed: u64) -> Workload {
        Workload::generate(WorkloadSpec {
            num_txns: 6,
            ops_per_txn: 5,
            num_entities: 6,
            read_pct: 50,
            think_time: 3,
            hot_fraction_pct: 40,
            hot_access_pct: 80,
            arrival_spread: 6,
            chain_length: 1,
            seed,
        })
    }

    fn trace_to_schedule(trace: &[ks_sim::TraceEvent]) -> ks_schedule::Schedule {
        ks_schedule::Schedule::from_ops(
            ks_sim::trace::committed_ops(trace)
                .iter()
                .map(|ev| match ev.kind {
                    TraceKind::Read(e) => ks_schedule::Op::read(ks_schedule::TxnId(ev.txn.0), e),
                    TraceKind::Write(e) => ks_schedule::Op::write(ks_schedule::TxnId(ev.txn.0), e),
                    _ => unreachable!(),
                })
                .collect(),
        )
    }

    /// The defining guarantee: committed traces are PWCSR under the object
    /// partition, across seeds.
    #[test]
    fn committed_traces_are_pwcsr() {
        for seed in 0..8 {
            let w = workload(seed);
            let cc = PredicatewiseTwoPhaseLocking::for_workload(&w);
            let (m, trace, _) = Engine::new(&w, cc, EngineConfig::default()).run();
            assert_eq!(m.committed, 6, "seed {seed}");
            let s = trace_to_schedule(&trace);
            let objects: Vec<ks_predicate::Object> = (0..w.spec.num_entities as u32)
                .map(|i| ks_predicate::Object::from_iter([ks_kernel::EntityId(i)]))
                .collect();
            assert!(
                ks_schedule::pwsr::is_pwcsr(&s, &objects),
                "seed {seed}: {s}"
            );
        }
    }

    /// And the gain: some committed traces are NOT fully conflict
    /// serializable — per-object orders disagree, exactly the concurrency
    /// PW2PL unlocks.
    #[test]
    fn commits_non_serializable_interleavings() {
        let mut found = false;
        for seed in 0..40 {
            let w = workload(seed);
            let cc = PredicatewiseTwoPhaseLocking::for_workload(&w);
            let (_, trace, _) = Engine::new(&w, cc, EngineConfig::default()).run();
            let s = trace_to_schedule(&trace);
            if !ks_schedule::csr::is_csr(&s) {
                found = true;
                break;
            }
        }
        assert!(found, "expected a non-CSR committed trace across seeds");
    }

    /// With a single all-covering object, PW2PL degenerates to strict 2PL
    /// (releases only at commit) and traces become CSR.
    #[test]
    fn single_object_degenerates_to_2pl() {
        for seed in 0..6 {
            let w = workload(seed);
            let object_of = vec![0usize; w.spec.num_entities];
            let cc = PredicatewiseTwoPhaseLocking::for_workload_with_objects(&w, object_of);
            let (m, trace, cc) = Engine::new(&w, cc, EngineConfig::default()).run();
            assert_eq!(m.committed, 6, "seed {seed}");
            // the single object is only released when the txn's accesses end
            // — which IS its commit point plan-wise, so traces are CSR.
            let s = trace_to_schedule(&trace);
            assert!(ks_schedule::csr::is_csr(&s), "seed {seed}: {s}");
            let _ = cc.early_releases();
        }
    }

    /// Early releases happen with singleton objects, shortening hold times.
    #[test]
    fn early_releases_counted() {
        let w = workload(1);
        let cc = PredicatewiseTwoPhaseLocking::for_workload(&w);
        let (_, _, cc) = Engine::new(&w, cc, EngineConfig::default()).run();
        assert!(cc.early_releases() > 0);
    }

    /// Deadlocks are detected and broken, as in plain 2PL.
    #[test]
    fn deadlock_detection_works() {
        let mut cc = PredicatewiseTwoPhaseLocking::for_workload_with_objects(
            &Workload::generate(WorkloadSpec {
                num_txns: 2,
                ops_per_txn: 4,
                num_entities: 2,
                chain_length: 1,
                ..WorkloadSpec::default()
            }),
            vec![0, 0], // one object: no early release interference
        );
        use ks_kernel::EntityId;
        cc.on_begin(SimTxnId(0), 0);
        cc.on_begin(SimTxnId(1), 0);
        assert_eq!(cc.on_write(SimTxnId(0), EntityId(0), 0), Decision::Proceed);
        assert_eq!(cc.on_write(SimTxnId(1), EntityId(1), 0), Decision::Proceed);
        assert_eq!(cc.on_write(SimTxnId(0), EntityId(1), 1), Decision::Block);
        assert_eq!(cc.on_write(SimTxnId(1), EntityId(0), 1), Decision::Abort);
        assert_eq!(cc.deadlocks_detected(), 1);
    }

    /// A restarted transaction inherits no waits-for edges: a waiter on
    /// its aborted attempt is not a waiter on the restart.
    #[test]
    fn restart_clears_waits_on_the_aborted_attempt() {
        use ks_kernel::EntityId;
        let w = Workload::generate(WorkloadSpec {
            num_txns: 2,
            ops_per_txn: 4,
            num_entities: 2,
            ..WorkloadSpec::default()
        });
        let mut cc = PredicatewiseTwoPhaseLocking::for_workload_with_objects(&w, vec![0, 0]);
        let (t0, t1) = (SimTxnId(0), SimTxnId(1));
        cc.on_begin(t0, 0);
        cc.on_begin(t1, 0);
        assert_eq!(cc.on_write(t0, EntityId(0), 0), Decision::Proceed);
        assert_eq!(cc.on_write(t1, EntityId(1), 0), Decision::Proceed);
        assert_eq!(cc.on_write(t1, EntityId(0), 1), Decision::Block);
        cc.on_abort(t0, 2);
        cc.on_begin(t0, 3);
        // No phantom cycle through t1's stale wait: t0 just waits.
        assert_eq!(cc.on_write(t0, EntityId(1), 4), Decision::Block);
        assert_eq!(cc.deadlocks_detected(), 0);
    }
}
