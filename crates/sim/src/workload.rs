//! Workload generation: long-duration, CAD-style transactions.
//!
//! The paper's motivating applications are CAD, office information systems
//! and software development environments: transactions whose dominant cost
//! is *human think time* between operations, touching a modest working set
//! of a shared design. The generator models exactly the knobs the paper's
//! argument turns on:
//!
//! * `think_time` — ticks between a transaction's operations; sweeping it
//!   is sweeping transaction *duration* (the x-axis of the `sec24-waits`
//!   experiment);
//! * `read_fraction` — designs are read-mostly;
//! * `hot_fraction` / `hot_access_pct` — contention concentrates on a few
//!   popular design objects.

use crate::{SimTime, SimTxnId};
use ks_kernel::EntityId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One operation of a simulated transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOp {
    /// True for writes.
    pub is_write: bool,
    /// Target entity.
    pub entity: EntityId,
}

/// A simulated transaction: operations plus its think time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimTxn {
    /// Identifier (dense).
    pub id: SimTxnId,
    /// Operations in program order.
    pub ops: Vec<SimOp>,
    /// Ticks between consecutive operations (the "long duration" knob).
    pub think_time: SimTime,
    /// Arrival time.
    pub arrival: SimTime,
    /// Cooperation: the transaction this one is ordered after (same
    /// chain), if any. Schedulers that understand ordering (the served
    /// certifiers behind the bridge) turn this into a partial-order edge;
    /// classical schedulers ignore it.
    pub predecessor: Option<SimTxnId>,
}

impl SimTxn {
    /// The transaction's intrinsic duration if never delayed:
    /// `ops · (1 + think_time)`.
    pub fn intrinsic_duration(&self) -> SimTime {
        self.ops.len() as SimTime * (1 + self.think_time)
    }
}

/// Generator parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Number of transactions.
    pub num_txns: usize,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Number of entities in the database.
    pub num_entities: usize,
    /// Probability (percent) that an operation is a read.
    pub read_pct: u8,
    /// Think time between operations, in ticks.
    pub think_time: SimTime,
    /// Fraction (percent) of entities that are "hot".
    pub hot_fraction_pct: u8,
    /// Probability (percent) that an access goes to the hot set.
    pub hot_access_pct: u8,
    /// Transactions arrive uniformly in `[0, arrival_spread]`.
    pub arrival_spread: SimTime,
    /// Cooperation chains: consecutive transactions are grouped into
    /// chains of this length, each member ordered after the previous one
    /// (1 = no cooperation structure).
    pub chain_length: usize,
    /// PRNG seed (workloads are fully deterministic given the spec).
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            num_txns: 16,
            ops_per_txn: 8,
            num_entities: 64,
            read_pct: 70,
            think_time: 10,
            hot_fraction_pct: 10,
            hot_access_pct: 50,
            arrival_spread: 20,
            chain_length: 1,
            seed: 42,
        }
    }
}

/// A generated workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The spec it was generated from.
    pub spec: WorkloadSpec,
    /// The transactions.
    pub txns: Vec<SimTxn>,
}

impl Workload {
    /// Generate deterministically from a spec.
    pub fn generate(spec: WorkloadSpec) -> Workload {
        assert!(spec.num_entities > 0 && spec.ops_per_txn > 0);
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let hot_count = ((spec.num_entities * spec.hot_fraction_pct as usize) / 100).max(1);
        let chain = spec.chain_length.max(1);
        let mut head_arrival: SimTime = 0;
        let txns = (0..spec.num_txns)
            .map(|i| {
                let ops = (0..spec.ops_per_txn)
                    .map(|_| {
                        let hot = rng.random_range(0..100u8) < spec.hot_access_pct;
                        let entity = if hot {
                            EntityId(rng.random_range(0..hot_count as u32))
                        } else {
                            EntityId(rng.random_range(0..spec.num_entities as u32))
                        };
                        SimOp {
                            is_write: rng.random_range(0..100u8) >= spec.read_pct,
                            entity,
                        }
                    })
                    .collect();
                let pos_in_chain = i % chain;
                if pos_in_chain == 0 {
                    head_arrival = if spec.arrival_spread == 0 {
                        0
                    } else {
                        rng.random_range(0..=spec.arrival_spread)
                    };
                }
                SimTxn {
                    id: SimTxnId(i as u32),
                    ops,
                    think_time: spec.think_time,
                    // chain members arrive in order, shortly after the head
                    arrival: head_arrival + 2 * pos_in_chain as SimTime,
                    predecessor: (pos_in_chain > 0).then(|| SimTxnId(i as u32 - 1)),
                }
            })
            .collect();
        Workload { spec, txns }
    }

    /// Total number of operations.
    pub fn total_ops(&self) -> usize {
        self.txns.iter().map(|t| t.ops.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = Workload::generate(WorkloadSpec::default());
        let b = Workload::generate(WorkloadSpec::default());
        assert_eq!(a, b);
        let c = Workload::generate(WorkloadSpec {
            seed: 43,
            ..WorkloadSpec::default()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn spec_respected() {
        let spec = WorkloadSpec {
            num_txns: 5,
            ops_per_txn: 7,
            num_entities: 10,
            read_pct: 100,
            think_time: 99,
            arrival_spread: 0,
            ..WorkloadSpec::default()
        };
        let w = Workload::generate(spec);
        assert_eq!(w.txns.len(), 5);
        assert!(w.txns.iter().all(|t| t.ops.len() == 7));
        assert!(w.txns.iter().all(|t| t.ops.iter().all(|o| !o.is_write)));
        assert!(w.txns.iter().all(|t| t.arrival == 0));
        assert!(w
            .txns
            .iter()
            .all(|t| t.ops.iter().all(|o| o.entity.index() < 10)));
        assert_eq!(w.total_ops(), 35);
        assert_eq!(w.txns[0].intrinsic_duration(), 7 * 100);
    }

    #[test]
    fn write_only_workload() {
        let spec = WorkloadSpec {
            read_pct: 0,
            ..WorkloadSpec::default()
        };
        let w = Workload::generate(spec);
        assert!(w.txns.iter().all(|t| t.ops.iter().all(|o| o.is_write)));
    }

    #[test]
    fn chains_link_consecutive_transactions() {
        let w = Workload::generate(WorkloadSpec {
            num_txns: 7,
            chain_length: 3,
            ..WorkloadSpec::default()
        });
        assert_eq!(w.txns[0].predecessor, None);
        assert_eq!(w.txns[1].predecessor, Some(SimTxnId(0)));
        assert_eq!(w.txns[2].predecessor, Some(SimTxnId(1)));
        assert_eq!(w.txns[3].predecessor, None); // new chain
        assert_eq!(w.txns[4].predecessor, Some(SimTxnId(3)));
        // chain members arrive in order
        assert!(w.txns[0].arrival < w.txns[1].arrival);
        assert!(w.txns[1].arrival < w.txns[2].arrival);
    }

    #[test]
    fn chain_length_one_means_no_predecessors() {
        let w = Workload::generate(WorkloadSpec::default());
        assert!(w.txns.iter().all(|t| t.predecessor.is_none()));
    }

    #[test]
    fn hot_set_concentrates_access() {
        let spec = WorkloadSpec {
            num_txns: 50,
            ops_per_txn: 20,
            num_entities: 100,
            hot_fraction_pct: 10,
            hot_access_pct: 90,
            ..WorkloadSpec::default()
        };
        let w = Workload::generate(spec);
        let hot_accesses = w
            .txns
            .iter()
            .flat_map(|t| &t.ops)
            .filter(|o| o.entity.index() < 10)
            .count();
        let total = w.total_ops();
        assert!(
            hot_accesses as f64 / total as f64 > 0.8,
            "{hot_accesses}/{total}"
        );
    }
}
