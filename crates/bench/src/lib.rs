//! # ks-bench
//!
//! The experiment harness: shared generators and runners used by the
//! `exp_*` binaries (which regenerate every figure, table and claim of the
//! paper — see `EXPERIMENTS.md`) and the Criterion benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod report;

use ks_baselines::{
    KsProtocolAdapter, MultiversionTimestampOrdering, PredicatewiseTwoPhaseLocking,
    TimestampOrdering, TwoPhaseLocking,
};
use ks_predicate::random::SplitMix64;
use ks_schedule::search::Programs;
use ks_schedule::{Op, Schedule, TxnId};
use ks_sim::{Engine, EngineConfig, Metrics, Workload, WorkloadSpec};

/// Generate a single random interleaving of the given programs (uniform
/// among next-step choices; preserves each program's order). Used where
/// exhaustive enumeration is too large.
pub fn random_interleaving(programs: &Programs, rng: &mut SplitMix64) -> Schedule {
    let mut cursors = vec![0usize; programs.len()];
    let total: usize = programs.iter().map(|p| p.len()).sum();
    let mut ops = Vec::with_capacity(total);
    while ops.len() < total {
        let live: Vec<usize> = (0..programs.len())
            .filter(|&p| cursors[p] < programs[p].len())
            .collect();
        let p = live[rng.index(live.len())];
        ops.push(programs[p][cursors[p]]);
        cursors[p] += 1;
    }
    Schedule::from_ops(ops)
}

/// Random flat transaction programs: `num_txns` transactions, each with
/// `ops_per_txn` read/write steps over `num_entities` entities.
pub fn random_programs(
    rng: &mut SplitMix64,
    num_txns: usize,
    ops_per_txn: usize,
    num_entities: usize,
    read_pct: u8,
) -> Programs {
    (0..num_txns)
        .map(|t| {
            (0..ops_per_txn)
                .map(|_| {
                    let e = ks_kernel::EntityId(rng.index(num_entities) as u32);
                    if rng.below(100) < read_pct as u64 {
                        Op::read(TxnId(t as u32), e)
                    } else {
                        Op::write(TxnId(t as u32), e)
                    }
                })
                .collect()
        })
        .collect()
}

/// Run one workload under all five schedulers; returns metrics in the
/// order `[2PL, PW2PL, TO, MVTO, KS]`.
pub fn run_all_schedulers(workload: &Workload) -> Vec<Metrics> {
    let config = EngineConfig::default();
    vec![
        Engine::new(workload, TwoPhaseLocking::new(), config)
            .run()
            .0,
        Engine::new(
            workload,
            PredicatewiseTwoPhaseLocking::for_workload(workload),
            config,
        )
        .run()
        .0,
        Engine::new(workload, TimestampOrdering::new(), config)
            .run()
            .0,
        Engine::new(workload, MultiversionTimestampOrdering::new(), config)
            .run()
            .0,
        Engine::new(workload, KsProtocolAdapter::for_workload(workload), config)
            .run()
            .0,
    ]
}

/// The Section 2.4 sweep: transaction duration (think time) from short to
/// very long, fixed contention.
pub fn duration_sweep() -> Vec<(u64, WorkloadSpec)> {
    [1u64, 5, 20, 50, 100, 200]
        .into_iter()
        .map(|think| {
            (
                think,
                WorkloadSpec {
                    num_txns: 16,
                    ops_per_txn: 8,
                    num_entities: 32,
                    read_pct: 60,
                    think_time: think,
                    hot_fraction_pct: 25,
                    hot_access_pct: 75,
                    arrival_spread: 10,
                    chain_length: 1,
                    seed: 7,
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_interleaving_preserves_program_order() {
        let mut rng = SplitMix64::new(1);
        let programs = random_programs(&mut rng, 3, 4, 5, 50);
        let s = random_interleaving(&programs, &mut rng);
        assert_eq!(s.len(), 12);
        for (t, prog) in programs.iter().enumerate() {
            assert_eq!(s.txn_ops(TxnId(t as u32)), *prog);
        }
    }

    #[test]
    fn all_schedulers_commit_everything_on_small_workload() {
        let w = Workload::generate(WorkloadSpec {
            num_txns: 6,
            ops_per_txn: 4,
            num_entities: 16,
            think_time: 2,
            ..WorkloadSpec::default()
        });
        for m in run_all_schedulers(&w) {
            assert_eq!(m.committed, 6, "{}", m.scheduler);
        }
    }

    #[test]
    fn duration_sweep_shape() {
        let sweep = duration_sweep();
        assert_eq!(sweep.len(), 6);
        assert!(sweep.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
