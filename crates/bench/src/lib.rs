//! # ks-bench
//!
//! The experiment harness: shared generators and runners used by the
//! `exp_*` binaries, which measure the paper's Section 2.4 claims and the
//! served system. The paper's formal artifacts are owned by tests, which
//! `EXPERIMENTS.md` names.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod report;

use ks_baselines::{
    CertifierBridge, MultiversionTimestampOrdering, PredicatewiseTwoPhaseLocking, TimestampOrdering,
};
use ks_core::Specification;
use ks_predicate::random::SplitMix64;
use ks_protocol::{ProtocolManager, TplCertifier};
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

/// The served strict-2PL certifier under the simulator.
pub fn bridged_2pl(workload: &Workload) -> CertifierBridge<TplCertifier> {
    CertifierBridge::for_workload(workload, TplCertifier::new)
}

/// The paper's protocol manager (CPC) under the simulator.
pub fn bridged_cpc(workload: &Workload) -> CertifierBridge<ProtocolManager> {
    CertifierBridge::for_workload(workload, |schema, initial| {
        ProtocolManager::new(schema, initial, Specification::trivial())
    })
}

/// Run one workload under all five schedulers; returns metrics in the
/// order `[2pl, pw-2pl, TO, MVTO, cpc]`.
pub fn run_all_schedulers(workload: &Workload) -> Vec<Metrics> {
    let config = EngineConfig::default();
    vec![
        Engine::new(workload, bridged_2pl(workload), config).run().0,
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
        Engine::new(workload, bridged_cpc(workload), config).run().0,
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

/// The `coop-chains` sweep: cooperation chain length from none to half
/// the workload, fixed contention and think time.
pub fn chain_sweep() -> Vec<(usize, WorkloadSpec)> {
    [1usize, 2, 4, 8]
        .into_iter()
        .map(|chain| {
            (
                chain,
                WorkloadSpec {
                    num_txns: 16,
                    ops_per_txn: 6,
                    num_entities: 24,
                    read_pct: 60,
                    think_time: 15,
                    hot_fraction_pct: 25,
                    hot_access_pct: 75,
                    arrival_spread: 8,
                    chain_length: chain,
                    seed: 21,
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_protocol::Certifier;
    use std::collections::BTreeSet;
    use std::fs;
    use std::path::Path;

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

    /// The Section 2.4 comparison's invariants on every workload it
    /// reports: all five schedulers commit all 16 transactions, `cpc`
    /// neither waits nor aborts across the duration sweep, and the two
    /// bridged certifiers' histories pass their own offline checks.
    #[test]
    fn all_schedulers_commit_everything_on_small_workload() {
        let durations = duration_sweep().into_iter().map(|(_, s)| (true, s));
        let chains = chain_sweep().into_iter().map(|(_, s)| (false, s));
        for (is_duration, spec) in durations.chain(chains) {
            let w = Workload::generate(spec.clone());
            let rows = run_all_schedulers(&w);
            for m in &rows {
                assert_eq!(m.committed, 16, "{} on {spec:?}", m.scheduler);
            }
            let cpc = &rows[4];
            assert_eq!(cpc.scheduler, "cpc");
            if is_duration {
                assert_eq!((cpc.waits, cpc.aborts), (0, 0), "{spec:?}");
            }
            let config = EngineConfig::default();
            let (_, _, tpl) = Engine::new(&w, bridged_2pl(&w), config).run();
            let (_, _, cpc) = Engine::new(&w, bridged_cpc(&w), config).run();
            for verdict in [
                tpl.certifier().verify_history(),
                cpc.certifier().verify_history(),
            ] {
                assert!(verdict.is_correct(), "{spec:?}: {verdict:?}");
                assert_eq!(verdict.committed, 16, "{spec:?}");
            }
        }
    }

    /// Lemma 4 on the `coop-chains` shape at chain length 2 with seed 15,
    /// single-threaded and deterministic: when a committed reader could
    /// keep an unordered sibling's uncommitted version, the engine counted
    /// 16 commits with every input predicate true, yet the bridged CPC's
    /// extracted execution was not parent-based.
    #[test]
    fn chained_cpc_history_is_parent_based() {
        let (chain, spec) = chain_sweep()[1].clone();
        assert_eq!(chain, 2);
        let w = Workload::generate(WorkloadSpec { seed: 15, ..spec });
        let (metrics, _, cpc) = Engine::new(&w, bridged_cpc(&w), EngineConfig::default()).run();
        assert_eq!(metrics.committed, 16);
        let verdict = cpc.certifier().verify_history();
        assert!(verdict.is_correct(), "{verdict:?}");
        assert_eq!(verdict.committed, 16);
    }

    /// EXPERIMENTS.md cannot drift from the code. `BINARIES` and
    /// `NOT_CAPTURED` in `scripts/gen_experiments.py` split the `exp_*`
    /// binaries between them, and every backticked name on an *Owned by*
    /// paragraph is a test (`module::name`) whose `fn` exists in the
    /// workspace sources.
    #[test]
    fn experiments_doc_names_only_what_exists() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let script = fs::read_to_string(root.join("scripts/gen_experiments.py")).unwrap();
        let py_list = |name: &str| -> BTreeSet<String> {
            let list = script.split(&format!("\n{name} = [")).nth(1).unwrap();
            list[..list.find(']').unwrap()]
                .split(',')
                .map(|b| b.trim().trim_matches('"').to_string())
                .filter(|b| !b.is_empty())
                .collect()
        };
        let (captured, not_captured) = (py_list("BINARIES"), py_list("NOT_CAPTURED"));
        let bins: BTreeSet<String> = fs::read_dir(root.join("crates/bench/src/bin"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|f| f.starts_with("exp_"))
            .filter_map(|f| f.strip_suffix(".rs").map(String::from))
            .collect();
        assert!(
            captured.is_disjoint(&not_captured),
            "{captured:?} {not_captured:?}"
        );
        assert_eq!(
            &captured | &not_captured,
            bins,
            "gen_experiments.py BINARIES + NOT_CAPTURED vs src/bin/exp_*.rs"
        );

        fn rust_sources(dir: &Path, out: &mut String) {
            for entry in fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    rust_sources(&path, out);
                } else if path.extension().is_some_and(|x| x == "rs") {
                    out.push_str(&fs::read_to_string(&path).unwrap());
                }
            }
        }
        let mut sources = String::new();
        for dir in ["crates", "src", "tests"] {
            rust_sources(&root.join(dir), &mut sources);
        }
        let doc = fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap();
        let owners: Vec<&str> = doc
            .split("\n\n")
            .filter(|p| p.starts_with("*Owned by:*"))
            .collect();
        assert!(owners.len() >= 7, "{} Owned by paragraphs", owners.len());
        for paragraph in owners {
            for name in paragraph.split('`').skip(1).step_by(2) {
                let test = name.rsplit("::").next().unwrap();
                assert!(
                    name.contains("::") && sources.contains(&format!("fn {test}(")),
                    "EXPERIMENTS.md names `{name}`, which is not a test in the workspace"
                );
            }
        }
    }

    #[test]
    fn duration_sweep_shape() {
        let sweep = duration_sweep();
        assert_eq!(sweep.len(), 6);
        assert!(sweep.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
