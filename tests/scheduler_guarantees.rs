//! Scheduler soundness across crates: what each engine guarantees about
//! the interleavings it commits, checked with the classifier suite.

use ks_baselines::{CertifierBridge, MultiversionTimestampOrdering, TimestampOrdering};
use ks_core::Specification;
use ks_protocol::{Certifier, ProtocolManager, TplCertifier};
use ks_schedule::{csr, mvsr, Op, Schedule, TxnId};
use ks_sim::trace::committed_ops;
use ks_sim::{Engine, EngineConfig, TraceKind, Workload, WorkloadSpec};

/// The served strict-2PL certifier under the simulator.
fn tpl(w: &Workload) -> CertifierBridge<TplCertifier> {
    CertifierBridge::for_workload(w, TplCertifier::new)
}

/// The served CPC protocol manager under the simulator.
fn cpc(w: &Workload) -> CertifierBridge<ProtocolManager> {
    CertifierBridge::for_workload(w, |schema, initial| {
        ProtocolManager::new(schema, initial, Specification::trivial())
    })
}

fn spec(seed: u64, txns: usize, think: u64) -> WorkloadSpec {
    WorkloadSpec {
        num_txns: txns,
        ops_per_txn: 4,
        num_entities: 5,
        read_pct: 50,
        think_time: think,
        hot_fraction_pct: 40,
        hot_access_pct: 80,
        arrival_spread: 6,
        chain_length: 1,
        seed,
    }
}

fn trace_to_schedule(trace: &[ks_sim::TraceEvent]) -> Schedule {
    Schedule::from_ops(
        committed_ops(trace)
            .iter()
            .map(|ev| match ev.kind {
                TraceKind::Read(e) => Op::read(TxnId(ev.txn.0), e),
                TraceKind::Write(e) => Op::write(TxnId(ev.txn.0), e),
                _ => unreachable!(),
            })
            .collect(),
    )
}

#[test]
fn strict_2pl_commits_only_conflict_serializable_interleavings() {
    for seed in 0..10 {
        let w = Workload::generate(spec(seed, 5, 3));
        let (m, trace, bridge) = Engine::new(&w, tpl(&w), EngineConfig::default()).run();
        assert_eq!(m.committed, 5, "seed {seed}");
        let s = trace_to_schedule(&trace);
        assert!(csr::is_csr(&s), "seed {seed}: {s}");
        let verdict = bridge.certifier().verify_history();
        assert!(verdict.is_correct(), "seed {seed}: {verdict:?}");
    }
}

#[test]
fn timestamp_ordering_commits_only_conflict_serializable_interleavings() {
    for seed in 0..10 {
        let w = Workload::generate(spec(seed, 4, 2));
        let (_, trace, _) =
            Engine::new(&w, TimestampOrdering::new(), EngineConfig::default()).run();
        let s = trace_to_schedule(&trace);
        // Basic T/O also guarantees conflict serializability of what it
        // lets through (in timestamp order).
        assert!(csr::is_csr(&s), "seed {seed}: {s}");
    }
}

#[test]
fn mvto_commits_multiversion_serializable_interleavings() {
    for seed in 0..10 {
        let w = Workload::generate(spec(seed, 4, 2));
        let (_, trace, _) = Engine::new(
            &w,
            MultiversionTimestampOrdering::new(),
            EngineConfig::default(),
        )
        .run();
        let s = trace_to_schedule(&trace);
        assert!(mvsr::is_mvsr(&s), "seed {seed}: {s}");
    }
}

#[test]
fn ks_protocol_commits_everything_on_contended_long_workloads() {
    for seed in 0..6 {
        let w = Workload::generate(spec(seed, 6, 40));
        let (m, _, bridge) = Engine::new(&w, cpc(&w), EngineConfig::default()).run();
        assert_eq!(m.committed, 6, "seed {seed}");
        assert_eq!(m.waits, 0, "seed {seed}");
        assert_eq!(m.aborts, 0, "seed {seed}");
        let stats = bridge.certifier().stats();
        assert_eq!(stats.validations, 6);
        assert_eq!(stats.reeval_aborts, 0);
    }
}

#[test]
fn ks_protocol_interleavings_need_not_be_serializable() {
    // The point of the paper: the protocol's committed interleavings can
    // fall OUTSIDE the serializable classes while still being correct.
    let mut found_non_csr = false;
    for seed in 0..40 {
        let w = Workload::generate(spec(seed, 6, 10));
        let (_, trace, _) = Engine::new(&w, cpc(&w), EngineConfig::default()).run();
        let s = trace_to_schedule(&trace);
        if !csr::is_csr(&s) {
            found_non_csr = true;
            break;
        }
    }
    assert!(
        found_non_csr,
        "expected at least one committed non-CSR interleaving across seeds"
    );
}

#[test]
fn engine_metrics_consistent_across_schedulers() {
    let w = Workload::generate(spec(3, 5, 5));
    for (metrics, _, name) in [
        {
            let (m, t, _) = Engine::new(&w, tpl(&w), EngineConfig::default()).run();
            (m, t, "2pl")
        },
        {
            let (m, t, _) =
                Engine::new(&w, TimestampOrdering::new(), EngineConfig::default()).run();
            (m, t, "to")
        },
    ] {
        assert!(metrics.committed <= w.txns.len(), "{name}");
        assert!(metrics.makespan > 0, "{name}");
        assert!(
            metrics.total_latency >= metrics.makespan - w.spec.arrival_spread,
            "{name}"
        );
    }
}

/// Theorem 2 through the simulator: whatever the bridged CPC manager
/// commits under the event-driven engine forms a correct, parent-based
/// execution of the formal model — including under cooperation chains.
#[test]
fn ks_protocol_sim_runs_are_model_correct() {
    for (seed, chain) in [(0u64, 1usize), (1, 2), (2, 4)] {
        let w = Workload::generate(WorkloadSpec {
            chain_length: chain,
            ..spec(seed, 8, 8)
        });
        let (_, _, bridge) = Engine::new(&w, cpc(&w), EngineConfig::default()).run();
        let pm = bridge.certifier();
        let (txn, parent, exec) = ks_protocol::extract::model_execution(pm, pm.root()).unwrap();
        let schema = pm.schema().clone();
        let report = ks_core::check::check(&schema, &txn, &parent, &exec);
        assert!(report.is_correct(), "seed {seed} chain {chain}: {report:?}");
        assert!(report.parent_based, "seed {seed} chain {chain}: {report:?}");
    }
}
