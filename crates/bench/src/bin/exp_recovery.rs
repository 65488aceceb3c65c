//! `recovery-classes`: which recoverability guarantees do the schedulers'
//! committed traces carry?
//!
//! The paper's introduction faults the serializable class for including
//! non-recoverable and cascading schedules. Strict 2PL yields strict (`ST`)
//! traces by construction. For the multiversion schedulers (MVTO, KS) the
//! flat trace's single-version reads-from OVER-approximates dependencies —
//! a read attributed to the last writer may actually have consumed an older
//! version — so their RC/ACA/ST columns are a conservative lower bound:
//! `false` there means "not guaranteed at the flat-trace level", which is
//! exactly the paper's point — reading in-flight versions IS the
//! cooperation feature. An abort cascades to the live readers of its
//! versions; a CPC commit waits for the authors of its inputs, so nothing
//! committed is ever undone by a sibling.

use ks_baselines::MultiversionTimestampOrdering;
use ks_bench::{bridged_2pl, bridged_cpc};
use ks_schedule::recovery::CommittedSchedule;
use ks_schedule::{Op, Schedule, TxnId};
use ks_sim::trace::committed_ops;
use ks_sim::{
    ConcurrencyControl, Engine, EngineConfig, TraceEvent, TraceKind, Workload, WorkloadSpec,
};
use std::collections::BTreeMap;

fn committed_schedule(trace: &[TraceEvent]) -> CommittedSchedule {
    let ops = committed_ops(trace);
    let schedule = Schedule::from_ops(
        ops.iter()
            .map(|ev| match ev.kind {
                TraceKind::Read(e) => Op::read(TxnId(ev.txn.0), e),
                TraceKind::Write(e) => Op::write(TxnId(ev.txn.0), e),
                _ => unreachable!(),
            })
            .collect(),
    );
    // Commit positions: a transaction commits right after its last
    // committed op (the engine issues Commit immediately after the final
    // operation, with no other access by that txn in between).
    let mut last_op_of: BTreeMap<TxnId, usize> = BTreeMap::new();
    for (i, ev) in ops.iter().enumerate() {
        last_op_of.insert(TxnId(ev.txn.0), i);
    }
    let mut commit_after: BTreeMap<TxnId, usize> = BTreeMap::new();
    for ev in trace {
        if ev.kind == TraceKind::Commit {
            let t = TxnId(ev.txn.0);
            commit_after.insert(t, last_op_of.get(&t).copied().unwrap_or(0));
        }
    }
    CommittedSchedule::with_commits(schedule, commit_after)
}

fn run<C: ConcurrencyControl>(w: &Workload, cc: C) -> (String, CommittedSchedule) {
    let name = cc.name().to_string();
    let (_, trace, _) = Engine::new(w, cc, EngineConfig::default()).run();
    (name, committed_schedule(&trace))
}

fn main() {
    println!("recovery-classes — RC / ACA / ST of committed traces\n");
    println!("scheduler           seed  recoverable  avoids_cascading  strict");
    let mut rows = 0;
    for seed in 0..5u64 {
        let w = Workload::generate(WorkloadSpec {
            num_txns: 6,
            ops_per_txn: 5,
            num_entities: 6,
            read_pct: 50,
            think_time: 4,
            hot_fraction_pct: 40,
            hot_access_pct: 80,
            arrival_spread: 6,
            chain_length: 2,
            seed,
        });
        for (name, cs) in [
            run(&w, bridged_2pl(&w)),
            run(&w, MultiversionTimestampOrdering::new()),
            run(&w, bridged_cpc(&w)),
        ] {
            println!(
                "{name:<18} {seed:>5}  {:>11}  {:>16}  {:>6}",
                cs.is_recoverable(),
                cs.avoids_cascading_aborts(),
                cs.is_strict()
            );
            rows += 1;
            // Invariants the schedulers guarantee:
            if name == "2pl" {
                assert!(cs.is_strict(), "strict 2PL must be ST");
            }
            // (MVTO/KS columns are conservative: flat traces cannot
            // express which VERSION a read consumed.)
        }
    }
    println!("\nrows: {rows}");
    println!("2pl is always strict. The multiversion rows are conservative");
    println!("lower bounds (flat traces can't say which version a read consumed);");
    println!("the KS protocol intentionally gives up ACA — reading in-flight");
    println!("versions IS the cooperation the paper wants. An abort cascades to");
    println!("live readers only: a commit waits for the authors of its inputs.");
}
