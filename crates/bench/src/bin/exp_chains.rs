//! `coop-chains`: cooperation chains under the five schedulers.
//!
//! Chained transactions model the paper's collaborative design sessions: a
//! designer's task is picked up by the next in line (a partial-order edge).
//! The two served certifiers (`2pl`, `cpc`) honour the edge at commit;
//! T/O, MVTO and PW2PL cannot express it — they just see conflicting
//! accesses. Sweep the chain length and compare: the protocol pays
//! commit-ordering (blocking at commit, not during work) and occasional
//! re-eval repairs; 2PL pays lock waits during the whole transaction body
//! plus deadlocks between its locks and the ordering; T/O pays aborts.

use ks_bench::{chain_sweep, run_all_schedulers};
use ks_sim::{Metrics, Workload};

fn main() {
    println!("coop-chains — cooperation chains, five schedulers\n");
    for (chain, spec) in chain_sweep() {
        let w = Workload::generate(spec);
        println!("— chain length {chain} —");
        println!("  {}", Metrics::header());
        for m in run_all_schedulers(&w) {
            println!("  {}", m.row());
        }
        println!();
    }
    println!("expected shape: the protocol's waits stay commit-side and small;");
    println!("re-assign activity appears only when predecessors write late.");
}
