//! `sec24-waits` / `sec24-aborts`: the Section 2.4 claims, measured.
//!
//! Sweep transaction duration (think time between operations) under fixed
//! contention and run the same workload under the served strict 2PL,
//! predicate-wise 2PL, timestamp ordering, MVTO, and the served
//! Korth–Speegle protocol (CPC). The paper's qualitative
//! claims become the expected *shape*:
//!
//! * 2PL's total/maximum wait time grows with transaction duration (locks
//!   are held across think time);
//! * T/O's aborts and wasted work grow with duration (long transactions
//!   are stale by the time they write);
//! * CPC shows neither: versions remove read-write waits and
//!   predicate-level correctness removes serialization aborts.

use ks_bench::{duration_sweep, run_all_schedulers};
use ks_sim::{Metrics, Workload};

fn main() {
    println!("Section 2.4 — long-duration transactions under five schedulers");
    println!("(16 txns × 8 ops, 32 entities, 25% hot entities with 75% of accesses)\n");
    for (think, spec) in duration_sweep() {
        let w = Workload::generate(spec);
        println!(
            "— think time {think} ticks (intrinsic txn duration ≈ {} ticks)",
            8 * (think + 1)
        );
        println!("  {}  p95_lat", Metrics::header());
        for m in run_all_schedulers(&w) {
            println!("  {}  {:>7}", m.row(), m.latency_percentile(95));
        }
        println!();
    }
    println!("expected shape: wait_time grows with think time for 2pl;");
    println!("aborts/wasted grow for timestamp-ordering; cpc stays flat.");
}
