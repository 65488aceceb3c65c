//! The Section 2.4 argument as a runnable comparison: the same
//! long-duration workload under the served strict 2PL, timestamp ordering,
//! MVTO, and the served Korth–Speegle protocol (CPC).
//!
//! ```sh
//! cargo run --release --example long_transactions
//! ```

use korth_speegle::baselines::{CertifierBridge, MultiversionTimestampOrdering, TimestampOrdering};
use korth_speegle::model::Specification;
use korth_speegle::protocol::{ProtocolManager, TplCertifier};
use korth_speegle::sim::{Engine, EngineConfig, Metrics, Workload, WorkloadSpec};

fn main() {
    println!("Long-duration designers: 12 transactions, 8 ops each, heavy hotspot.");
    println!("Think time models the human between operations.\n");

    for think in [2u64, 30, 120] {
        let w = Workload::generate(WorkloadSpec {
            num_txns: 12,
            ops_per_txn: 8,
            num_entities: 24,
            read_pct: 60,
            think_time: think,
            hot_fraction_pct: 20,
            hot_access_pct: 80,
            arrival_spread: 10,
            chain_length: 1,
            seed: 11,
        });
        println!("— think time {think} ticks —");
        println!("  {}", Metrics::header());
        let config = EngineConfig::default();
        let runs: Vec<Metrics> = vec![
            Engine::new(
                &w,
                CertifierBridge::for_workload(&w, TplCertifier::new),
                config,
            )
            .run()
            .0,
            Engine::new(&w, TimestampOrdering::new(), config).run().0,
            Engine::new(&w, MultiversionTimestampOrdering::new(), config)
                .run()
                .0,
            Engine::new(
                &w,
                CertifierBridge::for_workload(&w, |schema, initial| {
                    ProtocolManager::new(schema, initial, Specification::trivial())
                }),
                config,
            )
            .run()
            .0,
        ];
        for m in &runs {
            println!("  {}", m.row());
        }
        let cpc = &runs[3];
        assert_eq!(cpc.waits, 0);
        assert_eq!(cpc.aborts, 0);
        println!();
    }
    println!("CPC's waits and aborts stay at zero as transactions");
    println!("grow: versions decouple readers from writers, and correctness is");
    println!("the model's (predicate satisfaction), not serializability.");
}
