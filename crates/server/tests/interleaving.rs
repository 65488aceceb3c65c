//! Property test: whatever the thread interleaving, every execution the
//! service lets through passes the paper's model checker.
//!
//! Each case spins up a fresh [`TxnService`] with a random shard count and
//! assignment strategy, then drives it with several concurrent client
//! threads running randomized transaction mixes (reads, writes, explicit
//! aborts, re-eval acknowledgements). The OS scheduler supplies the
//! interleaving; proptest supplies the workload. After shutdown, every
//! shard manager is drained through `ks_protocol::extract` and checked
//! with `ks_core::check` — the service must never have admitted an
//! incorrect execution, no matter how the threads raced.

use ks_core::Specification;
use ks_kernel::{Domain, EntityId, Schema, UniqueState};
use ks_predicate::random::SplitMix64;
use ks_predicate::Strategy;
use ks_server::{
    verify_certifiers, Client, ServerConfig, ServerError, Session, TxnBuilder, TxnService,
};
use proptest::prelude::*;

const ENTITIES: usize = 12;
const RETRY_BUDGET: u32 = 5_000;

/// One client's randomized closed loop; returns its commit count.
fn run_client(svc: &TxnService, client: usize, shards: usize, seed: u64) -> u64 {
    let mut rng = SplitMix64::new(seed ^ (client as u64).wrapping_mul(0x9E37_79B9));
    let session: Session = svc.session().expect("under the session cap");
    let home = client % shards;
    let per_shard = ENTITIES / shards;
    let mut committed = 0;
    for _ in 0..1 + rng.index(4) {
        // Random access set on the home shard, random op mix.
        let count = 1 + rng.index(per_shard.min(4));
        let mut entities: Vec<EntityId> = (0..count)
            .map(|_| EntityId((rng.index(per_shard) * shards + home) as u32))
            .collect();
        entities.sort_unstable_by_key(|e| e.index());
        entities.dedup();
        let spec = Specification::unconstrained(&entities);
        let mut budget = RETRY_BUDGET;
        macro_rules! retry {
            ($call:expr) => {
                loop {
                    match $call {
                        Err(ServerError::Busy) | Err(ServerError::Backpressure) => {
                            if budget == 0 {
                                break Err(ServerError::Busy);
                            }
                            budget -= 1;
                            std::thread::yield_now();
                        }
                        other => break other,
                    }
                }
            };
        }
        let txn = match retry!(session.open(TxnBuilder::new(spec.clone()))) {
            Ok(t) => t,
            Err(_) => continue,
        };
        if retry!(session.validate(txn)).is_err() {
            let _ = session.abort(txn);
            continue;
        }
        let mut doomed = false;
        for _ in 0..1 + rng.index(5) {
            let e = entities[rng.index(entities.len())];
            let outcome = if rng.coin() {
                retry!(session.write(txn, e, rng.below(1_000) as i64))
            } else {
                retry!(session.read(txn, e).map(|_| ()))
            };
            if outcome.is_err() {
                doomed = true;
                break;
            }
        }
        // Sometimes walk away from a healthy transaction.
        if doomed || rng.below(100) < 15 {
            let _ = session.abort(txn);
            continue;
        }
        match retry!(session.commit(txn)) {
            Ok(()) => committed += 1,
            Err(_) => {
                let _ = session.abort(txn);
            }
        }
    }
    committed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Zero model-correctness violations under randomized interleavings,
    /// shard counts, and assignment strategies.
    #[test]
    fn extracted_executions_always_check(
        seed in any::<u64>(),
        shards in 1usize..=4,
        clients in 2usize..=6,
        greedy in proptest::bool::ANY,
    ) {
        let schema = Schema::uniform(
            (0..ENTITIES).map(|i| format!("d{i}")),
            Domain::Range { min: i64::MIN / 2, max: i64::MAX / 2 },
        );
        let initial = UniqueState::constant(ENTITIES, 0);
        let svc = TxnService::new(
            schema,
            &initial,
            ServerConfig {
                shards,
                max_sessions: clients,
                strategy: if greedy { Strategy::GreedyLatest } else { Strategy::Backtracking },
                // Generous on purpose: `Timeout` is the one error whose
                // outcome is ambiguous (the shard worker may still apply
                // the op), and the committed-count equality below needs
                // every outcome unambiguous. The default 10s is enough on
                // an idle box but not under a loaded CI running 24 cases
                // of this test in parallel.
                request_timeout: std::time::Duration::from_secs(120),
                ..ServerConfig::default()
            },
        );
        let shards = svc.shard_map().shards();
        let committed: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let svc = &svc;
                    scope.spawn(move || run_client(svc, c, shards, seed))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let snap = svc.metrics();
        prop_assert_eq!(committed, snap.committed);
        let stats = svc.protocol_stats().expect("stats before shutdown");
        let cascade_aborts: u64 = stats.iter().map(|s| s.cascade_aborts).sum();
        let report = verify_certifiers(&svc.shutdown());
        prop_assert!(report.is_correct(), "case {seed}: {:?}", report.violations);
        // A client-counted commit can later be undone: a commit "is only
        // relative to the parent", so when the author of a consumed
        // in-flight version aborts (clients walk away 15% of the time),
        // the committed reader is cascade-undone and leaves the extracted
        // execution. Extraction may therefore trail the client count, but
        // only by transactions the cascade machinery actually aborted.
        prop_assert!(
            report.committed as u64 <= committed
                && committed - report.committed as u64 <= cascade_aborts,
            "extracted {} + cascades {} cannot explain client count {}",
            report.committed,
            cascade_aborts,
            committed
        );
    }
}
