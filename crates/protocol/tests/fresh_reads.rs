//! Fresh reads, and what they cost as history grows: one session commits
//! 20 000 sequential `cpc_short`-shaped transactions (4 reads and 2 writes
//! over 64 entities, a tautological input predicate over the access set)
//! against one manager. Under `GreedyLatest` nearly every read returns
//! another transaction's write; under `Backtracking` the root's children
//! read only the initial state. Sequential transactions are never
//! re-assigned, so no provenance is stored at all.
//!
//! Written values never repeat the initial 0. The solver chooses values,
//! and each value maps back to its newest version: a later write of 0
//! would turn `Backtracking`'s read of the initial value into a read of
//! that writer's version, which counts as fresh.
//!
//! The per-block timings are printed (`--nocapture`), not asserted: wall
//! time in a debug build says little. A write's cost is what a version
//! costs to record, and it must not grow with the history its inputs
//! carry.

use ks_core::Specification;
use ks_kernel::{Domain, EntityId, Schema, UniqueState};
use ks_predicate::random::SplitMix64;
use ks_predicate::Strategy;
use ks_protocol::{Certifier, CommitOutcome, ProtocolManager, ReadOutcome, ValidationOutcome};
use std::time::{Duration, Instant};

const ENTITIES: usize = 64;
const TXNS: usize = 20_000;
const BLOCK: usize = 2_500;

/// Wall time per phase over one block of transactions.
#[derive(Default)]
struct Block {
    open_validate: Duration,
    read: Duration,
    write: Duration,
    commit: Duration,
}

/// Runs the session; returns the manager and the share of fresh reads.
fn run(strategy: Strategy) -> (ProtocolManager, f64) {
    let schema = Schema::uniform(
        (0..ENTITIES).map(|i| format!("e{i}")),
        Domain::Range { min: 0, max: 999 },
    );
    let initial = UniqueState::from_values_unchecked(vec![0; ENTITIES]);
    let mut pm = ProtocolManager::new(schema, &initial, Specification::trivial());
    let mut rng = SplitMix64::new(0xF2E5);
    let mut block = Block::default();
    println!("{strategy:?}: µs per transaction over each block of {BLOCK}");
    println!("  after  open+validate   read  write  commit  fresh reads");
    let mut fresh_before = 0;
    for i in 1..=TXNS {
        let entity = |rng: &mut SplitMix64| EntityId(rng.index(ENTITIES) as u32);
        let reads: Vec<EntityId> = (0..4).map(|_| entity(&mut rng)).collect();
        let writes: Vec<EntityId> = (0..2).map(|_| entity(&mut rng)).collect();
        let mut access: Vec<EntityId> = reads.iter().chain(&writes).copied().collect();
        access.sort_unstable();
        access.dedup();

        let t0 = Instant::now();
        let t = pm
            .open(Specification::unconstrained(&access), &[], &[])
            .unwrap();
        assert_eq!(
            pm.validate(t, strategy).unwrap(),
            ValidationOutcome::Validated
        );
        let t1 = Instant::now();
        for &e in &reads {
            assert!(matches!(pm.read(t, e).unwrap(), ReadOutcome::Value(_)));
        }
        let t2 = Instant::now();
        for &e in &writes {
            pm.write(t, e, 1 + rng.below(999) as i64).unwrap();
        }
        let t3 = Instant::now();
        assert_eq!(pm.commit(t).unwrap(), CommitOutcome::Committed);
        let t4 = Instant::now();
        block.open_validate += t1 - t0;
        block.read += t2 - t1;
        block.write += t3 - t2;
        block.commit += t4 - t3;

        if i % BLOCK == 0 {
            let us = |d: Duration| d.as_secs_f64() * 1e6 / BLOCK as f64;
            let stats = pm.stats();
            let fresh = stats.fresh_reads - fresh_before;
            fresh_before = stats.fresh_reads;
            println!(
                "  {i:>5}  {:>13.1}  {:>5.1}  {:>5.1}  {:>6.1}  {:>10.1} %",
                us(block.open_validate),
                us(block.read),
                us(block.write),
                us(block.commit),
                100.0 * fresh as f64 / (4 * BLOCK) as f64,
            );
            block = Block::default();
        }
    }
    let stats = pm.stats();
    assert_eq!(stats.reads, 4 * TXNS as u64);
    let share = stats.fresh_reads as f64 / stats.reads as f64;
    (pm, share)
}

#[test]
fn greedy_latest_reads_fresh_and_backtracking_reads_the_initial_state() {
    let (greedy, share) = run(Strategy::GreedyLatest);
    assert!(share >= 0.99, "GreedyLatest fresh-read share {share}");
    assert_eq!(greedy.logged_assignments(), 0);

    let (backtracking, share) = run(Strategy::Backtracking);
    assert_eq!(share, 0.0, "Backtracking fresh-read share");
    assert_eq!(backtracking.logged_assignments(), 0);
}
