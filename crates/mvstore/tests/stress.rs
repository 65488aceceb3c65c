//! Threaded stress test of the multi-version store: many writers, readers
//! and a pruner hammering the same chains, with exact post-conditions.
//!
//! The store is the substrate under the protocol's shard workers; this
//! test is the torture version of `store::concurrent_writers_and_readers`
//! — multiple entities, interleaved reads of every query surface, and a
//! concurrent prune of a finished author.

use ks_kernel::{Domain, EntityId, Schema, UniqueState};
use ks_mvstore::{AuthorId, MvStore, Snapshot, VersionId};
use std::collections::BTreeSet;
use std::sync::Arc;

const ENTITIES: usize = 8;
const WRITERS: u64 = 8;
const WRITES_PER_WRITER: usize = 50;

fn store() -> MvStore {
    let schema = Schema::uniform(
        (0..ENTITIES).map(|i| format!("d{i}")),
        Domain::Range {
            min: 0,
            max: 1_000_000,
        },
    );
    MvStore::new(schema, &UniqueState::constant(ENTITIES, 0))
}

#[test]
fn stress_writers_readers_and_pruner() {
    let s = Arc::new(store());
    std::thread::scope(|scope| {
        // Writers: author `a` cycles over the entities, so every entity
        // receives exactly WRITES_PER_WRITER writes in total (symmetry of
        // the residues of a+i mod ENTITIES over all authors).
        for a in 1..=WRITERS {
            let s = s.clone();
            scope.spawn(move || {
                for i in 0..WRITES_PER_WRITER {
                    let e = EntityId(((a as usize + i) % ENTITIES) as u32);
                    let value = (a * 1000 + i as u64) as i64;
                    s.write(e, value, AuthorId(a)).unwrap();
                }
            });
        }
        // Readers: exercise every read surface while chains grow. None of
        // these calls may error or observe a torn chain.
        for r in 0..3u32 {
            let s = s.clone();
            scope.spawn(move || {
                for i in 0..200 {
                    let e = EntityId((i + r) % ENTITIES as u32);
                    let latest = s.latest(e).unwrap();
                    assert!(s.read(latest.id).unwrap() >= 0);
                    let versions = s.versions_of(e).unwrap();
                    assert!(!versions.is_empty());
                    assert!(versions.windows(2).all(|w| w[0].stamp < w[1].stamp));
                    assert!(!s.candidate_values(e).unwrap().is_empty());
                    let mut snap = Snapshot::new();
                    snap.select(VersionId {
                        entity: e,
                        index: 0,
                    });
                    // The initial version is always materializable.
                    let _ = s.materialize(&snap);
                }
            });
        }
    });

    // Exact chain lengths: initial version + every write that returned Ok.
    for e in 0..ENTITIES {
        let e = EntityId(e as u32);
        assert_eq!(s.chain_len(e).unwrap(), 1 + WRITES_PER_WRITER);
        let versions = s.versions_of(e).unwrap();
        assert!(versions.windows(2).all(|w| w[0].stamp < w[1].stamp));
    }

    // Prune two finished authors while readers keep going: their values
    // disappear from the candidate sets, everyone else's survive.
    let doomed: BTreeSet<AuthorId> = [AuthorId(1), AuthorId(2)].into_iter().collect();
    std::thread::scope(|scope| {
        let pruner = s.clone();
        scope.spawn(move || {
            let removed = pruner.prune_authors(&doomed);
            assert_eq!(removed, 2 * WRITES_PER_WRITER);
        });
        for _ in 0..2 {
            let s = s.clone();
            scope.spawn(move || {
                for i in 0..200u32 {
                    let e = EntityId(i % ENTITIES as u32);
                    let _ = s.candidate_values(e).unwrap();
                    let _ = s.latest(e).unwrap();
                }
            });
        }
    });
    for e in 0..ENTITIES {
        let e = EntityId(e as u32);
        // Values encode their author: a*1000 + i with i < 1000.
        let live = s.candidate_values(e).unwrap();
        assert!(
            live.iter().all(|&v| !(1000..3000).contains(&v)),
            "pruned authors still visible at {e:?}: {live:?}"
        );
        let survivors = live.iter().filter(|&&v| v >= 3000).count();
        assert!(survivors > 0, "unpruned authors vanished at {e:?}");
        // The latest live version is the last chain entry whose author
        // survived (which writer finished last is up to the scheduler).
        let chain = s.versions_of(e).unwrap();
        let last_live = chain.iter().rev().find(|m| m.author.0 > 2).unwrap();
        assert_eq!(s.latest(e).unwrap().id, last_live.id);
    }
}
