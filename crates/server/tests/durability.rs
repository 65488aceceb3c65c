//! End-to-end durability: commits logged through the WAL survive a
//! restart — graceful or power-cut — and recovery reports what it
//! replayed.
//!
//! These tests run two service incarnations over one shared
//! [`ks_wal::MemStore`] (the same simulated media the dst harness
//! uses), so "restart" really is a second `TxnService::new` replaying
//! whatever bytes the first incarnation made durable.

use ks_core::Specification;
use ks_kernel::{Domain, EntityId, Schema, UniqueState};
use ks_predicate::{Atom, Clause, CmpOp, Cnf};
use ks_server::{Client, Durability, ServerConfig, TxnBuilder, TxnService, WalOptions};
use ks_wal::{MemStore, SegmentStore};
use std::io;
use std::sync::{Arc, Barrier};
use std::time::Duration;

const ENTITIES: usize = 8;

fn schema() -> Schema {
    Schema::uniform(
        (0..ENTITIES).map(|i| format!("d{i}")),
        Domain::Range {
            min: -1_000_000,
            max: 1_000_000,
        },
    )
}

fn spec(entities: &[EntityId]) -> Specification {
    Specification::new(
        Cnf::new(
            entities
                .iter()
                .map(|&e| Clause::unit(Atom::cmp_const(e, CmpOp::Ge, -1_000_000)))
                .collect(),
        ),
        Cnf::truth(),
    )
}

fn wal_config(store: &MemStore, sync_on_commit: bool) -> ServerConfig {
    let media = store.clone();
    wal_config_over(
        Arc::new(move || Box::new(media.clone()) as Box<dyn SegmentStore>),
        sync_on_commit,
    )
}

fn wal_config_over(store: ks_server::StoreFactory, sync_on_commit: bool) -> ServerConfig {
    let mut opts = WalOptions::new(store);
    opts.sync_on_commit = sync_on_commit;
    ServerConfig::builder()
        .shards(2)
        .durability(Durability::Wal(opts))
        .build()
        .unwrap()
}

/// Commit one transaction writing `value` to `entity`; panics on any error.
fn commit_write(svc: &TxnService, entity: EntityId, value: i64) {
    let session = svc.session().unwrap();
    let txn = session.open(TxnBuilder::new(spec(&[entity]))).unwrap();
    session.validate(txn).unwrap();
    session.write(txn, entity, value).unwrap();
    session.commit(txn).unwrap();
}

fn read_one(svc: &TxnService, entity: EntityId) -> i64 {
    let session = svc.session().unwrap();
    let txn = session.open(TxnBuilder::new(spec(&[entity]))).unwrap();
    session.validate(txn).unwrap();
    let value = session.read(txn, entity).unwrap();
    session.commit(txn).unwrap();
    value
}

/// A disk with a known fsync latency: a [`MemStore`] whose every `sync`
/// takes `SLOW_SYNC`, long enough that concurrent committers queue up
/// behind the one in flight.
struct SlowSync(MemStore);

const SLOW_SYNC: Duration = Duration::from_millis(3);

impl SegmentStore for SlowSync {
    fn create(&mut self, id: u64) -> io::Result<()> {
        self.0.create(id)
    }
    fn append(&mut self, id: u64, bytes: &[u8]) -> io::Result<()> {
        self.0.append(id, bytes)
    }
    fn sync(&mut self, id: u64) -> io::Result<()> {
        std::thread::sleep(SLOW_SYNC);
        self.0.sync(id)
    }
    fn list(&self) -> io::Result<Vec<u64>> {
        self.0.list()
    }
    fn len(&self, id: u64) -> io::Result<u64> {
        self.0.len(id)
    }
    fn read(&self, id: u64) -> io::Result<Vec<u8>> {
        self.0.read(id)
    }
    fn remove(&mut self, id: u64) -> io::Result<()> {
        self.0.remove(id)
    }
}

#[test]
fn committed_writes_survive_graceful_restart() {
    let store = MemStore::new();
    let svc = TxnService::new(
        schema(),
        &UniqueState::constant(ENTITIES, 0),
        wal_config(&store, true),
    );
    assert!(!svc.recovery_report().unwrap().recovered, "fresh media");
    for i in 0..ENTITIES {
        commit_write(&svc, EntityId(i as u32), 100 + i as i64);
    }
    svc.shutdown();

    let svc = TxnService::new(
        schema(),
        &UniqueState::constant(ENTITIES, 0),
        wal_config(&store, true),
    );
    let report = svc.recovery_report().unwrap();
    assert!(report.recovered, "second incarnation replays the log");
    assert_eq!(report.committed.len(), ENTITIES, "one commit per entity");
    for i in 0..ENTITIES {
        assert_eq!(read_one(&svc, EntityId(i as u32)), 100 + i as i64);
    }
    svc.shutdown();
}

/// A lone committer pays exactly one sync per commit, and the sync that
/// covers a commit precedes its ack: cut the power right after the last
/// ack and every acknowledged value is still there.
#[test]
fn lone_committer_syncs_once_per_commit_and_acks_survive_a_power_cut() {
    let store = MemStore::new();
    let svc = TxnService::new(
        schema(),
        &UniqueState::constant(ENTITIES, 0),
        wal_config(&store, true),
    );
    let booted = store.sync_count();
    for i in 0..ENTITIES as u64 {
        commit_write(&svc, EntityId(i as u32), 70 + i as i64);
        assert_eq!(
            store.sync_count(),
            booted + i + 1,
            "commit {i} acked with its own sync already on the media, and no other"
        );
    }
    // Power cut: the media dies before the graceful shutdown syncs, so
    // only what the flusher already made durable can survive.
    store.crash(0xD15C_0DE5);
    svc.shutdown();
    store.revive();

    let svc = TxnService::new(
        schema(),
        &UniqueState::constant(ENTITIES, 0),
        wal_config(&store, true),
    );
    let report = svc.recovery_report().unwrap();
    assert!(report.recovered);
    assert_eq!(
        report.committed.len(),
        ENTITIES,
        "every acked commit replayed"
    );
    for i in 0..ENTITIES {
        assert_eq!(read_one(&svc, EntityId(i as u32)), 70 + i as i64);
    }
    svc.shutdown();
}

/// Eight committers released together over a slow disk share syncs
/// (fewer syncs than commits), and every ack still means durable (power
/// cut, nothing lost).
#[test]
fn concurrent_committers_share_syncs_and_lose_no_ack() {
    const ROUNDS: i64 = 10;
    let store = MemStore::new();
    let media = store.clone();
    let slow: ks_server::StoreFactory =
        Arc::new(move || Box::new(SlowSync(media.clone())) as Box<dyn SegmentStore>);
    let svc = TxnService::new(
        schema(),
        &UniqueState::constant(ENTITIES, 0),
        wal_config_over(slow, true),
    );
    let booted = store.sync_count();
    let start = Barrier::new(ENTITIES);
    std::thread::scope(|scope| {
        for e in 0..ENTITIES as u32 {
            let (svc, start) = (&svc, &start);
            scope.spawn(move || {
                start.wait();
                for round in 1..=ROUNDS {
                    commit_write(svc, EntityId(e), round * 100 + e as i64);
                }
            });
        }
    });
    let (syncs, commits) = (store.sync_count() - booted, ENTITIES as u64 * ROUNDS as u64);
    assert!(
        syncs < commits,
        "{syncs} syncs for {commits} commits: nobody shared a sync"
    );
    store.crash(0xBA7C_4ED0);
    svc.shutdown();
    store.revive();

    let svc = TxnService::new(
        schema(),
        &UniqueState::constant(ENTITIES, 0),
        wal_config(&store, true),
    );
    assert_eq!(
        svc.recovery_report().unwrap().committed.len() as u64,
        commits,
        "an acked commit was lost"
    );
    for e in 0..ENTITIES as u32 {
        assert_eq!(read_one(&svc, EntityId(e)), ROUNDS * 100 + e as i64);
    }
    svc.shutdown();
}

#[test]
fn unsynced_commits_may_die_but_recovery_stays_a_clean_prefix() {
    let store = MemStore::new();
    let svc = TxnService::new(
        schema(),
        &UniqueState::constant(ENTITIES, 0),
        wal_config(&store, false),
    );
    let booted = store.sync_count();
    for i in 0..4u32 {
        commit_write(&svc, EntityId(i), 1_000 + i as i64);
    }
    assert_eq!(
        store.sync_count(),
        booted,
        "with sync_on_commit off nothing syncs on the commit path"
    );
    store.crash(0x7EE7);
    svc.shutdown();
    store.revive();

    // With commit-record flushing disabled the acks were lies; whatever
    // survives must still be a prefix of the acked history, applied
    // exactly once.
    let svc = TxnService::new(
        schema(),
        &UniqueState::constant(ENTITIES, 0),
        wal_config(&store, false),
    );
    let report = svc.recovery_report().unwrap().clone();
    assert!(
        report.committed.len() < 4,
        "all four unsynced commits survived the power cut"
    );
    for i in 0..4u32 {
        let v = read_one(&svc, EntityId(i));
        assert!(
            v == 0 || v == 1_000 + i as i64,
            "entity {i} must hold either the initial or the committed value, got {v}"
        );
    }
    svc.shutdown();
}

#[test]
fn checkpoint_fence_gcs_dead_segments_across_restarts() {
    let store = MemStore::new();
    for round in 0..3 {
        let svc = TxnService::new(
            schema(),
            &UniqueState::constant(ENTITIES, 0),
            wal_config(&store, true),
        );
        commit_write(&svc, EntityId(1), round * 10 + 1);
        svc.shutdown();
    }
    // Each startup rotates to a fresh fenced segment and GCs everything
    // before it, so the backlog never grows with restart count.
    assert!(
        store.list().unwrap().len() <= 2,
        "segment backlog grew: {:?}",
        store.list().unwrap()
    );
    let svc = TxnService::new(
        schema(),
        &UniqueState::constant(ENTITIES, 0),
        wal_config(&store, true),
    );
    assert_eq!(read_one(&svc, EntityId(1)), 21, "last round's value wins");
    svc.shutdown();
}

#[test]
fn no_durability_means_no_recovery_report() {
    let svc = TxnService::new(
        schema(),
        &UniqueState::constant(ENTITIES, 0),
        ServerConfig::default(),
    );
    assert!(svc.recovery_report().is_none());
    svc.shutdown();
}
