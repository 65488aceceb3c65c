//! End-to-end durability: commits logged through the WAL survive a
//! restart — graceful or power-cut — and recovery reports what it
//! replayed.
//!
//! These tests run two service incarnations over one shared
//! [`ks_wal::MemStore`] (the same simulated media the dst harness
//! uses), so "restart" really is a second `TxnService::new` replaying
//! whatever bytes the first incarnation made durable. One runs them over
//! a [`ks_wal::FileStore`] directory of its own.

use ks_core::Specification;
use ks_kernel::{Domain, EntityId, Schema, UniqueState};
use ks_predicate::{Atom, Clause, CmpOp, Cnf};
use ks_server::{
    Client, Durability, ServerConfig, ServerError, TxnBuilder, TxnService, WalOptions,
};
use ks_wal::{FileStore, MemStore, SegmentStore};
use std::io;
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

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

/// A disk with a known fsync latency: every `sync` of the returned
/// store takes `SLOW_SYNC`, long enough that concurrent committers queue
/// up behind the one in flight.
fn slow_sync(store: &MemStore) -> MemStore {
    store.on_sync(|| {
        std::thread::sleep(SLOW_SYNC);
        Ok(())
    })
}

const SLOW_SYNC: Duration = Duration::from_millis(3);

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
    // only what the commits' own flushes made durable can survive.
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
    let media = slow_sync(&store);
    let slow: ks_server::StoreFactory =
        Arc::new(move || Box::new(media.clone()) as Box<dyn SegmentStore>);
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

/// The production store over a real directory, with segments small
/// enough that the commits rotate through several: a restart recovers
/// every acknowledged commit from the segments' in-place frames.
#[test]
fn file_store_restart_recovers_every_ack_across_rotations() {
    const ROUNDS: i64 = 3;
    let dir = std::env::temp_dir().join(format!(
        "ks-server-{}-file_store_restart_recovers_every_ack_across_rotations",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || {
        let dir = dir.clone();
        let mut opts = WalOptions::new(Arc::new(move || {
            Box::new(FileStore::open(&dir).unwrap()) as Box<dyn SegmentStore>
        }));
        opts.segment_bytes = 256;
        ServerConfig::builder()
            .shards(2)
            .durability(Durability::Wal(opts))
            .build()
            .unwrap()
    };
    let svc = TxnService::new(schema(), &UniqueState::constant(ENTITIES, 0), config());
    for round in 1..=ROUNDS {
        for e in 0..ENTITIES as u32 {
            commit_write(&svc, EntityId(e), round * 100 + e as i64);
        }
    }
    let segments = FileStore::open(&dir).unwrap().list().unwrap();
    assert!(segments.len() > 2, "the log rotated: {segments:?}");
    svc.shutdown();

    let svc = TxnService::new(schema(), &UniqueState::constant(ENTITIES, 0), config());
    let report = svc.recovery_report().unwrap();
    assert!(report.recovered);
    assert_eq!(report.torn, None, "a clean shutdown leaves no tear");
    assert_eq!(
        report.committed.len(),
        ROUNDS as usize * ENTITIES,
        "an acked commit was lost"
    );
    for e in 0..ENTITIES as u32 {
        assert_eq!(read_one(&svc, EntityId(e)), ROUNDS * 100 + e as i64);
    }
    svc.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
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

/// Where a gated store's `sync` parks: once armed, every `sync` waits
/// for the gate to open, then succeeds or fails as configured.
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    moved: Condvar,
}

#[derive(Default)]
struct GateState {
    armed: bool,
    open: bool,
    fail: bool,
    /// Syncs that reached the closed gate.
    parked: usize,
}

impl Gate {
    fn arm(&self, fail: bool) {
        let mut state = self.state.lock().unwrap();
        state.armed = true;
        state.fail = fail;
    }

    fn open(&self) {
        self.state.lock().unwrap().open = true;
        self.moved.notify_all();
    }

    /// A sync reaching the gate: once armed, park until it opens, then
    /// let the sync through or fail it.
    fn pass(&self) -> io::Result<()> {
        let mut state = self.state.lock().unwrap();
        if state.armed {
            state.parked += 1;
            self.moved.notify_all();
            state = self.moved.wait_while(state, |s| !s.open).unwrap();
            if state.fail {
                return Err(io::Error::other("injected sync failure"));
            }
        }
        Ok(())
    }

    /// Block until `n` syncs are parked at the closed gate.
    fn await_parked(&self, n: usize) {
        let state = self.state.lock().unwrap();
        let (state, waited) = self
            .moved
            .wait_timeout_while(state, Duration::from_secs(10), |s| s.parked < n)
            .unwrap();
        assert!(
            !waited.timed_out(),
            "{} syncs parked, want {n}",
            state.parked
        );
    }
}

/// Opens the gate when dropped, so a failed assertion cannot leave a
/// committer parked forever inside a scope.
struct OpenOnDrop(Arc<Gate>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// A service over a gated store, with the given commit timeout.
fn gated_service(store: &MemStore, gate: &Arc<Gate>, timeout: Duration) -> TxnService {
    let gate = Arc::clone(gate);
    let media = store.on_sync(move || gate.pass());
    let factory: ks_server::StoreFactory =
        Arc::new(move || Box::new(media.clone()) as Box<dyn SegmentStore>);
    let mut config = wal_config_over(factory, true);
    config.request_timeout = timeout;
    TxnService::new(schema(), &UniqueState::constant(ENTITIES, 0), config)
}

/// Two entities on different shards.
fn entities_on_two_shards(svc: &TxnService) -> (EntityId, EntityId) {
    let map = svc.shard_map();
    let a = EntityId(0);
    let b = (1..ENTITIES as u32)
        .map(EntityId)
        .find(|&e| map.shard_of(e) != map.shard_of(a))
        .expect("two shards");
    (a, b)
}

/// Open, validate and write one transaction; commit it and return the
/// commit's verdict.
fn try_commit_write(svc: &TxnService, entity: EntityId, value: i64) -> Result<(), ServerError> {
    let session = svc.session().unwrap();
    let txn = session.open(TxnBuilder::new(spec(&[entity]))).unwrap();
    session.validate(txn).unwrap();
    session.write(txn, entity, value).unwrap();
    session.commit(txn)
}

/// An append never waits behind a sync in flight: while one committer
/// is parked inside the log's sync, another session's write and commit
/// on a different shard run to the end of their shard-lock work (and
/// leave every shard lock free). Once the sync returns, both commits
/// are acknowledged with at most two syncs — the second commit rides
/// the next flush.
#[test]
fn an_append_never_waits_behind_an_in_flight_sync() {
    let (store, gate) = (MemStore::new(), Arc::new(Gate::default()));
    let svc = gated_service(&store, &gate, Duration::from_secs(30));
    let (a, b) = entities_on_two_shards(&svc);
    let booted = store.sync_count();
    gate.arm(false);
    std::thread::scope(|scope| {
        let _open = OpenOnDrop(Arc::clone(&gate));
        let first = scope.spawn(|| try_commit_write(&svc, a, 1));
        gate.await_parked(1);
        let (wrote, written) = mpsc::channel();
        let svc = &svc;
        let second = scope.spawn(move || {
            let session = svc.session().unwrap();
            let txn = session.open(TxnBuilder::new(spec(&[b]))).unwrap();
            session.validate(txn).unwrap();
            session.write(txn, b, 2).unwrap();
            wrote.send(()).unwrap();
            session.commit(txn)
        });
        written
            .recv_timeout(Duration::from_secs(5))
            .expect("a write waited behind the sync in flight");
        // The second commit is certified and its record appended while
        // the first sync is still parked...
        let deadline = Instant::now() + Duration::from_secs(5);
        while svc.metrics().committed < 2 || svc.wal_stats().unwrap().pending_records < 6 {
            assert!(
                Instant::now() < deadline,
                "the second commit never left its shard lock"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // ...and no shard lock is held by anyone waiting on the log.
        assert_eq!(svc.protocol_stats().unwrap().len(), 2);
        assert_eq!(store.sync_count(), booted, "the parked sync has not landed");
        gate.open();
        assert_eq!(first.join().unwrap(), Ok(()));
        assert_eq!(second.join().unwrap(), Ok(()));
    });
    let syncs = store.sync_count() - booted;
    assert!(
        (1..=2).contains(&syncs),
        "{syncs} syncs for two overlapping commits"
    );
    svc.shutdown();
}

/// A sync that fails fails the log closed: the leader and a committer
/// waiting on its flush both read `Shutdown` — the waiter promptly, not
/// at its timeout — and every later commit, on any shard, is refused
/// the same way. No commit after the failure is acknowledged.
#[test]
fn a_failed_sync_fails_every_later_commit_closed() {
    const TIMEOUT: Duration = Duration::from_secs(20);
    let (store, gate) = (MemStore::new(), Arc::new(Gate::default()));
    let svc = gated_service(&store, &gate, TIMEOUT);
    let (a, b) = entities_on_two_shards(&svc);
    gate.arm(true);
    std::thread::scope(|scope| {
        let _open = OpenOnDrop(Arc::clone(&gate));
        let leader = scope.spawn(|| try_commit_write(&svc, a, 1));
        gate.await_parked(1);
        let waiter = scope.spawn(|| {
            let start = Instant::now();
            (try_commit_write(&svc, b, 2), start.elapsed())
        });
        // The waiter's commit record is buffered behind the parked flush.
        let deadline = Instant::now() + Duration::from_secs(5);
        while svc.wal_stats().unwrap().pending_records < 6 {
            assert!(Instant::now() < deadline, "the waiter never appended");
            std::thread::sleep(Duration::from_millis(1));
        }
        gate.open();
        assert_eq!(leader.join().unwrap(), Err(ServerError::Shutdown));
        let (verdict, waited) = waiter.join().unwrap();
        assert_eq!(verdict, Err(ServerError::Shutdown));
        assert!(
            waited < TIMEOUT,
            "the waiter sat out its timeout: {waited:?}"
        );
    });
    for entity in [a, b] {
        assert_eq!(
            try_commit_write(&svc, entity, 3),
            Err(ServerError::Shutdown),
            "a commit after the failure was acknowledged"
        );
    }
    assert_eq!(svc.metrics().timeouts, 0);
    svc.shutdown();
}
