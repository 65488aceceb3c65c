//! A shard is a lock, not a thread: starting a service adds no thread
//! without durability and exactly one, the WAL commit flusher, with a
//! syncing log; shutdown joins it. This file holds a single test, so the
//! harness runs nothing else beside it and the process's thread count
//! moves only with the service.

#![cfg(target_os = "linux")]

use ks_kernel::{Domain, EntityId, Schema, UniqueState};
use ks_server::{
    verify_certifiers, Client, Durability, ServerConfig, StoreFactory, TxnBuilder, TxnService,
    WalOptions,
};
use std::sync::Arc;

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

fn service(durability: Durability) -> TxnService {
    let schema = Schema::uniform(
        ["a", "b", "c", "d"],
        Domain::Range {
            min: -100,
            max: 100,
        },
    );
    let config = ServerConfig::builder()
        .shards(4)
        .durability(durability)
        .build()
        .unwrap();
    TxnService::new(schema, &UniqueState::constant(4, 0), config)
}

/// One committed transaction, so the flusher (when there is one) serves.
fn commit_one(svc: &TxnService) {
    let session = svc.session().unwrap();
    let spec = ks_core::Specification::unconstrained(&[EntityId(1)]);
    let txn = session.open(TxnBuilder::new(spec)).unwrap();
    session.validate(txn).unwrap();
    session.write(txn, EntityId(1), 7).unwrap();
    session.commit(txn).unwrap();
}

#[test]
fn only_the_flusher_is_a_service_thread() {
    let base = threads();

    let svc = service(Durability::None);
    assert_eq!(threads(), base, "Durability::None starts no thread");
    commit_one(&svc);
    assert_eq!(threads(), base, "calls run on the caller's thread");
    assert!(verify_certifiers(&svc.shutdown()).is_correct());

    let media = ks_wal::MemStore::new();
    let store: StoreFactory =
        Arc::new(move || Box::new(media.clone()) as Box<dyn ks_wal::SegmentStore>);
    let svc = service(Durability::Wal(WalOptions::new(store)));
    assert_eq!(threads(), base + 1, "a WAL starts exactly the flusher");
    commit_one(&svc);
    assert_eq!(threads(), base + 1);
    let report = verify_certifiers(&svc.shutdown());
    assert!(report.is_correct(), "{report:?}");
    assert_eq!(report.committed, 1);
    assert_eq!(threads(), base, "shutdown joins the flusher");
}
