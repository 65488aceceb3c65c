//! # ks-server
//!
//! A thread-safe, multi-session transaction **service** over the
//! [`ks_protocol`] manager — the serving layer a production deployment of
//! the paper's protocol would run.
//!
//! The Section 5 protocol is a sequential state machine: every decision
//! (validation, re-eval, commit gating) assumes it sees one call at a
//! time. This crate scales it out without giving that up:
//!
//! - **Sharding** ([`routing`]): entities are partitioned round-robin
//!   across `S` shards; each shard's worker owns a private
//!   [`Certifier`] backend — the paper's CPC
//!   [`ProtocolManager`](ks_protocol::ProtocolManager), an SSI
//!   certifier, or a strict-2PL baseline, selected per
//!   [`ServerConfig::backend`] — over the shard's sub-schema. The
//!   certifier stays single-writer; shards are independent correctness
//!   domains (a transaction lives entirely inside one shard).
//! - **Workers** (`worker`): a shard is a lock, not a thread. Each
//!   call takes its shard's mutex and runs the certifier call on the
//!   caller's own thread; at most `queue_depth` calls wait for the lock
//!   and the rest are shed. Workers never block on protocol outcomes —
//!   contended calls return [`ServerError::Busy`] and the session
//!   retries, which is what keeps one stalled transaction from wedging
//!   its whole shard. The service starts no thread: a logged commit
//!   leads or joins its WAL flush on the caller's thread too.
//! - **Clients** ([`client`]): the transport-generic [`Client`] trait and
//!   [`TxnBuilder`] (spec, after/before ordering, strategy) — the
//!   client-visible contract both the in-process [`Session`] and the
//!   `ks-net` remote session implement, so workloads are generic over
//!   transport.
//! - **Sessions** ([`session`]): blocking in-process client handles that
//!   run each call under its shard's lock, a timeout on a logged
//!   commit's wait for durability, and typed errors ([`ServerError::Rejected`], [`ServerError::ReEvalAborted`],
//!   [`ServerError::Backpressure`]…) carrying stable wire codes and a
//!   single [`ServerError::is_retryable`] classification.
//! - **Admission control** ([`service`]): a session cap plus shedding
//!   past `queue_depth` waiters degrade gracefully under overload.
//! - **Metrics** ([`metrics`]): each call's account — counters, ks-obs's
//!   one log₂ latency histogram (p50/p99), telemetry window — recorded
//!   once, after the reply, into its session's own stripe, and summed
//!   over the stripes on demand.
//! - **Verification** ([`verify`]): after shutdown, every shard
//!   certifier re-checks its own history offline — the CPC backend
//!   against the paper's parent-based criterion ([`ks_core::check`]),
//!   SSI/2PL against conflict-graph serializability — so the service
//!   inherits each backend's correctness guarantee, and the tests assert
//!   it under real thread interleavings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod client;
pub mod config;
pub mod durability;
pub mod error;
pub mod metrics;
pub mod routing;
pub mod service;
pub mod session;
pub mod verify;

pub(crate) mod worker;

pub use backoff::Backoff;
pub use client::{per_op_batch, BatchOp, BatchReply, Client, TxnBuilder};
pub use config::{ConfigError, ServerConfig, ServerConfigBuilder};
pub use durability::{Durability, RecoveryReport, StoreFactory, WalOptions};
pub use error::ServerError;
pub use ks_protocol::{Backend, Certifier};
pub use metrics::{MetricsSnapshot, ServerMetrics};
pub use routing::ShardMap;
pub use service::TxnService;
pub use session::{Session, TxnHandle};
pub use verify::{verify_certifiers, verify_certifiers_with_dump, VerifyReport, ViolationDump};

#[cfg(test)]
mod tests {
    use super::*;
    use ks_core::Specification;
    use ks_kernel::{Domain, EntityId, Schema, UniqueState};
    use ks_predicate::parse_cnf;
    use std::sync::Arc;

    fn schema(n: usize) -> Schema {
        Schema::uniform(
            (0..n).map(|i| format!("d{i}")),
            Domain::Range {
                min: i64::MIN / 2,
                max: i64::MAX / 2,
            },
        )
    }

    fn service(n_entities: usize, shards: usize) -> TxnService {
        let schema = schema(n_entities);
        let initial = UniqueState::constant(n_entities, 0);
        let config = ServerConfig::builder().shards(shards).build().unwrap();
        TxnService::new(schema, &initial, config)
    }

    /// The full lifecycle, written against the transport-generic
    /// [`Client`] contract — `ks-net` runs the same shape over TCP.
    fn full_lifecycle_over<C: Client>(client: &C) {
        // Entities 1 and 5 share shard 1 under S=4.
        let spec = Specification::unconstrained(&[EntityId(1), EntityId(5)]);
        let txn = client.open(TxnBuilder::new(spec)).unwrap();
        client.validate(txn).unwrap();
        assert_eq!(client.read(txn, EntityId(1)).unwrap(), 0);
        client.write(txn, EntityId(5), 42).unwrap();
        // Reads consume the version assigned at validation, not own
        // writes — the paper's execution model, not read-your-writes.
        assert_eq!(client.read(txn, EntityId(5)).unwrap(), 0);
        client.commit(txn).unwrap();
    }

    #[test]
    fn single_session_full_lifecycle() {
        let svc = service(8, 4);
        let session = svc.session().unwrap();
        full_lifecycle_over(&session);
        let snap = svc.metrics();
        assert_eq!(snap.committed, 1);
        assert!(snap.p50.is_some());
        drop(session);
        let managers = svc.shutdown();
        let report = verify_certifiers(&managers);
        assert!(report.is_correct(), "{report:?}");
        assert_eq!(report.committed, 1);
        assert_eq!(report.shards, 4);
    }

    #[test]
    fn run_batch_matches_per_op_semantics() {
        let svc = service(8, 4);
        let session = svc.session().unwrap();
        let spec = Specification::unconstrained(&[EntityId(1), EntityId(5)]);
        let txn = session.open(TxnBuilder::new(spec)).unwrap();
        session.validate(txn).unwrap();
        let results = session
            .run_batch(
                txn,
                &[
                    BatchOp::Write(EntityId(5), 42),
                    BatchOp::Read(EntityId(1)),
                    // Reads observe the assigned version, not own writes.
                    BatchOp::Read(EntityId(5)),
                ],
            )
            .unwrap();
        assert_eq!(
            results,
            vec![
                Ok(BatchReply::Done),
                Ok(BatchReply::Value(0)),
                Ok(BatchReply::Value(0)),
            ]
        );
        session.commit(txn).unwrap();
        // A burst touching a foreign shard falls back to per-op verdicts:
        // the in-shard op still executes, the cross-shard op gets its own
        // error instead of failing the whole batch.
        let txn2 = session
            .open(TxnBuilder::new(Specification::unconstrained(&[EntityId(
                1,
            )])))
            .unwrap();
        session.validate(txn2).unwrap();
        let results = session
            .run_batch(
                txn2,
                &[BatchOp::Read(EntityId(1)), BatchOp::Read(EntityId(0))],
            )
            .unwrap();
        assert_eq!(results[0], Ok(BatchReply::Value(0)));
        assert_eq!(results[1], Err(ServerError::CrossShard));
        session.abort(txn2).unwrap();
        drop(session);
        assert!(verify_certifiers(&svc.shutdown()).is_correct());
    }

    #[test]
    fn ssi_backend_serves_the_full_lifecycle() {
        let schema = schema(8);
        let initial = UniqueState::constant(8, 0);
        let config = ServerConfig::builder()
            .shards(4)
            .backend(Backend::Ssi)
            .build()
            .unwrap();
        let svc = TxnService::new(schema, &initial, config);
        assert_eq!(svc.backend(), Backend::Ssi);
        let session = svc.session().unwrap();
        full_lifecycle_over(&session);
        drop(session);
        let report = verify_certifiers(&svc.shutdown());
        assert!(report.is_correct(), "{report:?}");
        assert_eq!(report.committed, 1);
    }

    #[test]
    fn two_pl_backend_serves_the_full_lifecycle() {
        let schema = schema(8);
        let initial = UniqueState::constant(8, 0);
        let config = ServerConfig::builder()
            .shards(4)
            .backend(Backend::TwoPl)
            .build()
            .unwrap();
        let svc = TxnService::new(schema, &initial, config);
        let session = svc.session().unwrap();
        full_lifecycle_over(&session);
        drop(session);
        let report = verify_certifiers(&svc.shutdown());
        assert!(report.is_correct(), "{report:?}");
        assert_eq!(report.committed, 1);
    }

    #[test]
    fn backend_pin_mismatch_fails_closed() {
        let svc = service(8, 4); // default backend: CPC
        let session = svc.session().unwrap();
        let spec = Specification::unconstrained(&[EntityId(1)]);
        match session
            .open(TxnBuilder::new(spec.clone()).backend(Backend::Ssi))
            .unwrap_err()
        {
            ServerError::BackendMismatch(why) => {
                assert!(why.contains("ssi") && why.contains("cpc"), "{why}");
            }
            other => panic!("expected BackendMismatch, got {other:?}"),
        }
        // Pinning the backend the service actually runs is accepted.
        let txn = session
            .open(TxnBuilder::new(spec).backend(Backend::Cpc))
            .unwrap();
        session.validate(txn).unwrap();
        session.commit(txn).unwrap();
        drop(session);
        assert!(verify_certifiers(&svc.shutdown()).is_correct());
    }

    #[test]
    fn cross_shard_specs_are_rejected() {
        let svc = service(8, 4);
        let session = svc.session().unwrap();
        // Entities 0 and 1 live on different shards.
        let spec = Specification::unconstrained(&[EntityId(0), EntityId(1)]);
        assert_eq!(
            session.open(TxnBuilder::new(spec)).unwrap_err(),
            ServerError::CrossShard
        );
        // Accessing an entity outside the home shard is rejected too.
        let txn = session
            .open(TxnBuilder::new(Specification::unconstrained(&[EntityId(
                0,
            )])))
            .unwrap();
        session.validate(txn).unwrap();
        assert_eq!(
            session.read(txn, EntityId(1)).unwrap_err(),
            ServerError::CrossShard
        );
        // As is an ordering edge onto a transaction of another shard.
        let other = session
            .open(TxnBuilder::new(Specification::unconstrained(&[EntityId(
                1,
            )])))
            .unwrap();
        assert_eq!(
            session
                .open(TxnBuilder::new(Specification::unconstrained(&[EntityId(0)])).after(other))
                .unwrap_err(),
            ServerError::CrossShard
        );
    }

    #[test]
    fn admission_control_sheds_excess_sessions() {
        let schema = schema(4);
        let initial = UniqueState::constant(4, 0);
        let config = ServerConfig::builder()
            .shards(2)
            .max_sessions(2)
            .build()
            .unwrap();
        let svc = TxnService::new(schema, &initial, config);
        let s1 = svc.session().unwrap();
        let _s2 = svc.session().unwrap();
        assert_eq!(svc.session().unwrap_err(), ServerError::Backpressure);
        drop(s1);
        // Freed capacity readmits.
        let _s3 = svc.session().unwrap();
        assert_eq!(svc.metrics().sessions_shed, 1);
    }

    /// Waiters beyond `queue_depth` are shed with `Backpressure`, and once
    /// every call has returned the wait depth is back at zero: a shed
    /// call gave its count back, and a call that got the lock counted
    /// itself out.
    #[test]
    fn shed_calls_leave_no_queue_depth_behind() {
        let config = ServerConfig::builder()
            .shards(1)
            .queue_depth(1)
            .build()
            .unwrap();
        let svc = TxnService::new(schema(2), &UniqueState::constant(2, 0), config);
        let x = EntityId(0);
        let validated = || {
            let session = svc.session().unwrap();
            let spec = Specification::unconstrained(&[x]);
            let txn = session.open(TxnBuilder::new(spec)).unwrap();
            session.validate(txn).unwrap();
            (session, txn)
        };
        let (waiter, waiter_txn) = validated();
        let (shed, shed_txn) = validated();
        // Hold the shard lock, as a long call would.
        let held = svc.shared.shards[0].lock().unwrap();
        std::thread::scope(|scope| {
            let waiting = scope.spawn(move || waiter.read(waiter_txn, x));
            while svc.shared.metrics.queued(0) < 1 {
                std::thread::yield_now();
            }
            // One call already waits: the next one is shed at once.
            assert_eq!(shed.read(shed_txn, x), Err(ServerError::Backpressure));
            drop(held);
            assert_eq!(waiting.join().unwrap(), Ok(0));
        });
        let snap = svc.metrics();
        assert_eq!(snap.backpressure, 1);
        assert_eq!(snap.timeouts, 0);
        assert_eq!(snap.queue_depths, vec![0]);
        // Shedding left the transaction intact.
        assert_eq!(shed.read(shed_txn, x), Ok(0));
        drop(shed);
        assert!(verify_certifiers(&svc.shutdown()).is_correct());
    }

    /// Shutdown while several threads loop whole transactions on one
    /// logged shard: every call returns a typed result (no hang, no
    /// panic), every call after shutdown reads `Shutdown`, and the
    /// returned history is correct and holds exactly the acknowledged
    /// commits — a commit waiting on the log at shutdown still gets its
    /// flush's verdict, and a transaction shutdown strands uncommitted
    /// leaves nothing in the final state.
    #[test]
    fn shutdown_under_load_answers_every_call() {
        shutdown_under_load(Backend::Ssi);
    }

    /// [`shutdown_under_load_answers_every_call`] on the paper's protocol.
    #[test]
    fn shutdown_under_load_answers_every_call_cpc() {
        shutdown_under_load(Backend::Cpc);
    }

    fn shutdown_under_load(backend: Backend) {
        const THREADS: usize = 4;
        let media = ks_wal::MemStore::new();
        let store: StoreFactory =
            Arc::new(move || Box::new(media.clone()) as Box<dyn ks_wal::SegmentStore>);
        let config = ServerConfig::builder()
            .shards(1)
            .backend(backend)
            .durability(Durability::Wal(WalOptions::new(store)))
            .build()
            .unwrap();
        let svc = TxnService::new(schema(THREADS), &UniqueState::constant(THREADS, 0), config);
        let sessions: Vec<Session> = (0..THREADS).map(|_| svc.session().unwrap()).collect();
        let (acks, report) = std::thread::scope(|scope| {
            let loops: Vec<_> = sessions
                .into_iter()
                .enumerate()
                .map(|(t, session)| {
                    // Each thread owns one entity, so its transactions
                    // contend for the shard lock, never for versions.
                    scope.spawn(move || {
                        let x = EntityId(t as u32);
                        let spec = Specification::unconstrained(&[x]);
                        let mut acks = 0u64;
                        for value in 0.. {
                            let outcome =
                                session.open(TxnBuilder::new(spec.clone())).and_then(|txn| {
                                    session.validate(txn)?;
                                    session.write(txn, x, value)?;
                                    session.commit(txn)
                                });
                            match outcome {
                                Ok(()) => acks += 1,
                                Err(ServerError::Shutdown) => break,
                                Err(e) => panic!("thread {t}: {e}"),
                            }
                        }
                        let late = session.open(TxnBuilder::new(spec));
                        assert_eq!(late.unwrap_err(), ServerError::Shutdown);
                        acks
                    })
                })
                .collect();
            while svc.metrics().committed < 50 {
                std::thread::yield_now();
            }
            let report = verify_certifiers(&svc.shutdown());
            let acks: u64 = loops.into_iter().map(|h| h.join().unwrap()).sum();
            (acks, report)
        });
        assert!(report.is_correct(), "{report:?}");
        assert_eq!(report.committed as u64, acks);
    }

    #[test]
    fn output_violation_is_rejected_and_aborted() {
        let schema = Schema::uniform(["x", "y"], Domain::Range { min: 0, max: 99 });
        let initial = UniqueState::new(&schema, vec![5, 5]).unwrap();
        let svc = TxnService::new(schema.clone(), &initial, ServerConfig::default());
        let session = svc.session().unwrap();
        // x and y are co-located only when shards=1… but the default
        // config clamps to |E|=2 shards; use entity x (shard 0) alone.
        let spec = Specification::new(
            parse_cnf(&schema, "x = 5").unwrap(),
            parse_cnf(&schema, "x = 7").unwrap(),
        );
        let txn = session.open(TxnBuilder::new(spec)).unwrap();
        session.validate(txn).unwrap();
        session.write(txn, EntityId(0), 6).unwrap(); // ≠ 7: output fails
        match session.commit(txn).unwrap_err() {
            ServerError::Rejected(why) => assert!(why.contains("output"), "{why}"),
            other => panic!("expected Rejected, got {other:?}"),
        }
        drop(session);
        let report = verify_certifiers(&svc.shutdown());
        assert!(report.is_correct(), "{report:?}");
        assert_eq!(report.committed, 0, "aborted txn is outside the execution");
    }

    #[test]
    fn reeval_abort_is_reported_to_the_victim() {
        // One shard; t1 validates onto t2's in-flight version of x (via a
        // per-transaction GreedyLatest override — the service default
        // stays Backtracking) and reads it; t2 then writes x again,
        // superseding the version t1 consumed ⇒ re-eval aborts t1.
        let schema = Schema::uniform(["x"], Domain::Range { min: 0, max: 99 });
        let initial = UniqueState::new(&schema, vec![5]).unwrap();
        let config = ServerConfig::builder().shards(1).build().unwrap();
        let svc = TxnService::new(schema.clone(), &initial, config);
        let s1 = svc.session().unwrap();
        let s2 = svc.session().unwrap();
        let x = EntityId(0);
        let spec = Specification::unconstrained(&[x]);
        let greedy = |spec: &Specification| {
            TxnBuilder::new(spec.clone()).strategy(ks_predicate::Strategy::GreedyLatest)
        };
        let t2 = s2.open(greedy(&spec)).unwrap();
        s2.validate(t2).unwrap();
        s2.write(t2, x, 9).unwrap();
        let t1 = s1.open(greedy(&spec)).unwrap();
        s1.validate(t1).unwrap(); // assigned t2's in-flight version
        assert_eq!(s1.read(t1, x).unwrap(), 9);
        s2.write(t2, x, 11).unwrap(); // supersedes what t1 already read
        s2.commit(t2).unwrap();
        // t1 discovers its doom on the next call.
        let doomed = s1.write(t1, x, 7);
        assert_eq!(doomed.unwrap_err(), ServerError::ReEvalAborted);
        s1.abort(t1).unwrap(); // acknowledging is idempotent
        assert!(svc.metrics().reeval_aborts >= 1);
        drop((s1, s2));
        let report = verify_certifiers(&svc.shutdown());
        assert!(report.is_correct(), "{report:?}");
        assert_eq!(report.committed, 1);
    }

    #[test]
    fn cooperation_chain_gates_commit_order() {
        let schema = Schema::uniform(["x"], Domain::Range { min: 0, max: 99 });
        let initial = UniqueState::new(&schema, vec![5]).unwrap();
        let svc = TxnService::new(schema, &initial, ServerConfig::default());
        let session = svc.session().unwrap();
        let x = EntityId(0);
        let spec = Specification::unconstrained(&[x]);
        let first = session.open(TxnBuilder::new(spec.clone())).unwrap();
        let second = session
            .open(TxnBuilder::new(spec.clone()).after(first))
            .unwrap();
        session.validate(first).unwrap();
        session.validate(second).unwrap();
        session.write(second, x, 8).unwrap();
        // The successor cannot commit before its predecessor, and the
        // outcome is classified retryable.
        let gated = session.commit(second).unwrap_err();
        assert_eq!(gated, ServerError::Busy);
        assert!(gated.is_retryable());
        session.commit(first).unwrap();
        session.commit(second).unwrap();
        drop(session);
        let report = verify_certifiers(&svc.shutdown());
        assert!(report.is_correct(), "{report:?}");
        assert_eq!(report.committed, 2);
    }

    #[test]
    fn before_edge_gates_the_existing_sibling() {
        // `before` is the dual declaration: opening `late` *before*
        // `early` makes `early` wait on `late`'s commit.
        let schema = Schema::uniform(["x"], Domain::Range { min: 0, max: 99 });
        let initial = UniqueState::new(&schema, vec![5]).unwrap();
        let svc = TxnService::new(schema, &initial, ServerConfig::default());
        let session = svc.session().unwrap();
        let spec = Specification::unconstrained(&[EntityId(0)]);
        let early = session.open(TxnBuilder::new(spec.clone())).unwrap();
        let late = session
            .open(TxnBuilder::new(spec.clone()).before(early))
            .unwrap();
        session.validate(early).unwrap();
        session.validate(late).unwrap();
        assert_eq!(session.commit(early).unwrap_err(), ServerError::Busy);
        session.commit(late).unwrap();
        session.commit(early).unwrap();
        drop(session);
        let report = verify_certifiers(&svc.shutdown());
        assert!(report.is_correct(), "{report:?}");
        assert_eq!(report.committed, 2);
    }

    #[test]
    fn parallel_sessions_across_shards_all_commit() {
        let n = 16;
        let shards = 4;
        let svc = service(n, shards);
        std::thread::scope(|scope| {
            for client in 0..8usize {
                let svc = &svc;
                scope.spawn(move || {
                    let session = svc.session().unwrap();
                    let shard = client % shards;
                    // Entities of this client's home shard: shard, shard+S, …
                    let entities: Vec<EntityId> = (0..n / shards)
                        .map(|i| EntityId((i * shards + shard) as u32))
                        .collect();
                    let mut backoff = Backoff::new(
                        std::time::Duration::from_micros(5),
                        std::time::Duration::from_micros(500),
                        client as u64,
                    );
                    for round in 0..5 {
                        let spec = Specification::unconstrained(&entities);
                        let txn = session.open(TxnBuilder::new(spec)).unwrap();
                        loop {
                            match session.validate(txn) {
                                Ok(()) => break,
                                Err(e) if e.is_retryable() => backoff.snooze(),
                                Err(e) => panic!("validate: {e}"),
                            }
                        }
                        backoff.reset();
                        let mut ok = true;
                        for (i, &e) in entities.iter().enumerate() {
                            let value = (client * 1000 + round * 10 + i) as i64;
                            match session.write(txn, e, value) {
                                Ok(()) => {}
                                Err(ServerError::ReEvalAborted) => {
                                    session.abort(txn).unwrap();
                                    ok = false;
                                    break;
                                }
                                Err(e) => panic!("write: {e}"),
                            }
                        }
                        if ok {
                            match session.commit(txn) {
                                Ok(()) | Err(ServerError::ReEvalAborted) => {}
                                Err(e) => panic!("commit: {e}"),
                            }
                        }
                    }
                });
            }
        });
        let snap = svc.metrics();
        assert!(snap.committed > 0);
        let stats = svc.protocol_stats().unwrap();
        assert_eq!(stats.len(), shards);
        let report = verify_certifiers(&svc.shutdown());
        assert!(report.is_correct(), "{report:?}");
        assert_eq!(report.committed as u64, snap.committed);
    }

    #[test]
    fn sampled_sessions_emit_stitchable_traces() {
        // trace_sample = 1.0: every in-process call originates a trace;
        // the drained rings must stitch into one well-formed tree per
        // call, rooted at the client Request span, with the worker's
        // Queue/Exec (and Certify, for validate/commit) hops inside and,
        // under the WAL, the three group-commit hops on every commit. A
        // committer that returned before it ended its last WAL span
        // would break a tree only about once in a few hundred commits,
        // so each service runs LIFECYCLES lifecycles of six calls.
        use ks_obs::{OpCode, SpanHop};
        const LIFECYCLES: usize = 200;
        let media = ks_wal::MemStore::new();
        let store: StoreFactory =
            Arc::new(move || Box::new(media.clone()) as Box<dyn ks_wal::SegmentStore>);
        for durability in [Durability::None, Durability::Wal(WalOptions::new(store))] {
            let wal = matches!(durability, Durability::Wal(_));
            let recorder = ks_obs::Recorder::new(1 << 15);
            let config = ServerConfig::builder()
                .shards(4)
                .recorder(recorder.clone())
                .trace_sample(1.0)
                .durability(durability)
                .build()
                .unwrap();
            let svc = TxnService::new(schema(8), &UniqueState::constant(8, 0), config);
            let session = svc.session().unwrap();
            for _ in 0..LIFECYCLES {
                full_lifecycle_over(&session);
            }
            drop(session);
            assert!(verify_certifiers(&svc.shutdown()).is_correct());
            assert_eq!(recorder.dropped(), 0, "rings must hold every event");

            let trees = ks_obs::stitch_traces(&recorder.drain());
            // open + validate + read + write + read + commit = 6 calls.
            assert_eq!(trees.len(), 6 * LIFECYCLES, "one trace per call");
            let mut certified = 0;
            for tree in &trees {
                assert!(tree.is_well_formed(), "wal={wal}\n{}", tree.render());
                assert_eq!(tree.root().unwrap().hop, SpanHop::Request);
                let hops = tree.hops();
                assert!(hops.contains(&SpanHop::Queue), "{hops:?}");
                assert!(hops.contains(&SpanHop::Exec), "{hops:?}");
                // Self-times attribute the root duration exactly (shared
                // clock: every emitter is on this recorder).
                let self_sum: u64 = tree.hop_latencies().iter().map(|h| h.self_ns).sum();
                assert_eq!(self_sum, tree.total_ns());
                // The certifier decision is visible on validate and
                // commit, with its outcome.
                let certify = tree.spans.iter().find(|s| s.hop == SpanHop::Certify);
                if let Some(span) = certify {
                    assert_eq!(span.ok, Some(true));
                    certified += 1;
                }
                let commit = certify.is_some_and(|s| s.op == Some(OpCode::Commit));
                for hop in [SpanHop::WalEnqueue, SpanHop::WalBarrier, SpanHop::WalFsync] {
                    assert_eq!(hops.contains(&hop), wal && commit, "wal={wal}: {hops:?}");
                }
            }
            assert_eq!(certified, 2 * LIFECYCLES, "validate + commit decisions");
        }
    }

    #[test]
    fn telemetry_deltas_expose_slo_breaches_incrementally() {
        // The windowed series must let a poller detect an SLO breach
        // from deltas alone — no access to the live histograms.
        let svc = service(8, 4);
        let session = svc.session().unwrap();
        full_lifecycle_over(&session);
        // Cross the 1 s window boundary so the traffic's window closes
        // and the next pull exports it.
        std::thread::sleep(std::time::Duration::from_millis(1100));
        let d0 = svc.telemetry(0);
        let total_requests: u64 = d0.windows.iter().map(|w| w.requests).sum();
        assert_eq!(total_requests, 6, "all six lifecycle calls exported");
        assert_eq!(d0.windows.iter().map(|w| w.committed).sum::<u64>(), 1);
        // An impossible SLO budget breaches on the exported windows —
        // the check consumes nothing but the delta.
        let slo = ks_obs::SloSpec::parse("p50<=0ns@1s").unwrap();
        assert!(!slo.check(&d0.windows).is_empty(), "{:?}", d0.windows);
        // A generous budget does not.
        let slack = ks_obs::SloSpec::parse("p99<=60s@1s").unwrap();
        assert!(slack.check(&d0.windows).is_empty());
        // Pulling from the returned cursor never rewinds: nothing before
        // `next_seq` reappears.
        let d1 = svc.telemetry(d0.next_seq);
        assert!(d1.windows.iter().all(|w| w.seq >= d0.next_seq));
        drop(session);
        svc.shutdown();
    }

    #[test]
    fn shutdown_disconnect_is_reported() {
        let svc = service(4, 2);
        let session = svc.session().unwrap();
        let managers = svc.shutdown();
        assert_eq!(managers.len(), 2);
        let spec = Specification::unconstrained(&[EntityId(0)]);
        assert_eq!(
            session.open(TxnBuilder::new(spec)).unwrap_err(),
            ServerError::Shutdown
        );
    }
}
