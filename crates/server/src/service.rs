//! The front end: shards, admission control, lifecycle.

use crate::config::ServerConfig;
use crate::durability::{Durability, RecoveryReport, WalShared, WorkerWal};
use crate::metrics::{MetricsSnapshot, ServerMetrics};
use crate::routing::ShardMap;
use crate::session::Session;
use crate::worker::{Shard, Worker};
use crate::ServerError;
use ks_core::Specification;
use ks_kernel::{Schema, UniqueState};
use ks_obs::{ObsKind, ObsSink, NO_TXN};
use ks_protocol::manager::ProtocolStats;
use ks_protocol::{Backend, Certifier, ProtocolManager, SsiCertifier, TplCertifier};
use ks_wal::{Wal, WalConfig, WalRecord};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// State shared between the service front end and every session.
pub(crate) struct Shared {
    pub(crate) map: ShardMap,
    pub(crate) shards: Vec<Shard>,
    pub(crate) metrics: Arc<ServerMetrics>,
    pub(crate) config: ServerConfig,
    /// Session-side sink (shard-stamped per call with `emit_for`); `None`
    /// when the service runs without a recorder.
    pub(crate) obs: Option<ObsSink>,
    /// The write-ahead log every shard appends to, under
    /// [`Durability::Wal`].
    pub(crate) wal: Option<Arc<WalShared>>,
}

/// A concurrent multi-session transaction service over a pluggable
/// certification backend.
///
/// Entities are partitioned across shards (see [`ShardMap`]); each
/// shard's worker owns a [`Certifier`] over its sub-schema — the paper's
/// CPC [`ProtocolManager`] by default, or the SSI / 2PL backends via
/// [`ServerConfig::backend`](crate::ServerConfig) — behind a lock that
/// every call holds while it runs, on the caller's own thread. So every
/// certification decision is made one at a time while independent
/// shards proceed in parallel. Sessions obtained from
/// [`TxnService::session`] are the only client surface.
pub struct TxnService {
    pub(crate) shared: Arc<Shared>,
    recovery: Option<RecoveryReport>,
}

impl TxnService {
    /// Start the service: build the shard partition and one worker per
    /// shard, each with a protocol manager rooted at a trivial
    /// specification over the shard's slice of `initial`. It starts no
    /// thread: every call, and every WAL flush, runs on a caller's.
    ///
    /// With [`Durability::Wal`], startup first replays the log
    /// (recovered committed state replaces `initial`), then writes a
    /// synced checkpoint fence — so reused shard-local txn ids of this
    /// incarnation can never collide with dead epochs — and GCs the
    /// segments the checkpoint superseded.
    pub fn new(schema: Schema, initial: &UniqueState, config: ServerConfig) -> Self {
        let map = ShardMap::new(&schema, config.shards);
        let metrics = Arc::new(ServerMetrics::new(map.shards()));
        let obs = config.recorder.as_ref().map(|r| r.sink(u32::MAX));

        // Durability startup: recover, then fence.
        let mut recovery = None;
        let mut wal_shared: Option<Arc<WalShared>> = None;
        if let Durability::Wal(opts) = &config.durability {
            let store = (opts.store)();
            let config = WalConfig {
                segment_bytes: opts.segment_bytes,
            };
            let (replayed, mut wal) = Wal::recover(store, config).expect("wal recovery failed");
            // The startup states this incarnation will actually serve:
            // recovered committed state, or the configured initial.
            let states: Vec<Vec<i64>> = match &replayed.states {
                Some(states) => {
                    assert_eq!(
                        states.len(),
                        map.shards(),
                        "wal checkpoint shard count does not match this config"
                    );
                    states.clone()
                }
                None => (0..map.shards())
                    .map(|s| map.sub_initial(s, initial).values().to_vec())
                    .collect(),
            };
            // Checkpoint fence in a fresh segment, synced before any
            // request is served; older segments are then garbage.
            let fence = wal.rotate().expect("wal rotate failed");
            wal.append(&WalRecord::Checkpoint {
                shards: states.clone(),
            })
            .expect("wal checkpoint append failed");
            wal.sync().expect("wal checkpoint sync failed");
            wal.gc_before(fence).expect("wal segment gc failed");
            recovery = Some(RecoveryReport {
                recovered: replayed.states.is_some(),
                records: replayed.records,
                committed: replayed.committed.clone(),
                replay: replayed.replay.clone(),
                states: replayed.states.clone(),
                torn: replayed.torn.clone(),
            });
            wal_shared = Some(Arc::new(WalShared::new(
                wal,
                opts.sync_on_commit,
                obs.clone(),
            )));
        }
        let recovered_states = recovery.as_ref().and_then(|r| r.states.clone());

        let mut shards = Vec::with_capacity(map.shards());
        for shard in 0..map.shards() {
            let sub_schema = map.sub_schema(shard).clone();
            let shard_initial = match &recovered_states {
                Some(states) => UniqueState::new(&sub_schema, states[shard].clone())
                    .expect("recovered wal state violates the schema domain"),
                None => map.sub_initial(shard, initial),
            };
            let mut cert: Box<dyn Certifier> = match config.backend {
                Backend::Cpc => Box::new(ProtocolManager::new(
                    sub_schema,
                    &shard_initial,
                    Specification::trivial(),
                )),
                Backend::Ssi => Box::new(SsiCertifier::new_with_detection(
                    sub_schema,
                    &shard_initial,
                    config.ssi_detect,
                )),
                Backend::TwoPl => Box::new(TplCertifier::new(sub_schema, &shard_initial)),
            };
            // One ring per shard, shared by the worker's request spans and
            // the certifier's protocol decisions (both emitted under the
            // shard lock).
            let sink = config.recorder.as_ref().map(|r| r.sink(shard as u32));
            if let Some(s) = &sink {
                cert.attach_obs(s.clone());
                if let Some(report) = &recovery {
                    let counters = report.replay.iter().find(|r| r.shard == shard as u32);
                    s.emit(
                        NO_TXN,
                        ObsKind::RecoveryReplay {
                            writes: counters.map_or(0, |c| c.writes),
                            committed: counters.map_or(0, |c| c.committed),
                        },
                    );
                }
            }
            let wal = wal_shared.as_ref().map(|shared| WorkerWal {
                shared: Arc::clone(shared),
                shard: shard as u32,
            });
            let worker = Worker::new(cert, Arc::clone(&metrics), sink, wal);
            shards.push(Mutex::new(Some(worker)));
        }
        TxnService {
            shared: Arc::new(Shared {
                map,
                shards,
                metrics,
                config,
                obs,
                wal: wal_shared,
            }),
            recovery,
        }
    }

    /// What WAL recovery found at startup; `None` when the service runs
    /// without durability.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Live WAL appender counters (records and bytes appended, fsyncs,
    /// records not yet durable); `None` when the service runs without
    /// durability.
    pub fn wal_stats(&self) -> Option<ks_wal::WalStats> {
        self.shared.wal.as_ref().map(|w| w.stats())
    }

    /// Open a session, or shed it with [`ServerError::Backpressure`] when
    /// `max_sessions` are already open.
    pub fn session(&self) -> Result<Session, ServerError> {
        let metrics = &self.shared.metrics;
        let prior = metrics.sessions_in_flight.fetch_add(1, Ordering::Relaxed);
        if prior >= self.shared.config.max_sessions {
            metrics.sessions_in_flight.fetch_sub(1, Ordering::Relaxed);
            ServerMetrics::add(&metrics.sessions_shed);
            if let Some(obs) = &self.shared.obs {
                obs.emit(NO_TXN, ObsKind::SessionShed);
            }
            return Err(ServerError::Backpressure);
        }
        let admitted = metrics.sessions_admitted.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.shared.obs {
            obs.emit(NO_TXN, ObsKind::SessionAdmit);
        }
        Ok(Session::new(Arc::clone(&self.shared), admitted))
    }

    /// The entity partition this service runs.
    pub fn shard_map(&self) -> &ShardMap {
        &self.shared.map
    }

    /// Point-in-time counters, queue depths, and latency quantiles.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Incremental time-series telemetry: every closed window with
    /// sequence number `>= since`, plus the cursor to pass next time.
    /// Every session stripe's window is first rolled to the current one,
    /// and only the windows below it are exported, so an exported window
    /// never changes. Pulling the same cursor twice is idempotent; a remote poller
    /// reconstructs the full series — and checks SLOs — from deltas
    /// alone. Each pull leaves a `TelemetryDelta` breadcrumb in the
    /// flight recorder.
    pub fn telemetry(&self, since: u64) -> ks_obs::TelemetryDelta {
        let delta = self.shared.metrics.telemetry(since);
        if let Some(obs) = &self.shared.obs {
            obs.emit(
                NO_TXN,
                ObsKind::TelemetryDelta {
                    seq: delta.next_seq.min(u32::MAX as u64) as u32,
                    windows: delta.windows.len() as u32,
                },
            );
        }
        delta
    }

    /// Per-shard protocol statistics (re-evals, re-assigns, aborts…),
    /// read under each shard's lock.
    pub fn protocol_stats(&self) -> Result<Vec<ProtocolStats>, ServerError> {
        self.shared
            .shards
            .iter()
            .map(|shard| match shard.lock() {
                Ok(slot) => slot
                    .as_ref()
                    .map(Worker::stats)
                    .ok_or(ServerError::Shutdown),
                Err(_) => Err(ServerError::Shutdown),
            })
            .collect()
    }

    /// The certification backend every shard of this service runs.
    pub fn backend(&self) -> Backend {
        self.shared.config.backend
    }

    /// Stop accepting work: take every shard's worker out of its lock,
    /// leave the log durable, and hand back the shard certifiers so
    /// callers can re-verify their histories offline (see
    /// [`crate::verify`]). A call that holds a shard lock finishes first;
    /// calls that get the lock afterwards observe `Shutdown`.
    ///
    /// # Panics
    ///
    /// If a call panicked under a shard lock: that shard's certifier is
    /// in an unknown state.
    pub fn shutdown(self) -> Vec<Box<dyn Certifier>> {
        let certifiers: Vec<Box<dyn Certifier>> = self
            .shared
            .shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .expect("a call panicked under the shard lock")
                    .take()
                    .expect("only shutdown empties a shard")
                    .close()
            })
            .collect();
        // A graceful exit leaves the log durable whatever the sync mode
        // (simulated crashes kill the store before shutdown, so this
        // cannot mask a power cut).
        if let Some(wal) = &self.shared.wal {
            wal.sync_quiet();
        }
        certifiers
    }
}
