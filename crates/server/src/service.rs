//! The front end: shard workers, admission control, lifecycle.

use crate::config::ServerConfig;
use crate::durability::{self, Durability, RecoveryReport, WalShared, WorkerWal};
use crate::metrics::{MetricsSnapshot, ServerMetrics};
use crate::routing::ShardMap;
use crate::session::Session;
use crate::worker::{self, Request, Routed};
use crate::ServerError;
use crossbeam::channel::{bounded, unbounded, Sender};
use ks_core::Specification;
use ks_kernel::{Schema, UniqueState};
use ks_obs::{ObsKind, ObsSink, NO_TXN};
use ks_protocol::manager::ProtocolStats;
use ks_protocol::{Backend, Certifier, ProtocolManager, SsiCertifier, TplCertifier};
use ks_wal::{Wal, WalConfig, WalRecord};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

/// State shared between the service front end and every session.
pub(crate) struct Shared {
    pub(crate) map: ShardMap,
    pub(crate) senders: Vec<Sender<Routed>>,
    pub(crate) metrics: Arc<ServerMetrics>,
    pub(crate) config: ServerConfig,
    /// Session-side sink (shard-stamped per call with `emit_for`); `None`
    /// when the service runs without a recorder.
    pub(crate) obs: Option<ObsSink>,
    /// Monotone seed for in-process trace origination (see
    /// `ServerConfig::trace_sample`): each sampled-candidate call draws
    /// a sequence number whose SplitMix64 hash is the trace id.
    pub(crate) trace_seq: std::sync::atomic::AtomicU64,
}

/// A concurrent multi-session transaction service over a pluggable
/// certification backend.
///
/// Entities are partitioned across shard worker threads (see
/// [`ShardMap`]); each worker owns a [`Certifier`] over its sub-schema —
/// the paper's CPC [`ProtocolManager`] by default, or the SSI / 2PL
/// backends via [`ServerConfig::backend`](crate::ServerConfig) — so
/// every certification decision is made single-threaded while
/// independent shards proceed in parallel. Sessions obtained from
/// [`TxnService::session`] are the only client surface.
pub struct TxnService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<Box<dyn Certifier>>>,
    flusher: Option<JoinHandle<()>>,
    recovery: Option<RecoveryReport>,
    wal: Option<Arc<WalShared>>,
}

impl TxnService {
    /// Start the service: build the shard partition and spawn one worker
    /// per shard, each with a protocol manager rooted at a trivial
    /// specification over the shard's slice of `initial`.
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

        // Durability startup: recover, fence, arm the flusher.
        let mut recovery = None;
        let mut wal_shared: Option<Arc<WalShared>> = None;
        let mut flusher = None;
        let mut flusher_tx = None;
        if let Durability::Wal(opts) = &config.durability {
            let store = (opts.store)();
            let replayed = ks_wal::recover(&store).expect("wal recovery failed");
            let mut wal = Wal::open(
                store,
                WalConfig {
                    segment_bytes: opts.segment_bytes,
                },
            )
            .expect("wal open failed");
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
            let shared = Arc::new(WalShared::new(wal, opts.sync_on_commit));
            if opts.sync_on_commit {
                let (tx, rx) = unbounded();
                let (flush_shared, sink) = (Arc::clone(&shared), obs.clone());
                let metrics = Arc::clone(&metrics);
                flusher = Some(std::thread::spawn(move || {
                    durability::flusher_loop(flush_shared, rx, sink, metrics)
                }));
                flusher_tx = Some(tx);
            }
            wal_shared = Some(shared);
        }
        let recovered_states = recovery.as_ref().and_then(|r| r.states.clone());

        let mut senders = Vec::with_capacity(map.shards());
        let mut workers = Vec::with_capacity(map.shards());
        for shard in 0..map.shards() {
            let (tx, rx) = bounded(config.queue_depth.max(1));
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
            // the certifier's protocol decisions (both run on this thread).
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
                flusher: flusher_tx.clone(),
                shard: shard as u32,
            });
            let metrics = Arc::clone(&metrics);
            workers.push(std::thread::spawn(move || {
                worker::run(cert, rx, metrics, sink, wal)
            }));
            senders.push(tx);
        }
        TxnService {
            shared: Arc::new(Shared {
                map,
                senders,
                metrics,
                config,
                obs,
                trace_seq: std::sync::atomic::AtomicU64::new(0),
            }),
            workers,
            flusher,
            recovery,
            wal: wal_shared,
        }
    }

    /// What WAL recovery found at startup; `None` when the service runs
    /// without durability.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Live WAL appender counters (records, bytes, fsyncs, flush queue
    /// depth); `None` when the service runs without durability.
    pub fn wal_stats(&self) -> Option<ks_wal::WalStats> {
        self.wal.as_ref().map(|w| w.stats())
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
        ServerMetrics::add(&metrics.sessions_admitted);
        if let Some(obs) = &self.shared.obs {
            obs.emit(NO_TXN, ObsKind::SessionAdmit);
        }
        Ok(Session::new(Arc::clone(&self.shared)))
    }

    /// The entity partition this service runs.
    pub fn shard_map(&self) -> &ShardMap {
        &self.shared.map
    }

    /// Point-in-time counters, queue depths, and latency quantiles.
    pub fn metrics(&self) -> MetricsSnapshot {
        let depths = self.shared.senders.iter().map(|s| s.len()).collect();
        self.shared.metrics.snapshot(depths)
    }

    /// Incremental time-series telemetry: every closed window with
    /// sequence number `>= since`, plus the cursor to pass next time.
    /// Pulling the same cursor twice is idempotent; a remote poller
    /// reconstructs the full series — and checks SLOs — from deltas
    /// alone. Each pull leaves a `TelemetryDelta` breadcrumb in the
    /// flight recorder.
    pub fn telemetry(&self, since: u64) -> ks_obs::TelemetryDelta {
        let delta = self.shared.metrics.telemetry.delta(since);
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

    /// The live telemetry series itself (shared handle), for callers
    /// embedding the service in-process — `ks-top`'s live mode reads
    /// this directly.
    pub fn telemetry_series(&self) -> &ks_obs::TelemetrySeries {
        &self.shared.metrics.telemetry
    }

    /// Per-shard protocol statistics (re-evals, re-assigns, aborts…),
    /// gathered by round-tripping each worker.
    pub fn protocol_stats(&self) -> Result<Vec<ProtocolStats>, ServerError> {
        let mut receivers = Vec::with_capacity(self.shared.senders.len());
        for sender in &self.shared.senders {
            let (tx, rx) = bounded(1);
            sender
                .send(Routed {
                    enqueued: std::time::Instant::now(),
                    trace: 0,
                    request: Request::Stats { reply: tx },
                })
                .map_err(|_| ServerError::Shutdown)?;
            receivers.push(rx);
        }
        receivers
            .into_iter()
            .map(|rx| {
                rx.recv_timeout(self.shared.config.request_timeout)
                    .map_err(|_| ServerError::Timeout)
            })
            .collect()
    }

    /// The certification backend every shard of this service runs.
    pub fn backend(&self) -> Backend {
        self.shared.config.backend
    }

    /// Stop accepting work, join every worker, and hand back the shard
    /// certifiers so callers can re-verify their histories offline
    /// (see [`crate::verify`]). Requests still queued behind the shutdown
    /// marker are dropped; their sessions observe `Shutdown`.
    pub fn shutdown(self) -> Vec<Box<dyn Certifier>> {
        for sender in &self.shared.senders {
            let _ = sender.send(Routed {
                enqueued: std::time::Instant::now(),
                trace: 0,
                request: Request::Shutdown,
            });
        }
        let certifiers: Vec<Box<dyn Certifier>> = self
            .workers
            .into_iter()
            .map(|w| w.join().expect("shard worker panicked"))
            .collect();
        // Workers were the only ticket senders; with them gone the
        // flusher drains its queue and exits.
        if let Some(flusher) = self.flusher {
            flusher.join().expect("commit flusher panicked");
        }
        certifiers
    }
}
