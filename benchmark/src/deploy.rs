//! Set-up and tear-down of the system under test, one deployment per
//! workload definition: schema, service, WAL directory, listener,
//! connections and the fixed warm-up.

use crate::drive::{run_phase, ClientLog, ClientState, Until};
use crate::gen::{Workload, CLIENTS};
use ks_kernel::{Domain, Schema, UniqueState};
use ks_net::{NetClientConfig, NetConfig, NetServer, RemoteSession};
use ks_obs::Recorder;
use ks_protocol::Certifier;
use ks_server::{
    Backend, Durability, MetricsSnapshot, ServerConfig, Session, TxnService, WalOptions,
};
use ks_wal::{FileStore, SegmentStore, WalStats};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Warm-up transactions per client, part of set-up: they fill caches, fault
/// in pages, and leave the same starting history in every run.
pub const WARMUP_TXNS: u64 = 100;

/// Events each flight-recorder ring retains in a traced run; older ones are
/// overwritten and reported as `obs.dropped`.
const RING_EVENTS: usize = 1 << 17;

/// How a deployment is reached: in-process sessions, or loopback TCP.
pub enum Sessions {
    InProc(TxnService, Vec<Session>),
    Net(NetServer, Vec<RemoteSession>),
}

/// A running system plus its clients' state.
pub struct Deployment {
    pub workload: Workload,
    pub sessions: Sessions,
    pub clients: Vec<ClientState>,
    /// Attached only in traced runs (100 % sampling).
    pub recorder: Option<Recorder>,
}

/// What the service reports about itself just before it is stopped.
pub struct ServerView {
    /// `TxnService::metrics()`; in-process deployments only.
    pub metrics: Option<MetricsSnapshot>,
    pub wal: Option<WalStats>,
    pub committed: u64,
}

pub fn schema_of(workload: Workload) -> (Schema, UniqueState) {
    let n = workload.entities();
    let schema = Schema::uniform(
        (0..n).map(|i| format!("d{i}")),
        Domain::Range {
            min: i64::MIN / 2,
            max: i64::MAX / 2,
        },
    );
    (schema, UniqueState::constant(n, 0))
}

pub fn backend_of(workload: Workload) -> Backend {
    match workload {
        Workload::CpcShort | Workload::CpcLong => Backend::Cpc,
        Workload::TplNet => Backend::TwoPl,
        Workload::SsiWalWrite => Backend::Ssi,
    }
}

pub fn wal_dir(out: &Path) -> PathBuf {
    out.join("wal")
}

/// The service a workload names; `recorder` attaches tracing at 100 %
/// sampling. On `ssi_wal_write` it opens (and recovers) the WAL directory.
pub fn service(workload: Workload, out: &Path, recorder: Option<&Recorder>) -> TxnService {
    let (schema, initial) = schema_of(workload);
    let mut config = ServerConfig::builder()
        .shards(workload.shards())
        .max_sessions(CLIENTS)
        .backend(backend_of(workload));
    if workload == Workload::SsiWalWrite {
        // The flush policy is part of the workload: default `WalOptions`
        // (group commit, 2 ms window, fsync before ack) on real files.
        let dir = wal_dir(out);
        config = config.durability(Durability::Wal(WalOptions::new(Arc::new(move || {
            Box::new(FileStore::open(&dir).expect("open WAL directory")) as Box<dyn SegmentStore>
        }))));
    }
    if let Some(r) = recorder {
        config = config.recorder(r.clone()).trace_sample(1.0);
    }
    let config = config.build().expect("static benchmark config is valid");
    TxnService::new(schema, &initial, config)
}

impl Deployment {
    /// Everything `setup_s` covers: fresh WAL directory, schema and service
    /// construction, bind, connects and handshakes, then the warm-up.
    pub fn new(workload: Workload, seed: u64, out: &Path, traced: bool, loopback: bool) -> Self {
        if workload == Workload::SsiWalWrite {
            let dir = wal_dir(out);
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create WAL directory");
        }
        let recorder = traced.then(|| Recorder::new(RING_EVENTS));
        let svc = service(workload, out, recorder.as_ref());
        let sessions = if loopback {
            let server = NetServer::start(
                svc,
                "127.0.0.1:0",
                NetConfig {
                    recorder: recorder.clone(),
                    ..NetConfig::default()
                },
            )
            .expect("bind loopback");
            let remotes = (0..CLIENTS)
                .map(|_| {
                    RemoteSession::connect(
                        server.local_addr(),
                        NetClientConfig {
                            recorder: recorder.clone(),
                            trace_sample: if traced { 1.0 } else { 0.0 },
                            ..NetClientConfig::default()
                        },
                    )
                    .expect("connect over loopback")
                })
                .collect();
            Sessions::Net(server, remotes)
        } else {
            let locals = (0..CLIENTS)
                .map(|_| svc.session().expect("admission (sessions = cap)"))
                .collect();
            Sessions::InProc(svc, locals)
        };
        let mut deployment = Deployment {
            workload,
            sessions,
            clients: (0..CLIENTS)
                .map(|c| ClientState::new(workload, seed, c))
                .collect(),
            recorder,
        };
        let (warm, _) = deployment.run(Until::Count(WARMUP_TXNS), Instant::now(), false);
        for log in &warm {
            assert!(
                log.first_error.is_none(),
                "warm-up transaction failed: {:?}",
                log.first_error
            );
        }
        deployment
    }

    /// Run one phase on every client; see [`run_phase`].
    pub fn run(
        &mut self,
        until: Until,
        epoch: Instant,
        trace: bool,
    ) -> (Vec<ClientLog>, (f64, f64)) {
        match &mut self.sessions {
            Sessions::InProc(_, s) => run_phase(s, &mut self.clients, until, epoch, trace),
            Sessions::Net(_, s) => run_phase(s, &mut self.clients, until, epoch, trace),
        }
    }

    /// Durations (ns) of `samples` metrics round trips over one loopback
    /// connection — the per-call floor of the transport. Empty in-process.
    pub fn rtt_ns(&self, samples: usize) -> Vec<u64> {
        let Sessions::Net(_, remotes) = &self.sessions else {
            return Vec::new();
        };
        (0..samples)
            .map(|_| {
                let t = Instant::now();
                remotes[0].metrics().expect("metrics round trip");
                t.elapsed().as_nanos() as u64
            })
            .collect()
    }

    /// Read the service's own counters, close the clients, stop the service
    /// and hand back the shard certifiers.
    pub fn stop(self) -> (ServerView, Vec<Box<dyn Certifier>>, Vec<ClientState>) {
        match self.sessions {
            Sessions::InProc(svc, sessions) => {
                let metrics = svc.metrics();
                let view = ServerView {
                    committed: metrics.committed,
                    wal: svc.wal_stats(),
                    metrics: Some(metrics),
                };
                drop(sessions);
                (view, svc.shutdown(), self.clients)
            }
            Sessions::Net(server, remotes) => {
                let wire = remotes[0].metrics().expect("metrics over loopback");
                for r in remotes {
                    r.close().expect("orderly goodbye");
                }
                let view = ServerView {
                    committed: wire.committed,
                    wal: None,
                    metrics: None,
                };
                (view, server.shutdown(), self.clients)
            }
        }
    }
}
