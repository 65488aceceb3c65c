//! The load experiments' one harness: the bench service, the
//! barrier-started client fan-out, the transport-generic closed-loop
//! driver, and exact client-side percentiles.
//!
//! Everything here is written against the [`Client`] trait, so the same
//! deterministic ks-sim workload drives an in-process
//! [`Session`](ks_server::Session) and a TCP
//! [`RemoteSession`](ks_net::RemoteSession) byte-for-byte identically —
//! the two halves of `exp_net_load` differ only in how they obtain the
//! client. That symmetry is the point of the unified API: transport
//! changes the failure model (deadlines, retries, poisoning), never the
//! workload.

use crate::report::Json;
use ks_core::Specification;
use ks_kernel::{Domain, EntityId, Schema, UniqueState};
use ks_server::{Backoff, BatchOp, Client, ServerConfig, TxnBuilder, TxnService};
use ks_sim::{Workload, WorkloadSpec};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The service every load experiment runs against: `entities` integer
/// entities `d0, d1, …` over the widest range, all initially 0.
pub fn bench_service(entities: usize, config: ServerConfig) -> TxnService {
    let schema = Schema::uniform(
        (0..entities).map(|i| format!("d{i}")),
        Domain::Range {
            min: i64::MIN / 2,
            max: i64::MAX / 2,
        },
    );
    TxnService::new(schema, &UniqueState::constant(entities, 0), config)
}

/// One client's slice of the closed-loop workload.
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Client index (picks the home shard and the value namespace).
    pub client: usize,
    /// Shard count of the service being driven.
    pub shards: usize,
    /// Total entities across all shards.
    pub total_entities: usize,
    /// Transactions this client runs.
    pub txns: usize,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Base workload seed (the client index is mixed in).
    pub seed: u64,
    /// Transient-error retries per transaction before giving up.
    pub retry_budget: u32,
    /// Pipeline depth hint (≥ 1): how many `Batch` wire frames a remote
    /// session keeps in flight per burst (in-process sessions ignore it).
    pub pipeline_depth: usize,
    /// Issue each transaction's reads/writes as one
    /// [`Client::run_batch`] burst instead of sequential calls.
    pub batch: bool,
}

impl DriverConfig {
    /// The shape every experiment starts from: 6 ops per transaction,
    /// one call per op, and a retry budget no healthy run exhausts.
    pub fn new(
        client: usize,
        shards: usize,
        total_entities: usize,
        txns: usize,
        seed: u64,
    ) -> Self {
        DriverConfig {
            client,
            shards,
            total_entities,
            txns,
            ops_per_txn: 6,
            seed,
            retry_budget: 10_000,
            pipeline_depth: 1,
            batch: false,
        }
    }

    /// This client's retry pacing for [`drive_txn`], jitter keyed by
    /// seed and client so neighbours decorrelate.
    pub fn backoff(&self) -> Backoff {
        Backoff::new(
            Duration::from_micros(5),
            Duration::from_micros(500),
            self.seed ^ (self.client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }
}

/// What one driven client observed.
#[derive(Debug, Default, Clone)]
pub struct DriveOutcome {
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted (protocol or client decision).
    pub aborted: u64,
    /// Transactions rejected at open.
    pub rejected: u64,
    /// Transient-error retries across all calls.
    pub busy_retries: u64,
    /// How long each committed transaction took, open to commit
    /// acknowledgement, retries included.
    pub latencies: Vec<Duration>,
    /// How long each successful commit call took, retries included.
    pub commit_latencies: Vec<Duration>,
}

impl DriveOutcome {
    /// Fold another client's outcome into this one.
    pub fn merge(&mut self, other: DriveOutcome) {
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.rejected += other.rejected;
        self.busy_retries += other.busy_retries;
        self.latencies.extend(other.latencies);
        self.commit_latencies.extend(other.commit_latencies);
    }
}

/// What one [`fan_out`] measured.
#[derive(Debug)]
pub struct Run {
    /// Every client's outcome merged, both latency sample sets ascending.
    pub outcome: DriveOutcome,
    /// Barrier release to the last client's return.
    pub elapsed: Duration,
}

impl Run {
    /// Committed transactions per second of wall time.
    pub fn throughput(&self) -> f64 {
        self.outcome.committed as f64 / self.elapsed.as_secs_f64()
    }

    /// Exact percentile of the committed transactions' latencies, in µs.
    pub fn txn_us(&self, p: f64) -> f64 {
        micros(percentile(&self.outcome.latencies, p))
    }

    /// The fields every report row ends with (what `validate_bench`
    /// requires of a run): counts, throughput, the exact p50/p99 of
    /// `samples`, wall time and the offline checker's verdict.
    pub fn row_tail(&self, samples: &[Duration], violations: usize) -> [(&'static str, Json); 7] {
        [
            ("committed", Json::Num(self.outcome.committed as f64)),
            ("aborted", Json::Num(self.outcome.aborted as f64)),
            ("throughput_txn_s", Json::Num(self.throughput())),
            ("p50_us", Json::Num(micros(percentile(samples, 0.50)))),
            ("p99_us", Json::Num(micros(percentile(samples, 0.99)))),
            ("wall_s", Json::Num(self.elapsed.as_secs_f64())),
            ("violations", Json::Num(violations as f64)),
        ]
    }
}

/// Run `clients` closed-loop clients, one scoped thread each. Every
/// client first builds its connection with `connect` (an in-process
/// `Session`, a TCP `RemoteSession`, …); when all are up a barrier
/// releases them into `drive` together, so set-up cost (admission, TCP
/// connects, handshakes) stays outside the measured window.
pub fn fan_out<S>(
    clients: usize,
    connect: impl Fn(usize) -> S + Sync,
    drive: impl Fn(usize, S) -> DriveOutcome + Sync,
) -> Run {
    let start = Barrier::new(clients + 1);
    let (mut outcome, elapsed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let (start, connect, drive) = (&start, &connect, &drive);
                scope.spawn(move || {
                    let session = connect(client);
                    start.wait();
                    drive(client, session)
                })
            })
            .collect();
        start.wait();
        let began = Instant::now();
        let mut outcome = DriveOutcome::default();
        for handle in handles {
            outcome.merge(handle.join().expect("bench client panicked"));
        }
        (outcome, began.elapsed())
    });
    outcome.latencies.sort_unstable();
    outcome.commit_latencies.sort_unstable();
    Run { outcome, elapsed }
}

/// Exact nearest-rank percentile of ascending samples (`p` in `0..=1`);
/// zero when there are none. No bucketing — a gate must not inherit a
/// histogram's granularity.
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A duration in microseconds, the unit of every report's latency fields.
pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Run one generated transaction. `ops` carries `(is_write, global
/// entity)` pairs, all on the driving client's home shard; `entities` is
/// the deduplicated access set for the specification. `backoff` paces
/// the transient-error retries (shared across a client's transactions so
/// the schedule decorrelates from its neighbors').
pub fn drive_txn<C: Client>(
    session: &C,
    cfg: &DriverConfig,
    ops: &[(bool, EntityId)],
    entities: &[EntityId],
    value_base: i64,
    backoff: &mut Backoff,
    out: &mut DriveOutcome,
) {
    let mut budget = cfg.retry_budget;
    // Retry transient outcomes (`is_retryable`: Busy, Backpressure,
    // Timeout) until the budget runs dry, sleeping a bounded jittered
    // delay between attempts instead of spinning on `yield_now` (which
    // burns a core per blocked client and melts down above the core
    // count). Remote sessions already retry internally with backoff;
    // this outer loop absorbs what still surfaces after their bounded
    // envelope.
    macro_rules! retry {
        ($call:expr) => {
            loop {
                match $call {
                    Err(e) if e.is_retryable() => {
                        out.busy_retries += 1;
                        if budget == 0 {
                            break Err(e);
                        }
                        budget -= 1;
                        backoff.snooze();
                    }
                    other => {
                        backoff.reset();
                        break other;
                    }
                }
            }
        };
    }
    let builder = TxnBuilder::new(Specification::unconstrained(entities))
        .pipeline_depth(cfg.pipeline_depth.max(1));
    let txn_start = Instant::now();
    let txn = match retry!(session.open(builder.clone())) {
        Ok(t) => t,
        Err(_) => {
            out.rejected += 1;
            return;
        }
    };
    let finish_abort = |out: &mut DriveOutcome| {
        let _ = session.abort(txn);
        out.aborted += 1;
    };
    match retry!(session.validate(txn)) {
        Ok(()) => {}
        Err(_) => return finish_abort(out),
    }
    if cfg.batch {
        // One burst for the whole access phase: the remote client chunks
        // it into pipelined `Batch` frames, the in-process session hands
        // it to its shard worker as one coalesced request. A retryable
        // per-op error retries the burst (reads are harmless to repeat
        // and the writes are idempotent re-puts of the same values).
        let burst: Vec<BatchOp> = ops
            .iter()
            .enumerate()
            .map(|(i, &(is_write, entity))| {
                if is_write {
                    BatchOp::Write(entity, value_base + i as i64)
                } else {
                    BatchOp::Read(entity)
                }
            })
            .collect();
        let result = retry!(session
            .run_batch(txn, &burst)
            .and_then(|replies| replies.into_iter().try_for_each(|r| r.map(drop))));
        if result.is_err() {
            return finish_abort(out);
        }
    } else {
        for (i, &(is_write, entity)) in ops.iter().enumerate() {
            let result = if is_write {
                retry!(session.write(txn, entity, value_base + i as i64))
            } else {
                retry!(session.read(txn, entity).map(|_| ()))
            };
            if result.is_err() {
                return finish_abort(out);
            }
        }
    }
    let commit_start = Instant::now();
    match retry!(session.commit(txn)) {
        Ok(()) => {
            out.committed += 1;
            out.commit_latencies.push(commit_start.elapsed());
            out.latencies.push(txn_start.elapsed());
        }
        Err(_) => finish_abort(out),
    }
}

/// One client's full closed loop: generate its deterministic ks-sim
/// workload, map shard-local entity ids onto its home shard, and run
/// every transaction through `session`.
pub fn drive_client<C: Client>(session: &C, cfg: &DriverConfig) -> DriveOutcome {
    let home = cfg.client % cfg.shards;
    let per_shard = cfg.total_entities / cfg.shards;
    let workload = Workload::generate(WorkloadSpec {
        num_txns: cfg.txns,
        ops_per_txn: cfg.ops_per_txn,
        num_entities: per_shard,
        read_pct: 60,
        think_time: 0,
        hot_fraction_pct: 25,
        hot_access_pct: 75,
        arrival_spread: 0,
        chain_length: 1,
        seed: cfg.seed + cfg.client as u64,
    });
    let mut out = DriveOutcome::default();
    let mut backoff = cfg.backoff();
    for (n, sim) in workload.txns.iter().enumerate() {
        // Shard-local ids from the generator → global ids on `home`.
        let ops: Vec<(bool, EntityId)> = sim
            .ops
            .iter()
            .map(|o| {
                (
                    o.is_write,
                    EntityId((o.entity.index() * cfg.shards + home) as u32),
                )
            })
            .collect();
        let mut entities: Vec<EntityId> = ops.iter().map(|&(_, e)| e).collect();
        entities.sort_unstable_by_key(|e| e.index());
        entities.dedup();
        let value_base = (cfg.client * 1_000_000 + n * 1_000) as i64;
        drive_txn(
            session,
            cfg,
            &ops,
            &entities,
            value_base,
            &mut backoff,
            &mut out,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_the_nearest_rank_of_a_sorted_reference() {
        assert_eq!(percentile(&[], 0.99), Duration::ZERO);
        let one = [Duration::from_micros(7)];
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&one, p), one[0]);
        }
        let hundred: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        assert_eq!(percentile(&hundred, 0.50), Duration::from_micros(50));
        assert_eq!(percentile(&hundred, 0.99), Duration::from_micros(99));
        assert_eq!(percentile(&hundred, 1.0), Duration::from_micros(100));
    }

    #[test]
    fn fan_out_merges_every_client_and_sorts_the_samples() {
        let run = fan_out(
            3,
            |client| client as u64 + 1,
            |client, weight| DriveOutcome {
                committed: weight,
                latencies: vec![Duration::from_micros(10 - client as u64)],
                ..DriveOutcome::default()
            },
        );
        assert_eq!(run.outcome.committed, 6);
        assert_eq!(
            run.outcome.latencies,
            [8, 9, 10].map(Duration::from_micros).to_vec()
        );
        assert_eq!(micros(percentile(&run.outcome.latencies, 0.5)), 9.0);
    }
}
