//! Transport-generic closed-loop workload driver.
//!
//! Everything here is written against the [`Client`] trait, so the same
//! deterministic ks-sim workload drives an in-process
//! [`Session`](ks_server::Session) and a TCP
//! [`RemoteSession`](ks_net::RemoteSession) byte-for-byte identically —
//! `exp_server_load` and `exp_net_load` differ only in how they obtain
//! the client. That symmetry is the point of the unified API: transport
//! changes the failure model (deadlines, retries, poisoning), never the
//! workload.

use ks_core::Specification;
use ks_kernel::EntityId;
use ks_predicate::{Atom, Clause, CmpOp, Cnf};
use ks_server::{Backoff, BatchOp, Client, TxnBuilder};
use ks_sim::{Workload, WorkloadSpec};
use std::time::{Duration, Instant};

/// Tautological input over `entities` (placing them in the accessible set
/// `N_t`), unconstrained output — the serving analogue of the sim
/// adapter's specifications.
pub fn tautology_spec(entities: &[EntityId]) -> Specification {
    Specification::new(
        Cnf::new(
            entities
                .iter()
                .map(|&e| Clause::unit(Atom::cmp_const(e, CmpOp::Ge, i64::MIN / 2)))
                .collect(),
        ),
        Cnf::truth(),
    )
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
        self.commit_latencies.extend(other.commit_latencies);
    }
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
    let builder =
        TxnBuilder::new(tautology_spec(entities)).pipeline_depth(cfg.pipeline_depth.max(1));
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
        let result = retry!(session.run_batch(txn, &burst).and_then(|replies| {
            replies
                .into_iter()
                .map(|r| r.map(drop))
                .collect::<Result<(), _>>()
        }));
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
    let mut backoff = Backoff::new(
        Duration::from_micros(5),
        Duration::from_micros(500),
        cfg.seed ^ (cfg.client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
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
