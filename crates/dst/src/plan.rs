//! Explicit, shrinkable run plans.
//!
//! A [`RunPlan`] is the *entire* input of a simulation run: every client
//! operation and every injected fault, expanded up front from one `u64`
//! seed. Nothing downstream draws randomness — the driver executes the
//! plan literally, so (a) the same seed always produces the same run and
//! (b) the shrinker can delete steps without shifting the fault schedule
//! of the steps it keeps (the classic pitfall of deciding faults on the
//! fly from a shared PRNG stream).
//!
//! Ops reference client-local transaction *slots*, not handles: a step
//! whose slot is empty (its `Open` was removed by the shrinker, failed,
//! or the slot already closed) executes as a no-op. That keeps every
//! subset of a plan well-formed by construction.

use ks_core::Specification;
use ks_kernel::EntityId;
use ks_predicate::random::SplitMix64;
use ks_predicate::{Atom, Clause, CmpOp, Cnf, Strategy};
use ks_server::BatchOp;

/// Clients driven by a plan (each with its own connection + home shard).
pub const CLIENTS: usize = 3;
/// Transaction slots per client.
pub const SLOTS: usize = 3;
/// Entity shards the simulated service runs.
pub const SHARDS: usize = 2;
/// Entities per shard (global entity `e` lives on shard `e % SHARDS`).
pub const ENTITIES_PER_SHARD: usize = 4;
/// Inclusive upper bound of every entity's domain (lower bound is 0).
pub const MAX_VALUE: i64 = 100;
/// Steps per generated plan.
pub const STEPS: usize = 64;
/// Percent of steps that carry an injected fault.
const FAULT_PCT: u64 = 22;
/// Percent of steps that end in a whole-server crash-restart.
const CRASH_PCT: u64 = 4;

/// One injected fault, attached to a single step's first request.
/// Client-internal retries of the same step are delivered cleanly — the
/// fault models one network/server incident, not a broken link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The request frame vanishes in flight: the server never sees it,
    /// the client's read deadline expires and the connection poisons.
    DropRequest,
    /// The server executes the request but its response frame vanishes:
    /// the op is applied, the client times out and poisons.
    DropResponse,
    /// The request frame is delivered twice back-to-back; the server
    /// handles both and the second response is swallowed so the stream
    /// stays frame-aligned. Exercises double-execution hardening.
    DupRequest,
    /// The request frame arrives in `chunks` pieces with the byte stream
    /// going quiet (read-would-block) between them — the frame straddles
    /// poll ticks. `salt` seeds the split points deterministically.
    Trickle {
        /// Number of pieces (≥ 2).
        chunks: u8,
        /// Seed for the split positions (mixed with the frame length, so
        /// the cuts do not move when other steps are shrunk away).
        salt: u32,
    },
    /// The server executes the request but the reply rendezvous expires —
    /// a stalled shard worker, seen from the wire: the client receives a
    /// server-signalled `Timeout` while the op *was* applied.
    ServerTimeoutApplied,
    /// The server sheds the request before execution and signals
    /// `Timeout`: the op was *not* applied.
    ServerTimeoutLost,
    /// The connection is severed before the request is delivered: nothing
    /// is applied, the server reaps the connection (running its
    /// abort-on-disconnect sweep), the client poisons and reconnects.
    Reset,
    /// Readiness starvation: the request's bytes arrive and the
    /// connection is *readable*, but the event loop does not schedule it
    /// for `ticks` logical ticks (a busy I/O thread servicing other
    /// connections), after which it is finally serviced and the request
    /// executes normally. Models the poll-loop hazard where a ready
    /// connection sits unserviced behind its neighbours — the bytes must
    /// survive the wait intact and the reply must still come.
    Starve {
        /// Ticks the readable connection goes unscheduled (≥ 1).
        ticks: u8,
    },
    /// A whole-server power cut *after* the step's op completes: the
    /// step's request (and its ack) go through cleanly, then the
    /// simulated storage loses a torn suffix of its unsynced bytes, every
    /// connection vaporizes without a goodbye or abort sweep, and a fresh
    /// service incarnation recovers from the write-ahead log. `torn_salt`
    /// seeds how much of each segment's unsynced tail survives. The
    /// durability oracle compares the recovered state against the dying
    /// incarnation's committed effects — "commit acked then instant
    /// kill" is exactly the scenario this fault manufactures.
    Crash {
        /// Seed for the per-segment torn-write prefix.
        torn_salt: u32,
    },
}

impl Fault {
    /// Faults after which the server is guaranteed to have produced a
    /// reply the client can read — the run oracle flags any such step
    /// whose op nevertheless ended in a transport timeout (that is how a
    /// frame-reassembly desync presents when no bytes were corrupted).
    pub fn is_benign(self) -> bool {
        matches!(
            self,
            Fault::DupRequest | Fault::Trickle { .. } | Fault::Starve { .. }
        )
    }
}

/// One client operation on a slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// Open a transaction into `slot` (no-op if the slot is occupied).
    Open {
        /// Target slot.
        slot: u8,
        /// Seed for the specification shape (see [`spec_for`]).
        spec_salt: u32,
        /// Slots whose live transactions this one orders after.
        after: Vec<u8>,
        /// Slots whose live transactions this one orders before.
        before: Vec<u8>,
        /// Per-transaction solver override.
        strategy: Option<Strategy>,
        /// Pipeline depth hint (≥ 1): how many `Batch` wire frames the
        /// client keeps in flight for this transaction's bursts.
        depth: u8,
    },
    /// Validate the slot's transaction.
    Validate {
        /// Target slot.
        slot: u8,
    },
    /// Read one of the client's home-shard entities.
    Read {
        /// Target slot.
        slot: u8,
        /// Index into the client's entity pool.
        entity_ix: u8,
    },
    /// Write one of the client's home-shard entities.
    Write {
        /// Target slot.
        slot: u8,
        /// Index into the client's entity pool.
        entity_ix: u8,
        /// The value (within the domain).
        value: i64,
    },
    /// Run a burst of reads and writes through
    /// [`Client::run_batch`](ks_server::Client::run_batch): the client
    /// chunks it into pipelined `Batch` wire frames per the slot's
    /// pipeline depth, so faults on this step land on batch frames.
    Batch {
        /// Target slot.
        slot: u8,
        /// Seed expanding into the op mix (see [`batch_ops_for`]).
        ops_salt: u32,
        /// Ops in the burst (≥ 1).
        len: u8,
    },
    /// Commit the slot's transaction.
    Commit {
        /// Target slot.
        slot: u8,
    },
    /// Abort the slot's transaction.
    Abort {
        /// Target slot.
        slot: u8,
    },
    /// Fetch service metrics (duplicate-safe, exercises the retry path).
    Metrics,
}

impl OpKind {
    /// The slot this op targets, if any.
    pub fn slot(&self) -> Option<u8> {
        match self {
            OpKind::Open { slot, .. }
            | OpKind::Validate { slot }
            | OpKind::Read { slot, .. }
            | OpKind::Write { slot, .. }
            | OpKind::Batch { slot, .. }
            | OpKind::Commit { slot }
            | OpKind::Abort { slot } => Some(*slot),
            OpKind::Metrics => None,
        }
    }
}

/// One step: which client acts, what it does, and the injected fault (if
/// any) on the step's first request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Acting client (0-based).
    pub client: u8,
    /// The operation.
    pub op: OpKind,
    /// Injected fault for this step.
    pub fault: Option<Fault>,
}

/// A complete, self-contained run input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunPlan {
    /// The seed this plan was generated from (0 for hand-built plans).
    pub seed: u64,
    /// The steps, executed in order by a single-threaded driver.
    pub steps: Vec<Step>,
}

impl RunPlan {
    /// Steps carrying a fault.
    pub fn fault_count(&self) -> usize {
        self.steps.iter().filter(|s| s.fault.is_some()).count()
    }

    /// Human-readable listing, one step per line (used in artifacts).
    pub fn render(&self) -> String {
        let mut out = format!(
            "plan seed={} steps={} faults={}\n",
            self.seed,
            self.steps.len(),
            self.fault_count()
        );
        for (i, s) in self.steps.iter().enumerate() {
            out.push_str(&format!("  [{i:3}] client {} {:?}", s.client, s.op));
            if let Some(f) = s.fault {
                out.push_str(&format!("  !{f:?}"));
            }
            out.push('\n');
        }
        out
    }
}

/// The global entity pool of client `c`: all entities of its home shard
/// `c % SHARDS`, so every transaction the client opens is co-located and
/// never rejected as cross-shard.
pub fn client_entities(client: usize) -> Vec<EntityId> {
    let home = client % SHARDS;
    (0..ENTITIES_PER_SHARD)
        .map(|i| EntityId((i * SHARDS + home) as u32))
        .collect()
}

/// Build the specification a salt encodes, over `pool` (the client's
/// home-shard entities). The mix deliberately spans the interesting
/// space: tautologies (always validate), value-pinning inputs (may be
/// unsatisfiable against the current candidate versions), and occasional
/// output predicates (commit rejects unless the final write matches).
pub fn spec_for(salt: u32, pool: &[EntityId]) -> Specification {
    let mut rng = SplitMix64::new(u64::from(salt) ^ 0x5DE7_AC0D);
    let n = 1 + rng.index(3.min(pool.len()));
    // n distinct entities from the pool, order-stable.
    let mut picked: Vec<EntityId> = Vec::new();
    while picked.len() < n {
        let e = pool[rng.index(pool.len())];
        if !picked.contains(&e) {
            picked.push(e);
        }
    }
    let mut clauses: Vec<Clause> = picked
        .iter()
        .map(|&e| Clause::unit(Atom::cmp_const(e, CmpOp::Ge, 0)))
        .collect();
    if rng.below(100) < 20 {
        // Pin one entity to a concrete value: satisfiable only if some
        // candidate version carries it (often just the initial 0).
        let e = picked[rng.index(picked.len())];
        let v = if rng.coin() {
            0
        } else {
            rng.below(MAX_VALUE as u64 + 1) as i64
        };
        clauses.push(Clause::unit(Atom::cmp_const(e, CmpOp::Eq, v)));
    }
    let output = if rng.below(100) < 15 {
        let e = picked[rng.index(picked.len())];
        Cnf::new(vec![Clause::unit(Atom::cmp_const(
            e,
            CmpOp::Eq,
            rng.below(MAX_VALUE as u64 + 1) as i64,
        ))])
    } else {
        Cnf::truth()
    };
    Specification::new(Cnf::new(clauses), output)
}

/// Expand a batch step's salt into its concrete op mix over `pool`: a
/// read-heavy blend (reads never violate a write-monotone invariant, so
/// most per-op results should be values) with in-domain writes mixed in.
/// Deterministic in `(salt, len)` alone, so shrinking other steps never
/// moves a burst's contents.
pub fn batch_ops_for(salt: u32, len: u8, pool: &[EntityId]) -> Vec<BatchOp> {
    let mut rng = SplitMix64::new(u64::from(salt) ^ 0xBA7C_4005);
    (0..len.max(1))
        .map(|_| {
            let e = pool[rng.index(pool.len())];
            if rng.below(100) < 60 {
                BatchOp::Read(e)
            } else {
                BatchOp::Write(e, rng.below(MAX_VALUE as u64 + 1) as i64)
            }
        })
        .collect()
}

/// Assumed lifecycle phase of a slot while generating (optimistic — the
/// run may diverge when an op fails, which only means the plan exercises
/// a wrong-phase path instead of the intended one).
#[derive(Clone, Copy, PartialEq, Eq)]
enum GenPhase {
    Empty,
    Defined,
    Validated,
}

/// Expand `seed` into a full plan.
///
/// Generation is lifecycle-aware: it tracks each slot's *assumed* phase
/// and biases the op choice toward advancing it (open → validate →
/// write → commit), because a blind op mix almost never lines up a full
/// successful lifecycle — and the most interesting faults (a forged
/// timeout on a commit that actually landed) need successful commits to
/// bite. Wrong-phase ops are still generated deliberately at a lower
/// rate to keep the server's error paths covered.
pub fn generate(seed: u64) -> RunPlan {
    let mut rng = SplitMix64::new(seed ^ 0xD57_0001);
    let mut steps = Vec::with_capacity(STEPS);
    let mut phase = [[GenPhase::Empty; SLOTS]; CLIENTS];
    for _ in 0..STEPS {
        let client = rng.index(CLIENTS) as u8;
        let slot = rng.index(SLOTS) as u8;
        let p = &mut phase[client as usize][slot as usize];
        let roll = rng.below(100);
        // Set when the op commits a transaction believed validated — the
        // step most likely to produce a *successful* commit, and so the
        // one worth hammering with ambiguity faults.
        let mut commit_live = false;
        // Set when the op is a batch burst on a validated transaction:
        // these steps get their own fault bias so drops, trickles, and
        // resets land on (and mid-way through) pipelined batch frames.
        let mut batch_live = false;
        let op = match *p {
            GenPhase::Empty => match roll {
                0..=79 => {
                    let mut after = Vec::new();
                    let mut before = Vec::new();
                    if rng.below(100) < 30 {
                        let other = rng.index(SLOTS) as u8;
                        if other != slot {
                            if rng.coin() {
                                after.push(other);
                            } else {
                                before.push(other);
                            }
                        }
                    }
                    let strategy = match rng.below(10) {
                        0 => Some(Strategy::GreedyLatest),
                        1 => Some(Strategy::Exhaustive),
                        _ => None,
                    };
                    *p = GenPhase::Defined;
                    OpKind::Open {
                        slot,
                        spec_salt: rng.next_u64() as u32,
                        after,
                        before,
                        strategy,
                        depth: 1 + rng.index(3) as u8,
                    }
                }
                // No-op ops on an empty slot: kept so the shrinker's
                // subset plans stay representative.
                80..=89 => OpKind::Validate { slot },
                90..=94 => OpKind::Commit { slot },
                _ => OpKind::Metrics,
            },
            GenPhase::Defined => match roll {
                0..=49 => {
                    *p = GenPhase::Validated;
                    OpKind::Validate { slot }
                }
                // Wrong-phase probes: the server must reject these
                // without disturbing the transaction.
                50..=59 => OpKind::Read {
                    slot,
                    entity_ix: rng.index(ENTITIES_PER_SHARD) as u8,
                },
                60..=64 => OpKind::Write {
                    slot,
                    entity_ix: rng.index(ENTITIES_PER_SHARD) as u8,
                    value: rng.below(MAX_VALUE as u64 + 1) as i64,
                },
                // A batch on an unvalidated transaction: every per-op
                // result must come back as a typed rejection, never a
                // stream desync.
                65..=69 => OpKind::Batch {
                    slot,
                    ops_salt: rng.next_u64() as u32,
                    len: 1 + rng.index(8) as u8,
                },
                70..=79 => OpKind::Commit { slot },
                80..=89 => {
                    *p = GenPhase::Empty;
                    OpKind::Abort { slot }
                }
                _ => OpKind::Metrics,
            },
            GenPhase::Validated => match roll {
                0..=24 => OpKind::Write {
                    slot,
                    entity_ix: rng.index(ENTITIES_PER_SHARD) as u8,
                    value: rng.below(MAX_VALUE as u64 + 1) as i64,
                },
                25..=54 => {
                    *p = GenPhase::Empty;
                    commit_live = true;
                    OpKind::Commit { slot }
                }
                // The pipelined-batch surface: a burst of reads/writes
                // chunked into in-flight `Batch` frames.
                55..=69 => {
                    batch_live = true;
                    OpKind::Batch {
                        slot,
                        ops_salt: rng.next_u64() as u32,
                        len: 1 + rng.index(8) as u8,
                    }
                }
                70..=79 => OpKind::Read {
                    slot,
                    entity_ix: rng.index(ENTITIES_PER_SHARD) as u8,
                },
                80..=89 => {
                    *p = GenPhase::Empty;
                    OpKind::Abort { slot }
                }
                90..=94 => OpKind::Validate { slot },
                _ => OpKind::Metrics,
            },
        };
        let fault = if rng.below(100) < CRASH_PCT {
            // A power cut can land anywhere; the op itself executes
            // cleanly first, so a crash on a commit step is the classic
            // "acked then killed" durability probe.
            Some(Fault::Crash {
                torn_salt: rng.next_u64() as u32,
            })
        } else if commit_live && rng.below(100) < 40 {
            // The commit of a validated transaction is the one request
            // whose outcome a client must never mis-learn: bias these
            // steps toward the faults that make the outcome ambiguous
            // (forged/real timeouts, lost replies) or doubled.
            Some(match rng.below(4) {
                0 => Fault::ServerTimeoutApplied,
                1 => Fault::ServerTimeoutLost,
                2 => Fault::DropResponse,
                _ => Fault::DupRequest,
            })
        } else if batch_live && rng.below(100) < 35 {
            // Batch frames must survive the exact incidents unit frames
            // do: the directive arms on the burst's *first* frame, so a
            // Reset leaves the rest of the burst writing into a dead
            // connection and a Trickle straddles a frame mid-burst.
            Some(match rng.below(7) {
                0 => Fault::DropRequest,
                1 => Fault::DropResponse,
                2 => Fault::Trickle {
                    chunks: 2 + rng.index(3) as u8,
                    salt: rng.next_u64() as u32,
                },
                3 => Fault::Reset,
                4 => Fault::ServerTimeoutApplied,
                5 => Fault::Starve {
                    ticks: 1 + rng.index(8) as u8,
                },
                _ => Fault::ServerTimeoutLost,
            })
        } else if rng.below(100) < FAULT_PCT {
            Some(match rng.below(8) {
                0 => Fault::DropRequest,
                1 => Fault::DropResponse,
                2 => Fault::DupRequest,
                3 => Fault::Trickle {
                    chunks: 2 + rng.index(3) as u8,
                    salt: rng.next_u64() as u32,
                },
                4 => Fault::ServerTimeoutApplied,
                5 => Fault::ServerTimeoutLost,
                6 => Fault::Starve {
                    ticks: 1 + rng.index(8) as u8,
                },
                _ => Fault::Reset,
            })
        } else {
            None
        };
        // Keep the assumed phases in sync with what the driver will do:
        // a poisoning/reset fault forces a reconnect that wipes every
        // slot of the client, and a server-signalled timeout makes the
        // driver clear (and for unit ops abort) the slot.
        match fault {
            Some(Fault::DropRequest | Fault::DropResponse | Fault::Reset) => {
                phase[client as usize] = [GenPhase::Empty; SLOTS];
            }
            Some(Fault::Crash { .. }) => {
                // The restart severs every connection: all clients lose
                // every slot, not just the acting one.
                phase = [[GenPhase::Empty; SLOTS]; CLIENTS];
            }
            Some(Fault::ServerTimeoutApplied | Fault::ServerTimeoutLost) => {
                if let Some(s) = op.slot() {
                    phase[client as usize][s as usize] = GenPhase::Empty;
                }
            }
            _ => {}
        }
        steps.push(Step { client, op, fault });
    }
    RunPlan { seed, steps }
}

/// Deterministic split positions for a trickled frame of `len` bytes:
/// `chunks − 1` cut points strictly inside the frame, derived from the
/// fault's salt so they never move when unrelated steps are shrunk away.
pub fn trickle_cuts(salt: u32, chunks: u8, len: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(
        u64::from(salt)
            .wrapping_mul(0x9E37)
            .wrapping_add(len as u64),
    );
    let mut cuts: Vec<usize> = Vec::new();
    if len < 2 {
        return cuts;
    }
    for _ in 1..chunks.max(2) {
        let c = 1 + rng.index(len - 1);
        if !cuts.contains(&c) {
            cuts.push(c);
        }
    }
    cuts.sort_unstable();
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate(7), generate(7));
        assert_ne!(generate(7), generate(8));
    }

    #[test]
    fn specs_are_colocated_per_client() {
        for c in 0..CLIENTS {
            let pool = client_entities(c);
            let home = (c % SHARDS) as u32;
            assert!(pool.iter().all(|e| e.0 % SHARDS as u32 == home));
        }
    }

    #[test]
    fn plans_cover_faulted_batch_steps() {
        let mut batches = 0usize;
        let mut faulted = 0usize;
        for seed in 0..20u64 {
            for step in generate(seed).steps {
                if matches!(step.op, OpKind::Batch { .. }) {
                    batches += 1;
                    faulted += usize::from(step.fault.is_some());
                }
            }
        }
        assert!(batches > 0, "generator never emits batch steps");
        assert!(faulted > 0, "no fault ever lands on a batch step");
    }

    #[test]
    fn plans_cover_crash_steps() {
        let mut crashes = 0usize;
        for seed in 0..20u64 {
            crashes += generate(seed)
                .steps
                .iter()
                .filter(|s| matches!(s.fault, Some(Fault::Crash { .. })))
                .count();
        }
        assert!(crashes > 0, "generator never emits crash-restart steps");
    }

    #[test]
    fn plans_cover_starve_steps() {
        let mut starves = 0usize;
        for seed in 0..20u64 {
            for step in generate(seed).steps {
                if let Some(Fault::Starve { ticks }) = step.fault {
                    assert!(ticks >= 1, "a starve must last at least one tick");
                    starves += 1;
                }
            }
        }
        assert!(
            starves > 0,
            "generator never emits readiness-starvation steps"
        );
    }

    #[test]
    fn batch_ops_are_deterministic_and_in_domain() {
        let pool = client_entities(1);
        let ops = batch_ops_for(33, 8, &pool);
        assert_eq!(ops, batch_ops_for(33, 8, &pool));
        assert_eq!(ops.len(), 8);
        for op in &ops {
            match op {
                BatchOp::Read(e) => assert!(pool.contains(e)),
                BatchOp::Write(e, v) => {
                    assert!(pool.contains(e));
                    assert!((0..=MAX_VALUE).contains(v));
                }
            }
        }
    }

    #[test]
    fn trickle_cuts_are_interior_and_sorted() {
        for salt in 0..50u32 {
            let cuts = trickle_cuts(salt, 4, 37);
            assert!(cuts.windows(2).all(|w| w[0] < w[1]));
            assert!(cuts.iter().all(|&c| (1..37).contains(&c)));
            assert_eq!(cuts, trickle_cuts(salt, 4, 37));
        }
    }
}
