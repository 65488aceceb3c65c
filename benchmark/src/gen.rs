//! Workload generators: a pure function of `(workload, seed, client)` to
//! an unbounded stream of transaction plans.
//!
//! The program under test never sees the seed — only the generated plans.
//! [`workload_hash`] fingerprints a fixed prefix of every client's stream
//! so two commits can be shown to have run byte-identical inputs.

use ks_core::Specification;
use ks_kernel::{EntityId, Value};
use ks_predicate::{Atom, Clause, CmpOp, Cnf};

/// The four workloads, by the names later issues refer to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CpcShort,
    CpcLong,
    TplNet,
    SsiWalWrite,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CpcShort,
        Workload::CpcLong,
        Workload::TplNet,
        Workload::SsiWalWrite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CpcShort => "cpc_short",
            Workload::CpcLong => "cpc_long",
            Workload::TplNet => "2pl_net",
            Workload::SsiWalWrite => "ssi_wal_write",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`: which layer the workload loads.
    pub fn why(self) -> &'static str {
        match self {
            Workload::CpcShort => {
                "CPC in-process, 6-op 60%-read txns: validate+write (version assignment) dominate and grow with history"
            }
            Workload::CpcLong => {
                "CPC, one shard: 64-read long txns against streaming short writers on 8 hot entities; the paper's case, read-dominated"
            }
            Workload::TplNet => {
                "strict 2PL over loopback TCP, per-op calls: certifier is cheap and flat, so ks-net and the queue hop dominate"
            }
            Workload::SsiWalWrite => {
                "SSI with a file WAL (group commit, fsync), 80% writes, then restart: commit wait and ks-wal dominate"
            }
        }
    }

    /// Shards (= worker threads) of the service under test.
    pub fn shards(self) -> usize {
        match self {
            Workload::CpcLong => 1,
            _ => 2,
        }
    }

    /// Entities in the schema (all shards).
    pub fn entities(self) -> usize {
        match self {
            Workload::CpcLong => LONG_HOT,
            _ => SHARD_ENTITIES * 2,
        }
    }

    fn read_pct(self) -> u64 {
        match self {
            Workload::SsiWalWrite => 20,
            _ => 60,
        }
    }
}

/// Closed-loop clients (= connections); `nproc` is 2.
pub const CLIENTS: usize = 2;
/// Entities per shard of the short-transaction workloads.
pub const SHARD_ENTITIES: usize = 64;
/// Reads and writes of one short transaction.
pub const OPS_PER_TXN: usize = 6;
/// Hot-spot skew: this share of a shard's entities…
const HOT_FRACTION_PCT: usize = 25;
/// …draws this share of the accesses.
const HOT_ACCESS_PCT: u64 = 75;
/// `cpc_long`: the hot entities both clients work on.
pub const LONG_HOT: usize = 8;
/// `cpc_long`: reads of one long transaction, round-robin over the hot set.
pub const LONG_READS: usize = 64;
/// `cpc_long`: writes ending a long transaction.
pub const LONG_WRITES: usize = 2;
/// Transactions per client covered by [`workload_hash`].
pub const HASH_PREFIX_TXNS: usize = 2048;

/// SplitMix64: tiny, seedable, and frozen here so the streams never change
/// with a dependency.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁵⁰ for the
    /// small `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One read or write of a plan, in global entity ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Read(EntityId),
    Write(EntityId, Value),
}

impl Op {
    pub fn entity(self) -> EntityId {
        match self {
            Op::Read(e) | Op::Write(e, _) => e,
        }
    }
}

/// One transaction as the generator planned it: the access set its
/// specification names and the calls between `validate` and `commit`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnPlan {
    /// Sorted, deduplicated entities of the specification.
    pub entities: Vec<EntityId>,
    pub ops: Vec<Op>,
    /// A `cpc_long` long transaction (reported apart in the README table).
    pub long: bool,
}

impl TxnPlan {
    /// Tautological input over the access set (places it in `N_t`),
    /// unconstrained output: the workloads measure certification and the
    /// serving path, not predicate evaluation.
    pub fn spec(&self) -> Specification {
        Specification::new(
            Cnf::new(
                self.entities
                    .iter()
                    .map(|&e| Clause::unit(Atom::cmp_const(e, CmpOp::Ge, i64::MIN / 2)))
                    .collect(),
            ),
            Cnf::truth(),
        )
    }
}

/// One client's plan stream.
#[derive(Debug, Clone)]
pub struct ClientGen {
    workload: Workload,
    client: usize,
    rng: Rng,
    /// Plans generated so far (also numbers the written values).
    next: u64,
}

impl ClientGen {
    pub fn new(workload: Workload, seed: u64, client: usize) -> ClientGen {
        // Distinct, seed-dependent streams per client and workload.
        let salt = (client as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93)
            ^ (workload as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
        ClientGen {
            workload,
            client,
            rng: Rng::new(seed ^ salt),
            next: 0,
        }
    }

    /// Values are unique per (client, plan, op) and never 0 (the initial
    /// value), so the last-acked-write check cannot pass by accident.
    fn value(&self, op: usize) -> Value {
        ((self.client as i64 + 1) << 40) + (self.next as i64) * 128 + op as i64 + 1
    }

    pub fn next_plan(&mut self) -> TxnPlan {
        let plan = match self.workload {
            Workload::CpcLong if self.client == 0 => self.long_plan(),
            Workload::CpcLong => self.short_hot_plan(),
            _ => self.short_plan(),
        };
        self.next += 1;
        plan
    }

    /// 6 ops on the client's home shard, hot-spot skewed.
    fn short_plan(&mut self) -> TxnPlan {
        let shards = self.workload.shards();
        let home = self.client % shards;
        let hot = SHARD_ENTITIES * HOT_FRACTION_PCT / 100;
        let mut ops = Vec::with_capacity(OPS_PER_TXN);
        for i in 0..OPS_PER_TXN {
            let local = if self.rng.below(100) < HOT_ACCESS_PCT {
                self.rng.below(hot as u64) as usize
            } else {
                hot + self.rng.below((SHARD_ENTITIES - hot) as u64) as usize
            };
            let entity = EntityId((local * shards + home) as u32);
            ops.push(if self.rng.below(100) < self.workload.read_pct() {
                Op::Read(entity)
            } else {
                Op::Write(entity, self.value(i))
            });
        }
        plan_of(ops, false)
    }

    /// `cpc_long` client 0: 64 reads round-robin over the hot set, then 2
    /// writes to distinct hot entities.
    fn long_plan(&mut self) -> TxnPlan {
        let start = self.rng.below(LONG_HOT as u64) as usize;
        let mut ops: Vec<Op> = (0..LONG_READS)
            .map(|i| Op::Read(EntityId(((start + i) % LONG_HOT) as u32)))
            .collect();
        let first = self.rng.below(LONG_HOT as u64) as usize;
        let second = (first + 1 + self.rng.below(LONG_HOT as u64 - 1) as usize) % LONG_HOT;
        for (i, e) in [first, second].into_iter().enumerate().take(LONG_WRITES) {
            ops.push(Op::Write(EntityId(e as u32), self.value(i)));
        }
        let mut plan = plan_of(ops, true);
        // The long transaction's specification covers the whole hot set.
        plan.entities = (0..LONG_HOT as u32).map(EntityId).collect();
        plan
    }

    /// `cpc_long` client 1: read 2, write 2, over 4 distinct hot entities.
    fn short_hot_plan(&mut self) -> TxnPlan {
        let mut picks: Vec<u32> = (0..LONG_HOT as u32).collect();
        for i in 0..4 {
            let j = i + self.rng.below((LONG_HOT - i) as u64) as usize;
            picks.swap(i, j);
        }
        let ops = vec![
            Op::Read(EntityId(picks[0])),
            Op::Read(EntityId(picks[1])),
            Op::Write(EntityId(picks[2]), self.value(2)),
            Op::Write(EntityId(picks[3]), self.value(3)),
        ];
        plan_of(ops, false)
    }
}

fn plan_of(ops: Vec<Op>, long: bool) -> TxnPlan {
    let mut entities: Vec<EntityId> = ops.iter().map(|o| o.entity()).collect();
    entities.sort_unstable_by_key(|e| e.index());
    entities.dedup();
    TxnPlan {
        entities,
        ops,
        long,
    }
}

/// FNV-1a over the first [`HASH_PREFIX_TXNS`] plans of every client.
pub fn workload_hash(workload: Workload, seed: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for client in 0..CLIENTS {
        let mut gen = ClientGen::new(workload, seed, client);
        for _ in 0..HASH_PREFIX_TXNS {
            let plan = gen.next_plan();
            eat(plan.entities.len() as u64);
            for e in &plan.entities {
                eat(e.index() as u64);
            }
            for op in &plan.ops {
                match *op {
                    Op::Read(e) => eat(e.index() as u64),
                    Op::Write(e, v) => {
                        eat(1 << 32 | e.index() as u64);
                        eat(v as u64);
                    }
                }
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix(workload: Workload, seed: u64, client: usize, n: usize) -> Vec<TxnPlan> {
        let mut gen = ClientGen::new(workload, seed, client);
        (0..n).map(|_| gen.next_plan()).collect()
    }

    #[test]
    fn same_seed_same_stream() {
        for w in Workload::ALL {
            assert_eq!(prefix(w, 7, 0, 200), prefix(w, 7, 0, 200), "{}", w.name());
            assert_eq!(workload_hash(w, 7), workload_hash(w, 7));
        }
    }

    #[test]
    fn seeds_clients_and_workloads_differ() {
        for w in Workload::ALL {
            assert_ne!(prefix(w, 7, 0, 50), prefix(w, 8, 0, 50), "{}", w.name());
            assert_ne!(prefix(w, 7, 0, 50), prefix(w, 7, 1, 50), "{}", w.name());
            assert_ne!(workload_hash(w, 7), workload_hash(w, 8));
        }
        assert_ne!(
            workload_hash(Workload::CpcShort, 7),
            workload_hash(Workload::TplNet, 7)
        );
    }

    #[test]
    fn short_plans_stay_on_the_home_shard_with_the_stated_mix() {
        for (w, want_reads) in [(Workload::CpcShort, 0.60), (Workload::SsiWalWrite, 0.20)] {
            for client in 0..CLIENTS {
                let plans = prefix(w, 3, client, 4000);
                let mut reads = 0usize;
                let mut hot = 0usize;
                for p in &plans {
                    assert_eq!(p.ops.len(), OPS_PER_TXN);
                    for op in &p.ops {
                        let e = op.entity().index();
                        assert_eq!(e % w.shards(), client, "home shard");
                        assert!(e < w.entities());
                        assert!(p.entities.contains(&op.entity()));
                        reads += matches!(op, Op::Read(_)) as usize;
                        hot += (e / w.shards() < SHARD_ENTITIES / 4) as usize;
                    }
                }
                let n = (plans.len() * OPS_PER_TXN) as f64;
                assert!((reads as f64 / n - want_reads).abs() < 0.02, "{}", w.name());
                assert!((hot as f64 / n - 0.75).abs() < 0.02, "{}", w.name());
            }
        }
    }

    #[test]
    fn long_plans_have_the_stated_shape() {
        for p in prefix(Workload::CpcLong, 5, 0, 100) {
            assert!(p.long);
            assert_eq!(p.entities.len(), LONG_HOT);
            assert_eq!(p.ops.len(), LONG_READS + LONG_WRITES);
            let writes: Vec<_> = p.ops[LONG_READS..].iter().map(|o| o.entity()).collect();
            assert!(p.ops[..LONG_READS].iter().all(|o| matches!(o, Op::Read(_))));
            assert_ne!(writes[0], writes[1]);
        }
        for p in prefix(Workload::CpcLong, 5, 1, 100) {
            assert!(!p.long);
            assert_eq!(p.entities.len(), 4, "four distinct hot entities");
        }
    }

    #[test]
    fn written_values_are_unique_and_nonzero() {
        let mut seen = std::collections::BTreeSet::new();
        for client in 0..CLIENTS {
            for p in prefix(Workload::SsiWalWrite, 11, client, 2000) {
                for op in p.ops {
                    if let Op::Write(_, v) = op {
                        assert!(v != 0 && seen.insert(v));
                    }
                }
            }
        }
    }
}
