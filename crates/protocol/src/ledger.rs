//! The flat certifiers' shared ledger: what [`crate::ssi::SsiCertifier`]
//! and [`crate::tpl::TplCertifier`] both are underneath their admission
//! rule.
//!
//! Both backends buffer writes and install them at commit, pin each read
//! to one committed version, walk the same `Defined → Validated →
//! Committed | Aborted` phase machine, honour the same `after`/`before`
//! ordering gate and answer the same offline question (is the recorded
//! history conflict-serializable?). That is one mechanism, kept here
//! once and *embedded* by each backend; SSI adds only its snapshot and
//! rw-antidependency bookkeeping, 2PL only its lock table.

use crate::certifier::OrderBook;
use crate::history::{check_serializable, History, HistoryVerdict};
use crate::manager::{ProtocolStats, Txn, TxnState};
use crate::ProtocolError;
use ks_kernel::{EntityId, Schema, UniqueState, Value};
use ks_mvstore::{StoreError, VersionId};
use ks_obs::{ObsKind, ObsSink};
use std::collections::{BTreeMap, BTreeSet};

/// One committed version of one entity. It carries no sequence number:
/// chains are in install order, and a backend that needs a version's
/// commit sequence keeps it on the author.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Version {
    /// Author transaction, `None` for the initial version.
    pub(crate) author: Option<usize>,
    pub(crate) value: Value,
}

#[derive(Debug)]
struct LedgerTxn {
    state: TxnState,
    /// Entity → version index read (pinned by the first granted read).
    reads: BTreeMap<EntityId, u32>,
    /// Buffered writes, installed at commit.
    writes: BTreeMap<EntityId, Value>,
}

/// Transaction table, committed version chains, ordering gate, counters
/// and the decision-trace sink of one flat certifier.
pub(crate) struct Ledger {
    /// Per entity (dense, schema order): the committed version chain.
    chains: Vec<Vec<Version>>,
    txns: Vec<LedgerTxn>,
    /// The transactions not yet committed or aborted — what a backend
    /// scans for concurrent activity, instead of every index ever opened.
    live: BTreeSet<usize>,
    order: OrderBook,
    /// Backends add their own certifier-initiated aborts here.
    pub(crate) stats: ProtocolStats,
    obs: Option<ObsSink>,
}

impl Ledger {
    pub(crate) fn new(schema: &Schema, initial: &UniqueState) -> Self {
        Ledger {
            chains: schema
                .entity_ids()
                .map(|e| {
                    vec![Version {
                        author: None,
                        value: initial.get(e),
                    }]
                })
                .collect(),
            txns: Vec::new(),
            live: BTreeSet::new(),
            order: OrderBook::default(),
            stats: ProtocolStats::default(),
            obs: None,
        }
    }

    pub(crate) fn entities(&self) -> usize {
        self.chains.len()
    }

    fn emit(&self, txn: usize, kind: ObsKind) {
        if let Some(sink) = &self.obs {
            sink.emit(txn as u32, kind);
        }
    }

    pub(crate) fn state_of(&self, t: Txn) -> Result<TxnState, ProtocolError> {
        self.txns
            .get(t.0)
            .map(|n| n.state)
            .ok_or(ProtocolError::UnknownTxn)
    }

    /// Dense index of `e`, or the store's unknown-entity error.
    pub(crate) fn entity_ix(&self, e: EntityId) -> Result<usize, ProtocolError> {
        let ix = e.0 as usize;
        if ix < self.chains.len() {
            Ok(ix)
        } else {
            Err(ProtocolError::Store(StoreError::UnknownEntity(e)))
        }
    }

    /// `t` must be in its execution phase to do `attempted`.
    pub(crate) fn require(&self, t: Txn, attempted: &'static str) -> Result<(), ProtocolError> {
        match self.state_of(t)? {
            TxnState::Validated => Ok(()),
            state => Err(ProtocolError::WrongPhase {
                attempted,
                state: state.label(),
            }),
        }
    }

    pub(crate) fn is_active(&self, t: usize) -> bool {
        matches!(self.txns[t].state, TxnState::Defined | TxnState::Validated)
    }

    pub(crate) fn is_committed(&self, t: usize) -> bool {
        self.txns[t].state == TxnState::Committed
    }

    /// Every transaction index ever opened.
    pub(crate) fn indices(&self) -> std::ops::Range<usize> {
        0..self.txns.len()
    }

    /// The active transactions (`Defined` or `Validated`), ascending.
    pub(crate) fn live(&self) -> impl Iterator<Item = usize> + '_ {
        self.live.iter().copied()
    }

    pub(crate) fn chain(&self, e: usize) -> &[Version] {
        &self.chains[e]
    }

    pub(crate) fn has_buffered_write(&self, t: usize, entity: EntityId) -> bool {
        self.txns[t].writes.contains_key(&entity)
    }

    pub(crate) fn written_entities(&self, t: usize) -> impl Iterator<Item = EntityId> + '_ {
        self.txns[t].writes.keys().copied()
    }

    /// Define a transaction with its ordering edges.
    pub(crate) fn open(&mut self, after: &[Txn], before: &[Txn]) -> Result<Txn, ProtocolError> {
        for h in after.iter().chain(before) {
            if h.0 >= self.txns.len() {
                return Err(ProtocolError::UnknownTxn);
            }
        }
        let t = self.txns.len();
        self.order.define(t, after, before)?;
        self.txns.push(LedgerTxn {
            state: TxnState::Defined,
            reads: BTreeMap::new(),
            writes: BTreeMap::new(),
        });
        self.live.insert(t);
        self.emit(t, ObsKind::TxnBegin);
        Ok(Txn(t))
    }

    /// `Defined → Validated`.
    pub(crate) fn validate(&mut self, txn: Txn) -> Result<(), ProtocolError> {
        let state = self.state_of(txn)?;
        if state != TxnState::Defined {
            return Err(ProtocolError::WrongPhase {
                attempted: "validate",
                state: state.label(),
            });
        }
        self.txns[txn.0].state = TxnState::Validated;
        self.stats.validations += 1;
        self.emit(txn.0, ObsKind::TxnValidated);
        Ok(())
    }

    /// Record a granted read: the first read of an entity pins `index`,
    /// later ones repeat it. Returns the pinned version's value — never
    /// the transaction's own buffered write.
    pub(crate) fn pin_read(&mut self, t: usize, entity: EntityId, index: u32) -> Value {
        let index = *self.txns[t].reads.entry(entity).or_insert(index);
        self.stats.reads += 1;
        self.chains[entity.0 as usize][index as usize].value
    }

    /// Buffer a granted write; the id is where it would install now.
    pub(crate) fn buffer_write(&mut self, t: usize, entity: EntityId, value: Value) -> VersionId {
        self.txns[t].writes.insert(entity, value);
        self.stats.writes += 1;
        VersionId {
            entity,
            index: self.chains[entity.0 as usize].len() as u32,
        }
    }

    /// The commit gate: the first ordering predecessor of `t` that has
    /// not terminated yet.
    pub(crate) fn pending_pred(&self, t: usize) -> Option<Txn> {
        self.order.pending_pred(t, |p| !self.is_active(p)).map(Txn)
    }

    /// Install `t`'s buffered writes and mark it committed.
    pub(crate) fn commit(&mut self, t: usize) {
        for (&entity, &value) in &self.txns[t].writes {
            self.chains[entity.0 as usize].push(Version {
                author: Some(t),
                value,
            });
        }
        self.txns[t].state = TxnState::Committed;
        self.live.remove(&t);
        self.emit(t, ObsKind::TxnCommitted);
    }

    /// Mark `t` aborted; its buffered writes are never installed.
    pub(crate) fn mark_aborted(&mut self, t: usize) {
        self.txns[t].state = TxnState::Aborted;
        self.live.remove(&t);
        self.emit(t, ObsKind::TxnAborted);
    }

    /// A client-requested abort is legal only before termination.
    pub(crate) fn require_abortable(&self, txn: Txn) -> Result<(), ProtocolError> {
        match self.state_of(txn)? {
            TxnState::Defined | TxnState::Validated => Ok(()),
            state => Err(ProtocolError::WrongPhase {
                attempted: "abort",
                state: state.label(),
            }),
        }
    }

    pub(crate) fn txns(&self) -> Vec<Txn> {
        self.indices().map(Txn).collect()
    }

    pub(crate) fn checkpoint(&self) -> Vec<Value> {
        self.chains
            .iter()
            .map(|chain| chain.last().map_or(0, |v| v.value))
            .collect()
    }

    pub(crate) fn attach_obs(&mut self, sink: ObsSink) {
        self.obs = Some(sink);
    }

    /// Conflict-graph acyclicity of everything committed so far.
    pub(crate) fn verify_history(&self) -> HistoryVerdict {
        let committed = || self.indices().filter(|&t| self.is_committed(t));
        check_serializable(&History {
            chains: self
                .chains
                .iter()
                .map(|chain| chain.iter().map(|v| v.author).collect())
                .collect(),
            reads: committed()
                .flat_map(|t| self.txns[t].reads.iter().map(move |(&e, &ix)| (t, e, ix)))
                .collect(),
            committed: committed().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::Ledger;
    use crate::{Certifier, CommitOutcome, ReadOutcome, SsiCertifier, TplCertifier, Txn, TxnState};
    use ks_core::Specification;
    use ks_kernel::{Domain, EntityId, Schema, UniqueState};
    use ks_predicate::Strategy;
    use std::collections::BTreeSet;

    fn both(n: usize) -> [Box<dyn Certifier>; 2] {
        let schema = Schema::uniform(
            (0..n).map(|i| format!("e{i}")),
            Domain::Range {
                min: -1000,
                max: 1000,
            },
        );
        let initial = UniqueState::constant(n, 0);
        [
            Box::new(SsiCertifier::new(schema.clone(), &initial)),
            Box::new(TplCertifier::new(schema, &initial)),
        ]
    }

    fn begin(c: &mut dyn Certifier, after: &[Txn]) -> Txn {
        let t = c.open(Specification::trivial(), after, &[]).unwrap();
        c.validate(t, Strategy::Backtracking).unwrap();
        t
    }

    /// SplitMix64: a seeded op stream for the live-set property.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Drive `c` with a random mix of opens (some ordered after an
    /// earlier transaction), validations, reads, writes, commits and
    /// aborts, checking after every call that the ledger's live set is
    /// exactly `{t | is_active(t)}` — certifier-initiated aborts
    /// (dangerous structures, deadlock victims) included. Errors are
    /// part of the stream: a refused call must leave the set right too.
    fn live_set_tracks_activity<C: Certifier>(mut c: C, ledger: fn(&C) -> &Ledger, seed: u64) {
        let mut rng = seed;
        let mut opened = 0usize;
        for _ in 0..80 {
            let roll = next(&mut rng);
            let pick = |r: u64| Txn((r % opened.max(1) as u64) as usize);
            let target = pick(next(&mut rng));
            let entity = EntityId((next(&mut rng) % 3) as u32);
            match roll % 7 {
                0 | 1 => {
                    let after: Vec<Txn> = if opened > 0 && roll.is_multiple_of(3) {
                        vec![target]
                    } else {
                        Vec::new()
                    };
                    if c.open(Specification::trivial(), &after, &[]).is_ok() {
                        opened += 1;
                    }
                }
                _ if opened == 0 => {}
                2 => drop(c.validate(target, Strategy::Backtracking)),
                3 => drop(c.read(target, entity)),
                4 => drop(c.write(target, entity, (roll % 100) as i64)),
                5 => drop(c.commit(target)),
                _ => drop(c.abort(target)),
            }
            let l = ledger(&c);
            let live: BTreeSet<usize> = l.live().collect();
            let active: BTreeSet<usize> = l.indices().filter(|&t| l.is_active(t)).collect();
            assert_eq!(live, active, "{} seed {seed}", c.backend());
        }
    }

    #[test]
    fn live_set_is_exactly_the_active_transactions() {
        let schema = Schema::uniform(
            (0..3).map(|i| format!("e{i}")),
            Domain::Range {
                min: -1000,
                max: 1000,
            },
        );
        let initial = UniqueState::constant(3, 0);
        for seed in 0..300 {
            let ssi = SsiCertifier::new(schema.clone(), &initial);
            live_set_tracks_activity(ssi, SsiCertifier::ledger, seed);
            let tpl = TplCertifier::new(schema.clone(), &initial);
            live_set_tracks_activity(tpl, TplCertifier::ledger, seed);
        }
    }

    #[test]
    fn ordering_edges_gate_commit() {
        for mut c in both(1) {
            let t1 = begin(&mut *c, &[]);
            let t2 = begin(&mut *c, &[t1]);
            assert_eq!(
                c.commit(t2).unwrap(),
                CommitOutcome::PredecessorsPending(t1),
                "{}",
                c.backend()
            );
            c.commit(t1).unwrap();
            assert_eq!(c.commit(t2).unwrap(), CommitOutcome::Committed);
        }
    }

    #[test]
    fn own_buffered_writes_stay_invisible() {
        for mut c in both(1) {
            let t = begin(&mut *c, &[]);
            c.write(t, EntityId(0), 7).unwrap();
            // Repo-wide convention: reads never observe own uncommitted writes.
            assert_eq!(
                c.read(t, EntityId(0)).unwrap(),
                ReadOutcome::Value(0),
                "{}",
                c.backend()
            );
            assert_eq!(c.checkpoint(), vec![0]);
            c.commit(t).unwrap();
            assert_eq!(c.checkpoint(), vec![7]);
            assert_eq!(c.state_of(t), Ok(TxnState::Committed));
        }
    }
}
