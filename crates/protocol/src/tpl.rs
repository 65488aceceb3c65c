//! Strict two-phase locking: the conflict-serializability (CSR)
//! baseline behind the [`Certifier`] trait, adapted from the standalone
//! scheduler in `crates/baselines`.
//!
//! Shared locks for reads, exclusive for writes, all held to the end of
//! the transaction (strictness), with an upgrade when the requester is
//! the sole reader. A request that conflicts either waits — surfaced as
//! [`ReadOutcome::Blocked`] / [`ProtocolError::WouldBlock`], which the
//! server maps to the retryable `Busy` — or, if waiting would close a
//! cycle in the waits-for graph, dies as the deadlock victim
//! ([`ProtocolError::CertifierAborted`]); the victim is always the
//! requester, matching `crates/baselines`.
//!
//! Writes are buffered and installed at commit, so reads only ever see
//! committed data (no cascading aborts) and never the transaction's own
//! buffered writes — the repo-wide assigned-snapshot convention. Under
//! strict 2PL a shared lock freezes the entity, so a pinned read stays
//! the latest committed version until the reader ends: histories are
//! view-equivalent to the commit order, which `verify_history` re-proves
//! offline via the conflict-graph check.

use crate::certifier::{Backend, Certifier, OrderBook};
use crate::history::{check_serializable, History, HistoryVerdict};
use crate::manager::{
    CommitOutcome, ProtocolStats, ReadOutcome, Txn, TxnState, ValidationOutcome, WriteReport,
};
use crate::ProtocolError;
use ks_core::Specification;
use ks_kernel::{EntityId, Schema, UniqueState, Value};
use ks_mvstore::{StoreError, VersionId};
use ks_obs::{ObsKind, ObsSink};
use ks_predicate::Strategy;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone, Copy)]
struct CommittedVersion {
    /// Author transaction, `None` for the initial version.
    author: Option<usize>,
    value: Value,
}

#[derive(Debug)]
struct TplTxn {
    state: TxnState,
    /// Entity → version index read (pinned by the first granted read).
    reads: BTreeMap<EntityId, u32>,
    /// Buffered writes, installed at commit.
    writes: BTreeMap<EntityId, Value>,
}

impl TplTxn {
    fn active(&self) -> bool {
        matches!(self.state, TxnState::Defined | TxnState::Validated)
    }
}

/// The strict-2PL certifier: one per shard, single-threaded by the
/// shard worker (see [`Certifier`]).
pub struct TplCertifier {
    schema: Schema,
    /// Per entity (dense, schema order): committed version chain.
    chains: Vec<Vec<CommittedVersion>>,
    /// Per entity: shared-lock holders.
    shared: Vec<BTreeSet<usize>>,
    /// Per entity: the exclusive-lock holder.
    exclusive: Vec<Option<usize>>,
    txns: Vec<TplTxn>,
    order: OrderBook,
    /// Blocked transaction → the holders it waits on (recomputed on
    /// every attempt, cleared on grant or termination).
    waits_for: BTreeMap<usize, BTreeSet<usize>>,
    stats: ProtocolStats,
    obs: Option<ObsSink>,
}

impl TplCertifier {
    /// A certifier over `schema` with the given initial committed state.
    pub fn new(schema: Schema, initial: &UniqueState) -> Self {
        let chains = schema
            .entity_ids()
            .map(|e| {
                vec![CommittedVersion {
                    author: None,
                    value: initial.get(e),
                }]
            })
            .collect::<Vec<_>>();
        let n = chains.len();
        TplCertifier {
            schema,
            chains,
            shared: vec![BTreeSet::new(); n],
            exclusive: vec![None; n],
            txns: Vec::new(),
            order: OrderBook::default(),
            waits_for: BTreeMap::new(),
            stats: ProtocolStats::default(),
            obs: None,
        }
    }

    fn emit(&self, txn: usize, kind: ObsKind) {
        if let Some(sink) = &self.obs {
            sink.emit(txn as u32, kind);
        }
    }

    fn node(&self, t: Txn) -> Result<&TplTxn, ProtocolError> {
        self.txns.get(t.0).ok_or(ProtocolError::UnknownTxn)
    }

    fn entity_ix(&self, e: EntityId) -> Result<usize, ProtocolError> {
        let ix = e.0 as usize;
        if ix < self.chains.len() {
            Ok(ix)
        } else {
            Err(ProtocolError::Store(StoreError::UnknownEntity(e)))
        }
    }

    fn require(&self, t: Txn, attempted: &'static str) -> Result<(), ProtocolError> {
        match self.node(t)?.state {
            TxnState::Validated => Ok(()),
            state => Err(ProtocolError::WrongPhase {
                attempted,
                state: state.label(),
            }),
        }
    }

    /// Would `t` waiting on `blockers` close a waits-for cycle? DFS from
    /// each blocker through the recorded (active-only) wait edges,
    /// looking for a path back to `t`.
    fn would_deadlock(&self, t: usize, blockers: &BTreeSet<usize>) -> bool {
        let mut stack: Vec<usize> = blockers.iter().copied().collect();
        let mut seen = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if n == t {
                return true;
            }
            if !self.txns[n].active() || !seen.insert(n) {
                continue;
            }
            if let Some(next) = self.waits_for.get(&n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }

    /// Record that `t` must wait on `blockers` — unless that deadlocks,
    /// in which case `t` dies as the victim (the baselines policy).
    fn wait_or_die(&mut self, t: usize, blockers: BTreeSet<usize>) -> Result<(), ProtocolError> {
        if self.would_deadlock(t, &blockers) {
            self.do_abort(t);
            return Err(ProtocolError::CertifierAborted {
                reason: "deadlock victim (waits-for cycle)",
            });
        }
        self.waits_for.insert(t, blockers);
        Ok(())
    }

    /// Drop every lock and wait edge `t` holds.
    fn release_all(&mut self, t: usize) {
        for set in &mut self.shared {
            set.remove(&t);
        }
        for x in &mut self.exclusive {
            if *x == Some(t) {
                *x = None;
            }
        }
        self.waits_for.remove(&t);
    }

    /// Abort `t` internally (deadlock victim).
    fn do_abort(&mut self, t: usize) {
        self.txns[t].state = TxnState::Aborted;
        self.release_all(t);
        self.stats.reeval_aborts += 1;
        self.emit(t, ObsKind::TxnAborted);
    }
}

impl Certifier for TplCertifier {
    fn backend(&self) -> Backend {
        Backend::TwoPl
    }

    fn open(
        &mut self,
        _spec: Specification,
        after: &[Txn],
        before: &[Txn],
    ) -> Result<Txn, ProtocolError> {
        for h in after.iter().chain(before) {
            if h.0 >= self.txns.len() {
                return Err(ProtocolError::UnknownTxn);
            }
        }
        let t = self.txns.len();
        self.order.define(t, after, before)?;
        self.txns.push(TplTxn {
            state: TxnState::Defined,
            reads: BTreeMap::new(),
            writes: BTreeMap::new(),
        });
        self.emit(t, ObsKind::TxnBegin);
        Ok(Txn(t))
    }

    fn validate(
        &mut self,
        txn: Txn,
        _strategy: Strategy,
    ) -> Result<ValidationOutcome, ProtocolError> {
        let state = self.node(txn)?.state;
        if state != TxnState::Defined {
            return Err(ProtocolError::WrongPhase {
                attempted: "validate",
                state: state.label(),
            });
        }
        self.txns[txn.0].state = TxnState::Validated;
        self.stats.validations += 1;
        self.emit(txn.0, ObsKind::TxnValidated);
        Ok(ValidationOutcome::Validated)
    }

    fn read(&mut self, txn: Txn, entity: EntityId) -> Result<ReadOutcome, ProtocolError> {
        self.require(txn, "read")?;
        let e = self.entity_ix(entity)?;
        let t = txn.0;
        if let Some(holder) = self.exclusive[e] {
            if holder != t {
                self.wait_or_die(t, BTreeSet::from([holder]))?;
                return Ok(ReadOutcome::Blocked(entity));
            }
        }
        self.shared[e].insert(t);
        self.waits_for.remove(&t);
        let index = (self.chains[e].len() - 1) as u32;
        let index = *self.txns[t].reads.entry(entity).or_insert(index);
        self.stats.reads += 1;
        Ok(ReadOutcome::Value(self.chains[e][index as usize].value))
    }

    fn write(
        &mut self,
        txn: Txn,
        entity: EntityId,
        value: Value,
    ) -> Result<WriteReport, ProtocolError> {
        self.require(txn, "write")?;
        let e = self.entity_ix(entity)?;
        let t = txn.0;
        let mut blockers: BTreeSet<usize> = self.shared[e].iter().copied().collect();
        blockers.remove(&t); // sole-reader upgrade is allowed
        if let Some(holder) = self.exclusive[e] {
            if holder != t {
                blockers.insert(holder);
            }
        }
        if !blockers.is_empty() {
            self.wait_or_die(t, blockers)?;
            return Err(ProtocolError::WouldBlock(entity));
        }
        self.shared[e].remove(&t); // upgrade consumes the shared lock
        self.exclusive[e] = Some(t);
        self.waits_for.remove(&t);
        self.txns[t].writes.insert(entity, value);
        self.stats.writes += 1;
        Ok(WriteReport {
            version: VersionId {
                entity,
                index: self.chains[e].len() as u32,
            },
            reeval: Vec::new(),
        })
    }

    fn commit(&mut self, txn: Txn) -> Result<CommitOutcome, ProtocolError> {
        self.require(txn, "commit")?;
        let t = txn.0;
        let txns = &self.txns;
        if let Some(p) = self.order.pending_pred(t, |p| {
            matches!(txns[p].state, TxnState::Committed | TxnState::Aborted)
        }) {
            return Ok(CommitOutcome::PredecessorsPending(Txn(p)));
        }
        let writes = std::mem::take(&mut self.txns[t].writes);
        for (&entity, &value) in &writes {
            self.chains[entity.0 as usize].push(CommittedVersion {
                author: Some(t),
                value,
            });
        }
        self.txns[t].writes = writes;
        self.txns[t].state = TxnState::Committed;
        self.release_all(t);
        self.emit(t, ObsKind::TxnCommitted);
        Ok(CommitOutcome::Committed)
    }

    fn abort(&mut self, txn: Txn) -> Result<Vec<Txn>, ProtocolError> {
        match self.node(txn)?.state {
            TxnState::Defined | TxnState::Validated => {
                self.txns[txn.0].state = TxnState::Aborted;
                self.release_all(txn.0);
                self.emit(txn.0, ObsKind::TxnAborted);
                Ok(Vec::new())
            }
            state => Err(ProtocolError::WrongPhase {
                attempted: "abort",
                state: state.label(),
            }),
        }
    }

    fn state_of(&self, txn: Txn) -> Result<TxnState, ProtocolError> {
        Ok(self.node(txn)?.state)
    }

    fn txns(&self) -> Vec<Txn> {
        (0..self.txns.len()).map(Txn).collect()
    }

    fn stats(&self) -> ProtocolStats {
        self.stats
    }

    fn checkpoint(&self) -> Vec<Value> {
        self.chains
            .iter()
            .map(|chain| chain.last().map_or(0, |v| v.value))
            .collect()
    }

    fn attach_obs(&mut self, sink: ObsSink) {
        self.obs = Some(sink);
    }

    fn verify_history(&self) -> HistoryVerdict {
        let _ = &self.schema; // schema fixes the entity order the chains use
        let history = History {
            chains: self
                .chains
                .iter()
                .map(|chain| chain.iter().map(|v| v.author).collect())
                .collect(),
            reads: self
                .txns
                .iter()
                .enumerate()
                .filter(|(_, n)| matches!(n.state, TxnState::Committed))
                .flat_map(|(t, n)| n.reads.iter().map(move |(&e, &ix)| (t, e, ix)))
                .collect(),
            committed: self
                .txns
                .iter()
                .enumerate()
                .filter(|(_, n)| matches!(n.state, TxnState::Committed))
                .map(|(t, _)| t)
                .collect(),
        };
        check_serializable(&history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_kernel::Domain;

    fn tpl(n: usize) -> TplCertifier {
        let schema = Schema::uniform(
            (0..n).map(|i| format!("e{i}")),
            Domain::Range {
                min: -1000,
                max: 1000,
            },
        );
        TplCertifier::new(schema, &UniqueState::constant(n, 0))
    }

    fn begin(c: &mut TplCertifier) -> Txn {
        let t = c.open(Specification::trivial(), &[], &[]).unwrap();
        c.validate(t, Strategy::Backtracking).unwrap();
        t
    }

    #[test]
    fn readers_share_and_writers_exclude() {
        let mut c = tpl(1);
        let t1 = begin(&mut c);
        let t2 = begin(&mut c);
        assert_eq!(c.read(t1, EntityId(0)).unwrap(), ReadOutcome::Value(0));
        assert_eq!(c.read(t2, EntityId(0)).unwrap(), ReadOutcome::Value(0));
        // t1 cannot upgrade while t2 shares.
        assert_eq!(
            c.write(t1, EntityId(0), 5).unwrap_err(),
            ProtocolError::WouldBlock(EntityId(0))
        );
        c.commit(t2).unwrap();
        // Sole reader now: the upgrade goes through and commits.
        c.write(t1, EntityId(0), 5).unwrap();
        c.commit(t1).unwrap();
        assert_eq!(c.checkpoint(), vec![5]);
        assert!(c.verify_history().is_correct());
    }

    #[test]
    fn readers_block_behind_a_writer_until_commit() {
        let mut c = tpl(1);
        let t1 = begin(&mut c);
        let t2 = begin(&mut c);
        c.write(t1, EntityId(0), 9).unwrap();
        // Buffered: a blocked-then-retried reader never sees dirty data.
        assert_eq!(
            c.read(t2, EntityId(0)).unwrap(),
            ReadOutcome::Blocked(EntityId(0))
        );
        c.commit(t1).unwrap();
        assert_eq!(c.read(t2, EntityId(0)).unwrap(), ReadOutcome::Value(9));
        c.commit(t2).unwrap();
        let v = c.verify_history();
        assert!(v.is_correct(), "{v:?}");
        assert_eq!(v.committed, 2);
    }

    #[test]
    fn own_buffered_writes_stay_invisible() {
        let mut c = tpl(1);
        let t = begin(&mut c);
        c.write(t, EntityId(0), 7).unwrap();
        // Repo-wide convention: reads never observe own uncommitted writes.
        assert_eq!(c.read(t, EntityId(0)).unwrap(), ReadOutcome::Value(0));
        assert_eq!(c.checkpoint(), vec![0]);
        c.commit(t).unwrap();
        assert_eq!(c.checkpoint(), vec![7]);
    }

    #[test]
    fn deadlock_kills_the_requester() {
        let mut c = tpl(2);
        let t1 = begin(&mut c);
        let t2 = begin(&mut c);
        c.write(t1, EntityId(0), 1).unwrap();
        c.write(t2, EntityId(1), 2).unwrap();
        // t1 waits on t2's exclusive…
        assert_eq!(
            c.write(t1, EntityId(1), 3).unwrap_err(),
            ProtocolError::WouldBlock(EntityId(1))
        );
        // …so t2 requesting t1's entity closes the cycle: t2 is victim.
        let e = c.write(t2, EntityId(0), 4).unwrap_err();
        assert!(matches!(e, ProtocolError::CertifierAborted { .. }), "{e}");
        assert_eq!(c.state_of(t2), Ok(TxnState::Aborted));
        assert_eq!(c.stats().reeval_aborts, 1);
        // The victim's locks are gone: t1 proceeds.
        c.write(t1, EntityId(1), 3).unwrap();
        c.commit(t1).unwrap();
        assert_eq!(c.checkpoint(), vec![1, 3]);
        assert!(c.verify_history().is_correct());
    }

    #[test]
    fn aborting_a_blocked_holder_unblocks_the_waiter() {
        let mut c = tpl(1);
        let t1 = begin(&mut c);
        let t2 = begin(&mut c);
        c.write(t1, EntityId(0), 3).unwrap();
        assert_eq!(
            c.read(t2, EntityId(0)).unwrap(),
            ReadOutcome::Blocked(EntityId(0))
        );
        c.abort(t1).unwrap();
        // The abort discarded t1's buffered write.
        assert_eq!(c.read(t2, EntityId(0)).unwrap(), ReadOutcome::Value(0));
        c.commit(t2).unwrap();
        assert_eq!(c.checkpoint(), vec![0]);
    }

    #[test]
    fn ordering_edges_gate_commit() {
        let mut c = tpl(1);
        let t1 = begin(&mut c);
        let t2 = c.open(Specification::trivial(), &[t1], &[]).unwrap();
        c.validate(t2, Strategy::Backtracking).unwrap();
        assert_eq!(
            c.commit(t2).unwrap(),
            CommitOutcome::PredecessorsPending(t1)
        );
        c.commit(t1).unwrap();
        assert_eq!(c.commit(t2).unwrap(), CommitOutcome::Committed);
    }
}
