//! Strict two-phase locking: the conflict-serializability (CSR)
//! baseline behind the [`Certifier`] trait, and the repo's one 2PL.
//!
//! Shared locks for reads, exclusive for writes, all held to the end of
//! the transaction (strictness), with an upgrade when the requester is
//! the sole reader. A request that conflicts either waits — surfaced as
//! [`ReadOutcome::Blocked`] / [`ProtocolError::WouldBlock`], which the
//! server maps to the retryable `Busy` — or, if waiting would close a
//! cycle in the waits-for graph, dies as the deadlock victim
//! ([`ProtocolError::CertifierAborted`]); the victim is always the
//! requester. Waiting on an `after` predecessor at commit is a waits-for
//! edge like any other.
//!
//! Writes are buffered and installed at commit, so reads only ever see
//! committed data (no cascading aborts) and never the transaction's own
//! buffered writes — the repo-wide assigned-snapshot convention. Under
//! strict 2PL a shared lock freezes the entity, so a pinned read stays
//! the latest committed version until the reader ends: histories are
//! view-equivalent to the commit order, which `verify_history` re-proves
//! offline via the conflict-graph check.

use crate::certifier::{Backend, Certifier};
use crate::history::HistoryVerdict;
use crate::ledger::Ledger;
use crate::manager::{
    CommitOutcome, ProtocolStats, ReadOutcome, Txn, TxnState, ValidationOutcome, WriteReport,
};
use crate::ProtocolError;
use ks_core::Specification;
use ks_kernel::{EntityId, Schema, UniqueState, Value};
use ks_obs::ObsSink;
use ks_predicate::Strategy;
use std::collections::{BTreeMap, BTreeSet};

/// The strict-2PL certifier: one per shard, single-threaded by the
/// shard worker (see [`Certifier`]).
pub struct TplCertifier {
    /// Transaction table, committed chains, ordering gate, counters.
    ledger: Ledger,
    /// Per entity: shared-lock holders.
    shared: Vec<BTreeSet<usize>>,
    /// Per entity: the exclusive-lock holder.
    exclusive: Vec<Option<usize>>,
    /// Blocked transaction → the holders it waits on (recomputed on
    /// every attempt, cleared on grant or termination).
    waits_for: BTreeMap<usize, BTreeSet<usize>>,
}

impl TplCertifier {
    /// A certifier over `schema` with the given initial committed state.
    pub fn new(schema: Schema, initial: &UniqueState) -> Self {
        let ledger = Ledger::new(&schema, initial);
        let n = ledger.entities();
        TplCertifier {
            ledger,
            shared: vec![BTreeSet::new(); n],
            exclusive: vec![None; n],
            waits_for: BTreeMap::new(),
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
            if !self.ledger.is_active(n) || !seen.insert(n) {
                continue;
            }
            if let Some(next) = self.waits_for.get(&n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }

    /// Record that `t` must wait on `blockers` — unless that deadlocks,
    /// in which case `t` dies as the victim.
    fn wait_or_die(&mut self, t: usize, blockers: BTreeSet<usize>) -> Result<(), ProtocolError> {
        if self.would_deadlock(t, &blockers) {
            self.release_all(t);
            self.ledger.stats.reeval_aborts += 1;
            self.ledger.mark_aborted(t);
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
        self.ledger.open(after, before)
    }

    fn validate(
        &mut self,
        txn: Txn,
        _strategy: Strategy,
    ) -> Result<ValidationOutcome, ProtocolError> {
        self.ledger.validate(txn)?;
        Ok(ValidationOutcome::Validated)
    }

    fn read(&mut self, txn: Txn, entity: EntityId) -> Result<ReadOutcome, ProtocolError> {
        self.ledger.require(txn, "read")?;
        let e = self.ledger.entity_ix(entity)?;
        let t = txn.0;
        if let Some(holder) = self.exclusive[e] {
            if holder != t {
                self.wait_or_die(t, BTreeSet::from([holder]))?;
                return Ok(ReadOutcome::Blocked(entity));
            }
        }
        self.shared[e].insert(t);
        self.waits_for.remove(&t);
        // A shared lock freezes the entity: the latest committed version.
        let latest = (self.ledger.chain(e).len() - 1) as u32;
        Ok(ReadOutcome::Value(self.ledger.pin_read(t, entity, latest)))
    }

    fn write(
        &mut self,
        txn: Txn,
        entity: EntityId,
        value: Value,
    ) -> Result<WriteReport, ProtocolError> {
        self.ledger.require(txn, "write")?;
        let e = self.ledger.entity_ix(entity)?;
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
        Ok(WriteReport {
            version: self.ledger.buffer_write(t, entity, value),
            reeval: Vec::new(),
        })
    }

    fn commit(&mut self, txn: Txn) -> Result<CommitOutcome, ProtocolError> {
        self.ledger.require(txn, "commit")?;
        if let Some(p) = self.ledger.pending_pred(txn.0) {
            // Waiting on an ordering predecessor is a waits-for edge too.
            self.wait_or_die(txn.0, BTreeSet::from([p.0]))?;
            return Ok(CommitOutcome::PredecessorsPending(p));
        }
        self.release_all(txn.0);
        self.ledger.commit(txn.0);
        Ok(CommitOutcome::Committed)
    }

    fn abort(&mut self, txn: Txn) -> Result<Vec<Txn>, ProtocolError> {
        self.ledger.require_abortable(txn)?;
        self.release_all(txn.0);
        self.ledger.mark_aborted(txn.0);
        Ok(Vec::new())
    }

    fn state_of(&self, txn: Txn) -> Result<TxnState, ProtocolError> {
        self.ledger.state_of(txn)
    }

    fn txns(&self) -> Vec<Txn> {
        self.ledger.txns()
    }

    fn stats(&self) -> ProtocolStats {
        self.ledger.stats
    }

    fn checkpoint(&self) -> Vec<Value> {
        self.ledger.checkpoint()
    }

    fn attach_obs(&mut self, sink: ObsSink) {
        self.ledger.attach_obs(sink);
    }

    fn verify_history(&self) -> HistoryVerdict {
        self.ledger.verify_history()
    }
}

#[cfg(test)]
impl TplCertifier {
    /// The shared ledger, for tests that check its invariants.
    pub(crate) fn ledger(&self) -> &Ledger {
        &self.ledger
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
    fn an_ordering_wait_that_closes_a_cycle_kills_the_committer() {
        let mut c = tpl(1);
        let t1 = begin(&mut c);
        let t2 = c.open(Specification::trivial(), &[t1], &[]).unwrap();
        c.validate(t2, Strategy::Backtracking).unwrap();
        c.read(t2, EntityId(0)).unwrap();
        // t1 waits on t2's shared lock, while t2 must commit after t1.
        assert_eq!(
            c.write(t1, EntityId(0), 4).unwrap_err(),
            ProtocolError::WouldBlock(EntityId(0))
        );
        let e = c.commit(t2).unwrap_err();
        assert!(matches!(e, ProtocolError::CertifierAborted { .. }), "{e}");
        assert_eq!(c.state_of(t2), Ok(TxnState::Aborted));
        // The victim's shared lock is gone: t1 proceeds.
        c.write(t1, EntityId(0), 4).unwrap();
        assert_eq!(c.commit(t1).unwrap(), CommitOutcome::Committed);
        assert_eq!(c.checkpoint(), vec![4]);
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
}
