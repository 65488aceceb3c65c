//! Serializable snapshot isolation, after the TLA+ spec the repo tracks
//! in SNIPPETS.md (Cahill-style dangerous-structure detection).
//!
//! Every transaction reads from the snapshot it acquired at validation
//! (the committed state as of that instant) and buffers its writes until
//! commit. Three rules keep the result serializable:
//!
//! - **First-committer-wins**: a commit installing a write over a
//!   version committed after the writer's snapshot aborts.
//! - **SIREAD locks persist after commit**: a reader's footprint stays
//!   visible so a later concurrent writer still produces the
//!   rw-antidependency edge.
//! - **Dangerous structures abort**: a transaction holding both an
//!   incoming and an outgoing rw-antidependency (`in_conflict ∧
//!   out_conflict`) is a potential pivot of a non-serializable cycle
//!   and is aborted — or, when the pivot already committed, the active
//!   transaction that completed the structure is.
//!
//! With detection disabled ([`SsiCertifier::new_with_detection`]) the
//! backend degrades to plain snapshot isolation, which famously admits
//! write skew — the deliberate defect the offline history checker
//! ([`crate::history`]) must catch, proven by `exp_certifier --teeth`.
//!
//! Reads never observe the transaction's own buffered writes, matching
//! the repo-wide execution model (the CPC manager's assigned-version
//! reads); the recorded history reflects that, so the offline checker
//! sees exactly what the clients saw.

use crate::certifier::{Backend, Certifier};
use crate::history::HistoryVerdict;
use crate::ledger::Ledger;
use crate::manager::{
    CommitOutcome, ProtocolStats, ReEvalAction, ReadOutcome, Txn, TxnState, ValidationOutcome,
    WriteReport,
};
use crate::ProtocolError;
use ks_core::Specification;
use ks_kernel::{EntityId, Schema, UniqueState, Value};
use ks_obs::ObsSink;
use ks_predicate::Strategy;
use std::collections::BTreeSet;

/// What SSI keeps per transaction on top of the shared ledger entry.
#[derive(Debug, Default, Clone, Copy)]
struct SsiTxn {
    /// Snapshot bound: versions committed at `seq <= snapshot` are visible.
    snapshot: u64,
    /// Commit sequence, once committed — also the sequence of every
    /// version this transaction authored.
    commit_seq: u64,
    /// Incoming rw-antidependency observed.
    in_conflict: bool,
    /// Outgoing rw-antidependency observed.
    out_conflict: bool,
}

impl SsiTxn {
    fn dangerous(&self) -> bool {
        self.in_conflict && self.out_conflict
    }
}

/// The SSI certifier: one per shard, driven single-threaded by the
/// shard worker (see [`Certifier`]).
pub struct SsiCertifier {
    /// Transaction table, committed chains (in commit-sequence order),
    /// ordering gate, counters.
    ledger: Ledger,
    /// Indexed like the ledger's transactions.
    txns: Vec<SsiTxn>,
    /// Per entity: SIREAD holders — active readers plus committed
    /// readers not yet reclaimed (they persist past commit by design).
    sireads: Vec<BTreeSet<usize>>,
    /// Last assigned commit sequence (initial versions hold 0).
    seq: u64,
    /// Dangerous-structure detection; `false` = plain SI (write skew
    /// admitted — for proving the offline checker has teeth).
    detect: bool,
    /// Terminal events since the last SIREAD reclamation sweep.
    since_gc: usize,
}

impl SsiCertifier {
    /// A certifier over `schema` with the given initial committed state.
    pub fn new(schema: Schema, initial: &UniqueState) -> Self {
        Self::new_with_detection(schema, initial, true)
    }

    /// Like [`SsiCertifier::new`], with dangerous-structure detection
    /// switchable. Disabling it is **deliberately unsafe** (plain SI):
    /// it exists so tests can prove the offline history checker catches
    /// the resulting write skew.
    pub fn new_with_detection(schema: Schema, initial: &UniqueState, detect: bool) -> Self {
        let ledger = Ledger::new(&schema, initial);
        SsiCertifier {
            sireads: vec![BTreeSet::new(); ledger.entities()],
            ledger,
            txns: Vec::new(),
            seq: 0,
            detect,
            since_gc: 0,
        }
    }

    /// Is detection on? (Surfaced so servers can refuse to advertise a
    /// knowingly-broken certifier as serializable in production paths.)
    pub fn detection(&self) -> bool {
        self.detect
    }

    /// Commit sequence of a version: its author's, 0 for the initial one.
    fn seq_of(&self, author: Option<usize>) -> u64 {
        author.map_or(0, |a| self.txns[a].commit_seq)
    }

    /// Abort `t` internally: buffered writes vanish, SIREADs release.
    fn do_abort(&mut self, t: usize) {
        for set in &mut self.sireads {
            set.remove(&t);
        }
        self.ledger.stats.reeval_aborts += 1;
        self.ledger.mark_aborted(t);
    }

    /// Record the rw-antidependency `reader ⟶ writer` and apply the
    /// dangerous-structure rule. Victims other than `this` are aborted
    /// in place and pushed onto `others`; returns `Err` iff `this`
    /// itself must die (the caller propagates `CertifierAborted`).
    fn mark_rw(
        &mut self,
        reader: usize,
        writer: usize,
        this: usize,
        others: &mut Vec<usize>,
    ) -> Result<(), ProtocolError> {
        if reader == writer {
            return Ok(());
        }
        self.txns[reader].out_conflict = true;
        self.txns[writer].in_conflict = true;
        let mut doomed_self = false;
        for pivot in [reader, writer] {
            if !self.txns[pivot].dangerous() {
                continue;
            }
            if self.ledger.is_active(pivot) {
                if pivot == this {
                    doomed_self = true;
                } else {
                    self.do_abort(pivot);
                    others.push(pivot);
                }
            } else if self.ledger.is_committed(pivot) {
                // The pivot already committed — too late to abort it;
                // the active transaction completing the structure dies.
                doomed_self = true;
            }
        }
        if doomed_self {
            self.do_abort(this);
            return Err(ProtocolError::CertifierAborted {
                reason: "dangerous structure (rw-antidependency pair)",
            });
        }
        Ok(())
    }

    /// Reclaim SIREAD locks of committed readers that can no longer be
    /// concurrent with anything: their commit precedes every active
    /// snapshot (and any future one, which starts at the current seq).
    fn gc_sireads(&mut self) {
        self.since_gc += 1;
        if self.since_gc < 256 {
            return;
        }
        self.since_gc = 0;
        let oldest_active = self
            .ledger
            .live()
            .map(|t| self.txns[t].snapshot)
            .min()
            .unwrap_or(self.seq);
        let (ledger, txns) = (&self.ledger, &self.txns);
        for set in &mut self.sireads {
            set.retain(|&t| ledger.is_active(t) || txns[t].commit_seq > oldest_active);
        }
    }
}

impl Certifier for SsiCertifier {
    fn backend(&self) -> Backend {
        Backend::Ssi
    }

    fn open(
        &mut self,
        _spec: Specification,
        after: &[Txn],
        before: &[Txn],
    ) -> Result<Txn, ProtocolError> {
        let t = self.ledger.open(after, before)?;
        self.txns.push(SsiTxn::default());
        Ok(t)
    }

    fn validate(
        &mut self,
        txn: Txn,
        _strategy: Strategy,
    ) -> Result<ValidationOutcome, ProtocolError> {
        self.ledger.validate(txn)?;
        self.txns[txn.0].snapshot = self.seq;
        Ok(ValidationOutcome::Validated)
    }

    fn read(&mut self, txn: Txn, entity: EntityId) -> Result<ReadOutcome, ProtocolError> {
        self.ledger.require(txn, "read")?;
        let e = self.ledger.entity_ix(entity)?;
        let t = txn.0;
        let snapshot = self.txns[t].snapshot;
        // Snapshot read: the newest version at or under the bound. The
        // chain is in commit-sequence order, so partition_point finds it
        // directly.
        let chain = self.ledger.chain(e);
        let visible = chain.partition_point(|v| self.seq_of(v.author) <= snapshot);
        debug_assert!(visible > 0, "initial version is always visible");
        // Committed versions past the snapshot: each is a writer this
        // read antidepends on.
        let newer: Vec<usize> = chain[visible..].iter().filter_map(|v| v.author).collect();
        let value = self.ledger.pin_read(t, entity, (visible - 1) as u32);
        self.sireads[e].insert(t);
        if self.detect {
            let mut others = Vec::new();
            for w in newer {
                self.mark_rw(t, w, t, &mut others)?;
            }
            // Active writers with this entity in their buffered write
            // set will produce the same edge when they commit.
            let writers: Vec<usize> = self
                .ledger
                .live()
                .filter(|&w| w != t && self.ledger.has_buffered_write(w, entity))
                .collect();
            for w in writers {
                self.mark_rw(t, w, t, &mut others)?;
            }
        }
        Ok(ReadOutcome::Value(value))
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
        let version = self.ledger.buffer_write(t, entity, value);
        let mut others = Vec::new();
        if self.detect {
            let snapshot = self.txns[t].snapshot;
            // Every SIREAD holder concurrent with this writer gains an
            // outgoing edge onto it: active readers, and committed
            // readers whose commit this writer's snapshot cannot see.
            let readers: Vec<usize> = self.sireads[e]
                .iter()
                .copied()
                .filter(|&r| {
                    r != t
                        && (self.ledger.is_active(r)
                            || (self.ledger.is_committed(r) && self.txns[r].commit_seq > snapshot))
                })
                .collect();
            for r in readers {
                self.mark_rw(r, t, t, &mut others)?;
            }
        }
        Ok(WriteReport {
            version,
            reeval: others
                .into_iter()
                .map(|v| ReEvalAction::Aborted(Txn(v)))
                .collect(),
        })
    }

    fn commit(&mut self, txn: Txn) -> Result<CommitOutcome, ProtocolError> {
        self.ledger.require(txn, "commit")?;
        let t = txn.0;
        if let Some(p) = self.ledger.pending_pred(t) {
            return Ok(CommitOutcome::PredecessorsPending(p));
        }
        // First-committer-wins: a version committed past our snapshot on
        // anything we wrote means a concurrent writer beat us. This is
        // plain SI's write-write rule — it applies even with
        // dangerous-structure detection off.
        let snapshot = self.txns[t].snapshot;
        let fcw_loss = self.ledger.written_entities(t).any(|e| {
            self.ledger
                .chain(e.0 as usize)
                .last()
                .is_some_and(|v| self.seq_of(v.author) > snapshot)
        });
        if fcw_loss {
            self.do_abort(t);
            self.gc_sireads();
            return Err(ProtocolError::CertifierAborted {
                reason: "first-committer-wins (concurrent committed writer)",
            });
        }
        if self.detect && self.txns[t].dangerous() {
            self.do_abort(t);
            self.gc_sireads();
            return Err(ProtocolError::CertifierAborted {
                reason: "dangerous structure (rw-antidependency pair)",
            });
        }
        self.seq += 1;
        self.txns[t].commit_seq = self.seq;
        self.ledger.commit(t);
        self.gc_sireads();
        Ok(CommitOutcome::Committed)
    }

    fn abort(&mut self, txn: Txn) -> Result<Vec<Txn>, ProtocolError> {
        self.ledger.require_abortable(txn)?;
        self.do_abort(txn.0);
        // Client-requested aborts are not certifier aborts.
        self.ledger.stats.reeval_aborts -= 1;
        self.gc_sireads();
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
impl SsiCertifier {
    /// The shared ledger, for tests that check its invariants.
    pub(crate) fn ledger(&self) -> &Ledger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_kernel::Domain;

    fn ssi(n: usize, detect: bool) -> SsiCertifier {
        let schema = Schema::uniform(
            (0..n).map(|i| format!("e{i}")),
            Domain::Range {
                min: -1000,
                max: 1000,
            },
        );
        let initial = UniqueState::constant(n, 0);
        SsiCertifier::new_with_detection(schema, &initial, detect)
    }

    fn begin(c: &mut SsiCertifier) -> Txn {
        let t = c.open(Specification::trivial(), &[], &[]).unwrap();
        c.validate(t, Strategy::Backtracking).unwrap();
        t
    }

    #[test]
    fn snapshot_reads_ignore_later_commits() {
        let mut c = ssi(2, true);
        let t1 = begin(&mut c);
        let t2 = begin(&mut c);
        c.write(t2, EntityId(0), 7).unwrap();
        c.commit(t2).unwrap();
        // t1's snapshot predates t2's commit.
        assert_eq!(c.read(t1, EntityId(0)).unwrap(), ReadOutcome::Value(0));
    }

    #[test]
    fn first_committer_wins_even_without_detection() {
        let mut c = ssi(1, false);
        let t1 = begin(&mut c);
        let t2 = begin(&mut c);
        c.write(t1, EntityId(0), 1).unwrap();
        c.write(t2, EntityId(0), 2).unwrap();
        c.commit(t1).unwrap();
        let e = c.commit(t2).unwrap_err();
        assert!(matches!(e, ProtocolError::CertifierAborted { .. }), "{e}");
        assert_eq!(c.state_of(t2), Ok(TxnState::Aborted));
        assert_eq!(c.checkpoint(), vec![1]);
    }

    #[test]
    fn write_skew_aborts_with_detection_on() {
        // t1 reads x,y writes x; t2 reads x,y writes y. Disjoint write
        // sets pass FCW; the rw pair makes a dangerous structure.
        let mut c = ssi(2, true);
        let t1 = begin(&mut c);
        let t2 = begin(&mut c);
        c.read(t1, EntityId(0)).unwrap();
        c.read(t1, EntityId(1)).unwrap();
        c.read(t2, EntityId(0)).unwrap();
        c.read(t2, EntityId(1)).unwrap();
        let r1 = c.write(t1, EntityId(0), 1).map(|_| ());
        let r2 = c.write(t2, EntityId(1), 1).map(|_| ());
        let survivors = [
            r1.is_ok() && c.state_of(t1) != Ok(TxnState::Aborted),
            r2.is_ok() && c.state_of(t2) != Ok(TxnState::Aborted),
        ];
        let mut committed = 0;
        for (t, alive) in [t1, t2].into_iter().zip(survivors) {
            if alive && c.commit(t).is_ok() {
                committed += 1;
            }
        }
        assert!(committed < 2, "write skew must not fully commit");
        let v = c.verify_history();
        assert!(v.is_correct(), "{v:?}");
    }

    #[test]
    fn write_skew_slips_through_without_detection_and_the_checker_catches_it() {
        let mut c = ssi(2, false);
        let t1 = begin(&mut c);
        let t2 = begin(&mut c);
        c.read(t1, EntityId(0)).unwrap();
        c.read(t1, EntityId(1)).unwrap();
        c.read(t2, EntityId(0)).unwrap();
        c.read(t2, EntityId(1)).unwrap();
        c.write(t1, EntityId(0), 1).unwrap();
        c.write(t2, EntityId(1), 1).unwrap();
        assert_eq!(c.commit(t1).unwrap(), CommitOutcome::Committed);
        assert_eq!(c.commit(t2).unwrap(), CommitOutcome::Committed);
        let v = c.verify_history();
        assert!(!v.is_correct(), "plain SI admitted write skew silently");
        assert!(v.violations[0].contains("cycle"), "{:?}", v.violations);
        assert_eq!(v.committed, 2);
    }

    #[test]
    fn siread_locks_persist_after_commit() {
        // Reader commits first; a concurrent writer must still see the
        // rw edge (this is the case plain "abort on active readers only"
        // implementations miss).
        let mut c = ssi(2, true);
        let t1 = begin(&mut c); // will be the pivot: in + out
        let t2 = begin(&mut c);
        // t2 reads e0 and commits: its SIREAD persists.
        c.read(t2, EntityId(0)).unwrap();
        c.write(t2, EntityId(1), 5).unwrap();
        c.commit(t2).unwrap();
        // t1 (concurrent with t2: snapshot predates t2's commit) reads
        // e1 → out-edge t1→t2... and then writes e0: edge t2→t1 would
        // make the *committed* t2 a pivot? No: t2 has out=∅. Instead t1
        // gains in_conflict from t2's persisted SIREAD, and out_conflict
        // from reading e1 under t2's later commit — dangerous, t1 dies.
        c.read(t1, EntityId(1)).unwrap(); // rw t1→t2 (t2 committed e1 past t1's snapshot)
        let r = c.write(t1, EntityId(0), 9); // rw t2→t1 via persisted SIREAD
        assert!(
            matches!(r, Err(ProtocolError::CertifierAborted { .. })),
            "{r:?}"
        );
        assert_eq!(c.state_of(t1), Ok(TxnState::Aborted));
        assert!(c.verify_history().is_correct());
    }

    #[test]
    fn aborted_transaction_surfaces_via_state_and_explicit_abort_is_clean() {
        let mut c = ssi(1, true);
        let t = begin(&mut c);
        c.write(t, EntityId(0), 3).unwrap();
        c.abort(t).unwrap();
        assert_eq!(c.state_of(t), Ok(TxnState::Aborted));
        assert_eq!(c.checkpoint(), vec![0], "buffered writes vanish");
        assert_eq!(c.stats().reeval_aborts, 0, "client abort ≠ certifier abort");
        assert!(matches!(c.abort(t), Err(ProtocolError::WrongPhase { .. })));
    }
}
