//! Transactions, actions and operations of the standard model.

use ks_kernel::EntityId;
use std::fmt;

/// Identifier of a flat transaction in a schedule. Displayed 1-based
/// (`t1`, `t2`, …) to match the paper's examples; stored 0-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u32);

impl TxnId {
    /// 0-based index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0 + 1)
    }
}

/// The two primitive actions of the standard model. (The paper notes richer
/// basic operations — increment, design updates — are possible; the classes
/// of Section 4 are defined over reads and writes.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Read an entity.
    Read,
    /// Write (create a new version of) an entity.
    Write,
}

impl Action {
    /// Do two actions on the same entity conflict under the standard model?
    /// (At least one must be a write.)
    #[inline]
    pub fn conflicts_with(self, other: Action) -> bool {
        matches!((self, other), (Action::Write, _) | (_, Action::Write))
    }
}

/// One step of a schedule: a transaction performing an action on an entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Op {
    /// Acting transaction.
    pub txn: TxnId,
    /// Read or write.
    pub action: Action,
    /// Target entity.
    pub entity: EntityId,
}

impl Op {
    /// A read step.
    pub fn read(txn: TxnId, entity: EntityId) -> Op {
        Op {
            txn,
            action: Action::Read,
            entity,
        }
    }

    /// A write step.
    pub fn write(txn: TxnId, entity: EntityId) -> Op {
        Op {
            txn,
            action: Action::Write,
            entity,
        }
    }

    /// Do two operations conflict (same entity, different transactions, at
    /// least one write)?
    pub fn conflicts_with(&self, other: &Op) -> bool {
        self.entity == other.entity
            && self.txn != other.txn
            && self.action.conflicts_with(other.action)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = match self.action {
            Action::Read => "R",
            Action::Write => "W",
        };
        write!(f, "{a}{}({})", self.txn.0 + 1, self.entity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    #[test]
    fn conflicts_require_write_same_entity_distinct_txn() {
        let r1 = Op::read(TxnId(0), e(0));
        let w2 = Op::write(TxnId(1), e(0));
        let r2 = Op::read(TxnId(1), e(0));
        let w2y = Op::write(TxnId(1), e(1));
        let w1 = Op::write(TxnId(0), e(0));
        assert!(r1.conflicts_with(&w2));
        assert!(w2.conflicts_with(&r1));
        assert!(!r1.conflicts_with(&r2)); // read-read
        assert!(!r1.conflicts_with(&w2y)); // different entity
        assert!(!w1.conflicts_with(&w1)); // same transaction
        assert!(w1.conflicts_with(&w2)); // write-write
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Op::read(TxnId(0), e(0)).to_string(), "R1(e0)");
        assert_eq!(Op::write(TxnId(1), e(3)).to_string(), "W2(e3)");
        assert_eq!(TxnId(2).to_string(), "t3");
    }
}
