//! The Figure 3 lock compatibility matrix.
//!
//! Three lock modes on entities (never on individual versions):
//!
//! * `R_v` — read-for-validation, taken during validation on every entity
//!   of the input set, protecting the version assignment;
//! * `R` — read, the upgrade of `R_v` performed by an actual read;
//! * `W` — write, held only for the duration of the write operation.
//!
//! The matrix (held mode × requested mode):
//!
//! | held \ requested | `R_v` | `R` | `W` |
//! |---|---|---|---|
//! | `R_v` | grant | grant | **re-eval** |
//! | `R`   | grant | grant | **re-eval** |
//! | `W`   | block | block | grant |
//!
//! Reading the paper's prose: a grant "occurs except when a read operation
//! conflicts with a write"; a *blocked* transaction waits only briefly
//! ("write locks are held only for the duration of the write operation");
//! *re-eval* means the write is granted — "a write request … can never
//! fail" — but the read-side holder "should be interrupted and its input
//! constraint … re-evaluated based on the new version written by one of
//! its predecessors" (Figure 4). Two writes never conflict: each creates
//! its own version.
//!
//! [`compatibility`] is the matrix as a function, and this module's unit
//! tests assert all nine cells. The manager enacts the same entries:
//! `read` and `validate` return `Blocked` on a held `W`, and `write` runs
//! `re-eval` on the read-side holders (the scenarios in
//! `tests/scenarios.rs` drive each branch).

/// The three lock modes of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockMode {
    /// `R_v`: read-for-validation.
    ReadValidation,
    /// `R`: read.
    Read,
    /// `W`: write (momentary).
    Write,
}

/// An entry of the compatibility matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixEntry {
    /// "true": grant immediately.
    Grant,
    /// "false": the requester blocks (only ever briefly — on a `W`).
    Block,
    /// "re-eval": grant the (write) request and interrupt the read-side
    /// holder for input-constraint re-evaluation.
    ReEval,
}

/// The Figure 3 compatibility function: what happens when `requested` is
/// asked for while `held` is held by another transaction.
pub fn compatibility(held: LockMode, requested: LockMode) -> MatrixEntry {
    use LockMode::*;
    match (held, requested) {
        // read-side holders never conflict with read-side requests
        (ReadValidation | Read, ReadValidation | Read) => MatrixEntry::Grant,
        // a write arriving at read-side holders: granted + re-eval them
        (ReadValidation | Read, Write) => MatrixEntry::ReEval,
        // read-side requests against a (momentary) write: block
        (Write, ReadValidation | Read) => MatrixEntry::Block,
        // writes never conflict: each creates a fresh version
        (Write, Write) => MatrixEntry::Grant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::*;
    use MatrixEntry::*;

    #[test]
    fn read_side_mutually_compatible() {
        for held in [ReadValidation, Read] {
            for req in [ReadValidation, Read] {
                assert_eq!(compatibility(held, req), Grant);
            }
        }
    }

    #[test]
    fn writes_trigger_reeval_on_read_holders() {
        assert_eq!(compatibility(ReadValidation, Write), ReEval);
        assert_eq!(compatibility(Read, Write), ReEval);
    }

    #[test]
    fn reads_block_on_held_write() {
        assert_eq!(compatibility(Write, ReadValidation), Block);
        assert_eq!(compatibility(Write, Read), Block);
    }

    #[test]
    fn writes_never_conflict_with_writes() {
        assert_eq!(compatibility(Write, Write), Grant);
    }
}
