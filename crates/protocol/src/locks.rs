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

use std::fmt;

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

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LockMode::ReadValidation => "Rv",
            LockMode::Read => "R",
            LockMode::Write => "W",
        })
    }
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

impl fmt::Display for MatrixEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MatrixEntry::Grant => "true",
            MatrixEntry::Block => "false",
            MatrixEntry::ReEval => "re-eval",
        })
    }
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

/// Render the full matrix as the paper's Figure 3 (for `exp_fig3`).
pub fn figure3_table() -> String {
    use LockMode::*;
    let modes = [ReadValidation, Read, Write];
    let mut out = String::from("held \\ requested |   Rv    |    R    |    W\n");
    out.push_str("-----------------+---------+---------+---------\n");
    for held in modes {
        out.push_str(&format!("{:<17}", format!("{held}")));
        for requested in modes {
            out.push_str(&format!(
                "| {:<8}",
                compatibility(held, requested).to_string()
            ));
        }
        out.push('\n');
    }
    out
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

    #[test]
    fn table_renders_all_nine_entries() {
        let t = figure3_table();
        assert_eq!(t.matches("true").count(), 5);
        assert_eq!(t.matches("false").count(), 2);
        assert_eq!(t.matches("re-eval").count(), 2);
    }
}
