//! Executions `(R, X)` of a nested transaction.
//!
//! An execution assigns each subtransaction an input version state `X(t_i)`
//! and records a reads-from relation `R` over the subtransactions. The
//! pseudo-transaction `t_f` reads the whole database; its input `X(t_f)` is
//! the execution's final state.
//!
//! The parent's own input `X(t)` is represented as a [`DatabaseState`](ks_kernel::DatabaseState): the
//! set of versions available to this level before any child runs. (For the
//! classical single-version embedding this is a singleton; for the Lemma 1
//! reduction it is the two-state database `{all-0, all-1}`.)

use ks_kernel::UniqueState;

/// An execution of a nested transaction at one level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Execution {
    /// The relation `R`: `(j, i)` means child `i` reads from child `j`.
    pub reads_from: Vec<(usize, usize)>,
    /// `X(t_i)`: one input version state per child, indexed like the
    /// transaction's children. (Version states are unique states drawn from
    /// the available versions — see `check::is_parent_based`.)
    pub inputs: Vec<UniqueState>,
    /// `X(t_f)`: the final pseudo-transaction's input — the final state.
    pub final_input: UniqueState,
}

impl Execution {
    /// Number of children covered.
    pub fn num_children(&self) -> usize {
        self.inputs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_child_per_input() {
        let e = Execution {
            reads_from: vec![(0, 2), (1, 2), (0, 1)],
            inputs: vec![
                UniqueState::constant(1, 0),
                UniqueState::constant(1, 0),
                UniqueState::constant(1, 0),
            ],
            final_input: UniqueState::constant(1, 0),
        };
        assert_eq!(e.num_children(), 3);
    }
}
