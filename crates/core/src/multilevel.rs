//! Multi-level correctness: the paper extends the execution-correctness
//! criterion "to both the ancestors and descendants of a given transaction,
//! thus producing multi-level correctness criteria. More importantly, this
//! correctness criteria can be applied to the root transaction, thus
//! ensuring that the entire database system executes correctly."
//!
//! A [`TreeExecution`] pairs every *internal* node of a transaction tree
//! with an [`Execution`] of its children; [`check_tree`] verifies every
//! level: the node-level execution must be correct (and optionally
//! parent-based), with each internal child's execution checked against that
//! child's own input state as its parent context.

use crate::check::{check, CheckReport};
use crate::{Body, Execution, Transaction};
use ks_kernel::{DatabaseState, Schema};

/// Executions for a whole transaction tree: this node's child-level
/// execution plus, for each child (by index), the child's own subtree
/// execution when the child is internal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeExecution {
    /// The execution `(R, X)` of this node's children.
    pub exec: Execution,
    /// Subtree executions, indexed like the children; `None` for leaves.
    pub children: Vec<Option<TreeExecution>>,
}

/// Per-level verdicts, in preorder (this node first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeReport {
    /// `(node name, report)` pairs in preorder over internal nodes.
    pub levels: Vec<(String, CheckReport)>,
}

impl TreeReport {
    /// Is every level correct?
    pub fn all_correct(&self) -> bool {
        self.levels.iter().all(|(_, r)| r.is_correct())
    }

    /// Is every level correct and parent-based?
    pub fn all_correct_parent_based(&self) -> bool {
        self.levels.iter().all(|(_, r)| r.is_correct_parent_based())
    }

    /// First failing level, if any.
    pub fn first_failure(&self) -> Option<&(String, CheckReport)> {
        self.levels
            .iter()
            .find(|(_, r)| !r.is_correct_parent_based())
    }
}

/// Check a transaction tree at every level. `parent` is the version context
/// of the root node (typically the initial database state); each internal
/// child is checked against the singleton context of its own input state
/// `X(t_i)` — "each state X(t_i) depends upon X(t)".
pub fn check_tree(
    schema: &Schema,
    txn: &Transaction,
    parent: &DatabaseState,
    tree: &TreeExecution,
) -> TreeReport {
    let mut levels = Vec::new();
    go(schema, txn, parent, tree, &mut levels);
    TreeReport { levels }
}

fn go(
    schema: &Schema,
    txn: &Transaction,
    parent: &DatabaseState,
    tree: &TreeExecution,
    out: &mut Vec<(String, CheckReport)>,
) {
    let report = check(schema, txn, parent, &tree.exec);
    out.push((txn.name.to_string(), report));
    for (i, child) in txn.children().iter().enumerate() {
        if let Body::Nested(_) = child.body {
            match tree.children.get(i).and_then(|c| c.as_ref()) {
                Some(sub) if i < tree.exec.inputs.len() => {
                    let child_parent = DatabaseState::singleton(tree.exec.inputs[i].clone());
                    go(schema, child, &child_parent, sub, out);
                }
                _ => {
                    // Missing subtree execution for an internal child:
                    // report an unfixable shape failure at that level.
                    out.push((
                        child.name.to_string(),
                        CheckReport {
                            shape_ok: false,
                            partial_order_ok: false,
                            parent_based: false,
                            inputs_ok: vec![],
                            output_ok: false,
                        },
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Expr, Specification, Step, Transaction, TxnName};
    use ks_kernel::{Domain, EntityId, Schema, UniqueState};
    use ks_predicate::parse_cnf;

    /// Two-level tree: root → design → {bump_x, bump_y}; non-serializable
    /// at the lower level in spirit, correct at every level.
    fn two_level() -> (Schema, Transaction, DatabaseState, TreeExecution) {
        let schema = Schema::uniform(["x", "y"], Domain::Range { min: 0, max: 99 });
        let x = EntityId(0);
        let y = EntityId(1);
        let bump_x = Transaction::leaf(
            TxnName::root(),
            Specification::new(
                parse_cnf(&schema, "x = 5").unwrap(),
                parse_cnf(&schema, "x = 6").unwrap(),
            ),
            vec![Step::Write(x, Expr::Const(6))],
        );
        let bump_y = Transaction::leaf(
            TxnName::root(),
            Specification::new(
                parse_cnf(&schema, "x = 6 & y = 5").unwrap(),
                parse_cnf(&schema, "x = y").unwrap(),
            ),
            vec![Step::Write(y, Expr::Const(6))],
        );
        let design = Transaction::nested(
            TxnName::root(),
            Specification::new(
                parse_cnf(&schema, "x = y").unwrap(),
                parse_cnf(&schema, "x = y").unwrap(),
            ),
            vec![bump_x, bump_y],
            vec![(0, 1)],
        )
        .unwrap();
        let root = Transaction::nested(
            TxnName::root(),
            Specification::classical(&parse_cnf(&schema, "x = y").unwrap()),
            vec![design],
            vec![],
        )
        .unwrap();
        let s55 = UniqueState::new(&schema, vec![5, 5]).unwrap();
        let s65 = UniqueState::new(&schema, vec![6, 5]).unwrap();
        let s66 = UniqueState::new(&schema, vec![6, 6]).unwrap();
        let inner = TreeExecution {
            exec: Execution {
                reads_from: vec![(0, 1)],
                inputs: vec![s55.clone(), s65],
                final_input: s66.clone(),
            },
            children: vec![None, None],
        };
        let outer = TreeExecution {
            exec: Execution {
                reads_from: vec![],
                inputs: vec![s55.clone()],
                final_input: s66,
            },
            children: vec![Some(inner)],
        };
        (schema, root, DatabaseState::singleton(s55), outer)
    }

    #[test]
    fn two_level_tree_checks_at_every_level() {
        let (schema, root, parent, tree) = two_level();
        let report = check_tree(&schema, &root, &parent, &tree);
        assert_eq!(report.levels.len(), 2); // root level + design level
        assert!(report.all_correct(), "{report:?}");
        assert!(report.all_correct_parent_based(), "{report:?}");
        assert!(report.first_failure().is_none());
    }

    #[test]
    fn lower_level_violation_detected() {
        let (schema, root, parent, mut tree) = two_level();
        // Corrupt the inner execution: bump_y's input claims x = 9.
        let bad = UniqueState::new(&schema, vec![9, 5]).unwrap();
        tree.children[0].as_mut().unwrap().exec.inputs[1] = bad;
        let report = check_tree(&schema, &root, &parent, &tree);
        assert!(!report.all_correct());
        let (name, failing) = report.first_failure().unwrap();
        assert_eq!(name, "t.0"); // the design level
        assert!(!failing.inputs_ok[1]);
    }

    #[test]
    fn missing_subtree_execution_reported() {
        let (schema, root, parent, mut tree) = two_level();
        tree.children[0] = None;
        let report = check_tree(&schema, &root, &parent, &tree);
        assert!(!report.all_correct());
        assert_eq!(report.levels.len(), 2);
        assert!(!report.levels[1].1.shape_ok);
    }

    #[test]
    fn upper_level_violation_detected_independently() {
        let (schema, root, parent, mut tree) = two_level();
        // Root's final state breaks the constraint.
        tree.exec.final_input = UniqueState::new(&schema, vec![6, 5]).unwrap();
        let report = check_tree(&schema, &root, &parent, &tree);
        assert!(!report.levels[0].1.output_ok);
        // the design level is still fine
        assert!(report.levels[1].1.is_correct());
    }
}
