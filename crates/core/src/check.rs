//! The execution checkers: the *static* view of Section 3 — given a
//! complete `(R, X)`, decide its properties.
//!
//! * [`respects_partial_order`] — the defining constraint of an execution:
//!   `(t_i, t_j) ∈ P⁺ ⇒ (t_j, t_i) ∉ R⁺`;
//! * [`is_parent_based`] — every input value comes from the parent's state
//!   or from an `R`-predecessor's output;
//! * [`is_correct`] — every child's input predicate holds on its input and
//!   the parent's output predicate holds on `X(t_f)`;
//! * [`CheckReport`] — all of the above with per-child diagnostics.

use crate::{Execution, ModelError, Transaction};
use ks_kernel::{DatabaseState, EntityId, Schema, UniqueState};
use ks_schedule::DiGraph;
use std::collections::BTreeSet;

/// Detailed verdict over one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Shape matches the transaction (one input per child).
    pub shape_ok: bool,
    /// `R` does not contradict `P`.
    pub partial_order_ok: bool,
    /// Every input value traceable to parent state or `R`-predecessor.
    pub parent_based: bool,
    /// Per-child: does `I_{t_i}(X(t_i))` hold?
    pub inputs_ok: Vec<bool>,
    /// Does `O_t(X(t_f))` hold?
    pub output_ok: bool,
}

impl CheckReport {
    /// Is the execution correct in the paper's sense (input predicates and
    /// output predicate all hold, and `(R, X)` is a well-formed execution)?
    pub fn is_correct(&self) -> bool {
        self.shape_ok
            && self.partial_order_ok
            && self.inputs_ok.iter().all(|&b| b)
            && self.output_ok
    }

    /// Correct *and* parent-based — what the Section 5 protocol guarantees
    /// (Lemma 4 + Theorem 2).
    pub fn is_correct_parent_based(&self) -> bool {
        self.is_correct() && self.parent_based
    }
}

/// Does `R` avoid contradicting the partial order?
/// (`(i, j) ∈ P⁺ ⇒ (j, i) ∉ R⁺`.) `R⁺` is searched only from the
/// children something precedes in `P⁺`, never materialized: an unordered
/// history of any length costs nothing here.
pub fn respects_partial_order(txn: &Transaction, exec: &Execution) -> bool {
    let n = txn.children().len();
    let p = match txn.partial_order_graph() {
        Some(g) => g.transitive_closure(),
        None => return exec.inputs.is_empty(),
    };
    let mut r = DiGraph::new(n);
    for &(a, b) in &exec.reads_from {
        if a >= n || b >= n {
            return false;
        }
        r.add_edge(a, b);
    }
    let ordered_after: BTreeSet<usize> = p.edges().map(|(_, j)| j).collect();
    ordered_after
        .into_iter()
        .all(|j| r.reachable_from(j).into_iter().all(|i| !p.has_edge(i, j)))
}

/// Is the execution parent-based? For each child `i` and entity `e`, the
/// input value must equal some version of `e` in the parent's state, or the
/// output value `t_j(X(t_j))(e)` of some `R`-predecessor `j`. The final
/// state is held to the same standard, with every child counting as a
/// predecessor of `t_f`.
pub fn is_parent_based(
    schema: &Schema,
    txn: &Transaction,
    parent: &DatabaseState,
    exec: &Execution,
) -> Result<bool, ModelError> {
    let children = txn.children();
    if exec.inputs.len() != children.len() {
        return Err(ModelError::ExecutionShapeMismatch(format!(
            "{} inputs for {} children",
            exec.inputs.len(),
            children.len()
        )));
    }
    // Child outputs, computed once.
    let mut outputs: Vec<UniqueState> = Vec::with_capacity(children.len());
    for (c, input) in children.iter().zip(&exec.inputs) {
        outputs.push(c.apply(schema, input)?);
    }
    let from_parent = |e: EntityId, v| parent.states().iter().any(|s| s.get(e) == v);
    for (i, input) in exec.inputs.iter().enumerate() {
        let sources: Vec<usize> = exec.sources_of(i).collect();
        for e in schema.entity_ids() {
            let v = input.get(e);
            let ok = from_parent(e, v) || sources.iter().any(|&j| outputs[j].get(e) == v);
            if !ok {
                return Ok(false);
            }
        }
    }
    // Final state: parent or any child's output.
    for e in schema.entity_ids() {
        let v = exec.final_input.get(e);
        let ok = from_parent(e, v) || outputs.iter().any(|o| o.get(e) == v);
        if !ok {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Full check of an execution against a transaction and parent state.
pub fn check(
    schema: &Schema,
    txn: &Transaction,
    parent: &DatabaseState,
    exec: &Execution,
) -> CheckReport {
    let children = txn.children();
    let shape_ok = exec.inputs.len() == children.len();
    let partial_order_ok = respects_partial_order(txn, exec);
    let parent_based = if shape_ok {
        is_parent_based(schema, txn, parent, exec).unwrap_or(false)
    } else {
        false
    };
    let inputs_ok = children
        .iter()
        .zip(&exec.inputs)
        .map(|(c, input)| c.spec.input_holds(input))
        .collect();
    let output_ok = txn.spec.output_holds(&exec.final_input);
    CheckReport {
        shape_ok,
        partial_order_ok,
        parent_based,
        inputs_ok,
        output_ok,
    }
}

/// Convenience: is the execution correct?
pub fn is_correct(
    schema: &Schema,
    txn: &Transaction,
    parent: &DatabaseState,
    exec: &Execution,
) -> bool {
    check(schema, txn, parent, exec).is_correct()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Expr, Specification, Step, TxnName};
    use ks_kernel::Domain;
    use ks_predicate::parse_cnf;

    fn schema() -> Schema {
        Schema::uniform(["x", "y"], Domain::Range { min: 0, max: 99 })
    }

    /// The cooperation scenario from Section 2.3: child 0 breaks the
    /// constraint x = y by incrementing x; child 1 repairs it by
    /// incrementing y. Neither is individually consistency-preserving, yet
    /// the execution is correct.
    fn cooperation() -> (Schema, Transaction, DatabaseState, Execution) {
        let schema = schema();
        let x = EntityId(0);
        let y = EntityId(1);
        let c0 = Transaction::leaf(
            TxnName::root(),
            Specification::new(
                parse_cnf(&schema, "x = y").unwrap(),
                parse_cnf(&schema, "x = y + 1").unwrap_or_else(|_| {
                    // `y + 1` is not atom syntax; encode as x > y instead
                    parse_cnf(&schema, "x > y").unwrap()
                }),
            ),
            vec![Step::Write(x, Expr::plus_const(x, 1))],
        );
        let c1 = Transaction::leaf(
            TxnName::root(),
            Specification::new(
                parse_cnf(&schema, "x > y").unwrap(),
                parse_cnf(&schema, "x = y").unwrap(),
            ),
            vec![Step::Write(y, Expr::plus_const(y, 1))],
        );
        let root = Transaction::nested(
            TxnName::root(),
            Specification::new(
                parse_cnf(&schema, "x = y").unwrap(),
                parse_cnf(&schema, "x = y").unwrap(),
            ),
            vec![c0, c1],
            vec![(0, 1)],
        )
        .unwrap();
        let initial = UniqueState::new(&schema, vec![5, 5]).unwrap();
        let parent = DatabaseState::singleton(initial.clone());
        // X(c0) = (5,5); c0 outputs (6,5). X(c1) = (6,5); outputs (6,6).
        let exec = Execution {
            reads_from: vec![(0, 1)],
            inputs: vec![initial, UniqueState::new(&schema, vec![6, 5]).unwrap()],
            final_input: UniqueState::new(&schema, vec![6, 6]).unwrap(),
        };
        (schema, root, parent, exec)
    }

    #[test]
    fn cooperation_execution_is_correct_and_parent_based() {
        let (schema, root, parent, exec) = cooperation();
        let report = check(&schema, &root, &parent, &exec);
        assert!(report.shape_ok && report.partial_order_ok);
        assert!(report.parent_based, "{report:?}");
        assert_eq!(report.inputs_ok, vec![true, true]);
        assert!(report.output_ok);
        assert!(report.is_correct_parent_based());
    }

    #[test]
    fn violated_input_predicate_detected() {
        let (schema, root, parent, mut exec) = cooperation();
        // Hand c1 an input where x = y: its precondition x > y fails.
        exec.inputs[1] = UniqueState::new(&schema, vec![5, 5]).unwrap();
        let report = check(&schema, &root, &parent, &exec);
        assert_eq!(report.inputs_ok, vec![true, false]);
        assert!(!report.is_correct());
    }

    #[test]
    fn violated_output_predicate_detected() {
        let (schema, root, parent, mut exec) = cooperation();
        exec.final_input = UniqueState::new(&schema, vec![6, 5]).unwrap();
        let report = check(&schema, &root, &parent, &exec);
        assert!(!report.output_ok);
        assert!(!report.is_correct());
    }

    #[test]
    fn partial_order_violation_detected() {
        let (schema, root, parent, mut exec) = cooperation();
        // P says child 0 before child 1; R claiming 1 → 0 contradicts it.
        exec.reads_from = vec![(1, 0)];
        let report = check(&schema, &root, &parent, &exec);
        assert!(!report.partial_order_ok);
        assert!(!report.is_correct());
    }

    #[test]
    fn non_parent_based_value_detected() {
        let (schema, root, parent, mut exec) = cooperation();
        // 42 appears in no parent version and no child output.
        exec.inputs[1] = UniqueState::new(&schema, vec![42, 5]).unwrap();
        let report = check(&schema, &root, &parent, &exec);
        assert!(!report.parent_based);
    }

    #[test]
    fn value_from_non_predecessor_not_parent_based() {
        let (schema, root, parent, mut exec) = cooperation();
        // Remove the R edge: c1's x = 6 now has no source.
        exec.reads_from = vec![];
        let report = check(&schema, &root, &parent, &exec);
        assert!(!report.parent_based);
        // correctness (predicate satisfaction) is independent of R edges:
        assert!(report.is_correct());
        assert!(!report.is_correct_parent_based());
    }

    #[test]
    fn shape_mismatch_reported() {
        let (schema, root, parent, mut exec) = cooperation();
        exec.inputs.pop();
        let report = check(&schema, &root, &parent, &exec);
        assert!(!report.shape_ok);
        assert!(!report.is_correct());
        assert!(matches!(
            is_parent_based(&schema, &root, &parent, &exec),
            Err(ModelError::ExecutionShapeMismatch(_))
        ));
    }

    #[test]
    fn multi_version_parent_state_accepted() {
        // Parent state with two versions of x: a child may read either.
        let schema = schema();
        let x = EntityId(0);
        let child = Transaction::leaf(
            TxnName::root(),
            Specification::new(parse_cnf(&schema, "x = 7").unwrap(), Cnf::truth()),
            vec![Step::Read(x)],
        );
        use ks_predicate::Cnf;
        let root = Transaction::nested(
            TxnName::root(),
            Specification::trivial(),
            vec![child],
            vec![],
        )
        .unwrap();
        let parent = DatabaseState::from_states(vec![
            UniqueState::new(&schema, vec![3, 0]).unwrap(),
            UniqueState::new(&schema, vec![7, 1]).unwrap(),
        ])
        .unwrap();
        // Mixed version state (x from v2, y from v1) — legal in V_S.
        let exec = Execution {
            reads_from: vec![],
            inputs: vec![UniqueState::new(&schema, vec![7, 0]).unwrap()],
            final_input: UniqueState::new(&schema, vec![7, 0]).unwrap(),
        };
        let report = check(&schema, &root, &parent, &exec);
        assert!(report.is_correct_parent_based(), "{report:?}");
    }
}
