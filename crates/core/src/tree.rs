//! Nested transaction trees: implementations `(T, P)` with specifications.
//!
//! "A transaction can contain either database access statements, or it can
//! create subtransactions, however, it cannot do both" — enforced by
//! [`Body`] being an enum. Leaves hold primitive [`Step`]s; internal nodes
//! hold children plus a partial order `P` over them.

use crate::{Expr, ModelError, Specification, TxnName};
use ks_kernel::{EntityId, Schema, UniqueState};
use ks_schedule::DiGraph;
use std::collections::BTreeSet;

/// A primitive database operation — a leaf of Figure 1's tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Read an entity (the value becomes available to later writes through
    /// the input state).
    Read(EntityId),
    /// Write an entity with the value of an expression evaluated over the
    /// transaction's input state *updated by its own earlier writes*.
    Write(EntityId, Expr),
}

/// The implementation of a transaction: primitive steps, or subtransactions
/// under a partial order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// A leaf-level transaction: a sequence of primitive steps.
    Leaf(Vec<Step>),
    /// An internal transaction: children plus partial order.
    Nested(Nested),
}

/// Children and their partial order `P` (pairs of child indices,
/// `(before, after)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nested {
    /// Subtransactions, in creation order (their index is their name suffix).
    pub children: Vec<Transaction>,
    /// `P`: (i, j) means child i must precede child j.
    pub order: Vec<(usize, usize)>,
}

/// A transaction `(T, P, I_t, O_t)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Hierarchical name (Figure 1 style).
    pub name: TxnName,
    /// The specification `(I_t, O_t)`.
    pub spec: Specification,
    /// The implementation.
    pub body: Body,
}

impl Transaction {
    /// A leaf transaction.
    pub fn leaf(name: TxnName, spec: Specification, steps: Vec<Step>) -> Transaction {
        Transaction {
            name,
            spec,
            body: Body::Leaf(steps),
        }
    }

    /// A nested transaction. Children are renamed to `name.<index>` so the
    /// tree's names are always consistent with its shape.
    pub fn nested(
        name: TxnName,
        spec: Specification,
        mut children: Vec<Transaction>,
        order: Vec<(usize, usize)>,
    ) -> Result<Transaction, ModelError> {
        for (i, c) in children.iter_mut().enumerate() {
            c.rename(name.child(i as u32));
        }
        for &(a, b) in &order {
            let n = children.len();
            if a >= n || b >= n {
                return Err(ModelError::OrderIndexOutOfRange(a.max(b)));
            }
        }
        let t = Transaction {
            name,
            spec,
            body: Body::Nested(Nested { children, order }),
        };
        if t.partial_order_graph()
            .map(|g| g.has_cycle())
            .unwrap_or(false)
        {
            return Err(ModelError::CyclicPartialOrder);
        }
        Ok(t)
    }

    fn rename(&mut self, name: TxnName) {
        self.name = name.clone();
        if let Body::Nested(n) = &mut self.body {
            for (i, c) in n.children.iter_mut().enumerate() {
                c.rename(name.child(i as u32));
            }
        }
    }

    /// The children, if nested.
    pub fn children(&self) -> &[Transaction] {
        match &self.body {
            Body::Leaf(_) => &[],
            Body::Nested(n) => &n.children,
        }
    }

    /// The partial order as a graph over child indices (`None` for leaves).
    pub fn partial_order_graph(&self) -> Option<DiGraph> {
        match &self.body {
            Body::Leaf(_) => None,
            Body::Nested(n) => {
                let mut g = DiGraph::new(n.children.len());
                for &(a, b) in &n.order {
                    g.add_edge(a, b);
                }
                Some(g)
            }
        }
    }

    /// Is this a leaf (database-access) transaction?
    pub fn is_leaf(&self) -> bool {
        matches!(self.body, Body::Leaf(_))
    }

    /// Entities read anywhere in the subtree (leaf `Read` steps plus
    /// entities consumed by write expressions).
    pub fn read_set(&self) -> BTreeSet<EntityId> {
        let mut out = BTreeSet::new();
        self.collect_reads(&mut out);
        out
    }

    fn collect_reads(&self, out: &mut BTreeSet<EntityId>) {
        match &self.body {
            Body::Leaf(steps) => {
                for s in steps {
                    match s {
                        Step::Read(e) => {
                            out.insert(*e);
                        }
                        Step::Write(_, expr) => out.extend(expr.entities()),
                    }
                }
            }
            Body::Nested(n) => {
                for c in &n.children {
                    c.collect_reads(out);
                }
            }
        }
    }

    /// The update set `U_t`: entities written anywhere in the subtree.
    /// (`F_t`, the fixed-point set, is the complement `E − U_t`.)
    pub fn update_set(&self) -> BTreeSet<EntityId> {
        let mut out = BTreeSet::new();
        self.collect_writes(&mut out);
        out
    }

    fn collect_writes(&self, out: &mut BTreeSet<EntityId>) {
        match &self.body {
            Body::Leaf(steps) => {
                for s in steps {
                    if let Step::Write(e, _) = s {
                        out.insert(*e);
                    }
                }
            }
            Body::Nested(n) => {
                for c in &n.children {
                    c.collect_writes(out);
                }
            }
        }
    }

    /// The fixed-point set `F_t = E − U_t` for a schema.
    pub fn fixed_point_set(&self, schema: &Schema) -> BTreeSet<EntityId> {
        let updates = self.update_set();
        schema
            .entity_ids()
            .filter(|e| !updates.contains(e))
            .collect()
    }

    /// The object set `t̃`: the union of the subtransactions' output-predicate
    /// objects (Section 3.1's definition based on `Õ_{t_i}`).
    pub fn object_set(&self) -> BTreeSet<EntityId> {
        self.children()
            .iter()
            .flat_map(|c| {
                c.spec
                    .output
                    .objects()
                    .into_iter()
                    .flat_map(|o| o.entities().iter().copied().collect::<Vec<_>>())
            })
            .collect()
    }

    /// Number of nodes in the subtree (including this one).
    pub fn num_nodes(&self) -> usize {
        1 + self.children().iter().map(|c| c.num_nodes()).sum::<usize>()
    }

    /// Depth of the subtree (leaf = 1).
    pub fn depth(&self) -> usize {
        1 + self.children().iter().map(|c| c.depth()).max().unwrap_or(0)
    }

    /// All descendant names in preorder.
    pub fn names(&self) -> Vec<TxnName> {
        let mut out = vec![self.name.clone()];
        for c in self.children() {
            out.extend(c.names());
        }
        out
    }

    /// Run the transaction **in isolation** on `input`, producing the
    /// resulting unique state — the mapping `t : D → D^U` of Section 3.1,
    /// restricted to a chosen version state.
    ///
    /// Leaves apply their writes in order, each seeing earlier own-writes;
    /// nested transactions run their children in the deterministic smallest-
    /// index topological order of `P`, each child reading the accumulated
    /// state (the paper's "assuming the transaction is run by itself").
    pub fn apply(&self, schema: &Schema, input: &UniqueState) -> Result<UniqueState, ModelError> {
        match &self.body {
            Body::Leaf(steps) => {
                let mut state = input.clone();
                for s in steps {
                    if let Step::Write(e, expr) = s {
                        let value = expr.eval(&state);
                        state = state.with_update(schema, *e, value)?;
                    }
                }
                Ok(state)
            }
            Body::Nested(n) => {
                let g = self.partial_order_graph().expect("nested");
                let order = g
                    .topological_order()
                    .ok_or(ModelError::CyclicPartialOrder)?;
                let mut state = input.clone();
                for i in order {
                    state = n.children[i].apply(schema, &state)?;
                }
                Ok(state)
            }
        }
    }

    /// Does the transaction satisfy its specification on EVERY state of
    /// the schema's (finite) state space? This is the paper's definition —
    /// "a transaction satisfies its specification if ∀S ∈ I_t(D),
    /// t(S) ∈ O_t(D)" — decided by exhaustion; the state space
    /// (∏ |dom(e)|) must not exceed `limit` or the call panics.
    pub fn satisfies_spec_exhaustive(
        &self,
        schema: &Schema,
        limit: u64,
    ) -> Result<bool, ModelError> {
        let space: u64 = schema
            .entity_ids()
            .map(|e| schema.domain(e).cardinality())
            .product();
        assert!(
            space <= limit,
            "state space {space} exceeds limit {limit}; use satisfies_spec_on sampling"
        );
        // Odometer over the full domain product.
        let mut values: Vec<i64> = schema
            .entity_ids()
            .map(|e| schema.domain(e).min_value().expect("non-empty domain"))
            .collect();
        let per_entity: Vec<Vec<i64>> = schema
            .entity_ids()
            .map(|e| schema.domain(e).iter().collect())
            .collect();
        let mut cursor = vec![0usize; schema.len()];
        loop {
            for (i, &c) in cursor.iter().enumerate() {
                values[i] = per_entity[i][c];
            }
            let state = UniqueState::from_values_unchecked(values.clone());
            if !self.satisfies_spec_on(schema, &state)? {
                return Ok(false);
            }
            // advance
            let mut done = true;
            for i in (0..cursor.len()).rev() {
                cursor[i] += 1;
                if cursor[i] < per_entity[i].len() {
                    done = false;
                    break;
                }
                cursor[i] = 0;
            }
            if done {
                return Ok(true);
            }
        }
    }

    /// Does the transaction satisfy its specification on a given input?
    /// (`I_t(S) ⇒ t(S) ∈ O_t(D)`, checked pointwise.)
    pub fn satisfies_spec_on(
        &self,
        schema: &Schema,
        input: &UniqueState,
    ) -> Result<bool, ModelError> {
        if !self.spec.input_holds(input) {
            return Ok(true); // vacuously satisfied: input precondition fails
        }
        let out = self.apply(schema, input)?;
        Ok(self.spec.output_holds(&out))
    }
}

/// The exact nested transaction of the paper's Figure 1: root `t` with
/// subtransactions `t.0` (three leaves), `t.1` (children `t.1.0` with two
/// leaves and `t.1.1` with three leaves), and `t.2` (one leaf). Every leaf
/// reads entity 0 (the minimal primitive operation), specifications trivial.
pub fn fig1_tree() -> Transaction {
    let leaf = |k| {
        Transaction::leaf(
            TxnName::root(),
            Specification::trivial(),
            vec![Step::Read(EntityId(k))],
        )
    };
    let group = |n: usize| -> Vec<Transaction> { (0..n).map(|_| leaf(0)).collect() };
    let t0 = Transaction::nested(TxnName::root(), Specification::trivial(), group(3), vec![])
        .expect("t.0");
    let t10 = Transaction::nested(TxnName::root(), Specification::trivial(), group(2), vec![])
        .expect("t.1.0");
    let t11 = Transaction::nested(TxnName::root(), Specification::trivial(), group(3), vec![])
        .expect("t.1.1");
    let t1 = Transaction::nested(
        TxnName::root(),
        Specification::trivial(),
        vec![t10, t11],
        vec![],
    )
    .expect("t.1");
    let t2 = Transaction::nested(TxnName::root(), Specification::trivial(), group(1), vec![])
        .expect("t.2");
    Transaction::nested(
        TxnName::root(),
        Specification::trivial(),
        vec![t0, t1, t2],
        // the narrative: t.0 and t.1 interleave; t.2 is created last
        vec![(0, 2), (1, 2)],
    )
    .expect("t")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_kernel::{Domain, Schema};
    use ks_predicate::parse_cnf;

    fn schema() -> Schema {
        Schema::uniform(["x", "y"], Domain::Range { min: 0, max: 99 })
    }

    #[test]
    fn fig1_shape_and_names() {
        let t = fig1_tree();
        assert_eq!(
            t.num_nodes(),
            1 + (1 + 3) + (1 + (1 + 2) + (1 + 3)) + (1 + 1)
        );
        assert_eq!(t.depth(), 4); // t → t.1 → t.1.0 → leaf
        let names: Vec<String> = t.names().iter().map(|n| n.to_string()).collect();
        for expected in [
            "t", "t.0", "t.0.0", "t.0.1", "t.0.2", "t.1", "t.1.0", "t.1.0.0", "t.1.0.1", "t.1.1",
            "t.1.1.0", "t.1.1.1", "t.1.1.2", "t.2", "t.2.0",
        ] {
            assert!(names.contains(&expected.to_string()), "{expected} missing");
        }
    }

    #[test]
    fn nested_renames_children_recursively() {
        let inner = Transaction::leaf(
            TxnName::parse("t.9.9").unwrap(),
            Specification::trivial(),
            vec![],
        );
        let mid = Transaction::nested(
            TxnName::root(),
            Specification::trivial(),
            vec![inner],
            vec![],
        )
        .unwrap();
        let top = Transaction::nested(TxnName::root(), Specification::trivial(), vec![mid], vec![])
            .unwrap();
        assert_eq!(top.children()[0].name.to_string(), "t.0");
        assert_eq!(top.children()[0].children()[0].name.to_string(), "t.0.0");
    }

    #[test]
    fn cyclic_order_rejected() {
        let kids = vec![
            Transaction::leaf(TxnName::root(), Specification::trivial(), vec![]),
            Transaction::leaf(TxnName::root(), Specification::trivial(), vec![]),
        ];
        let err = Transaction::nested(
            TxnName::root(),
            Specification::trivial(),
            kids,
            vec![(0, 1), (1, 0)],
        )
        .unwrap_err();
        assert_eq!(err, ModelError::CyclicPartialOrder);
    }

    #[test]
    fn order_index_validated() {
        let kids = vec![Transaction::leaf(
            TxnName::root(),
            Specification::trivial(),
            vec![],
        )];
        let err = Transaction::nested(
            TxnName::root(),
            Specification::trivial(),
            kids,
            vec![(0, 5)],
        )
        .unwrap_err();
        assert_eq!(err, ModelError::OrderIndexOutOfRange(5));
    }

    #[test]
    fn leaf_apply_sees_own_writes() {
        let schema = schema();
        let x = EntityId(0);
        let t = Transaction::leaf(
            TxnName::root(),
            Specification::trivial(),
            vec![
                Step::Read(x),
                Step::Write(x, Expr::plus_const(x, 1)),
                Step::Write(x, Expr::plus_const(x, 1)), // sees the first write
            ],
        );
        let input = UniqueState::new(&schema, vec![10, 0]).unwrap();
        let out = t.apply(&schema, &input).unwrap();
        assert_eq!(out.get(x), 12);
    }

    #[test]
    fn nested_apply_respects_partial_order() {
        let schema = schema();
        let x = EntityId(0);
        let set5 = Transaction::leaf(
            TxnName::root(),
            Specification::trivial(),
            vec![Step::Write(x, Expr::Const(5))],
        );
        let double = Transaction::leaf(
            TxnName::root(),
            Specification::trivial(),
            vec![Step::Write(
                x,
                Expr::Mul(Box::new(Expr::Entity(x)), Box::new(Expr::Const(2))),
            )],
        );
        // set5 must run before double → result 10 regardless of indices.
        let t = Transaction::nested(
            TxnName::root(),
            Specification::trivial(),
            vec![double, set5],
            vec![(1, 0)],
        )
        .unwrap();
        let input = UniqueState::new(&schema, vec![1, 0]).unwrap();
        assert_eq!(t.apply(&schema, &input).unwrap().get(x), 10);
    }

    #[test]
    fn read_update_fixed_point_sets() {
        let schema = schema();
        let x = EntityId(0);
        let y = EntityId(1);
        let t = Transaction::leaf(
            TxnName::root(),
            Specification::trivial(),
            vec![Step::Read(y), Step::Write(x, Expr::Entity(y))],
        );
        assert_eq!(t.read_set(), [y].into_iter().collect());
        assert_eq!(t.update_set(), [x].into_iter().collect());
        assert_eq!(t.fixed_point_set(&schema), [y].into_iter().collect());
    }

    #[test]
    fn spec_satisfaction_checked_pointwise() {
        let schema = schema();
        let x = EntityId(0);
        let y = EntityId(1);
        // I: x = y; body: x += 1; O: x > y.
        let t = Transaction::leaf(
            TxnName::root(),
            Specification::new(
                parse_cnf(&schema, "x = y").unwrap(),
                parse_cnf(&schema, "x > y").unwrap(),
            ),
            vec![Step::Write(x, Expr::plus_const(x, 1))],
        );
        let good = UniqueState::new(&schema, vec![4, 4]).unwrap();
        assert!(t.satisfies_spec_on(&schema, &good).unwrap());
        // Input not satisfying I: vacuously fine.
        let off = UniqueState::new(&schema, vec![4, 7]).unwrap();
        assert!(t.satisfies_spec_on(&schema, &off).unwrap());
        // A transaction that breaks its postcondition:
        let bad = Transaction::leaf(
            TxnName::root(),
            Specification::new(
                parse_cnf(&schema, "x = y").unwrap(),
                parse_cnf(&schema, "x > y").unwrap(),
            ),
            vec![Step::Write(x, Expr::Entity(y))],
        );
        assert!(!bad.satisfies_spec_on(&schema, &good).unwrap());
    }

    #[test]
    fn exhaustive_spec_checking_small_domain() {
        let schema = Schema::uniform(["x", "y"], Domain::Range { min: 0, max: 4 });
        let x = EntityId(0);
        let y = EntityId(1);
        // I: x = y; body: x := x + 1 (in-domain inputs only reach 4+1=5?
        // domain max 4: restrict I to x <= 3 so outputs stay in domain);
        // O: x > y. Satisfied on every state of the space.
        let good = Transaction::leaf(
            TxnName::root(),
            Specification::new(
                parse_cnf(&schema, "x = y & x <= 3").unwrap(),
                parse_cnf(&schema, "x > y").unwrap(),
            ),
            vec![Step::Write(x, Expr::plus_const(x, 1))],
        );
        assert!(good.satisfies_spec_exhaustive(&schema, 100).unwrap());
        // A transaction violating its postcondition on some input:
        let bad = Transaction::leaf(
            TxnName::root(),
            Specification::new(
                parse_cnf(&schema, "x = y & x <= 3").unwrap(),
                parse_cnf(&schema, "x > y").unwrap(),
            ),
            vec![Step::Write(x, Expr::Entity(y))],
        );
        assert!(!bad.satisfies_spec_exhaustive(&schema, 100).unwrap());
        let _ = x;
        let _ = y;
    }

    #[test]
    #[should_panic(expected = "state space")]
    fn exhaustive_spec_checking_respects_limit() {
        let schema = Schema::uniform(["x", "y"], Domain::Range { min: 0, max: 999 });
        let t = Transaction::leaf(TxnName::root(), Specification::trivial(), vec![]);
        let _ = t.satisfies_spec_exhaustive(&schema, 100);
    }

    #[test]
    fn object_set_unions_child_output_objects() {
        let schema = schema();
        let child = |pred: &str| {
            Transaction::leaf(
                TxnName::root(),
                Specification::new(Cnf::truth(), parse_cnf(&schema, pred).unwrap()),
                vec![],
            )
        };
        use ks_predicate::Cnf;
        let t = Transaction::nested(
            TxnName::root(),
            Specification::trivial(),
            vec![child("x = 1"), child("y = 2")],
            vec![],
        )
        .unwrap();
        assert_eq!(
            t.object_set(),
            [EntityId(0), EntityId(1)].into_iter().collect()
        );
    }
}
