//! CNF predicates: `C₀ ∧ C₁ ∧ … ∧ Cₙ₋₁`.

use crate::{Atom, Clause, Object, Valuation};
use ks_kernel::{DatabaseState, EntityId, Schema, VersionSpace};
use std::collections::BTreeSet;
use std::fmt;

/// A predicate in conjunctive normal form.
///
/// The empty conjunction is `true` — used for transactions with trivial
/// specifications (e.g. the paper sets `O_t = true` in the Theorem 1
/// reduction). Note the paper assumes the *database* consistency constraint
/// is never empty (Section 4.2); that restriction applies to databases, not
/// to individual transaction specifications, so [`Cnf::truth`] exists.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cnf {
    clauses: Vec<Clause>,
}

impl Cnf {
    /// The predicate `true` (empty conjunction).
    pub fn truth() -> Self {
        Cnf { clauses: vec![] }
    }

    /// Build from clauses.
    pub fn new(clauses: Vec<Clause>) -> Self {
        Cnf { clauses }
    }

    /// A single-atom predicate.
    pub fn atom(a: Atom) -> Self {
        Cnf {
            clauses: vec![Clause::unit(a)],
        }
    }

    /// Conjoin another predicate.
    pub fn and(mut self, other: Cnf) -> Self {
        self.clauses.extend(other.clauses);
        self
    }

    /// The clauses (conjuncts).
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Number of conjuncts.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Is the conjunction empty (equivalent to [`Cnf::is_truth`])?
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Is this the trivially true predicate?
    pub fn is_truth(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Evaluate: true iff every clause holds.
    pub fn eval<V: Valuation + ?Sized>(&self, val: &V) -> bool {
        self.clauses.iter().all(|c| c.eval(val))
    }

    /// All entities mentioned anywhere in the predicate. For a transaction's
    /// input predicate `I_t` this is the paper's *input set* `N_t` ("every
    /// entity read by `t` must appear in `I_t`").
    pub fn entities(&self) -> BTreeSet<EntityId> {
        self.clauses.iter().flat_map(|c| c.object()).collect()
    }

    /// The objects `P̃ = {x₀, …, xₙ₋₁}`: one entity set per conjunct,
    /// deduplicated, empty objects dropped.
    pub fn objects(&self) -> Vec<Object> {
        crate::object::objects_of(self)
    }

    /// Is the predicate satisfiable over the version space of `db`? This is
    /// the brute-force oracle (exponential); the solver in [`crate::solver`]
    /// is the practical path.
    pub fn satisfiable_over(&self, db: &DatabaseState) -> bool {
        VersionSpace::new(db).any(|v| self.eval(&v))
    }

    /// Simplify: drop constant-true atoms from clauses, drop clauses made
    /// trivially true by a constant atom, deduplicate atoms within clauses
    /// and identical clauses across the conjunction. Returns a predicate
    /// equivalent on every valuation (tested by property test).
    pub fn simplified(&self) -> Cnf {
        let mut out: Vec<Clause> = Vec::new();
        'clauses: for clause in &self.clauses {
            let mut atoms: Vec<Atom> = Vec::new();
            for &a in clause.atoms() {
                match (a.lhs, a.rhs) {
                    (crate::Operand::Const(l), crate::Operand::Const(r)) => {
                        if a.op.apply(l, r) {
                            continue 'clauses; // clause trivially true
                        }
                        // constant-false atom: drop it from the disjunction
                    }
                    _ => {
                        if !atoms.contains(&a) {
                            atoms.push(a);
                        }
                    }
                }
            }
            let clause = Clause::new(atoms);
            if !out.contains(&clause) {
                out.push(clause);
            }
        }
        Cnf { clauses: out }
    }

    /// Render with entity names (diagnostics).
    pub fn display_with(&self, schema: &Schema) -> String {
        if self.clauses.is_empty() {
            return "true".to_string();
        }
        self.clauses
            .iter()
            .map(|c| {
                let inner = c
                    .atoms()
                    .iter()
                    .map(|a| a.display_with(schema))
                    .collect::<Vec<_>>()
                    .join(" | ");
                format!("({inner})")
            })
            .collect::<Vec<_>>()
            .join(" & ")
    }
}

impl fmt::Display for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.clauses.is_empty() {
            return f.write_str("true");
        }
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CmpOp;
    use ks_kernel::{Domain, Schema, UniqueState, Value};

    fn atom(e: u32, op: CmpOp, c: Value) -> Atom {
        Atom::cmp_const(EntityId(e), op, c)
    }

    #[test]
    fn truth_holds_everywhere() {
        let vals: &[Value] = &[0, 0];
        assert!(Cnf::truth().eval(vals));
        assert!(Cnf::truth().is_truth());
    }

    #[test]
    fn conjunction_semantics() {
        let p = Cnf::atom(atom(0, CmpOp::Eq, 1)).and(Cnf::atom(atom(1, CmpOp::Gt, 2)));
        assert!(p.eval(&[1, 3][..]));
        assert!(!p.eval(&[1, 2][..]));
        assert!(!p.eval(&[0, 3][..]));
    }

    #[test]
    fn entities_union_over_clauses() {
        let p = Cnf::new(vec![
            Clause::unit(atom(0, CmpOp::Eq, 1)),
            Clause::new(vec![atom(2, CmpOp::Lt, 5), atom(0, CmpOp::Ne, 0)]),
        ]);
        assert_eq!(
            p.entities().into_iter().collect::<Vec<_>>(),
            vec![EntityId(0), EntityId(2)]
        );
    }

    #[test]
    fn satisfiable_over_mixed_versions() {
        // S = {(0,1), (1,0)}. "x = 1 & y = 1" is unsatisfiable over either
        // unique state but satisfiable over V_S via mixing — the essence of
        // multiple versions.
        let schema = Schema::uniform(["x", "y"], Domain::Boolean);
        let db = ks_kernel::DatabaseState::from_states(vec![
            UniqueState::new(&schema, vec![0, 1]).unwrap(),
            UniqueState::new(&schema, vec![1, 0]).unwrap(),
        ])
        .unwrap();
        let p = Cnf::atom(atom(0, CmpOp::Eq, 1)).and(Cnf::atom(atom(1, CmpOp::Eq, 1)));
        for s in db.states() {
            assert!(!p.eval(s));
        }
        assert!(p.satisfiable_over(&db));
    }

    #[test]
    fn unsatisfiable_over_state() {
        let schema = Schema::uniform(["x"], Domain::Boolean);
        let db = ks_kernel::DatabaseState::singleton(UniqueState::new(&schema, vec![0]).unwrap());
        let p = Cnf::atom(atom(0, CmpOp::Eq, 1));
        assert!(!p.satisfiable_over(&db));
    }

    #[test]
    fn simplification_drops_trivia_and_duplicates() {
        use crate::Operand;
        let truthy = Atom {
            lhs: Operand::Const(1),
            op: CmpOp::Eq,
            rhs: Operand::Const(1),
        };
        let falsy = Atom {
            lhs: Operand::Const(1),
            op: CmpOp::Eq,
            rhs: Operand::Const(2),
        };
        let real = atom(0, CmpOp::Eq, 3);
        let p = Cnf::new(vec![
            Clause::new(vec![truthy, real]),      // trivially true clause
            Clause::new(vec![falsy, real, real]), // falsy + duplicate
            Clause::new(vec![real]),              // duplicate of the above
        ]);
        let s = p.simplified();
        assert_eq!(s.len(), 1);
        assert_eq!(s.clauses()[0].atoms(), &[real]);
        // equivalence on sample valuations
        for v in [[3i64, 0], [4, 0]] {
            assert_eq!(p.eval(&v[..]), s.eval(&v[..]));
        }
        // an all-constant-false clause simplifies to the empty clause (⊥)
        let q = Cnf::new(vec![Clause::new(vec![falsy])]);
        let sq = q.simplified();
        assert_eq!(sq.len(), 1);
        assert!(sq.clauses()[0].is_empty());
        assert!(!sq.eval(&[0i64][..]));
    }

    #[test]
    fn display_forms() {
        let p = Cnf::new(vec![
            Clause::unit(atom(0, CmpOp::Eq, 1)),
            Clause::new(vec![atom(1, CmpOp::Lt, 5), atom(1, CmpOp::Gt, 7)]),
        ]);
        assert_eq!(p.to_string(), "(e0 = 1) & (e1 < 5 | e1 > 7)");
        let schema = Schema::uniform(["x", "y"], Domain::Boolean);
        assert_eq!(p.display_with(&schema), "(x = 1) & (y < 5 | y > 7)");
        assert_eq!(Cnf::truth().to_string(), "true");
    }
}
