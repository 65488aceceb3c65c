//! Disjunctive clauses: `a₀ ∨ a₁ ∨ … ∨ aₘ`.

use crate::{Atom, Valuation};
use ks_kernel::EntityId;
use std::collections::BTreeSet;
use std::fmt;

/// A disjunction of atoms. The empty clause is `false` (standard logic
/// convention), which the parser never produces but the solver can meet
/// after simplification.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Clause {
    atoms: Vec<Atom>,
}

impl Clause {
    /// Build from atoms.
    pub fn new(atoms: Vec<Atom>) -> Self {
        Clause { atoms }
    }

    /// A single-atom clause.
    pub fn unit(atom: Atom) -> Self {
        Clause { atoms: vec![atom] }
    }

    /// The atoms of the clause.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Is this the empty (unsatisfiable) clause?
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Evaluate: true iff some atom holds.
    pub fn eval<V: Valuation + ?Sized>(&self, val: &V) -> bool {
        self.atoms.iter().any(|a| a.eval(val))
    }

    /// The clause's *object*: the set of entities mentioned in its atoms
    /// (the paper's `x_i` for conjunct `C_i`).
    pub fn object(&self) -> BTreeSet<EntityId> {
        self.atoms.iter().flat_map(|a| a.entities()).collect()
    }

    /// Add an atom (disjunctively).
    pub fn or(mut self, atom: Atom) -> Self {
        self.atoms.push(atom);
        self
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return f.write_str("⊥");
        }
        write!(f, "(")?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CmpOp;
    use ks_kernel::Value;

    #[test]
    fn clause_eval_is_disjunction() {
        let vals: &[Value] = &[0, 5];
        let c = Clause::new(vec![
            Atom::cmp_const(EntityId(0), CmpOp::Eq, 1), // false
            Atom::cmp_const(EntityId(1), CmpOp::Gt, 4), // true
        ]);
        assert!(c.eval(vals));
        let c2 = Clause::new(vec![
            Atom::cmp_const(EntityId(0), CmpOp::Eq, 1),
            Atom::cmp_const(EntityId(1), CmpOp::Gt, 9),
        ]);
        assert!(!c2.eval(vals));
    }

    #[test]
    fn empty_clause_is_false() {
        let vals: &[Value] = &[0];
        assert!(!Clause::new(vec![]).eval(vals));
        assert!(Clause::new(vec![]).is_empty());
    }

    #[test]
    fn object_collects_entities_once() {
        let c = Clause::new(vec![
            Atom::cmp_entities(EntityId(0), CmpOp::Lt, EntityId(1)),
            Atom::cmp_const(EntityId(1), CmpOp::Eq, 3),
            Atom::cmp_const(EntityId(4), CmpOp::Ne, 0),
        ]);
        let obj = c.object();
        assert_eq!(
            obj.into_iter().collect::<Vec<_>>(),
            vec![EntityId(0), EntityId(1), EntityId(4)]
        );
    }

    #[test]
    fn display() {
        let c = Clause::unit(Atom::cmp_const(EntityId(0), CmpOp::Eq, 1)).or(Atom::cmp_const(
            EntityId(1),
            CmpOp::Lt,
            2,
        ));
        assert_eq!(c.to_string(), "(e0 = 1 | e1 < 2)");
        assert_eq!(Clause::new(vec![]).to_string(), "⊥");
    }
}
