//! Atoms: comparisons `x θ y` between entities and constants.

use crate::eval::Valuation;
use ks_kernel::{EntityId, Schema, Value};
use std::fmt;

/// One of the six comparison operators the paper admits in atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl CmpOp {
    /// Apply the operator to two values.
    #[inline]
    pub fn apply(self, l: Value, r: Value) -> bool {
        match self {
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
        }
    }

    /// The operator with its arguments swapped (`<` ↔ `>`, `≤` ↔ `≥`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Logical negation of the operator (`=` ↔ `≠`, `<` ↔ `≥`, `>` ↔ `≤`).
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// One side of an atom: a database entity or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A database entity, resolved against a valuation at evaluation time.
    Entity(EntityId),
    /// A literal value.
    Const(Value),
}

impl Operand {
    /// Resolve to a value under `val`.
    #[inline]
    pub fn resolve<V: Valuation + ?Sized>(self, val: &V) -> Value {
        match self {
            Operand::Entity(e) => val.value_of(e),
            Operand::Const(c) => c,
        }
    }

    /// The entity, if this operand is one.
    pub fn entity(self) -> Option<EntityId> {
        match self {
            Operand::Entity(e) => Some(e),
            Operand::Const(_) => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Entity(e) => write!(f, "{e}"),
            Operand::Const(c) => write!(f, "{c}"),
        }
    }
}

/// An atom `lhs θ rhs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Left operand.
    pub lhs: Operand,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: Operand,
}

impl Atom {
    /// `entity θ constant` — the most common atom shape.
    pub fn cmp_const(e: EntityId, op: CmpOp, c: Value) -> Atom {
        Atom {
            lhs: Operand::Entity(e),
            op,
            rhs: Operand::Const(c),
        }
    }

    /// `entity θ entity`.
    pub fn cmp_entities(l: EntityId, op: CmpOp, r: EntityId) -> Atom {
        Atom {
            lhs: Operand::Entity(l),
            op,
            rhs: Operand::Entity(r),
        }
    }

    /// Evaluate under a valuation.
    #[inline]
    pub fn eval<V: Valuation + ?Sized>(&self, val: &V) -> bool {
        self.op.apply(self.lhs.resolve(val), self.rhs.resolve(val))
    }

    /// The negated atom (same entities, negated operator).
    pub fn negated(&self) -> Atom {
        Atom {
            lhs: self.lhs,
            op: self.op.negated(),
            rhs: self.rhs,
        }
    }

    /// Entities mentioned (0, 1 or 2 of them).
    pub fn entities(&self) -> impl Iterator<Item = EntityId> {
        self.lhs.entity().into_iter().chain(self.rhs.entity())
    }

    /// Render with entity names from a schema (for diagnostics).
    pub fn display_with(&self, schema: &Schema) -> String {
        let side = |o: Operand| match o {
            Operand::Entity(e) => schema.name(e).to_string(),
            Operand::Const(c) => c.to_string(),
        };
        format!("{} {} {}", side(self.lhs), self.op, side(self.rhs))
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_operators_apply() {
        assert!(CmpOp::Eq.apply(2, 2));
        assert!(CmpOp::Ne.apply(2, 3));
        assert!(CmpOp::Lt.apply(2, 3));
        assert!(CmpOp::Le.apply(3, 3));
        assert!(CmpOp::Gt.apply(4, 3));
        assert!(CmpOp::Ge.apply(3, 3));
        assert!(!CmpOp::Lt.apply(3, 3));
    }

    #[test]
    fn negation_is_involutive_and_complementary() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.negated().negated(), op);
            for l in -2..=2 {
                for r in -2..=2 {
                    assert_ne!(op.apply(l, r), op.negated().apply(l, r));
                }
            }
        }
    }

    #[test]
    fn flip_matches_swapped_arguments() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for l in -2..=2 {
                for r in -2..=2 {
                    assert_eq!(op.apply(l, r), op.flipped().apply(r, l));
                }
            }
        }
    }

    #[test]
    fn atom_eval_over_slice() {
        // valuation over [7, 3]
        let vals: &[Value] = &[7, 3];
        let a = Atom::cmp_entities(EntityId(0), CmpOp::Gt, EntityId(1));
        assert!(a.eval(vals));
        let b = Atom::cmp_const(EntityId(1), CmpOp::Eq, 4);
        assert!(!b.eval(vals));
        assert!(b.negated().eval(vals));
    }

    #[test]
    fn atom_entities_listed() {
        let a = Atom::cmp_entities(EntityId(0), CmpOp::Lt, EntityId(2));
        assert_eq!(
            a.entities().collect::<Vec<_>>(),
            vec![EntityId(0), EntityId(2)]
        );
        let b = Atom::cmp_const(EntityId(1), CmpOp::Eq, 0);
        assert_eq!(b.entities().collect::<Vec<_>>(), vec![EntityId(1)]);
    }

    #[test]
    fn atom_display() {
        let a = Atom::cmp_const(EntityId(0), CmpOp::Le, 5);
        assert_eq!(a.to_string(), "e0 <= 5");
    }
}
