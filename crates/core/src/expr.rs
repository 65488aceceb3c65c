//! Value expressions for write steps.
//!
//! The paper models a transaction abstractly as a mapping from states to
//! states. To *execute* transactions (and thereby check specifications and
//! run the protocol end-to-end) leaf writes carry a small expression
//! language over the input version state: constants, entity values, and
//! arithmetic. This is rich enough for every workload in the paper's domain
//! discussion (design counters, budget splits, invariant repair) while
//! keeping transactions serializable values (no closures).

use ks_kernel::{EntityId, Value};
use ks_predicate::Valuation;
use std::fmt;

/// An arithmetic expression over the transaction's input state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A literal value.
    Const(Value),
    /// The input state's value of an entity.
    Entity(EntityId),
    /// Sum of two expressions (wrapping).
    Add(Box<Expr>, Box<Expr>),
    /// Difference (wrapping).
    Sub(Box<Expr>, Box<Expr>),
    /// Product (wrapping).
    Mul(Box<Expr>, Box<Expr>),
    /// Minimum.
    Min(Box<Expr>, Box<Expr>),
    /// Maximum.
    Max(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// `entity + constant` — the increment idiom.
    pub fn plus_const(e: EntityId, c: Value) -> Expr {
        Expr::Add(Box::new(Expr::Entity(e)), Box::new(Expr::Const(c)))
    }

    /// Evaluate over a valuation.
    pub fn eval<V: Valuation + ?Sized>(&self, v: &V) -> Value {
        match self {
            Expr::Const(c) => *c,
            Expr::Entity(e) => v.value_of(*e),
            Expr::Add(a, b) => a.eval(v).wrapping_add(b.eval(v)),
            Expr::Sub(a, b) => a.eval(v).wrapping_sub(b.eval(v)),
            Expr::Mul(a, b) => a.eval(v).wrapping_mul(b.eval(v)),
            Expr::Min(a, b) => a.eval(v).min(b.eval(v)),
            Expr::Max(a, b) => a.eval(v).max(b.eval(v)),
        }
    }

    /// Entities the expression reads.
    pub fn entities(&self) -> Vec<EntityId> {
        let mut out = Vec::new();
        self.collect_entities(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_entities(&self, out: &mut Vec<EntityId>) {
        match self {
            Expr::Const(_) => {}
            Expr::Entity(e) => out.push(*e),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Min(a, b)
            | Expr::Max(a, b) => {
                a.collect_entities(out);
                b.collect_entities(out);
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Entity(e) => write!(f, "{e}"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Min(a, b) => write!(f, "min({a}, {b})"),
            Expr::Max(a, b) => write!(f, "max({a}, {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_arithmetic() {
        let v: &[Value] = &[10, 3];
        let e0 = EntityId(0);
        let e1 = EntityId(1);
        assert_eq!(Expr::Const(7).eval(v), 7);
        assert_eq!(Expr::Entity(e1).eval(v), 3);
        assert_eq!(Expr::plus_const(e0, 5).eval(v), 15);
        assert_eq!(
            Expr::Sub(Box::new(Expr::Entity(e0)), Box::new(Expr::Entity(e1))).eval(v),
            7
        );
        assert_eq!(
            Expr::Mul(Box::new(Expr::Entity(e1)), Box::new(Expr::Const(4))).eval(v),
            12
        );
        assert_eq!(
            Expr::Min(Box::new(Expr::Entity(e0)), Box::new(Expr::Entity(e1))).eval(v),
            3
        );
        assert_eq!(
            Expr::Max(Box::new(Expr::Entity(e0)), Box::new(Expr::Entity(e1))).eval(v),
            10
        );
    }

    #[test]
    fn entities_deduplicated() {
        let e = Expr::Add(
            Box::new(Expr::Entity(EntityId(1))),
            Box::new(Expr::Add(
                Box::new(Expr::Entity(EntityId(0))),
                Box::new(Expr::Entity(EntityId(1))),
            )),
        );
        assert_eq!(e.entities(), vec![EntityId(0), EntityId(1)]);
        assert_eq!(Expr::Const(1).entities(), vec![]);
    }

    #[test]
    fn display() {
        let e = Expr::plus_const(EntityId(0), 1);
        assert_eq!(e.to_string(), "(e0 + 1)");
    }
}
