//! Transaction specifications `(I_t, O_t)`.

use ks_kernel::EntityId;
use ks_predicate::{Cnf, Valuation};
use std::collections::BTreeSet;

/// A specification: input predicate (precondition on the version state the
/// transaction reads) and output predicate (postcondition on the state it
/// produces when run by itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Specification {
    /// `I_t`: must hold on the transaction's input state.
    pub input: Cnf,
    /// `O_t`: must hold on the final state of the transaction's execution.
    pub output: Cnf,
}

impl Specification {
    /// Both predicates trivially true (the Theorem 1 reduction uses
    /// `O_t = true`).
    pub fn trivial() -> Specification {
        Specification {
            input: Cnf::truth(),
            output: Cnf::truth(),
        }
    }

    /// The classical-model specification: both predicates are the database
    /// consistency constraint `C` (Section 4.1).
    pub fn classical(constraint: &Cnf) -> Specification {
        Specification {
            input: constraint.clone(),
            output: constraint.clone(),
        }
    }

    /// Construct from explicit predicates.
    pub fn new(input: Cnf, output: Cnf) -> Specification {
        Specification { input, output }
    }

    /// The input set `N_t`: entities appearing in `I_t`. The paper requires
    /// every entity read by the transaction to appear in `I_t`.
    pub fn input_set(&self) -> BTreeSet<EntityId> {
        self.input.entities()
    }

    /// Does a state satisfy the input predicate?
    pub fn input_holds<V: Valuation + ?Sized>(&self, state: &V) -> bool {
        self.input.eval(state)
    }

    /// Does a state satisfy the output predicate?
    pub fn output_holds<V: Valuation + ?Sized>(&self, state: &V) -> bool {
        self.output.eval(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_kernel::{Domain, Schema, Value};
    use ks_predicate::parse_cnf;

    fn schema() -> Schema {
        Schema::uniform(["x", "y"], Domain::Range { min: 0, max: 99 })
    }

    #[test]
    fn trivial_holds_everywhere() {
        let s = Specification::trivial();
        let v: &[Value] = &[1, 2];
        assert!(s.input_holds(&v));
        assert!(s.output_holds(&v));
        assert!(s.input_set().is_empty());
    }

    #[test]
    fn classical_uses_constraint_twice() {
        let c = parse_cnf(&schema(), "x = y").unwrap();
        let s = Specification::classical(&c);
        assert!(s.input_holds(&&[3, 3][..]));
        assert!(!s.output_holds(&&[3, 4][..]));
        assert_eq!(s.input_set().len(), 2);
    }

    #[test]
    fn asymmetric_pre_post() {
        // The cooperation idiom: the child runs while the constraint is
        // broken by exactly one (I: x = y + 1) and repairs it (O: x = y).
        let i = parse_cnf(&schema(), "x = y").unwrap();
        let o = parse_cnf(&schema(), "x > y").unwrap();
        let s = Specification::new(i, o);
        assert!(s.input_holds(&&[5, 5][..]));
        assert!(s.output_holds(&&[6, 5][..]));
        assert!(!s.output_holds(&&[5, 5][..]));
    }
}
