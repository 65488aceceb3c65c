//! The Lemma 1 reduction: SAT ⇒ one-transaction version correctness.
//!
//! The paper proves NP-hardness by mapping a satisfiability instance onto a
//! two-version database: let `E = U` (one Boolean entity per propositional
//! variable), let `S = {S⁰, S¹}` where `S⁰` assigns 0 everywhere and `S¹`
//! assigns 1 everywhere, and let `I_t = C`. Then `V_S` is exactly the set of
//! all truth assignments, and a version state satisfying `I_t` exists iff
//! `C` is satisfiable.
//!
//! [`SatInstance`] is a DIMACS-style propositional CNF;
//! [`reduce_to_version_problem`] performs the paper's transformation, and
//! [`solve_sat_via_versions`] runs the whole pipeline — giving an executable
//! witness of the reduction that the tests cross-validate against a direct
//! truth-table check.

use crate::{Atom, Clause, CmpOp, Cnf, SolveOutcome, SolveStats, Strategy};
use ks_kernel::{DatabaseState, EntityId, Schema, UniqueState};

/// A propositional CNF instance. Variables are numbered `1..=num_vars`;
/// a positive literal `v` asserts variable `v`, a negative literal `-v`
/// asserts its negation (DIMACS convention).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatInstance {
    /// Number of propositional variables.
    pub num_vars: usize,
    /// Clauses as lists of literals.
    pub clauses: Vec<Vec<i32>>,
}

impl SatInstance {
    /// Construct, validating literal ranges.
    pub fn new(num_vars: usize, clauses: Vec<Vec<i32>>) -> Self {
        for clause in &clauses {
            for &lit in clause {
                let v = lit.unsigned_abs() as usize;
                assert!(
                    lit != 0 && v <= num_vars,
                    "literal {lit} out of range for {num_vars} variables"
                );
            }
        }
        SatInstance { num_vars, clauses }
    }

    /// Evaluate under a truth assignment (`assignment[v-1]` for variable `v`).
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.clauses.iter().all(|clause| {
            clause.iter().any(|&lit| {
                let val = assignment[lit.unsigned_abs() as usize - 1];
                if lit > 0 {
                    val
                } else {
                    !val
                }
            })
        })
    }

    /// Brute-force satisfiability (truth-table); exponential, for
    /// cross-validation in tests only.
    pub fn brute_force_sat(&self) -> Option<Vec<bool>> {
        assert!(self.num_vars < 26, "brute force limited to small instances");
        for bits in 0u64..(1u64 << self.num_vars) {
            let assignment: Vec<bool> = (0..self.num_vars).map(|i| bits >> i & 1 == 1).collect();
            if self.eval(&assignment) {
                return Some(assignment);
            }
        }
        None
    }
}

/// The output of the paper's reduction: a schema of Boolean entities, the
/// two-unique-state database, and the input predicate `I_t`.
#[derive(Debug, Clone)]
pub struct VersionProblem {
    /// One Boolean entity per propositional variable.
    pub schema: Schema,
    /// `S = {all-zeros, all-ones}`.
    pub state: DatabaseState,
    /// `I_t = C`, translated to comparison atoms.
    pub input_predicate: Cnf,
}

/// Perform Lemma 1's transformation of a SAT instance into a
/// one-transaction version-correctness problem.
pub fn reduce_to_version_problem(inst: &SatInstance) -> VersionProblem {
    let schema = Schema::booleans(inst.num_vars);
    let zero = UniqueState::constant(inst.num_vars, 0);
    let one = UniqueState::constant(inst.num_vars, 1);
    let state = DatabaseState::from_states(vec![zero, one]).expect("two states");
    let clauses = inst
        .clauses
        .iter()
        .map(|clause| {
            Clause::new(
                clause
                    .iter()
                    .map(|&lit| {
                        let e = EntityId(lit.unsigned_abs() - 1);
                        let want = if lit > 0 { 1 } else { 0 };
                        Atom::cmp_const(e, CmpOp::Eq, want)
                    })
                    .collect(),
            )
        })
        .collect();
    VersionProblem {
        schema,
        state,
        input_predicate: Cnf::new(clauses),
    }
}

/// Decide satisfiability of `inst` by reducing to the version-assignment
/// problem and running the solver — Lemma 1 executed forwards.
///
/// Returns the satisfying truth assignment (if any) plus solver statistics.
pub fn solve_sat_via_versions(
    inst: &SatInstance,
    strategy: Strategy,
) -> (Option<Vec<bool>>, SolveStats) {
    let problem = reduce_to_version_problem(inst);
    let (outcome, stats) =
        crate::solver::solve_over_state(&problem.input_predicate, &problem.state, strategy);
    let assignment = match outcome {
        SolveOutcome::Sat(values) => Some(values.into_iter().map(|v| v == 1).collect()),
        SolveOutcome::Unsat => None,
    };
    (assignment, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_respects_literal_signs() {
        let inst = SatInstance::new(2, vec![vec![1, -2]]);
        assert!(inst.eval(&[true, true]));
        assert!(inst.eval(&[false, false]));
        assert!(!inst.eval(&[false, true]));
    }

    #[test]
    fn reduction_builds_two_state_database() {
        let inst = SatInstance::new(3, vec![vec![1, 2], vec![-3]]);
        let p = reduce_to_version_problem(&inst);
        assert_eq!(p.schema.len(), 3);
        assert_eq!(p.state.len(), 2);
        assert_eq!(p.state.version_space_size(), 8); // all truth assignments
        assert_eq!(p.input_predicate.len(), 2);
    }

    #[test]
    fn satisfiable_instance_found_via_versions() {
        // (x1 ∨ x2) ∧ (¬x1 ∨ x3) ∧ (¬x2 ∨ ¬x3)
        let inst = SatInstance::new(3, vec![vec![1, 2], vec![-1, 3], vec![-2, -3]]);
        for strat in [
            Strategy::Exhaustive,
            Strategy::Backtracking,
            Strategy::GreedyLatest,
        ] {
            let (a, _) = solve_sat_via_versions(&inst, strat);
            let a = a.expect("satisfiable");
            assert!(inst.eval(&a), "{strat:?}");
        }
    }

    #[test]
    fn unsatisfiable_instance_rejected() {
        // x1 ∧ ¬x1
        let inst = SatInstance::new(1, vec![vec![1], vec![-1]]);
        let (a, _) = solve_sat_via_versions(&inst, Strategy::Backtracking);
        assert!(a.is_none());
        assert!(inst.brute_force_sat().is_none());
    }

    #[test]
    fn reduction_agrees_with_truth_table_on_many_instances() {
        // Deterministic pseudo-random 3-CNF instances.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for trial in 0..40 {
            let n = 3 + (trial % 5);
            let m = 2 + (next() % 10) as usize;
            let clauses: Vec<Vec<i32>> = (0..m)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let v = (next() % n as u64) as i32 + 1;
                            if next() % 2 == 0 {
                                v
                            } else {
                                -v
                            }
                        })
                        .collect()
                })
                .collect();
            let inst = SatInstance::new(n, clauses);
            let brute = inst.brute_force_sat().is_some();
            let (via_versions, _) = solve_sat_via_versions(&inst, Strategy::Backtracking);
            assert_eq!(brute, via_versions.is_some(), "instance {inst:?}");
            if let Some(a) = via_versions {
                assert!(inst.eval(&a));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn literal_range_checked() {
        let _ = SatInstance::new(2, vec![vec![3]]);
    }
}
