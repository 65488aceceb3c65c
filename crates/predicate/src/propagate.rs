//! Constraint propagation: prune candidate version values before search.
//!
//! Section 5.1 suggests treating version selection "as a query … to find
//! the tuples which satisfy the predicate", using database-style machinery
//! to cut the search space. This module is that machinery in constraint-
//! propagation form:
//!
//! * **unit constant atoms** (`x θ c` alone in a clause) filter `x`'s
//!   candidate list outright;
//! * **unit binary atoms** (`x θ y` alone in a clause) are made
//!   arc-consistent: a value of `x` survives only if some value of `y`
//!   supports it (AC-3 style, iterated to fixpoint).
//!
//! Propagation is sound (never removes a value that appears in a satisfying
//! assignment) and can decide unsatisfiability outright when a candidate
//! list empties. [`solve_with_propagation`] runs it as a preprocessing pass
//! in front of the ordinary solver; `exp_np_scaling`'s Part C
//! (`ablate-assign`) and the ablation tests quantify the effect.

use crate::solver::{solve, SolveOutcome, SolveStats, Strategy};
use crate::{Atom, Cnf, Operand};
use ks_kernel::{EntityId, Value};

/// Outcome of a propagation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Propagation {
    /// Candidates pruned (possibly zero removals); search still needed.
    Pruned {
        /// Number of candidate values removed.
        removed: u64,
    },
    /// Some entity lost all its candidates: the predicate is unsatisfiable
    /// over the given candidates.
    Unsatisfiable(EntityId),
}

/// One pass utility: does `value` satisfy `atom` given that the atom's
/// other operand (if an entity) may take any value from `others`?
fn supported(atom: &Atom, entity: EntityId, value: Value, candidates: &[Vec<Value>]) -> bool {
    let eval_with = |l: Value, r: Value| atom.op.apply(l, r);
    match (atom.lhs, atom.rhs) {
        (Operand::Entity(e), Operand::Const(c)) if e == entity => eval_with(value, c),
        (Operand::Const(c), Operand::Entity(e)) if e == entity => eval_with(c, value),
        (Operand::Entity(a), Operand::Entity(b)) if a == entity => candidates
            .get(b.index())
            .is_some_and(|vs| vs.iter().any(|&r| eval_with(value, r))),
        (Operand::Entity(a), Operand::Entity(b)) if b == entity => candidates
            .get(a.index())
            .is_some_and(|vs| vs.iter().any(|&l| eval_with(l, value))),
        // atom doesn't mention the entity: no constraint from it
        _ => true,
    }
}

/// Prune `candidates` to arc-consistency with the *unit clauses* of `cnf`.
/// Multi-atom clauses are disjunctions and cannot prune individually.
pub fn propagate(cnf: &Cnf, candidates: &mut [Vec<Value>]) -> Propagation {
    let unit_atoms: Vec<Atom> = cnf
        .clauses()
        .iter()
        .filter(|c| c.len() == 1)
        .map(|c| c.atoms()[0])
        .collect();
    let mut removed = 0u64;
    loop {
        let mut changed = false;
        for atom in &unit_atoms {
            for entity in atom.entities() {
                if entity.index() >= candidates.len() {
                    return Propagation::Unsatisfiable(entity);
                }
                // Split borrow: clone the frame of reference for supports.
                let frame: Vec<Vec<Value>> = candidates.to_vec();
                let list = &mut candidates[entity.index()];
                let before = list.len();
                list.retain(|&v| supported(atom, entity, v, &frame));
                let after = list.len();
                if after < before {
                    removed += (before - after) as u64;
                    changed = true;
                }
                if list.is_empty() {
                    return Propagation::Unsatisfiable(entity);
                }
            }
        }
        if !changed {
            return Propagation::Pruned { removed };
        }
    }
}

/// Solve with a propagation pass first. Returns the outcome, the solver
/// statistics, and the propagation result.
pub fn solve_with_propagation(
    cnf: &Cnf,
    candidates: &[Vec<Value>],
    strategy: Strategy,
) -> (SolveOutcome, SolveStats, Propagation) {
    let mut pruned = candidates.to_vec();
    match propagate(cnf, &mut pruned) {
        Propagation::Unsatisfiable(e) => (
            SolveOutcome::Unsat,
            SolveStats::default(),
            Propagation::Unsatisfiable(e),
        ),
        prop => {
            let (outcome, stats) = solve(cnf, &pruned, strategy);
            (outcome, stats, prop)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{random_candidates, random_cnf, CnfParams, SplitMix64};
    use crate::{parse_cnf, Strategy};
    use ks_kernel::{Domain, Schema};

    fn schema() -> Schema {
        Schema::uniform(["x", "y", "z"], Domain::Range { min: 0, max: 99 })
    }

    #[test]
    fn constant_unit_atoms_prune() {
        let cnf = parse_cnf(&schema(), "x >= 5 & x <= 7").unwrap();
        let mut cands = vec![vec![1, 5, 6, 8, 9], vec![0], vec![0]];
        let p = propagate(&cnf, &mut cands);
        assert_eq!(p, Propagation::Pruned { removed: 3 });
        assert_eq!(cands[0], vec![5, 6]);
    }

    #[test]
    fn binary_unit_atoms_arc_consistent() {
        // x < y with x ∈ {1, 5, 9}, y ∈ {2, 6}: x = 9 has no support;
        // y = 2 supported by x = 1.
        let cnf = parse_cnf(&schema(), "x < y").unwrap();
        let mut cands = vec![vec![1, 5, 9], vec![2, 6], vec![0]];
        let p = propagate(&cnf, &mut cands);
        assert!(matches!(p, Propagation::Pruned { removed: 1 }));
        assert_eq!(cands[0], vec![1, 5]);
        assert_eq!(cands[1], vec![2, 6]);
    }

    #[test]
    fn chained_propagation_reaches_fixpoint() {
        // x < y & y < z with tight lists: prunes cascade.
        let cnf = parse_cnf(&schema(), "x < y & y < z").unwrap();
        let mut cands = vec![vec![1, 2, 3], vec![1, 2, 3], vec![1, 2, 3]];
        propagate(&cnf, &mut cands);
        assert_eq!(cands[0], vec![1]);
        assert_eq!(cands[1], vec![2]);
        assert_eq!(cands[2], vec![3]);
    }

    #[test]
    fn unsatisfiable_detected_without_search() {
        let cnf = parse_cnf(&schema(), "x > 50").unwrap();
        let mut cands = vec![vec![1, 2, 3], vec![0], vec![0]];
        assert_eq!(
            propagate(&cnf, &mut cands),
            Propagation::Unsatisfiable(ks_kernel::EntityId(0))
        );
        let (out, stats, _) = solve_with_propagation(
            &cnf,
            &[vec![1, 2, 3], vec![0], vec![0]],
            Strategy::Backtracking,
        );
        assert_eq!(out, SolveOutcome::Unsat);
        assert_eq!(stats.nodes, 0); // no search at all
    }

    #[test]
    fn disjunctive_clauses_do_not_prune() {
        let cnf = parse_cnf(&schema(), "(x = 1 | x = 9)").unwrap();
        let mut cands = vec![vec![1, 5, 9], vec![0], vec![0]];
        let p = propagate(&cnf, &mut cands);
        assert_eq!(p, Propagation::Pruned { removed: 0 });
        assert_eq!(cands[0], vec![1, 5, 9]); // 5 survives: clause is a disjunction
    }

    /// Soundness: propagation never changes satisfiability, and the pruned
    /// search agrees with the unpruned one on many random instances.
    #[test]
    fn propagation_preserves_satisfiability() {
        let mut rng = SplitMix64::new(2024);
        let params = CnfParams {
            num_entities: 5,
            num_clauses: 5,
            clause_width: 2,
            max_const: 6,
            entity_entity_pct: 40,
        };
        for _ in 0..60 {
            let cnf = random_cnf(&mut rng, &params);
            let cands = random_candidates(&mut rng, 5, 4, 6);
            let (plain, _) = solve(&cnf, &cands, Strategy::Backtracking);
            let (pruned, _, _) = solve_with_propagation(&cnf, &cands, Strategy::Backtracking);
            assert_eq!(plain.is_sat(), pruned.is_sat(), "{cnf}");
        }
    }

    /// Effectiveness: on unit-heavy predicates, propagation reduces solver
    /// nodes.
    #[test]
    fn propagation_reduces_search_nodes() {
        let schema = Schema::uniform(
            (0..8).map(|i| format!("v{i}")),
            Domain::Range { min: 0, max: 9 },
        );
        let text = "v0 = 3 & v1 = 4 & v2 = 5 & (v3 = 1 | v4 = 2) & v5 < v6";
        let cnf = parse_cnf(&schema, text).unwrap();
        let cands: Vec<Vec<i64>> = (0..8).map(|_| (0..10).collect()).collect();
        let (o1, s1) = solve(&cnf, &cands, Strategy::Backtracking);
        let (o2, s2, _) = solve_with_propagation(&cnf, &cands, Strategy::Backtracking);
        assert_eq!(o1.is_sat(), o2.is_sat());
        assert!(s2.nodes <= s1.nodes, "{} vs {}", s2.nodes, s1.nodes);
    }
}
