//! The version-assignment solver.
//!
//! This is the computational core of the paper's Lemma 1: *given a database
//! state `S` (equivalently, a set of candidate values per entity) and an
//! input predicate `I_t`, does some version state `v ∈ V_S` satisfy
//! `I_t(v)`?* The problem is NP-complete, so the solver offers three
//! strategies whose cost is measured by the benches:
//!
//! * [`Strategy::Exhaustive`] — enumerate the whole version space and test
//!   each state (the naive algorithm implied by the NP membership proof);
//! * [`Strategy::Backtracking`] — depth-first search over predicate entities
//!   with clause-level pruning and a fewest-candidates-first variable order;
//! * [`Strategy::GreedyLatest`] — the same search but trying each entity's
//!   *latest* candidate first. Section 5.1 suggests heuristics biased toward
//!   recent versions ("at least one transaction … will have only one version
//!   to choose"); callers pass candidates in chronological order.
//!
//! All strategies are complete: they return `Sat` iff a satisfying version
//! state exists. The protocol uses [`solve_pinned`] during `re-assign`
//! (Figure 4) to force already-read entities to keep their values.

use crate::{Cnf, Valuation};
use ks_kernel::{DatabaseState, EntityId, Value};

/// Search strategy for the version-assignment problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Full enumeration of the version space.
    Exhaustive,
    /// Backtracking with clause pruning, fewest-candidates-first.
    Backtracking,
    /// Backtracking, trying each entity's last (latest) candidate first.
    GreedyLatest,
}

/// Counters describing the work a solve performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Variable assignments attempted (search-tree nodes).
    pub nodes: u64,
    /// Clause evaluations performed.
    pub clause_checks: u64,
}

/// Result of a solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveOutcome {
    /// A satisfying full assignment (indexed by entity id).
    Sat(Vec<Value>),
    /// No version state satisfies the predicate.
    Unsat,
}

impl SolveOutcome {
    /// The satisfying assignment, if any.
    pub fn assignment(&self) -> Option<&[Value]> {
        match self {
            SolveOutcome::Sat(v) => Some(v),
            SolveOutcome::Unsat => None,
        }
    }

    /// Did the solve succeed?
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveOutcome::Sat(_))
    }
}

/// A partial assignment readable as a [`Valuation`] only for assigned
/// entities; used internally for clause checks on fully-assigned clauses.
struct Partial<'a> {
    values: &'a [Value],
}

impl Valuation for Partial<'_> {
    #[inline]
    fn value_of(&self, e: EntityId) -> Value {
        self.values[e.index()]
    }
}

/// Solve the version-assignment problem over explicit per-entity candidates.
///
/// `candidates[i]` lists the values entity `i` may take, in chronological
/// (oldest-first) order; every list must be non-empty. Entities not
/// mentioned by `cnf` receive their first candidate.
///
/// ```
/// use ks_kernel::{Domain, Schema};
/// use ks_predicate::{parse_cnf, solve, Strategy};
/// let schema = Schema::uniform(["x", "y"], Domain::Range { min: 0, max: 9 });
/// let cnf = parse_cnf(&schema, "x = y").unwrap();
/// // Only the mixed assignment x=2 (new version), y=2 (old version) works.
/// let candidates = vec![vec![1, 2], vec![2, 3]];
/// let (outcome, _) = solve(&cnf, &candidates, Strategy::Backtracking);
/// assert_eq!(outcome.assignment().unwrap(), &[2, 2]);
/// ```
pub fn solve(
    cnf: &Cnf,
    candidates: &[Vec<Value>],
    strategy: Strategy,
) -> (SolveOutcome, SolveStats) {
    assert!(
        candidates.iter().all(|c| !c.is_empty()),
        "every entity needs at least one candidate value"
    );
    match strategy {
        Strategy::Exhaustive => exhaustive(cnf, candidates),
        Strategy::Backtracking => backtrack(cnf, candidates, false),
        Strategy::GreedyLatest => backtrack(cnf, candidates, true),
    }
}

/// Solve against the version space of a database state.
pub fn solve_over_state(
    cnf: &Cnf,
    db: &DatabaseState,
    strategy: Strategy,
) -> (SolveOutcome, SolveStats) {
    let candidates: Vec<Vec<Value>> = (0..db.arity() as u32)
        .map(|i| db.values_of(EntityId(i)))
        .collect();
    solve(cnf, &candidates, strategy)
}

/// Solve with some entities pinned to fixed values (the `re-assign`
/// procedure: entities the transaction has already read keep their value).
///
/// `pins` are `(entity, value)` pairs; a pin replaces the candidate list of
/// its entity. A pinned value need not appear in the original candidates —
/// the caller asserts it was a legitimately readable version.
pub fn solve_pinned(
    cnf: &Cnf,
    candidates: &[Vec<Value>],
    pins: &[(EntityId, Value)],
    strategy: Strategy,
) -> (SolveOutcome, SolveStats) {
    let mut cands = candidates.to_vec();
    for &(e, v) in pins {
        cands[e.index()] = vec![v];
    }
    solve(cnf, &cands, strategy)
}

fn exhaustive(cnf: &Cnf, candidates: &[Vec<Value>]) -> (SolveOutcome, SolveStats) {
    let n = candidates.len();
    let mut stats = SolveStats::default();
    let mut cursor = vec![0usize; n];
    loop {
        stats.nodes += 1;
        let values: Vec<Value> = cursor
            .iter()
            .zip(candidates)
            .map(|(&i, cs)| cs[i])
            .collect();
        stats.clause_checks += cnf.len() as u64;
        if cnf.eval(&values) {
            return (SolveOutcome::Sat(values), stats);
        }
        // odometer
        let mut done = true;
        for i in (0..n).rev() {
            cursor[i] += 1;
            if cursor[i] < candidates[i].len() {
                done = false;
                break;
            }
            cursor[i] = 0;
        }
        if done {
            return (SolveOutcome::Unsat, stats);
        }
    }
}

fn backtrack(
    cnf: &Cnf,
    candidates: &[Vec<Value>],
    latest_first: bool,
) -> (SolveOutcome, SolveStats) {
    let n = candidates.len();
    let mut stats = SolveStats::default();

    // Only branch on entities the predicate mentions; others take their
    // first (or last, under GreedyLatest) candidate.
    let mentioned = cnf.entities();
    let default_of = |cs: &Vec<Value>| {
        if latest_first {
            *cs.last().unwrap()
        } else {
            cs[0]
        }
    };
    let mut values: Vec<Value> = candidates.iter().map(default_of).collect();

    // Static fewest-candidates-first order over mentioned entities.
    let mut order: Vec<EntityId> = mentioned
        .iter()
        .copied()
        .filter(|e| e.index() < n)
        .collect();
    order.sort_by_key(|e| candidates[e.index()].len());

    // If the predicate mentions entities beyond the candidate arity, treat
    // the problem as unsatisfiable rather than panic.
    if mentioned.iter().any(|e| e.index() >= n) {
        return (SolveOutcome::Unsat, stats);
    }

    // Per-entity clause index and per-clause "last variable in `order`".
    // A clause can be checked as soon as all of its entities are assigned.
    let mut depth_of = vec![usize::MAX; n];
    for (d, e) in order.iter().enumerate() {
        depth_of[e.index()] = d;
    }
    // clauses_ready[d] = clauses whose deepest mentioned entity is order[d]
    let mut clauses_ready: Vec<Vec<usize>> = vec![Vec::new(); order.len().max(1)];
    let mut constant_clauses: Vec<usize> = Vec::new();
    for (ci, clause) in cnf.clauses().iter().enumerate() {
        let deepest = clause
            .object()
            .iter()
            .map(|e| depth_of[e.index()])
            .max()
            .unwrap_or(usize::MAX);
        if deepest == usize::MAX {
            constant_clauses.push(ci);
        } else {
            clauses_ready[deepest].push(ci);
        }
    }

    // Constant-only clauses must hold outright.
    for &ci in &constant_clauses {
        stats.clause_checks += 1;
        let p = Partial { values: &values };
        if !cnf.clauses()[ci].eval(&p) {
            return (SolveOutcome::Unsat, stats);
        }
    }

    if order.is_empty() {
        stats.nodes += 1;
        return (SolveOutcome::Sat(values), stats);
    }

    // Iterative DFS with an explicit choice stack.
    let mut choice = vec![0usize; order.len()];
    let mut depth = 0usize;
    loop {
        let e = order[depth];
        let cands = &candidates[e.index()];
        if choice[depth] >= cands.len() {
            // exhausted this level: backtrack
            choice[depth] = 0;
            if depth == 0 {
                return (SolveOutcome::Unsat, stats);
            }
            depth -= 1;
            choice[depth] += 1;
            continue;
        }
        let idx = if latest_first {
            cands.len() - 1 - choice[depth]
        } else {
            choice[depth]
        };
        values[e.index()] = cands[idx];
        stats.nodes += 1;

        // Check every clause that became fully assigned at this depth.
        let mut ok = true;
        for &ci in &clauses_ready[depth] {
            stats.clause_checks += 1;
            let p = Partial { values: &values };
            if !cnf.clauses()[ci].eval(&p) {
                ok = false;
                break;
            }
        }
        if !ok {
            choice[depth] += 1;
            continue;
        }
        if depth + 1 == order.len() {
            return (SolveOutcome::Sat(values), stats);
        }
        depth += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_cnf, Atom, CmpOp};
    use ks_kernel::{Domain, Schema, UniqueState};

    const ALL: [Strategy; 3] = [
        Strategy::Exhaustive,
        Strategy::Backtracking,
        Strategy::GreedyLatest,
    ];

    fn schema3() -> Schema {
        Schema::uniform(["x", "y", "z"], Domain::Range { min: 0, max: 9 })
    }

    #[test]
    fn trivial_truth_satisfied_immediately() {
        for s in ALL {
            let (out, _) = solve(&Cnf::truth(), &[vec![1], vec![2]], s);
            assert_eq!(out.assignment().unwrap(), &[1, 2]);
        }
    }

    #[test]
    fn greedy_latest_picks_last_candidates_for_truth() {
        let (out, _) = solve(
            &Cnf::truth(),
            &[vec![1, 5], vec![2, 6]],
            Strategy::GreedyLatest,
        );
        assert_eq!(out.assignment().unwrap(), &[5, 6]);
    }

    #[test]
    fn all_strategies_agree_on_satisfiability() {
        let schema = schema3();
        // (x = 1 | y = 2) & z > 5, with candidate sets forcing mixing.
        let cnf = parse_cnf(&schema, "(x = 1 | y = 2) & z > 5").unwrap();
        let candidates = vec![vec![0, 3], vec![2, 4], vec![1, 7]];
        for s in ALL {
            let (out, _) = solve(&cnf, &candidates, s);
            let a = out.assignment().expect("should be satisfiable");
            assert!(cnf.eval(&a.to_vec()));
        }
    }

    #[test]
    fn all_strategies_agree_on_unsat() {
        let schema = schema3();
        let cnf = parse_cnf(&schema, "x = 9 & y < 2").unwrap();
        let candidates = vec![vec![0, 3], vec![2, 4], vec![1]];
        for s in ALL {
            let (out, _) = solve(&cnf, &candidates, s);
            assert_eq!(out, SolveOutcome::Unsat, "{s:?}");
        }
    }

    #[test]
    fn entity_to_entity_atoms() {
        let schema = schema3();
        let cnf = parse_cnf(&schema, "x < y & y < z").unwrap();
        let candidates = vec![vec![5, 2], vec![1, 3], vec![0, 4]];
        for s in ALL {
            let (out, _) = solve(&cnf, &candidates, s);
            let a = out.assignment().unwrap();
            assert_eq!(a, &[2, 3, 4], "{s:?}");
        }
    }

    #[test]
    fn solve_over_state_mixes_versions() {
        let schema = Schema::uniform(["x", "y"], Domain::Boolean);
        let db = DatabaseState::from_states(vec![
            UniqueState::new(&schema, vec![0, 1]).unwrap(),
            UniqueState::new(&schema, vec![1, 0]).unwrap(),
        ])
        .unwrap();
        let cnf = Cnf::atom(Atom::cmp_const(EntityId(0), CmpOp::Eq, 1))
            .and(Cnf::atom(Atom::cmp_const(EntityId(1), CmpOp::Eq, 1)));
        for s in ALL {
            let (out, _) = solve_over_state(&cnf, &db, s);
            assert_eq!(out.assignment().unwrap(), &[1, 1], "{s:?}");
        }
    }

    #[test]
    fn pins_restrict_the_search() {
        let schema = schema3();
        let cnf = parse_cnf(&schema, "(x = 1 | x = 3)").unwrap();
        let candidates = vec![vec![1, 3], vec![0], vec![0]];
        // Unpinned: satisfiable.
        let (out, _) = solve(&cnf, &candidates, Strategy::Backtracking);
        assert!(out.is_sat());
        // Pin x to 5 (a version the transaction already read): now unsat.
        let (out, _) = solve_pinned(
            &cnf,
            &candidates,
            &[(EntityId(0), 5)],
            Strategy::Backtracking,
        );
        assert_eq!(out, SolveOutcome::Unsat);
        // Pin x to 3: satisfiable with the pin respected.
        let (out, _) = solve_pinned(
            &cnf,
            &candidates,
            &[(EntityId(0), 3)],
            Strategy::Backtracking,
        );
        assert_eq!(out.assignment().unwrap()[0], 3);
    }

    #[test]
    fn unsat_constant_clause_short_circuits() {
        let cnf = Cnf::new(vec![crate::Clause::unit(Atom {
            lhs: crate::Operand::Const(0),
            op: CmpOp::Eq,
            rhs: crate::Operand::Const(1),
        })]);
        let (out, stats) = solve(&cnf, &[vec![0, 1], vec![0, 1]], Strategy::Backtracking);
        assert_eq!(out, SolveOutcome::Unsat);
        assert_eq!(stats.nodes, 0); // rejected before any branching
    }

    #[test]
    fn predicate_mentioning_unknown_entity_is_unsat() {
        let schema = Schema::uniform(["a", "b", "c", "d"], Domain::Boolean);
        let cnf = parse_cnf(&schema, "d = 1").unwrap();
        // Only 2 entities' worth of candidates supplied.
        let (out, _) = solve(&cnf, &[vec![0], vec![0]], Strategy::Backtracking);
        assert_eq!(out, SolveOutcome::Unsat);
    }

    #[test]
    fn backtracking_explores_fewer_nodes_than_exhaustive() {
        let schema = Schema::uniform(
            (0..8).map(|i| format!("v{i}")),
            Domain::Range { min: 0, max: 9 },
        );
        // v0 = 99 is impossible: exhaustive scans everything, backtracking
        // fails fast at the first variable.
        let cnf = parse_cnf(&schema, "v0 = 99").unwrap();
        let candidates: Vec<Vec<Value>> = (0..8).map(|_| vec![0, 1, 2]).collect();
        let (o1, s1) = solve(&cnf, &candidates, Strategy::Exhaustive);
        let (o2, s2) = solve(&cnf, &candidates, Strategy::Backtracking);
        assert_eq!(o1, SolveOutcome::Unsat);
        assert_eq!(o2, SolveOutcome::Unsat);
        assert!(s2.nodes < s1.nodes / 100, "{} vs {}", s2.nodes, s1.nodes);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidate_list_panics() {
        let _ = solve(&Cnf::truth(), &[vec![]], Strategy::Backtracking);
    }
}
