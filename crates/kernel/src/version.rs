//! Version states `v ∈ V_S` and enumeration of the version space.
//!
//! The paper (Section 3.1) defines the *version state* of a database state
//! `S` as every assignment `f` such that for each entity `e`, some unique
//! state `g ∈ S` has `g(e) = f(e)`. A version state mixes values from
//! different unique states — this is exactly what lets a transaction read
//! version 3 of `x` alongside version 1 of `y`.
//!
//! Two facts from the paper are encoded as invariants here:
//!
//! * every `v ∈ V_S` "satisfies the definition of a unique state" — so
//!   [`VersionState`] wraps a [`UniqueState`] and can be used wherever one is
//!   expected;
//! * if `|S| = 1` then `V_S = S` — see `singleton_version_space` in the tests.

use crate::{DatabaseState, EntityId, UniqueState, Value};
use std::fmt;

/// A version state: a per-entity mixture of values drawn from the unique
/// states of some [`DatabaseState`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VersionState {
    state: UniqueState,
}

impl VersionState {
    /// Build a version state from `values`, verifying the defining condition
    /// of `V_S`: every entity's value must appear in some unique state of
    /// `db`. Returns `None` if the condition fails.
    pub fn try_from_state(db: &DatabaseState, values: Vec<Value>) -> Option<Self> {
        if values.len() != db.arity() {
            return None;
        }
        for (i, &v) in values.iter().enumerate() {
            let e = EntityId(i as u32);
            if !db.states().iter().any(|s| s.get(e) == v) {
                return None;
            }
        }
        Some(VersionState {
            state: UniqueState::from_values_unchecked(values),
        })
    }

    /// Value of entity `e` — the paper's `v(e)`.
    #[inline]
    pub fn get(&self, e: EntityId) -> Value {
        self.state.get(e)
    }

    /// Number of entities.
    pub fn arity(&self) -> usize {
        self.state.arity()
    }

    /// View as a unique state (every version state is one).
    pub fn as_unique(&self) -> &UniqueState {
        &self.state
    }

    /// Consume into the underlying unique state.
    pub fn into_unique(self) -> UniqueState {
        self.state
    }

    /// Is this version state a member of `V_S` for the given database state?
    pub fn is_member_of(&self, db: &DatabaseState) -> bool {
        if self.arity() != db.arity() {
            return false;
        }
        (0..self.arity() as u32).map(EntityId).all(|e| {
            let v = self.get(e);
            db.states().iter().any(|s| s.get(e) == v)
        })
    }
}

impl fmt::Display for VersionState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.state)
    }
}

/// Exhaustive enumerator over `V_S`: the cartesian product of each entity's
/// distinct values in `S`.
///
/// ```
/// use ks_kernel::{DatabaseState, Domain, Schema, UniqueState, VersionSpace};
/// let schema = Schema::uniform(["x", "y"], Domain::Boolean);
/// let db = DatabaseState::from_states(vec![
///     UniqueState::new(&schema, vec![0, 1]).unwrap(),
///     UniqueState::new(&schema, vec![1, 0]).unwrap(),
/// ]).unwrap();
/// // Two unique states, but FOUR version states: values mix across versions.
/// assert_eq!(VersionSpace::new(&db).count(), 4);
/// ```
///
/// The size of this space is the source of the NP-hardness in Lemma 1, so the
/// iterator is lazy; callers that only need small spaces (tests, brute-force
/// oracles) can collect it, while the solver in `ks-predicate` searches it
/// with pruning instead.
pub struct VersionSpace {
    /// Distinct values per entity, ascending.
    per_entity: Vec<Vec<Value>>,
    /// Odometer over `per_entity`; `None` once exhausted.
    cursor: Option<Vec<usize>>,
}

impl VersionSpace {
    /// Enumerator for the version space of `db`.
    pub fn new(db: &DatabaseState) -> Self {
        let per_entity: Vec<Vec<Value>> = (0..db.arity() as u32)
            .map(|i| db.values_of(EntityId(i)))
            .collect();
        let cursor = if per_entity.iter().any(|vs| vs.is_empty()) {
            None
        } else {
            Some(vec![0; per_entity.len()])
        };
        VersionSpace { per_entity, cursor }
    }

    /// Total number of version states (saturating).
    pub fn size(&self) -> u128 {
        self.per_entity
            .iter()
            .fold(1u128, |n, vs| n.saturating_mul(vs.len() as u128))
    }

    /// Candidate values for one entity.
    pub fn candidates(&self, e: EntityId) -> &[Value] {
        &self.per_entity[e.index()]
    }
}

impl Iterator for VersionSpace {
    type Item = VersionState;

    fn next(&mut self) -> Option<VersionState> {
        let cursor = self.cursor.as_mut()?;
        let values: Vec<Value> = cursor
            .iter()
            .zip(&self.per_entity)
            .map(|(&i, vs)| vs[i])
            .collect();
        // Advance the odometer (last entity varies fastest).
        let mut done = true;
        for i in (0..cursor.len()).rev() {
            cursor[i] += 1;
            if cursor[i] < self.per_entity[i].len() {
                done = false;
                break;
            }
            cursor[i] = 0;
        }
        if done {
            self.cursor = None;
        }
        Some(VersionState {
            state: UniqueState::from_values_unchecked(values),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Domain, Schema};

    fn db_two_states() -> (Schema, DatabaseState) {
        let s = Schema::uniform(["x", "y"], Domain::Range { min: 0, max: 9 });
        let db = DatabaseState::from_states(vec![
            UniqueState::new(&s, vec![1, 2]).unwrap(),
            UniqueState::new(&s, vec![3, 4]).unwrap(),
        ])
        .unwrap();
        (s, db)
    }

    #[test]
    fn version_space_is_cartesian_product() {
        let (_, db) = db_two_states();
        let all: Vec<VersionState> = VersionSpace::new(&db).collect();
        assert_eq!(all.len(), 4);
        let values: Vec<(Value, Value)> = all
            .iter()
            .map(|v| (v.get(EntityId(0)), v.get(EntityId(1))))
            .collect();
        assert!(values.contains(&(1, 2)));
        assert!(values.contains(&(1, 4))); // the mixed states are the point
        assert!(values.contains(&(3, 2)));
        assert!(values.contains(&(3, 4)));
    }

    #[test]
    fn every_enumerated_state_is_a_member() {
        let (_, db) = db_two_states();
        for v in VersionSpace::new(&db) {
            assert!(v.is_member_of(&db));
        }
    }

    #[test]
    fn membership_rejects_foreign_values() {
        let (_, db) = db_two_states();
        assert!(VersionState::try_from_state(&db, vec![1, 9]).is_none());
        assert!(VersionState::try_from_state(&db, vec![1, 4]).is_some());
        assert!(VersionState::try_from_state(&db, vec![1]).is_none());
    }

    /// Paper: "if |S| = 1 and S^U ∈ S, then V_S = {S^U}".
    #[test]
    fn singleton_version_space() {
        let s = Schema::uniform(["x", "y"], Domain::Range { min: 0, max: 9 });
        let u = UniqueState::new(&s, vec![5, 6]).unwrap();
        let db = DatabaseState::singleton(u.clone());
        let all: Vec<VersionState> = VersionSpace::new(&db).collect();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].as_unique(), &u);
    }

    #[test]
    fn size_matches_enumeration() {
        let s = Schema::uniform(["x", "y", "z"], Domain::Range { min: 0, max: 9 });
        let db = DatabaseState::from_states(vec![
            UniqueState::new(&s, vec![1, 2, 3]).unwrap(),
            UniqueState::new(&s, vec![1, 5, 4]).unwrap(),
            UniqueState::new(&s, vec![2, 5, 3]).unwrap(),
        ])
        .unwrap();
        let space = VersionSpace::new(&db);
        let size = space.size();
        let count = VersionSpace::new(&db).count() as u128;
        assert_eq!(size, count);
        assert_eq!(size, 2 * 2 * 2);
    }

    #[test]
    fn version_state_usable_as_unique_state() {
        let (_, db) = db_two_states();
        let v = VersionState::try_from_state(&db, vec![3, 2]).unwrap();
        let u = v.clone().into_unique();
        assert_eq!(u.get(EntityId(0)), 3);
        assert_eq!(v.as_unique().arity(), 2);
    }
}
