//! Unique states `S^U` and database states `S`.
//!
//! A *unique state* assigns exactly one domain value to every entity — the
//! classical notion of "the" database contents. A *database state* is a set
//! of unique states: the paper's device for representing multiple versions.
//! Applying a transaction `t` to a state `S` yields `S ∪ {t(S)}` — old
//! versions are never destroyed.

use crate::{EntityId, KernelError, Schema, Value};
use std::fmt;

/// A unique state `S^U`: one value per entity.
///
/// Stored as a flat array indexed by [`EntityId`]; equality and hashing are
/// structural, so a [`DatabaseState`] can deduplicate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UniqueState {
    values: Box<[Value]>,
}

impl UniqueState {
    /// Build a unique state from per-entity values, validating arity and
    /// domain membership against `schema`.
    pub fn new(schema: &Schema, values: Vec<Value>) -> Result<Self, KernelError> {
        if values.len() != schema.len() {
            return Err(KernelError::ArityMismatch {
                expected: schema.len(),
                actual: values.len(),
            });
        }
        for (i, &v) in values.iter().enumerate() {
            let e = EntityId(i as u32);
            if !schema.domain(e).contains(v) {
                return Err(KernelError::ValueOutOfDomain {
                    entity: e,
                    value: v,
                });
            }
        }
        Ok(UniqueState {
            values: values.into_boxed_slice(),
        })
    }

    /// Build without validation. Use only for values already known to be in
    /// domain (e.g. produced by [`UniqueState::with_update`]).
    pub fn from_values_unchecked(values: Vec<Value>) -> Self {
        UniqueState {
            values: values.into_boxed_slice(),
        }
    }

    /// The constant state assigning `value` to every one of `n` entities.
    pub fn constant(n: usize, value: Value) -> Self {
        UniqueState {
            values: vec![value; n].into_boxed_slice(),
        }
    }

    /// Value of entity `e` — the paper's `S^U(e)`.
    #[inline]
    pub fn get(&self, e: EntityId) -> Value {
        self.values[e.index()]
    }

    /// Number of entities.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Iterate `(entity, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (EntityId, Value)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (EntityId(i as u32), v))
    }

    /// A copy of this state with entity `e` set to `value`, validated against
    /// `schema`. This is the primitive a write step performs.
    pub fn with_update(
        &self,
        schema: &Schema,
        e: EntityId,
        value: Value,
    ) -> Result<Self, KernelError> {
        if !schema.contains(e) {
            return Err(KernelError::EntityOutOfRange(e));
        }
        if !schema.domain(e).contains(value) {
            return Err(KernelError::ValueOutOfDomain { entity: e, value });
        }
        let mut values = self.values.to_vec();
        values[e.index()] = value;
        Ok(UniqueState {
            values: values.into_boxed_slice(),
        })
    }

    /// Raw value slice (indexed by entity id).
    pub fn values(&self) -> &[Value] {
        &self.values
    }
}

impl fmt::Display for UniqueState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "⟩")
    }
}

/// A database state `S`: a non-empty set of unique states.
///
/// The set is kept sorted and deduplicated so that equality is semantic set
/// equality and membership tests are `O(log n)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatabaseState {
    states: Vec<UniqueState>,
}

impl DatabaseState {
    /// A database state with a single version — the classical restriction
    /// `|S| = 1` of Section 4.1.
    pub fn singleton(state: UniqueState) -> Self {
        DatabaseState {
            states: vec![state],
        }
    }

    /// Build from a collection of unique states, deduplicating.
    pub fn from_states(states: Vec<UniqueState>) -> Result<Self, KernelError> {
        if states.is_empty() {
            return Err(KernelError::EmptyDatabaseState);
        }
        let mut s = DatabaseState { states: Vec::new() };
        for st in states {
            s.insert(st);
        }
        Ok(s)
    }

    /// Insert a unique state (the result of a transaction): `S ← S ∪ {S^U}`.
    /// Returns `true` if the state was new.
    pub fn insert(&mut self, state: UniqueState) -> bool {
        match self
            .states
            .binary_search_by(|probe| probe.values().cmp(state.values()))
        {
            Ok(_) => false,
            Err(pos) => {
                self.states.insert(pos, state);
                true
            }
        }
    }

    /// Number of unique states `|S|`.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Always false: database states are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The unique states, sorted.
    pub fn states(&self) -> &[UniqueState] {
        &self.states
    }

    /// Is `state` a member of `S`?
    pub fn contains(&self, state: &UniqueState) -> bool {
        self.states
            .binary_search_by(|probe| probe.values().cmp(state.values()))
            .is_ok()
    }

    /// The distinct values entity `e` takes across the unique states — the
    /// candidate versions of `e`. Sorted ascending.
    pub fn values_of(&self, e: EntityId) -> Vec<Value> {
        let mut vs: Vec<Value> = self.states.iter().map(|s| s.get(e)).collect();
        vs.sort_unstable();
        vs.dedup();
        vs
    }

    /// Number of entities (arity of each member state).
    pub fn arity(&self) -> usize {
        self.states.first().map_or(0, |s| s.arity())
    }

    /// `|V_S|`: the number of version states generable from `S`, i.e. the
    /// product over entities of the number of distinct values of each entity.
    /// Saturates at `u128::MAX`.
    pub fn version_space_size(&self) -> u128 {
        let mut n: u128 = 1;
        for e in (0..self.arity() as u32).map(EntityId) {
            n = n.saturating_mul(self.values_of(e).len() as u128);
        }
        n
    }
}

impl fmt::Display for DatabaseState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, s) in self.states.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Domain;

    fn schema3() -> Schema {
        Schema::uniform(["x", "y", "z"], Domain::Range { min: 0, max: 9 })
    }

    #[test]
    fn unique_state_construction_and_access() {
        let s = schema3();
        let u = UniqueState::new(&s, vec![1, 2, 3]).unwrap();
        assert_eq!(u.get(EntityId(0)), 1);
        assert_eq!(u.get(EntityId(2)), 3);
        assert_eq!(u.arity(), 3);
    }

    #[test]
    fn unique_state_rejects_bad_arity_and_domain() {
        let s = schema3();
        assert!(matches!(
            UniqueState::new(&s, vec![1, 2]),
            Err(KernelError::ArityMismatch { .. })
        ));
        assert!(matches!(
            UniqueState::new(&s, vec![1, 2, 42]),
            Err(KernelError::ValueOutOfDomain { .. })
        ));
    }

    #[test]
    fn with_update_preserves_others() {
        let s = schema3();
        let u = UniqueState::new(&s, vec![1, 2, 3]).unwrap();
        let u2 = u.with_update(&s, EntityId(1), 7).unwrap();
        assert_eq!(u2.get(EntityId(0)), 1);
        assert_eq!(u2.get(EntityId(1)), 7);
        assert_eq!(u2.get(EntityId(2)), 3);
        // original untouched
        assert_eq!(u.get(EntityId(1)), 2);
    }

    #[test]
    fn with_update_validates() {
        let s = schema3();
        let u = UniqueState::new(&s, vec![1, 2, 3]).unwrap();
        assert!(u.with_update(&s, EntityId(1), 10).is_err());
        assert!(u.with_update(&s, EntityId(9), 1).is_err());
    }

    #[test]
    fn database_state_dedups() {
        let s = schema3();
        let a = UniqueState::new(&s, vec![1, 2, 3]).unwrap();
        let b = UniqueState::new(&s, vec![1, 2, 3]).unwrap();
        let c = UniqueState::new(&s, vec![4, 5, 6]).unwrap();
        let db = DatabaseState::from_states(vec![a, b, c]).unwrap();
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn database_state_rejects_empty() {
        assert!(matches!(
            DatabaseState::from_states(vec![]),
            Err(KernelError::EmptyDatabaseState)
        ));
    }

    #[test]
    fn insert_is_set_union() {
        let s = schema3();
        let a = UniqueState::new(&s, vec![1, 2, 3]).unwrap();
        let mut db = DatabaseState::singleton(a.clone());
        assert!(!db.insert(a.clone()));
        assert_eq!(db.len(), 1);
        let b = UniqueState::new(&s, vec![0, 0, 0]).unwrap();
        assert!(db.insert(b.clone()));
        assert_eq!(db.len(), 2);
        assert!(db.contains(&a) && db.contains(&b));
    }

    #[test]
    fn values_of_collects_distinct_versions() {
        let s = schema3();
        let db = DatabaseState::from_states(vec![
            UniqueState::new(&s, vec![1, 2, 3]).unwrap(),
            UniqueState::new(&s, vec![1, 5, 3]).unwrap(),
            UniqueState::new(&s, vec![4, 2, 3]).unwrap(),
        ])
        .unwrap();
        assert_eq!(db.values_of(EntityId(0)), vec![1, 4]);
        assert_eq!(db.values_of(EntityId(1)), vec![2, 5]);
        assert_eq!(db.values_of(EntityId(2)), vec![3]);
        // |V_S| = 2 * 2 * 1
        assert_eq!(db.version_space_size(), 4);
    }

    #[test]
    fn singleton_version_space_is_one() {
        let s = schema3();
        let db = DatabaseState::singleton(UniqueState::new(&s, vec![1, 2, 3]).unwrap());
        assert_eq!(db.version_space_size(), 1);
    }

    #[test]
    fn display_round_trip_smoke() {
        let s = schema3();
        let u = UniqueState::new(&s, vec![1, 2, 3]).unwrap();
        assert_eq!(u.to_string(), "⟨1, 2, 3⟩");
        let db = DatabaseState::singleton(u);
        assert_eq!(db.to_string(), "{⟨1, 2, 3⟩}");
    }
}
