//! Entities, domains and schemas.
//!
//! The paper's `E` is the set of all entities in the database; every entity
//! `e` has a domain `dom(e)` from which its values are drawn. A [`Schema`]
//! pins down both, and hands out dense [`EntityId`]s so states can be stored
//! as flat arrays.

use crate::{KernelError, Value};
use std::fmt;

/// A dense identifier for an entity in a [`Schema`].
///
/// Entity ids index directly into state arrays, so they are cheap to copy and
/// compare. They are only meaningful relative to the schema that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntityId(pub u32);

impl EntityId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A finite domain of values an entity may take.
///
/// The paper requires that "a transaction cannot update an entity to an
/// element not in the domain of the entity"; [`Domain::contains`] is the
/// check every write goes through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Domain {
    /// A contiguous inclusive integer range `[min, max]`.
    Range {
        /// Smallest admissible value.
        min: Value,
        /// Largest admissible value.
        max: Value,
    },
    /// An explicit set of admissible values (sorted, deduplicated).
    Enumerated(Vec<Value>),
    /// The Boolean domain `{0, 1}` used by the SAT reduction of Lemma 1.
    Boolean,
}

impl Domain {
    /// Construct an enumerated domain, sorting and deduplicating the values.
    pub fn enumerated(mut values: Vec<Value>) -> Self {
        values.sort_unstable();
        values.dedup();
        Domain::Enumerated(values)
    }

    /// Does this domain admit `value`?
    pub fn contains(&self, value: Value) -> bool {
        match self {
            Domain::Range { min, max } => (*min..=*max).contains(&value),
            Domain::Enumerated(vs) => vs.binary_search(&value).is_ok(),
            Domain::Boolean => value == 0 || value == 1,
        }
    }

    /// Number of values in the domain.
    pub fn cardinality(&self) -> u64 {
        match self {
            Domain::Range { min, max } => {
                if max < min {
                    0
                } else {
                    (max - min) as u64 + 1
                }
            }
            Domain::Enumerated(vs) => vs.len() as u64,
            Domain::Boolean => 2,
        }
    }

    /// The smallest value of the domain, if non-empty.
    pub fn min_value(&self) -> Option<Value> {
        match self {
            Domain::Range { min, max } => (min <= max).then_some(*min),
            Domain::Enumerated(vs) => vs.first().copied(),
            Domain::Boolean => Some(0),
        }
    }

    /// Iterate every value of the domain in ascending order.
    pub fn iter(&self) -> Box<dyn Iterator<Item = Value> + '_> {
        match self {
            Domain::Range { min, max } => Box::new(*min..=*max),
            Domain::Enumerated(vs) => Box::new(vs.iter().copied()),
            Domain::Boolean => Box::new(0..=1),
        }
    }
}

/// Definition of one entity: a human-readable name plus its domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityDef {
    /// Human-readable name (unique within the schema).
    pub name: String,
    /// Admissible values.
    pub domain: Domain,
}

/// The set `E` of all entities, with their domains.
///
/// Immutable once built (use [`SchemaBuilder`]); every state type carries a
/// length equal to [`Schema::len`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    entities: Vec<EntityDef>,
}

impl Schema {
    /// Build a schema where every entity shares the same domain.
    pub fn uniform<S: Into<String>>(names: impl IntoIterator<Item = S>, domain: Domain) -> Self {
        let entities = names
            .into_iter()
            .map(|n| EntityDef {
                name: n.into(),
                domain: domain.clone(),
            })
            .collect();
        Schema { entities }
    }

    /// Convenience: `n` Boolean entities named `x0..x{n-1}` (the SAT
    /// reduction's variable set `U`).
    pub fn booleans(n: usize) -> Self {
        Schema::uniform((0..n).map(|i| format!("x{i}")), Domain::Boolean)
    }

    /// Number of entities `|E|`.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// Is the schema empty?
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// All entity ids in ascending order.
    pub fn entity_ids(&self) -> impl Iterator<Item = EntityId> + '_ {
        (0..self.entities.len() as u32).map(EntityId)
    }

    /// Definition for entity `e`. Panics if `e` is out of range.
    pub fn def(&self, e: EntityId) -> &EntityDef {
        &self.entities[e.index()]
    }

    /// Domain of entity `e`. Panics if `e` is out of range.
    pub fn domain(&self, e: EntityId) -> &Domain {
        &self.entities[e.index()].domain
    }

    /// Name of entity `e`. Panics if `e` is out of range.
    pub fn name(&self, e: EntityId) -> &str {
        &self.entities[e.index()].name
    }

    /// Look an entity up by name.
    pub fn lookup(&self, name: &str) -> Option<EntityId> {
        self.entities
            .iter()
            .position(|d| d.name == name)
            .map(|i| EntityId(i as u32))
    }

    /// Look an entity up by name, or error.
    pub fn require(&self, name: &str) -> Result<EntityId, KernelError> {
        self.lookup(name)
            .ok_or_else(|| KernelError::UnknownEntity(name.to_string()))
    }

    /// Does `e` belong to this schema?
    pub fn contains(&self, e: EntityId) -> bool {
        e.index() < self.entities.len()
    }
}

/// Incremental schema construction.
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    entities: Vec<EntityDef>,
}

impl SchemaBuilder {
    /// Start an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an entity; returns its id.
    pub fn entity(&mut self, name: impl Into<String>, domain: Domain) -> EntityId {
        let id = EntityId(self.entities.len() as u32);
        self.entities.push(EntityDef {
            name: name.into(),
            domain,
        });
        id
    }

    /// Finish, checking name uniqueness.
    pub fn build(self) -> Result<Schema, KernelError> {
        for (i, a) in self.entities.iter().enumerate() {
            for b in &self.entities[i + 1..] {
                if a.name == b.name {
                    return Err(KernelError::DuplicateEntity(a.name.clone()));
                }
            }
        }
        Ok(Schema {
            entities: self.entities,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_domain_membership_and_cardinality() {
        let d = Domain::Range { min: -2, max: 3 };
        assert!(d.contains(-2));
        assert!(d.contains(3));
        assert!(!d.contains(4));
        assert_eq!(d.cardinality(), 6);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![-2, -1, 0, 1, 2, 3]);
    }

    #[test]
    fn empty_range_domain() {
        let d = Domain::Range { min: 5, max: 4 };
        assert_eq!(d.cardinality(), 0);
        assert_eq!(d.min_value(), None);
        assert!(!d.contains(5));
    }

    #[test]
    fn enumerated_domain_sorts_and_dedups() {
        let d = Domain::enumerated(vec![5, 1, 5, 3]);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 3, 5]);
        assert!(d.contains(3));
        assert!(!d.contains(2));
        assert_eq!(d.cardinality(), 3);
    }

    #[test]
    fn boolean_domain() {
        let d = Domain::Boolean;
        assert!(d.contains(0) && d.contains(1));
        assert!(!d.contains(2) && !d.contains(-1));
        assert_eq!(d.cardinality(), 2);
    }

    #[test]
    fn schema_lookup_and_ids() {
        let s = Schema::uniform(["x", "y", "z"], Domain::Boolean);
        assert_eq!(s.len(), 3);
        assert_eq!(s.lookup("y"), Some(EntityId(1)));
        assert_eq!(s.lookup("w"), None);
        assert!(s.require("w").is_err());
        assert_eq!(s.name(EntityId(2)), "z");
        assert_eq!(
            s.entity_ids().collect::<Vec<_>>(),
            vec![EntityId(0), EntityId(1), EntityId(2)]
        );
    }

    #[test]
    fn schema_builder_rejects_duplicates() {
        let mut b = SchemaBuilder::new();
        b.entity("x", Domain::Boolean);
        b.entity("x", Domain::Boolean);
        assert!(matches!(b.build(), Err(KernelError::DuplicateEntity(_))));
    }

    #[test]
    fn booleans_helper_names() {
        let s = Schema::booleans(3);
        assert_eq!(s.name(EntityId(0)), "x0");
        assert_eq!(s.name(EntityId(2)), "x2");
        assert_eq!(s.domain(EntityId(1)), &Domain::Boolean);
    }

    #[test]
    fn entity_display() {
        assert_eq!(EntityId(7).to_string(), "e7");
    }
}
