//! Snapshots: explicit per-entity version selections.
//!
//! A snapshot is the store-level face of the model's version state: it
//! picks one version per entity (defaulting to the initial version), and
//! [`crate::MvStore::materialize`] turns it into a kernel `UniqueState`.
//! The protocol's validation phase produces snapshots; `re-assign` edits
//! them.

use crate::VersionId;
use ks_kernel::EntityId;
use std::collections::BTreeMap;

/// A per-entity version selection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    selected: BTreeMap<EntityId, VersionId>,
}

impl Snapshot {
    /// Empty snapshot: every entity defaults to its initial version.
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Select a version (replacing any previous selection for its entity).
    pub fn select(&mut self, version: VersionId) -> &mut Self {
        self.selected.insert(version.entity, version);
        self
    }

    /// The selected version of an entity, if explicitly chosen.
    pub fn version_of(&self, entity: EntityId) -> Option<VersionId> {
        self.selected.get(&entity).copied()
    }

    /// Entities with explicit selections.
    pub fn entities(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.selected.keys().copied()
    }

    /// Number of explicit selections.
    pub fn len(&self) -> usize {
        self.selected.len()
    }

    /// No explicit selections?
    pub fn is_empty(&self) -> bool {
        self.selected.is_empty()
    }

    /// Remove the selection for an entity (back to the initial version).
    pub fn clear_entity(&mut self, entity: EntityId) -> Option<VersionId> {
        self.selected.remove(&entity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_and_replace() {
        let mut s = Snapshot::new();
        assert!(s.is_empty());
        let e = EntityId(0);
        s.select(VersionId {
            entity: e,
            index: 1,
        });
        s.select(VersionId {
            entity: e,
            index: 2,
        });
        assert_eq!(s.len(), 1);
        assert_eq!(s.version_of(e).unwrap().index, 2);
        assert_eq!(s.version_of(EntityId(1)), None);
    }

    #[test]
    fn clear_reverts_to_default() {
        let mut s = Snapshot::new();
        let e = EntityId(3);
        s.select(VersionId {
            entity: e,
            index: 5,
        });
        let removed = s.clear_entity(e).unwrap();
        assert_eq!(removed.index, 5);
        assert!(s.version_of(e).is_none());
    }

    #[test]
    fn entities_iteration_sorted() {
        let mut s = Snapshot::new();
        s.select(VersionId {
            entity: EntityId(2),
            index: 0,
        });
        s.select(VersionId {
            entity: EntityId(0),
            index: 0,
        });
        let es: Vec<EntityId> = s.entities().collect();
        assert_eq!(es, vec![EntityId(0), EntityId(2)]);
    }
}
