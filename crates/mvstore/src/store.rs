//! The multi-version store.

use crate::{AuthorId, Snapshot, VersionId, VersionMeta, INITIAL_AUTHOR};
use ks_kernel::{DatabaseState, EntityId, Schema, UniqueState, Value};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Errors from store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Entity id outside the store's schema.
    UnknownEntity(EntityId),
    /// Version index outside the entity's chain.
    UnknownVersion(VersionId),
    /// Value outside the entity's domain.
    DomainViolation {
        /// The entity written.
        entity: EntityId,
        /// The offending value.
        value: Value,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownEntity(e) => write!(f, "unknown entity {e}"),
            StoreError::UnknownVersion(v) => write!(f, "unknown version {v}"),
            StoreError::DomainViolation { entity, value } => {
                write!(f, "value {value} outside domain of {entity}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// A panic under a write lock may leave a chain half-appended, so a
/// poisoned lock fails every later access instead of serving it.
fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().expect("mvstore lock poisoned")
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().expect("mvstore lock poisoned")
}

/// A thread-safe multi-version store: one append-only version chain per
/// entity. Writes never destroy old versions (the paper's write semantics);
/// reads address explicit versions.
pub struct MvStore {
    schema: Schema,
    chains: Vec<RwLock<Vec<VersionMeta>>>,
    /// Authors whose versions are dead (pruned after abort). Chains are
    /// append-only so `VersionId` indices stay stable; dead versions are
    /// instead filtered out of candidate/latest queries.
    dead_authors: RwLock<std::collections::BTreeSet<AuthorId>>,
    next_stamp: AtomicU64,
}

impl MvStore {
    /// Create a store whose initial versions (index 0, author
    /// [`INITIAL_AUTHOR`]) hold `initial`'s values.
    pub fn new(schema: Schema, initial: &UniqueState) -> MvStore {
        assert_eq!(schema.len(), initial.arity(), "initial state arity");
        let chains = schema
            .entity_ids()
            .map(|e| {
                RwLock::new(vec![VersionMeta {
                    id: VersionId {
                        entity: e,
                        index: 0,
                    },
                    value: initial.get(e),
                    author: INITIAL_AUTHOR,
                    stamp: 0,
                }])
            })
            .collect();
        MvStore {
            schema,
            chains,
            dead_authors: RwLock::new(std::collections::BTreeSet::new()),
            next_stamp: AtomicU64::new(1),
        }
    }

    /// The stamp the next write gets: every version written from now on
    /// is stamped at least this.
    pub fn next_stamp(&self) -> u64 {
        self.next_stamp.load(Ordering::Relaxed)
    }

    fn is_dead(&self, author: AuthorId) -> bool {
        author != INITIAL_AUTHOR && read_lock(&self.dead_authors).contains(&author)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    fn chain(&self, e: EntityId) -> Result<&RwLock<Vec<VersionMeta>>, StoreError> {
        self.chains
            .get(e.index())
            .ok_or(StoreError::UnknownEntity(e))
    }

    /// Append a version, stamped under the chain lock so a chain is stamp-sorted. Returns its id.
    pub fn write(
        &self,
        entity: EntityId,
        value: Value,
        author: AuthorId,
    ) -> Result<VersionId, StoreError> {
        if !self.schema.contains(entity) {
            return Err(StoreError::UnknownEntity(entity));
        }
        if !self.schema.domain(entity).contains(value) {
            return Err(StoreError::DomainViolation { entity, value });
        }
        let mut chain = write_lock(self.chain(entity)?);
        let stamp = self.next_stamp.fetch_add(1, Ordering::Relaxed);
        let id = VersionId {
            entity,
            index: chain.len() as u32,
        };
        chain.push(VersionMeta {
            id,
            value,
            author,
            stamp,
        });
        Ok(id)
    }

    /// Read a specific version's value.
    pub fn read(&self, version: VersionId) -> Result<Value, StoreError> {
        let chain = read_lock(self.chain(version.entity)?);
        chain
            .get(version.index as usize)
            .map(|m| m.value)
            .ok_or(StoreError::UnknownVersion(version))
    }

    /// Metadata of a specific version.
    pub fn meta(&self, version: VersionId) -> Result<VersionMeta, StoreError> {
        let chain = read_lock(self.chain(version.entity)?);
        chain
            .get(version.index as usize)
            .copied()
            .ok_or(StoreError::UnknownVersion(version))
    }

    /// All versions of an entity, oldest first.
    pub fn versions_of(&self, entity: EntityId) -> Result<Vec<VersionMeta>, StoreError> {
        Ok(read_lock(self.chain(entity)?).clone())
    }

    /// The latest *live* version of an entity (dead authors skipped; the
    /// initial version is always live).
    pub fn latest(&self, entity: EntityId) -> Result<VersionMeta, StoreError> {
        Ok(*read_lock(self.chain(entity)?)
            .iter()
            .rev()
            .find(|m| !self.is_dead(m.author))
            .expect("initial version is always live"))
    }

    /// Distinct *live* values currently stored for an entity (ascending) —
    /// the candidate list for version assignment.
    pub fn candidate_values(&self, entity: EntityId) -> Result<Vec<Value>, StoreError> {
        let mut vs: Vec<Value> = read_lock(self.chain(entity)?)
            .iter()
            .filter(|m| !self.is_dead(m.author))
            .map(|m| m.value)
            .collect();
        vs.sort_unstable();
        vs.dedup();
        Ok(vs)
    }

    /// Number of versions of an entity.
    pub fn chain_len(&self, entity: EntityId) -> Result<usize, StoreError> {
        Ok(read_lock(self.chain(entity)?).len())
    }

    /// Materialize a snapshot (explicit version choice per entity) as a
    /// unique state — a version state over the store's contents.
    pub fn materialize(&self, snapshot: &Snapshot) -> Result<UniqueState, StoreError> {
        let mut values = Vec::with_capacity(self.schema.len());
        for e in self.schema.entity_ids() {
            let id = snapshot.version_of(e).unwrap_or(VersionId {
                entity: e,
                index: 0,
            });
            values.push(self.read(id)?);
        }
        Ok(UniqueState::from_values_unchecked(values))
    }

    /// The store's contents as a model [`DatabaseState`]: the set of unique
    /// states formed by taking, for each global stamp boundary, the then-
    /// latest versions. For simplicity and faithfulness to the definition
    /// `S ∪ t(S)`, this returns one unique state per distinct store stamp
    /// (including the initial state).
    pub fn as_database_state(&self) -> DatabaseState {
        // Collect all versions with stamps, replay in stamp order.
        let mut all: Vec<VersionMeta> = Vec::new();
        for e in self.schema.entity_ids() {
            all.extend(read_lock(&self.chains[e.index()]).iter().copied());
        }
        all.retain(|m| !self.is_dead(m.author));
        all.sort_by_key(|m| m.stamp);
        let mut current: Vec<Value> = self
            .schema
            .entity_ids()
            .map(|e| read_lock(&self.chains[e.index()])[0].value)
            .collect();
        let mut db = DatabaseState::singleton(UniqueState::from_values_unchecked(current.clone()));
        for m in all.into_iter().filter(|m| m.stamp > 0) {
            current[m.id.entity.index()] = m.value;
            db.insert(UniqueState::from_values_unchecked(current.clone()));
        }
        db
    }

    /// Garbage-collect: mark every version written by the given authors
    /// dead (the initial version is never affected). Chains stay append-
    /// only so existing [`VersionId`]s remain valid for reads, but dead
    /// versions disappear from [`MvStore::candidate_values`],
    /// [`MvStore::latest`] and the replayed database state. Returns how
    /// many stored versions were newly marked.
    pub fn prune_authors(&self, authors: &std::collections::BTreeSet<AuthorId>) -> usize {
        let mut dead = write_lock(&self.dead_authors);
        let newly: Vec<AuthorId> = authors
            .iter()
            .copied()
            .filter(|&a| a != INITIAL_AUTHOR && dead.insert(a))
            .collect();
        drop(dead);
        self.chains
            .iter()
            .map(|chain| {
                read_lock(chain)
                    .iter()
                    .filter(|m| newly.contains(&m.author))
                    .count()
            })
            .sum()
    }

    /// The latest live values of all entities as a unique state.
    pub fn latest_state(&self) -> UniqueState {
        UniqueState::from_values_unchecked(
            self.schema
                .entity_ids()
                .map(|e| self.latest(e).expect("valid entity").value)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_kernel::Domain;

    fn store() -> MvStore {
        let schema = Schema::uniform(["x", "y"], Domain::Range { min: 0, max: 99 });
        let initial = UniqueState::new(&schema, vec![1, 2]).unwrap();
        MvStore::new(schema, &initial)
    }

    #[test]
    fn initial_versions_present() {
        let s = store();
        let x = EntityId(0);
        assert_eq!(s.chain_len(x).unwrap(), 1);
        let m = s.latest(x).unwrap();
        assert_eq!(m.value, 1);
        assert_eq!(m.author, INITIAL_AUTHOR);
        assert_eq!(m.id.index, 0);
    }

    #[test]
    fn writes_append_never_overwrite() {
        let s = store();
        let x = EntityId(0);
        let v1 = s.write(x, 10, AuthorId(1)).unwrap();
        let v2 = s.write(x, 20, AuthorId(2)).unwrap();
        assert_eq!(v1.index, 1);
        assert_eq!(v2.index, 2);
        // old versions intact
        assert_eq!(
            s.read(VersionId {
                entity: x,
                index: 0
            })
            .unwrap(),
            1
        );
        assert_eq!(s.read(v1).unwrap(), 10);
        assert_eq!(s.read(v2).unwrap(), 20);
        assert_eq!(s.candidate_values(x).unwrap(), vec![1, 10, 20]);
    }

    #[test]
    fn stamps_are_monotone() {
        let s = store();
        let x = EntityId(0);
        let y = EntityId(1);
        let a = s.write(x, 5, AuthorId(1)).unwrap();
        let b = s.write(y, 6, AuthorId(1)).unwrap();
        assert!(s.meta(a).unwrap().stamp < s.meta(b).unwrap().stamp);
    }

    #[test]
    fn domain_and_bounds_checked() {
        let s = store();
        let x = EntityId(0);
        assert!(matches!(
            s.write(x, 1000, AuthorId(1)),
            Err(StoreError::DomainViolation { .. })
        ));
        assert!(matches!(
            s.write(EntityId(9), 1, AuthorId(1)),
            Err(StoreError::UnknownEntity(_))
        ));
        assert!(matches!(
            s.read(VersionId {
                entity: x,
                index: 7
            }),
            Err(StoreError::UnknownVersion(_))
        ));
    }

    #[test]
    fn materialize_mixes_versions() {
        let s = store();
        let x = EntityId(0);
        let y = EntityId(1);
        s.write(x, 10, AuthorId(1)).unwrap();
        s.write(y, 20, AuthorId(2)).unwrap();
        let mut snap = Snapshot::new();
        snap.select(VersionId {
            entity: x,
            index: 1,
        });
        snap.select(VersionId {
            entity: y,
            index: 0,
        });
        let state = s.materialize(&snap).unwrap();
        assert_eq!(state.get(x), 10);
        assert_eq!(state.get(y), 2);
        // default selection = initial version
        let state0 = s.materialize(&Snapshot::new()).unwrap();
        assert_eq!((state0.get(x), state0.get(y)), (1, 2));
    }

    #[test]
    fn database_state_replay() {
        let s = store();
        let x = EntityId(0);
        s.write(x, 10, AuthorId(1)).unwrap();
        s.write(x, 20, AuthorId(1)).unwrap();
        let db = s.as_database_state();
        // states: (1,2), (10,2), (20,2)
        assert_eq!(db.len(), 3);
        assert_eq!(db.values_of(x), vec![1, 10, 20]);
        assert_eq!(s.latest_state().get(x), 20);
    }

    #[test]
    fn prune_authors_hides_dead_versions() {
        let s = store();
        let x = EntityId(0);
        let v1 = s.write(x, 10, AuthorId(1)).unwrap();
        s.write(x, 20, AuthorId(2)).unwrap();
        s.write(x, 30, AuthorId(1)).unwrap();
        let doomed: std::collections::BTreeSet<AuthorId> = [AuthorId(1)].into_iter().collect();
        let removed = s.prune_authors(&doomed);
        assert_eq!(removed, 2);
        assert_eq!(s.candidate_values(x).unwrap(), vec![1, 20]);
        assert_eq!(s.latest(x).unwrap().value, 20);
        // VersionIds stay readable (introspection), chains append-only.
        assert_eq!(s.read(v1).unwrap(), 10);
        // re-pruning the same author is a no-op
        assert_eq!(s.prune_authors(&doomed), 0);
        // the initial author is never prunable
        let all: std::collections::BTreeSet<AuthorId> =
            [INITIAL_AUTHOR, AuthorId(2)].into_iter().collect();
        s.prune_authors(&all);
        assert_eq!(s.candidate_values(x).unwrap(), vec![1]);
        assert_eq!(s.latest(x).unwrap().value, 1);
        assert_eq!(s.latest_state().get(x), 1);
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let s = std::sync::Arc::new(store());
        let x = EntityId(0);
        std::thread::scope(|scope| {
            for a in 1..=4u64 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..25 {
                        s.write(x, (a as i64) + (i % 3), AuthorId(a)).unwrap();
                    }
                });
            }
            let s2 = s.clone();
            scope.spawn(move || {
                for _ in 0..100 {
                    let _ = s2.latest(x).unwrap();
                    let _ = s2.candidate_values(x).unwrap();
                }
            });
        });
        assert_eq!(s.chain_len(x).unwrap(), 1 + 100);
        // stamps strictly increasing along the chain
        let versions = s.versions_of(x).unwrap();
        assert!(versions.windows(2).all(|w| w[0].stamp < w[1].stamp));
    }
}
