//! The candidate version sets `D` of the validation phase (Section 5.1).
//!
//! For a transaction `t` being validated and a data item `d` in its input
//! set, every *sibling* is a candidate source **unless**:
//!
//! 1. it is a successor of `t` in the parent's partial order,
//! 2. it has not written `d`, or
//! 3. another writer of `d` lies strictly between it and `t` in the
//!    partial order.
//!
//! If any surviving candidate is a *predecessor* of `t`, the predecessor's
//! version is the only one allowed (the rest are removed). Otherwise any
//! surviving sibling's version — or the version assigned to the parent —
//! may be chosen.
//!
//! Siblings that might *later* write `d` are deliberately ignored: "the
//! protocol is making the optimistic assumption that such transactions
//! will not write a new version which the transaction must read". The
//! `re-eval` procedure repairs the cases where the optimism was wrong.
//!
//! When no order edge constrains `t` for `d` — nothing follows `t`, and no
//! predecessor of `t` wrote `d` — every rule above is vacuous: the allowed
//! versions are the parent's plus every other live sibling's last one. A
//! `CandidateList` keeps exactly that set per parent and data item, in
//! the shape the solver reads, so validation borrows it instead of
//! rebuilding it from every sibling that ever wrote `d`.

use ks_kernel::{EntityId, Value};
use ks_mvstore::VersionId;
use ks_schedule::OrderClosure;
use std::collections::BTreeMap;

/// One sibling that has written the data item (rule 2 is the caller's: a
/// sibling that has not written it is never listed).
#[derive(Debug, Clone, Copy)]
pub struct SiblingInfo {
    /// The sibling's slot in the parent's child list (partial-order node).
    pub slot: usize,
    /// The last version of the data item written inside this sibling's
    /// subtree.
    pub last_version: VersionId,
}

/// Compute the allowed versions of one data item for the transaction in
/// `target_slot`. `siblings` are the other live writers of the item;
/// `paths` is the closed partial order over the parent's child slots;
/// `parent_version` is the version assigned to the parent (the fallback the
/// paper always allows when no predecessor forces a choice).
pub fn allowed_versions(
    target_slot: usize,
    siblings: &[SiblingInfo],
    paths: &OrderClosure,
    parent_version: VersionId,
) -> Vec<VersionId> {
    // Rules 1 and 3: keep qualifying writers.
    let qualifying: Vec<&SiblingInfo> = siblings
        .iter()
        .filter(|s| s.slot != target_slot)
        // rule 1: successors of the target are out
        .filter(|s| !paths.has_edge(target_slot, s.slot))
        // rule 3: no other writer strictly between s and the target —
        // only a sibling that precedes something can be shadowed
        .filter(|s| {
            !(paths.has_successors(s.slot)
                && siblings.iter().any(|k| {
                    k.slot != s.slot
                        && k.slot != target_slot
                        && paths.has_edge(s.slot, k.slot)
                        && paths.has_edge(k.slot, target_slot)
                }))
        })
        .collect();

    // Predecessor check: a predecessor's version is mandatory.
    let predecessors: Vec<VersionId> = qualifying
        .iter()
        .filter(|s| paths.has_edge(s.slot, target_slot))
        .map(|s| s.last_version)
        .collect();
    if !predecessors.is_empty() {
        return predecessors;
    }

    // Otherwise: any qualifying sibling's version, or the parent's.
    let mut out: Vec<VersionId> = qualifying.iter().map(|s| s.last_version).collect();
    if !out.contains(&parent_version) {
        out.push(parent_version);
    }
    out
}

/// The unfiltered candidate versions of one data item under one parent:
/// the parent's own version plus the last version each live child's
/// subtree wrote. Writes, aborts and re-assignments of the parent edit it
/// in place; [`CandidateList::of_versions`] builds a one-off list from an
/// already filtered set.
#[derive(Debug, Clone)]
pub(crate) struct CandidateList {
    entity: EntityId,
    /// The parent's own version, when the list carries it.
    base: Option<u32>,
    /// Child slot → index of the last version written in its subtree.
    last: BTreeMap<usize, u32>,
    /// Every listed version: index → (value, how many of `base` and `last`
    /// name it).
    versions: BTreeMap<u32, (Value, u32)>,
    /// The distinct values of `versions`, each placed by its oldest version:
    /// the list the solver reads.
    values: Vec<Value>,
    /// Value → (its newest version, how many versions carry it).
    newest: BTreeMap<Value, (u32, u32)>,
}

impl CandidateList {
    /// A list holding only the parent's version.
    pub(crate) fn new(base: VersionId, value: Value) -> Self {
        let mut list = CandidateList::of_versions(base.entity, []);
        list.rebase(base, value);
        list
    }

    /// A list of exactly these versions of `entity`, owned by no parent.
    pub(crate) fn of_versions(
        entity: EntityId,
        versions: impl IntoIterator<Item = (VersionId, Value)>,
    ) -> Self {
        let mut list = CandidateList {
            entity,
            base: None,
            last: BTreeMap::new(),
            versions: BTreeMap::new(),
            values: Vec::new(),
            newest: BTreeMap::new(),
        };
        for (v, value) in versions {
            list.versions.insert(v.index, (value, 1));
        }
        list.rebuild();
        list
    }

    /// The live children that wrote the item, with their last versions,
    /// in slot order.
    pub(crate) fn writers(&self) -> impl Iterator<Item = SiblingInfo> + '_ {
        self.last.iter().map(|(&slot, &index)| SiblingInfo {
            slot,
            last_version: self.version(index),
        })
    }

    /// Did the child in `slot` write the item?
    pub(crate) fn has_writer(&self, slot: usize) -> bool {
        self.last.contains_key(&slot)
    }

    /// Record `version` as the last one written in `slot`'s subtree.
    pub(crate) fn set_writer(&mut self, slot: usize, version: VersionId, value: Value) {
        debug_assert_eq!(version.entity, self.entity);
        match self.last.insert(slot, version.index) {
            Some(old) if old == version.index => return,
            Some(old) => self.remove_version(old),
            None => {}
        }
        self.add_version(version.index, value);
    }

    /// The child in `slot` no longer wrote the item (it aborted).
    pub(crate) fn remove_writer(&mut self, slot: usize) {
        if let Some(old) = self.last.remove(&slot) {
            self.remove_version(old);
        }
    }

    /// The parent's version changed (it was re-assigned).
    pub(crate) fn rebase(&mut self, version: VersionId, value: Value) {
        debug_assert_eq!(version.entity, self.entity);
        if let Some(old) = self.base.replace(version.index) {
            if old == version.index {
                return;
            }
            self.remove_version(old);
        }
        self.add_version(version.index, value);
    }

    /// The distinct candidate values, ordered by each one's oldest version.
    pub(crate) fn values(&self) -> &[Value] {
        &self.values
    }

    /// The newest listed version carrying `value`.
    pub(crate) fn newest_with(&self, value: Value) -> Option<VersionId> {
        self.newest
            .get(&value)
            .map(|&(index, _)| self.version(index))
    }

    /// The version to assign for a chosen `value`: `parent`'s own (the
    /// parent's version) when it is listed and carries that value, else
    /// the newest listed version carrying it. A child whose value equals
    /// its parent's then reads the parent's version, not a sibling's
    /// later copy of the same value that it would wait on at commit.
    pub(crate) fn version_with(&self, value: Value, parent: VersionId) -> Option<VersionId> {
        match self.versions.get(&parent.index) {
            Some(&(listed, _)) if listed == value && parent.entity == self.entity => Some(parent),
            _ => self.newest_with(value),
        }
    }

    /// How many versions are listed.
    pub(crate) fn len(&self) -> usize {
        self.versions.len()
    }

    /// Is no version listed?
    pub(crate) fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    fn version(&self, index: u32) -> VersionId {
        VersionId {
            entity: self.entity,
            index,
        }
    }

    fn add_version(&mut self, index: u32, value: Value) {
        if let Some((_, refs)) = self.versions.get_mut(&index) {
            *refs += 1;
            return;
        }
        let newest_so_far = self
            .versions
            .last_key_value()
            .is_none_or(|(&i, _)| i < index);
        self.versions.insert(index, (value, 1));
        if !newest_so_far {
            // Only a rebase or an abort lists an older version: rare.
            return self.rebuild();
        }
        match self.newest.get_mut(&value) {
            Some((newest, count)) => {
                *newest = index;
                *count += 1;
            }
            None => {
                self.newest.insert(value, (index, 1));
                self.values.push(value);
            }
        }
    }

    fn remove_version(&mut self, index: u32) {
        let Some((value, refs)) = self.versions.get_mut(&index) else {
            return;
        };
        *refs -= 1;
        if *refs > 0 {
            return;
        }
        let value = *value;
        self.versions.remove(&index);
        if self.newest.get(&value).is_some_and(|&(_, count)| count > 1) {
            // Another version carries the value: which one is now oldest
            // and newest needs a look at all of them.
            return self.rebuild();
        }
        self.newest.remove(&value);
        // A superseded version is usually a recent one: search from the end.
        if let Some(pos) = self.values.iter().rposition(|&v| v == value) {
            self.values.remove(pos);
        }
    }

    fn rebuild(&mut self) {
        self.values.clear();
        self.newest.clear();
        for (&index, &(value, _)) in &self.versions {
            match self.newest.get_mut(&value) {
                Some((newest, count)) => {
                    *newest = index;
                    *count += 1;
                }
                None => {
                    self.newest.insert(value, (index, 1));
                    self.values.push(value);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(index: u32) -> VersionId {
        VersionId {
            entity: EntityId(0),
            index,
        }
    }

    fn sib(slot: usize, version: u32) -> SiblingInfo {
        SiblingInfo {
            slot,
            last_version: v(version),
        }
    }

    fn closure(edges: &[(usize, usize)]) -> OrderClosure {
        let mut c = OrderClosure::new();
        for &(a, b) in edges {
            assert!(c.insert(a, b));
        }
        c
    }

    #[test]
    fn unordered_siblings_all_allowed_plus_parent() {
        let sibs = [sib(0, 1), sib(1, 2)];
        let paths = closure(&[]);
        let allowed = allowed_versions(3, &sibs, &paths, v(0));
        assert_eq!(allowed, vec![v(1), v(2), v(0)]);
    }

    #[test]
    fn successors_excluded() {
        // target 0 precedes sibling 1 → 1's version not allowed.
        let sibs = [sib(1, 5)];
        let paths = closure(&[(0, 1)]);
        let allowed = allowed_versions(0, &sibs, &paths, v(0));
        assert_eq!(allowed, vec![v(0)]);
    }

    #[test]
    fn predecessor_version_mandatory() {
        // sibling 0 precedes target 2; sibling 1 unordered with both.
        let sibs = [sib(0, 7), sib(1, 8)];
        let paths = closure(&[(0, 2)]);
        let allowed = allowed_versions(2, &sibs, &paths, v(0));
        // predecessor 0's version is the only one allowed
        assert_eq!(allowed, vec![v(7)]);
    }

    #[test]
    fn intermediate_writer_shadows_earlier_one() {
        // chain 0 → 1 → 2 (target); both 0 and 1 wrote the item.
        let sibs = [sib(0, 3), sib(1, 4)];
        let paths = closure(&[(0, 1), (1, 2)]);
        let allowed = allowed_versions(2, &sibs, &paths, v(0));
        // rule 3 removes 0 (writer 1 between); predecessor 1 mandatory
        assert_eq!(allowed, vec![v(4)]);
    }

    #[test]
    fn non_writers_never_appear() {
        // siblings 0 and 1 wrote nothing: the caller lists neither
        let paths = closure(&[(0, 2)]);
        let allowed = allowed_versions(2, &[], &paths, v(9));
        assert_eq!(allowed, vec![v(9)]); // parent only
    }

    #[test]
    fn intermediate_non_writer_does_not_shadow() {
        // 0 → 1 → 2 (target); only 0 wrote, so 1 is not listed.
        let sibs = [sib(0, 3)];
        let paths = closure(&[(0, 1), (1, 2)]);
        let allowed = allowed_versions(2, &sibs, &paths, v(0));
        assert_eq!(allowed, vec![v(3)]);
    }

    #[test]
    fn unordered_writer_not_removed_by_predecessor_filter_rule3() {
        // predecessor 0 → target 1; sibling 2 unordered, also wrote.
        // Rule 3 doesn't remove 0 (2 not between); predecessor mandatory.
        let sibs = [sib(0, 3), sib(2, 4)];
        let paths = closure(&[(0, 1)]);
        let allowed = allowed_versions(1, &sibs, &paths, v(0));
        assert_eq!(allowed, vec![v(3)]);
    }

    #[test]
    fn list_keeps_values_by_oldest_version_and_maps_to_the_newest() {
        let newest = |l: &CandidateList| -> Vec<u32> {
            l.values()
                .iter()
                .map(|&x| l.newest_with(x).unwrap().index)
                .collect()
        };
        let mut list = CandidateList::new(v(0), 5);
        list.set_writer(1, v(1), 7);
        list.set_writer(2, v(2), 5); // same value as the base: no new entry
        list.set_writer(3, v(3), 9);
        assert_eq!(
            (list.values(), newest(&list)),
            (&[5, 7, 9][..], vec![2, 1, 3])
        );
        assert_eq!(list.len(), 4);
        // Slot 1 supersedes its own version; the base leaves the value 5
        // to slot 2 alone.
        list.set_writer(1, v(4), 8);
        list.rebase(v(5), 6);
        assert_eq!(
            (list.values(), newest(&list)),
            (&[5, 9, 8, 6][..], vec![2, 3, 4, 5])
        );
        list.remove_writer(2);
        list.remove_writer(3);
        assert_eq!((list.values(), newest(&list)), (&[8, 6][..], vec![4, 5]));
        // A base that is also a child's version is listed once.
        list.rebase(v(4), 8);
        assert_eq!((list.values(), list.len()), (&[8][..], 1));
        list.remove_writer(1);
        assert_eq!((list.values(), newest(&list)), (&[8][..], vec![4]));
    }
}
