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

use ks_mvstore::VersionId;
use ks_schedule::OrderClosure;

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

#[cfg(test)]
mod tests {
    use super::*;
    use ks_kernel::EntityId;

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
}
