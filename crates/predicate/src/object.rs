//! Objects: the per-conjunct entity sets `x_i` of a CNF predicate.
//!
//! The paper: "Let `x_i` denote the set of data items mentioned in an atom in
//! `C_i`. Each such `x_i` is an *object*. The set of all objects in a
//! predicate … is denoted `P̃`." Objects drive every predicate-wise class:
//! `PWSR`/`PWCSR` serialize per object, and `CPC` builds one conflict graph
//! per object.

use crate::Cnf;
use ks_kernel::EntityId;
use std::collections::BTreeSet;
use std::fmt;

/// An object: a non-empty set of entities mentioned together in a conjunct.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Object {
    entities: BTreeSet<EntityId>,
}

impl Object {
    /// Build from an entity set.
    pub fn new(entities: BTreeSet<EntityId>) -> Self {
        Object { entities }
    }

    /// Build from an iterator of entities.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(entities: impl IntoIterator<Item = EntityId>) -> Self {
        Object {
            entities: entities.into_iter().collect(),
        }
    }

    /// The entities of the object.
    pub fn entities(&self) -> &BTreeSet<EntityId> {
        &self.entities
    }

    /// Does the object mention `e`?
    pub fn contains(&self, e: EntityId) -> bool {
        self.entities.contains(&e)
    }

    /// Does the object share any entity with `other`?
    pub fn overlaps(&self, other: &Object) -> bool {
        self.entities.intersection(&other.entities).next().is_some()
    }

    /// Does the object share any entity with the given set?
    pub fn overlaps_set(&self, set: &BTreeSet<EntityId>) -> bool {
        self.entities.intersection(set).next().is_some()
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// Is the object empty? (Never true for objects from `objects_of`.)
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }
}

impl fmt::Display for Object {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.entities.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "}}")
    }
}

/// Extract the objects `P̃` of a predicate: one per conjunct, deduplicated,
/// constant-only (empty) conjunct objects dropped.
pub fn objects_of(cnf: &Cnf) -> Vec<Object> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for clause in cnf.clauses() {
        let obj = clause.object();
        if obj.is_empty() {
            continue;
        }
        if seen.insert(obj.clone()) {
            out.push(Object::new(obj));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Atom, Clause, CmpOp};

    fn eid(i: u32) -> EntityId {
        EntityId(i)
    }

    #[test]
    fn objects_one_per_distinct_conjunct() {
        let p = Cnf::new(vec![
            Clause::unit(Atom::cmp_const(eid(0), CmpOp::Eq, 1)),
            Clause::new(vec![
                Atom::cmp_entities(eid(1), CmpOp::Lt, eid(2)),
                Atom::cmp_const(eid(1), CmpOp::Eq, 0),
            ]),
            Clause::unit(Atom::cmp_const(eid(0), CmpOp::Ne, 3)), // same object as first
        ]);
        let objs = objects_of(&p);
        assert_eq!(objs.len(), 2);
        assert_eq!(objs[0], Object::from_iter([eid(0)]));
        assert_eq!(objs[1], Object::from_iter([eid(1), eid(2)]));
    }

    #[test]
    fn constant_only_conjuncts_dropped() {
        let p = Cnf::new(vec![Clause::unit(Atom {
            lhs: crate::Operand::Const(1),
            op: CmpOp::Eq,
            rhs: crate::Operand::Const(1),
        })]);
        assert!(objects_of(&p).is_empty());
    }

    #[test]
    fn overlap_queries() {
        let a = Object::from_iter([eid(0), eid(1)]);
        let b = Object::from_iter([eid(1), eid(2)]);
        let c = Object::from_iter([eid(3)]);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(a.contains(eid(0)) && !a.contains(eid(2)));
        let set: BTreeSet<EntityId> = [eid(2), eid(3)].into_iter().collect();
        assert!(b.overlaps_set(&set));
        assert!(!a.overlaps_set(&set));
    }

    #[test]
    fn display() {
        let a = Object::from_iter([eid(0), eid(2)]);
        assert_eq!(a.to_string(), "{e0, e2}");
    }
}
