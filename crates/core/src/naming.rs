//! Hierarchical transaction names.
//!
//! Section 5.1: "One method to name a transaction is to append a number to
//! the name of the parent, which is greater than any previously assigned to
//! a subtransaction, such as is done in Figure 1." Names look like `t`,
//! `t.0`, `t.1.0.1`.

use std::fmt;

/// A dotted hierarchical name: the root is `t`, children append indices.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnName {
    path: Vec<u32>,
}

impl TxnName {
    /// The root name `t`.
    pub fn root() -> TxnName {
        TxnName { path: Vec::new() }
    }

    /// Build from an explicit path (`[1, 0]` → `t.1.0`).
    pub fn from_path(path: Vec<u32>) -> TxnName {
        TxnName { path }
    }

    /// The `i`-th child's name.
    pub fn child(&self, i: u32) -> TxnName {
        let mut path = self.path.clone();
        path.push(i);
        TxnName { path }
    }

    /// Parent name; `None` for the root. (The paper's `prefix` function.)
    pub fn parent(&self) -> Option<TxnName> {
        if self.path.is_empty() {
            None
        } else {
            Some(TxnName {
                path: self.path[..self.path.len() - 1].to_vec(),
            })
        }
    }

    /// Are two names siblings (same parent, different last index)?
    /// This is the `prefix(a) = prefix(b)` check of Figure 4's `re-eval`.
    pub fn is_sibling_of(&self, other: &TxnName) -> bool {
        self != other && self.parent() == other.parent() && !self.path.is_empty()
    }

    /// Is `self` a proper ancestor of `other`?
    pub fn is_ancestor_of(&self, other: &TxnName) -> bool {
        self.path.len() < other.path.len() && other.path[..self.path.len()] == self.path[..]
    }

    /// Nesting depth (root = 0).
    pub fn depth(&self) -> usize {
        self.path.len()
    }

    /// The path components.
    pub fn path(&self) -> &[u32] {
        &self.path
    }

    /// Parse `"t.1.0"`.
    pub fn parse(text: &str) -> Option<TxnName> {
        let mut parts = text.split('.');
        if parts.next() != Some("t") {
            return None;
        }
        let mut path = Vec::new();
        for p in parts {
            path.push(p.parse().ok()?);
        }
        Some(TxnName { path })
    }
}

impl fmt::Display for TxnName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t")?;
        for p in &self.path {
            write!(f, ".{p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_and_children() {
        let root = TxnName::root();
        assert_eq!(root.to_string(), "t");
        let c = root.child(1).child(0);
        assert_eq!(c.to_string(), "t.1.0");
        assert_eq!(c.depth(), 2);
        assert_eq!(c.parent().unwrap().to_string(), "t.1");
        assert_eq!(root.parent(), None);
    }

    #[test]
    fn siblings_and_ancestors() {
        let a = TxnName::from_path(vec![1, 0]);
        let b = TxnName::from_path(vec![1, 1]);
        let p = TxnName::from_path(vec![1]);
        assert!(a.is_sibling_of(&b));
        assert!(!a.is_sibling_of(&a));
        assert!(!a.is_sibling_of(&p));
        assert!(p.is_ancestor_of(&a));
        assert!(TxnName::root().is_ancestor_of(&a));
        assert!(!a.is_ancestor_of(&p));
        assert!(!a.is_ancestor_of(&b));
    }

    #[test]
    fn parse_round_trip() {
        for text in ["t", "t.0", "t.1.0.2"] {
            assert_eq!(TxnName::parse(text).unwrap().to_string(), text);
        }
        assert!(TxnName::parse("x.1").is_none());
        assert!(TxnName::parse("t.a").is_none());
    }

    #[test]
    fn ordering_is_hierarchical() {
        let mut names = [
            TxnName::parse("t.1").unwrap(),
            TxnName::parse("t.0.1").unwrap(),
            TxnName::parse("t").unwrap(),
            TxnName::parse("t.0").unwrap(),
        ];
        names.sort();
        let texts: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        assert_eq!(texts, vec!["t", "t.0", "t.0.1", "t.1"]);
    }
}
