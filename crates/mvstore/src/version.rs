//! Version identity and metadata.

use ks_kernel::{EntityId, Value};
use std::fmt;

/// Opaque author token: whoever created a version. The protocol maps its
/// hierarchical transaction names onto these tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AuthorId(pub u64);

/// The pseudo-transaction `t_0` that writes the initial database.
pub const INITIAL_AUTHOR: AuthorId = AuthorId(0);

/// Identifier of one version of one entity: the entity plus its position in
/// the entity's chain (0 = initial version).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VersionId {
    /// The versioned entity.
    pub entity: EntityId,
    /// Index in the entity's chain.
    pub index: u32,
}

impl fmt::Display for VersionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@v{}", self.entity, self.index)
    }
}

/// Metadata of a stored version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionMeta {
    /// Identity.
    pub id: VersionId,
    /// The stored value.
    pub value: Value,
    /// Which transaction wrote it.
    pub author: AuthorId,
    /// Global creation stamp (monotone across the whole store).
    pub stamp: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_ordering() {
        let a = VersionId {
            entity: EntityId(2),
            index: 0,
        };
        let b = VersionId {
            entity: EntityId(2),
            index: 3,
        };
        assert_eq!(b.to_string(), "e2@v3");
        assert!(a < b);
    }
}
