//! # ks-mvstore
//!
//! Multi-version storage substrate for the Korth–Speegle protocol.
//!
//! The paper assumes versions are "required in design applications for
//! reference purposes, so it is easy to justify their use to enhance
//! concurrency" — this crate is that substrate: per-entity version chains
//! where "whenever a transaction attempts to write a data item, the system
//! creates a new version of the data item with the new value and leaves the
//! other versions alone."
//!
//! * [`MvStore`] — thread-safe store: one chain per entity, guarded by
//!   a `std::sync::RwLock`; a global monotone sequence stamps versions so
//!   "happened before" is queryable.
//! * [`VersionId`] / [`VersionMeta`] — version identity plus author and
//!   stamp metadata, which the protocol's `re-eval` procedure inspects.
//! * [`Snapshot`] — an explicit per-entity version selection, convertible
//!   to a kernel [`UniqueState`](ks_kernel::UniqueState) (a version state in the model's sense).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod snapshot;
pub mod store;
pub mod version;

pub use snapshot::Snapshot;
pub use store::{MvStore, StoreError};
pub use version::{AuthorId, VersionId, VersionMeta, INITIAL_AUTHOR};
