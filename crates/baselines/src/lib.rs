//! # ks-baselines
//!
//! The classical concurrency-control schedulers the paper positions itself
//! against (Section 2.4), as `ks-sim` schedulers:
//!
//! * [`TimestampOrdering`] — basic T/O: no waits, but stale transactions
//!   abort and restart, discarding their work ("aborts are undesirable
//!   when transactions are of long duration since a substantial amount of
//!   work is undone").
//! * [`MultiversionTimestampOrdering`] — MVTO: reads never block or abort,
//!   writes abort when a later reader has already consumed the interval.
//! * [`PredicatewiseTwoPhaseLocking`] — the companion protocol of
//!   Korth et al. 1988 that the paper derives its `PWSR` class from:
//!   two-phase locking per *conjunct*, releasing an object's locks as soon
//!   as a transaction's accesses to it end. Guarantees `PWCSR`, not `CSR` —
//!   the first step away from serializability.
//!
//! Strict 2PL and the paper's own protocol are not reimplemented here:
//! [`CertifierBridge`] runs the served certifiers (`ks_protocol`'s
//! `TplCertifier` and `ProtocolManager`) behind the same
//! [`ks_sim::ConcurrencyControl`] seam, so the `sec24-*` experiments
//! compare the code the server runs. The bridge lives here so the served
//! stack (`ks-protocol` up) does not link the simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod mvto;
pub mod pw2pl;
pub mod to;

pub use adapter::CertifierBridge;
pub use mvto::MultiversionTimestampOrdering;
pub use pw2pl::PredicatewiseTwoPhaseLocking;
pub use to::TimestampOrdering;
