//! # ks-baselines
//!
//! The classical concurrency-control schedulers the paper positions itself
//! against (Section 2.4):
//!
//! * [`TwoPhaseLocking`] — strict two-phase locking with waits-for deadlock
//!   detection. Yannakakis's theorem makes 2PL essentially the only
//!   unstructured way to guarantee serializability, and the paper's point
//!   is that its lock-hold times scale with transaction duration:
//!   long-duration waits.
//! * [`TimestampOrdering`] — basic T/O: no waits, but stale transactions
//!   abort; a long transaction is nearly always stale by the time it
//!   writes, so long transactions starve ("aborts are undesirable when
//!   transactions are of long duration since a substantial amount of work
//!   is undone").
//! * [`MultiversionTimestampOrdering`] — MVTO: reads never block or abort,
//!   writes abort when a later reader has already consumed the interval.
//!
//! * [`PredicatewiseTwoPhaseLocking`] — the companion protocol of
//!   Korth et al. 1988 that the paper derives its `PWSR` class from:
//!   two-phase locking per *conjunct*, releasing an object's locks as soon
//!   as a transaction's accesses to it end. Guarantees `PWCSR`, not `CSR` —
//!   the first step away from serializability.
//!
//! All implement [`ks_sim::ConcurrencyControl`] and are exercised by the
//! `sec24-waits`/`sec24-aborts` experiments against [`KsProtocolAdapter`]:
//! the paper's own protocol manager behind the same seam, kept here so
//! the served stack (`ks-protocol` up) does not link the simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod mvto;
pub mod pw2pl;
pub mod to;
pub mod tpl;

pub use adapter::KsProtocolAdapter;
pub use mvto::MultiversionTimestampOrdering;
pub use pw2pl::PredicatewiseTwoPhaseLocking;
pub use to::TimestampOrdering;
pub use tpl::TwoPhaseLocking;
