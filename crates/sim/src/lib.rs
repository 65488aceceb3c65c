//! # ks-sim
//!
//! Discrete-event simulation of long-duration transaction workloads.
//!
//! The paper's Section 2.4 argues qualitatively: under two-phase locking,
//! long transactions impose long-duration waits; under timestamp schemes
//! they impose aborts that waste large amounts of (human) work; the
//! Korth–Speegle protocol avoids both. This crate provides the apparatus to
//! measure those claims:
//!
//! * [`cc::ConcurrencyControl`] — the scheduler interface every engine
//!   (the baselines and the bridge over the served certifiers) implements;
//! * [`workload`] — parameterized generators for CAD-style long-duration
//!   transactions: operations separated by human *think time*, skewed
//!   access patterns, read-mostly designs;
//! * [`engine`] — the event loop: arrivals, think time, blocking, aborts
//!   with restart and backoff, commit;
//! * [`metrics`] — waits, wait time, aborts, wasted work, makespan,
//!   throughput;
//! * [`trace`] — an op-level trace of the committed interleaving, which
//!   tests cross-check against the classifier suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cc;
pub mod engine;
pub mod metrics;
pub mod trace;
pub mod workload;

pub use cc::{CcCounters, ConcurrencyControl, Decision, SimTxnId};
pub use engine::{Engine, EngineConfig};
pub use metrics::Metrics;
pub use trace::{TraceEvent, TraceKind};
pub use workload::{SimOp, SimTxn, Workload, WorkloadSpec};

/// Simulated time, in abstract ticks. One tick ≈ the cost of one primitive
/// database operation; think times are expressed as multiples of it.
pub type SimTime = u64;
