//! # ks-dst: deterministic simulation testing for the KS stack
//!
//! A FoundationDB-style simulation harness that runs the *production*
//! stack — the `ks-net` client (framing, deadlines, retry/backoff,
//! poisoning), the server-side connection core, and a real
//! [`TxnService`](ks_server::TxnService) with its shard workers — over
//! an in-memory simulated link, injecting faults at every layer, and
//! checks the result against the paper's correctness criterion. Every
//! run is a pure function of a `u64` seed and the protection switches:
//! a failure anywhere reproduces from the seed alone.
//!
//! The moving parts:
//!
//! * [`plan`] — the seed expands into an explicit [`RunPlan`]
//!   (ops + fault schedule) before anything executes, so shrinking never
//!   shifts the randomness of the steps it keeps.
//! * [`link`] — the simulated [`World`] and the
//!   [`SimLink`] transport: drops, duplicates, trickled
//!   frames, readiness starvation, resets, forged server timeouts, and whole-server
//!   crash-restarts against WAL-backed simulated storage with torn
//!   unsynced tails, all byte-exact against the production frame reader.
//! * [`run`] — the single-threaded driver and the post-run oracles,
//!   runnable against any certification [`Backend`] via
//!   [`run_plan_with`]
//!   (per-backend history correctness, terminal end state, commit coherence,
//!   commit accounting, benign-fault liveness, obs causality, and crash
//!   durability: every acked commit survives recovery, nothing uncommitted
//!   is resurrected).
//! * [`shrink`](mod@shrink) — ddmin-style minimization of failing plans.
//! * [`proto`] — bare-manager fuzzing with `force_assign` perturbations
//!   (the fault class the service API cannot reach).
//! * [`artifact`] — replayable failure dumps; the `dst_replay` binary
//!   re-runs one seed and writes its artifact.
//!
//! The harness can also switch *off* each of four protections the stack
//! relies on ([`Protections`]) to prove the oracles catch the bug each
//! one prevents — a test of the tests.

#![warn(missing_docs)]

pub mod artifact;
pub mod link;
pub mod plan;
pub mod proto;
pub mod run;
pub mod shrink;

pub use ks_protocol::Backend;
pub use link::{Protections, SimLink, World, WorldEnd};
pub use plan::{generate, Fault, OpKind, RunPlan, Step};
pub use run::{run_plan, run_plan_with, RunOutcome};
pub use shrink::{shrink, ShrinkResult};
