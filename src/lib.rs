//! # korth-speegle
//!
//! A production-quality Rust reproduction of Henry F. Korth and Gregory
//! Speegle, *Formal Model of Correctness Without Serializability*
//! (SIGMOD 1988 / UT Austin TR-87-47).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`kernel`] — entities, domains, unique/database/version states;
//! * [`predicate`] — CNF consistency predicates, objects, and the
//!   NP-complete version-assignment solver (Lemma 1);
//! * [`schedule`] — classical read/write schedules and the correctness-class
//!   suite: `CSR`, `VSR`, `MVSR`, `MVCSR`, `PWSR`, `PWCSR`, partial-order
//!   variants, `PC` and `CPC` (Section 4, Figure 2);
//! * [`model`] — the formal nested-transaction model: specifications,
//!   implementations, executions `(R, X)`, parent-based executions, and the
//!   correctness checker (Section 3);
//! * [`mvstore`] — the multi-version storage substrate;
//! * [`sim`] — the discrete-event simulator and workload generator for
//!   long-duration transactions;
//! * [`baselines`] — timestamp ordering, multiversion timestamp ordering
//!   and predicate-wise 2PL comparators, and the bridge that runs the
//!   served certifiers (strict 2PL, CPC) under the simulator;
//! * [`protocol`] — the paper's Section 5 correct-execution protocol with
//!   the `R_v`/`R`/`W` lock table (Figure 3) and `re-eval` procedure
//!   (Figure 4);
//! * [`server`] — the concurrent multi-session transaction service:
//!   entity-sharded worker threads, blocking sessions, admission control,
//!   and post-run model-checked verification;
//! * [`net`] — the networked front end: a length-prefixed versioned wire
//!   protocol, a TCP server embedding the service, and a remote session
//!   with deadlines and retry/backoff implementing the same
//!   [`Client`](ks_server::Client) contract as in-process sessions.
//!
//! See `examples/quickstart.rs` for a guided tour and `DESIGN.md` /
//! `EXPERIMENTS.md` for the experiment inventory.

#![forbid(unsafe_code)]

pub use ks_baselines as baselines;
pub use ks_core as model;
pub use ks_kernel as kernel;
pub use ks_mvstore as mvstore;
pub use ks_net as net;
pub use ks_predicate as predicate;
pub use ks_protocol as protocol;
pub use ks_schedule as schedule;
pub use ks_server as server;
pub use ks_sim as sim;

/// Convenience re-exports for the common 90% of the API.
///
/// ```
/// use korth_speegle::prelude::*;
/// let s = Schedule::parse("R1(x) W1(x) R2(x)").unwrap();
/// assert!(csr::is_csr(&s));
/// ```
pub mod prelude {
    pub use ks_core::{
        check, check_tree, search, Execution, Expr, Specification, Step, Transaction, TreeBuilder,
        TreeExecution, TxnName,
    };
    pub use ks_kernel::{
        DatabaseState, Domain, EntityId, Schema, SchemaBuilder, UniqueState, Value, VersionSpace,
        VersionState,
    };
    pub use ks_net::{NetClientConfig, NetConfig, NetServer, RemoteSession};
    pub use ks_predicate::{parse_cnf, solve, Atom, Clause, CmpOp, Cnf, Object, Strategy};
    pub use ks_protocol::{CommitOutcome, ProtocolManager, ReadOutcome, ValidationOutcome};
    pub use ks_schedule::{classify, csr, mvsr, pc, pwsr, vsr, Membership, Schedule, TxnId};
    pub use ks_server::{
        Client, ServerConfig, ServerError, Session, TxnBuilder, TxnHandle, TxnService,
    };
    pub use ks_sim::{Engine, EngineConfig, Metrics, Workload, WorkloadSpec};
}
