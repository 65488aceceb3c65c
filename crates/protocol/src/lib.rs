//! # ks-protocol
//!
//! The paper's Section 5 concurrency-control protocol: a transaction
//! manager that admits **only correct executions** — without enforcing
//! serializability.
//!
//! A long-duration transaction passes through four phases:
//!
//! 1. **definition** — a parent creates a subtransaction with its
//!    specification `(I_t, O_t)` and its place in the partial order;
//!    the manager validates the order (cycle check) and rejects
//!    definitions that would precede an already-committed sibling whose
//!    input overlaps the new transaction's updates (the paper's
//!    prohibition option, recovery being out of scope);
//! 2. **validation** — `R_v` locks are taken on the input set, the
//!    candidate version sets `D` are computed per data item (rules 1–3 of
//!    Section 5.1), and the predicate solver picks a version assignment
//!    satisfying `I_t`;
//! 3. **execution** — reads upgrade `R_v` to `R` and consume the assigned
//!    version; writes take a momentary `W` lock, create a new version
//!    immediately visible to siblings, and trigger the **re-eval**
//!    procedure of Figure 4 (aborting `R` holders that read a superseded
//!    predecessor version, salvaging `R_v` holders via **re-assign**);
//! 4. **termination** — a transaction commits only when its sibling
//!    predecessors have committed, its children have terminated, and its
//!    output condition holds (Theorem 2's ingredients).
//!
//! [`locks`] implements the Figure 3 compatibility matrix; [`candidates`]
//! the `D`-set rules; [`manager`] the phased state machine over
//! [`ks_mvstore::MvStore`]; [`extract`] converts a finished session into a
//! model-level [`ks_core::Execution`] so the `ks-core` checkers can verify
//! Lemma 4 and Theorem 2 on real protocol output. The serving layer
//! drives a backend through the [`Certifier`] seam: this manager (CPC),
//! [`ssi`] or [`tpl`], the two flat backends built over one shared
//! `ledger` (transaction table, commit-installed version chains, ordering
//! gate, offline history check). The `ks-sim` bridge over any certifier
//! lives with the other simulator schedulers, in `ks_baselines::adapter`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candidates;
pub mod certifier;
pub mod error;
pub mod extract;
pub mod history;
mod ledger;
pub mod locks;
pub mod manager;
pub mod ssi;
pub mod tpl;

pub use certifier::{verify_cpc, Backend, Certifier};
pub use error::ProtocolError;
pub use history::{check_serializable, History, HistoryVerdict};
pub use locks::{compatibility, LockMode, MatrixEntry};
pub use manager::{
    CommitOutcome, ProtocolManager, ReEvalAction, ReadOutcome, Txn, TxnState, ValidationOutcome,
    WriteReport,
};
pub use ssi::SsiCertifier;
pub use tpl::TplCertifier;

// The serving layer (`ks-server`) keeps each certifier behind a shard
// mutex that every session thread takes; compile-time-assert they stay
// `Send` so an accidental `Rc`/raw-pointer field can't silently break the
// server.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<ProtocolManager>();
    assert_send::<SsiCertifier>();
    assert_send::<TplCertifier>();
    assert_send::<Box<dyn Certifier>>();
};
