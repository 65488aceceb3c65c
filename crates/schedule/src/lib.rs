//! # ks-schedule
//!
//! Classical read/write schedules and the correctness-class suite of the
//! paper's Section 4.
//!
//! A [`Schedule`] is a totally-ordered interleaving of read and write steps
//! of a set of flat transactions — the paper's "standard model" (Section
//! 4.1), where each transaction is a sequence over `{read, write} × E` and
//! writes overwrite in the single-version world or create versions in the
//! multi-version world.
//!
//! ## The classes
//!
//! | class | module | test | cost |
//! |---|---|---|---|
//! | `CSR`    | [`csr`]     | conflict-graph acyclicity | poly |
//! | `VSR`    | [`vsr`]     | view-equivalent serial order exists | exp |
//! | `FSR`    | [`vsr`]     | final-state equivalent serial order | exp |
//! | `MVSR`   | [`mvsr`]    | serial order + version function exist | exp |
//! | `MVCSR`  | [`mvsr`]    | reads-before-writes graph acyclic | poly |
//! | `PWSR`   | [`pwsr`]    | per-object projections all VSR | exp |
//! | `PWCSR`  | [`pwsr`]    | per-object projections all CSR | poly |
//! | `<SR`    | [`partial`] | VSR modulo partial-order linearizations | exp |
//! | `<CSR`   | [`partial`] | CSR modulo partial-order linearizations | exp |
//! | `PC`     | [`pc`]      | per-object projections all MVSR | exp |
//! | `CPC`    | [`pc`]      | per-object reads-before-writes graphs all acyclic | poly |
//!
//! [`classify`] runs the whole battery and produces a [`classify::Membership`]
//! report; [`corpus`] carries the paper's Examples 1–3 and the nine Figure 2
//! region schedules; [`search`] enumerates interleavings to find schedules
//! with a prescribed membership signature (used to verify the regions and to
//! reconstruct the two whose printing in the paper's text is ambiguous);
//! [`recovery`] adds the classical recoverability classes (`RC`, `ACA`,
//! `ST`) the paper's introduction cites as the other reason the
//! serializable class is impractical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod corpus;
pub mod csr;
pub mod graph;
pub mod mvsr;
pub mod op;
pub mod partial;
pub mod pc;
pub mod perm;
pub mod polygraph;
pub mod pwsr;
pub mod recovery;
pub mod schedule;
pub mod search;
pub mod vsr;

pub use classify::{classify, Membership};
pub use graph::{DiGraph, OrderClosure};
pub use op::{Action, Op, TxnId};
pub use schedule::{ReadSource, Schedule, ScheduleBuilder};
