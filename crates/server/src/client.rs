//! The transport-generic client surface: [`Client`] and [`TxnBuilder`].
//!
//! The paper's protocol is specified at the *interface*: a transaction is
//! its `(I_t, O_t)` specification plus its place in the sibling partial
//! order, and the correctness guarantee is stated over what clients can
//! observe — not over how calls reach the manager. This module makes that
//! interface a Rust trait, so workloads, tests and benchmarks are generic
//! over transport: the in-process [`Session`](crate::Session) and the
//! `ks-net` `RemoteSession` implement the same [`Client`] contract, and a
//! driver written against `C: Client` runs unchanged over a function call
//! or a TCP connection.
//!
//! [`TxnBuilder`] replaces the old positional `define`/`define_ordered`
//! signatures: the specification, the `after`/`before` ordering edges
//! (the paper's cooperation chains, both directions), and an optional
//! per-transaction version-assignment strategy are named, composable and
//! transport-independent.

use crate::ServerError;
use ks_core::Specification;
use ks_kernel::{EntityId, Value};
use ks_predicate::Strategy;
use ks_protocol::Backend;
use std::fmt;

/// A transaction request under construction: specification, sibling
/// ordering, and solver strategy. Generic over the transport's handle
/// type so ordering edges reference transactions *of the same client*.
#[derive(Debug, Clone)]
pub struct TxnBuilder<H> {
    spec: Specification,
    after: Vec<H>,
    before: Vec<H>,
    strategy: Option<Strategy>,
    backend: Option<Backend>,
}

impl<H: Copy> TxnBuilder<H> {
    /// Start from the transaction's `(I_t, O_t)` specification.
    pub fn new(spec: Specification) -> Self {
        TxnBuilder {
            spec,
            after: Vec::new(),
            before: Vec::new(),
            strategy: None,
            backend: None,
        }
    }

    /// Order this transaction **after** `pred` in the sibling partial
    /// order: commit is gated until `pred` has committed.
    pub fn after(mut self, pred: H) -> Self {
        self.after.push(pred);
        self
    }

    /// Order this transaction **before** `succ` in the sibling partial
    /// order (the other direction of a cooperation chain).
    pub fn before(mut self, succ: H) -> Self {
        self.before.push(succ);
        self
    }

    /// Override the service's default version-assignment strategy for
    /// this transaction's validation.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// The specification.
    pub fn spec(&self) -> &Specification {
        &self.spec
    }

    /// Predecessors in the sibling partial order.
    pub fn after_handles(&self) -> &[H] {
        &self.after
    }

    /// Successors in the sibling partial order.
    pub fn before_handles(&self) -> &[H] {
        &self.before
    }

    /// The per-transaction strategy override, if any.
    pub fn strategy_override(&self) -> Option<Strategy> {
        self.strategy
    }

    /// Pin the certification backend this transaction expects the
    /// service to run. A workload written for one backend's semantics
    /// (e.g. a bench measuring SSI abort rates) fails closed with
    /// [`ServerError::BackendMismatch`] instead of silently measuring
    /// the wrong certifier. On the wire this travels as the Open
    /// frame's backend byte (`0` = unpinned; see `docs/wire.md`).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// The pinned backend expectation, if any.
    pub fn backend_expectation(&self) -> Option<Backend> {
        self.backend
    }

    /// Decompose into `(spec, after, before, strategy, backend)` — used
    /// by transport implementations.
    #[allow(clippy::type_complexity)]
    pub fn into_parts(
        self,
    ) -> (
        Specification,
        Vec<H>,
        Vec<H>,
        Option<Strategy>,
        Option<Backend>,
    ) {
        (
            self.spec,
            self.after,
            self.before,
            self.strategy,
            self.backend,
        )
    }
}

/// One data-plane operation inside a [`Client::run_batch`] burst. Only
/// reads and writes batch: lifecycle requests (`open`/`validate`/
/// `commit`/`abort`) change what later ops in the same burst would mean,
/// so they stay individual calls with individual outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOp {
    /// Read an entity through the transaction's assigned version.
    Read(EntityId),
    /// Write a new version of an entity.
    Write(EntityId, Value),
}

/// The per-op success payload of a [`Client::run_batch`] burst, mirroring
/// the return types of [`Client::read`] and [`Client::write`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchReply {
    /// A [`BatchOp::Read`] result.
    Value(Value),
    /// A [`BatchOp::Write`] acknowledgement.
    Done,
}

/// The portable fallback behind [`Client::run_batch`]: one call per op,
/// in order. Transport overrides that hit an edge they cannot batch
/// (e.g. a cross-shard op) delegate here so semantics stay identical.
pub fn per_op_batch<C: Client + ?Sized>(
    client: &C,
    txn: C::Handle,
    ops: &[BatchOp],
) -> Result<Vec<Result<BatchReply, ServerError>>, ServerError> {
    Ok(ops
        .iter()
        .map(|op| match *op {
            BatchOp::Read(entity) => client.read(txn, entity).map(BatchReply::Value),
            BatchOp::Write(entity, value) => {
                client.write(txn, entity, value).map(|()| BatchReply::Done)
            }
        })
        .collect())
}

/// The client-visible contract of the KS transaction service.
///
/// Implementations promise the paper's interface semantics regardless of
/// transport:
///
/// * [`open`](Client::open) admits a transaction whose specification and
///   ordering edges live on one shard;
/// * [`validate`](Client::validate) acquires `R_v` locks and a version
///   assignment (or replies a retryable [`ServerError::Busy`]);
/// * [`read`](Client::read) observes the *assigned* version — not own
///   writes: the paper's execution model, not read-your-writes;
/// * [`write`](Client::write) publishes a version visible to siblings,
///   possibly triggering re-eval of their assignments;
/// * [`commit`](Client::commit) checks the output condition and the
///   sibling order; [`abort`](Client::abort) is an idempotent
///   acknowledgement.
///
/// Transient outcomes are classified by
/// [`ServerError::is_retryable`]; drivers retry those (with backoff for
/// remote transports) and treat everything else as a verdict.
pub trait Client {
    /// Opaque per-transport transaction handle.
    type Handle: Copy + fmt::Debug + PartialEq;

    /// Open (define) a transaction from a [`TxnBuilder`].
    fn open(&self, txn: TxnBuilder<Self::Handle>) -> Result<Self::Handle, ServerError>;

    /// Validate: acquire `R_v` locks plus a version assignment for the
    /// input predicate. [`ServerError::Busy`] means a sibling must finish
    /// first — retry.
    fn validate(&self, txn: Self::Handle) -> Result<(), ServerError>;

    /// Read an entity through the transaction's assigned version.
    fn read(&self, txn: Self::Handle, entity: EntityId) -> Result<Value, ServerError>;

    /// Write a new version of an entity, visible to siblings.
    fn write(&self, txn: Self::Handle, entity: EntityId, value: Value) -> Result<(), ServerError>;

    /// Commit; the service checks the output condition and sibling order.
    fn commit(&self, txn: Self::Handle) -> Result<(), ServerError>;

    /// Abort (idempotent: acknowledging a re-eval abort is not an error).
    fn abort(&self, txn: Self::Handle) -> Result<(), ServerError>;

    /// Run a burst of read/write ops against one transaction, returning a
    /// result per op in submission order.
    ///
    /// Semantically identical to calling [`read`](Client::read)/
    /// [`write`](Client::write) one by one — and that is the default
    /// implementation — but transports may amortize: the in-process
    /// session takes the shard lock once for the whole burst, the
    /// networked session packs the burst into `Batch` wire frames and
    /// sends them one round trip each.
    ///
    /// The outer `Err` is a transport/batch-level failure (nothing can be
    /// said about individual ops); per-op verdicts — including re-eval
    /// aborts triggered by an *earlier op in the same burst* — arrive in
    /// the inner results.
    fn run_batch(
        &self,
        txn: Self::Handle,
        ops: &[BatchOp],
    ) -> Result<Vec<Result<BatchReply, ServerError>>, ServerError> {
        per_op_batch(self, txn, ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_predicate::Cnf;

    #[test]
    fn builder_accumulates_ordering_strategy_and_backend() {
        let b: TxnBuilder<u64> = TxnBuilder::new(Specification::new(Cnf::truth(), Cnf::truth()))
            .after(1)
            .after(2)
            .before(9)
            .strategy(Strategy::GreedyLatest)
            .backend(Backend::Ssi);
        assert_eq!(b.after_handles(), &[1, 2]);
        assert_eq!(b.before_handles(), &[9]);
        assert_eq!(b.strategy_override(), Some(Strategy::GreedyLatest));
        assert_eq!(b.backend_expectation(), Some(Backend::Ssi));
        let (spec, after, before, strategy, backend) = b.into_parts();
        assert!(spec.input.is_truth());
        assert_eq!((after, before), (vec![1, 2], vec![9]));
        assert_eq!(strategy, Some(Strategy::GreedyLatest));
        assert_eq!(backend, Some(Backend::Ssi));
    }

    #[test]
    fn builder_defaults_to_no_backend_pin() {
        let b: TxnBuilder<u64> = TxnBuilder::new(Specification::new(Cnf::truth(), Cnf::truth()));
        assert_eq!(b.backend_expectation(), None);
    }
}
