//! The scheduler interface.

use crate::SimTime;
use ks_kernel::EntityId;
use std::fmt;

/// Identifier of a simulated transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTxnId(pub u32);

impl SimTxnId {
    /// 0-based index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SimTxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Scheduler-internal activity counters, reported alongside the engine's
/// own [`crate::Metrics`]. The names follow the KS protocol's Figure 4
/// machinery (the only scheduler with internal repair work); classical
/// schedulers report zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CcCounters {
    /// `re-eval` invocations (one per write that reaches the store).
    pub re_evals: u64,
    /// `R_v` holders repaired by re-assignment instead of abort.
    pub re_assigns: u64,
    /// Transactions aborted by `re-eval` (stale reads, failed re-assigns).
    pub reeval_aborts: u64,
    /// Aborts cascaded from explicit aborts.
    pub cascade_aborts: u64,
}

/// A scheduler's answer to an operation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The operation executes now.
    Proceed,
    /// The transaction must wait; the engine will retry after the next
    /// state change.
    Block,
    /// The transaction must abort (the engine restarts it after backoff).
    Abort,
}

/// What every concurrency-control engine implements to run under the
/// simulator. Calls arrive in simulated-time order; a blocked operation is
/// retried (same arguments) until it proceeds or aborts.
pub trait ConcurrencyControl {
    /// A transaction (re)starts. Called again after each restart.
    fn on_begin(&mut self, txn: SimTxnId, now: SimTime);

    /// The transaction asks to read an entity.
    fn on_read(&mut self, txn: SimTxnId, entity: EntityId, now: SimTime) -> Decision;

    /// The transaction asks to write an entity.
    fn on_write(&mut self, txn: SimTxnId, entity: EntityId, now: SimTime) -> Decision;

    /// The transaction asks to commit.
    fn on_commit(&mut self, txn: SimTxnId, now: SimTime) -> Decision;

    /// The engine informs the scheduler that the transaction aborted
    /// (either by the scheduler's own `Abort` decision or a deadlock
    /// resolution) and will restart. All its effects must be discarded.
    fn on_abort(&mut self, txn: SimTxnId, now: SimTime);

    /// Name for reports.
    fn name(&self) -> &'static str;

    /// Scheduler-internal counters, copied into the run's metrics by the
    /// engine. The default (all zeros) suits schedulers with no internal
    /// repair machinery.
    fn counters(&self) -> CcCounters {
        CcCounters::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(SimTxnId(3).to_string(), "T3");
        assert_eq!(SimTxnId(3).index(), 3);
    }
}
