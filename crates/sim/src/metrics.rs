//! Aggregate metrics of a simulation run.

use crate::cc::CcCounters;
use crate::SimTime;
use std::fmt;

/// Metrics of one run — the quantities Section 2.4 argues about:
/// "reduce the number and duration of waits, reduce the number and effect
/// of aborts".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Scheduler name.
    pub scheduler: String,
    /// Committed transactions.
    pub committed: usize,
    /// Total number of blocking episodes (a transaction entering a wait).
    pub waits: u64,
    /// Total ticks spent blocked, across all transactions.
    pub total_wait_time: SimTime,
    /// Longest single blocking episode.
    pub max_wait: SimTime,
    /// Number of aborts (each one restarts the transaction).
    pub aborts: u64,
    /// Ticks of work discarded by aborts ("the effect of aborts": the
    /// time between a transaction's (re)start and its abort).
    pub wasted_work: SimTime,
    /// Time when the last transaction committed.
    pub makespan: SimTime,
    /// Sum over transactions of (commit time − arrival).
    pub total_latency: SimTime,
    /// Per-transaction commit latencies (commit − arrival), unsorted.
    pub latencies: Vec<SimTime>,
    /// Scheduler-internal counters (re-eval activity for the KS protocol;
    /// zeros for the classical baselines).
    pub cc: CcCounters,
}

impl Metrics {
    /// Mean wait per blocking episode.
    pub fn mean_wait(&self) -> f64 {
        if self.waits == 0 {
            0.0
        } else {
            self.total_wait_time as f64 / self.waits as f64
        }
    }

    /// Mean latency per committed transaction.
    pub fn mean_latency(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.committed as f64
        }
    }

    /// Latency percentile over committed transactions (`q` in 0..=100).
    /// Returns 0 when nothing committed.
    pub fn latency_percentile(&self, q: u8) -> SimTime {
        if self.latencies.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let rank = ((q as usize * (sorted.len() - 1)) + 50) / 100;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// Committed transactions per kilotick.
    pub fn throughput(&self) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.committed as f64 * 1000.0 / self.makespan as f64
        }
    }

    /// Table header aligned with [`Metrics::row`].
    pub fn header() -> &'static str {
        "scheduler        commit  waits  wait_time  max_wait  aborts  wasted   makespan  mean_lat  \
         re_ev  re_as  rv_ab  casc"
    }

    /// One aligned table row.
    pub fn row(&self) -> String {
        format!(
            "{:<16} {:>6} {:>6} {:>10} {:>9} {:>7} {:>7} {:>10} {:>9.1} {:>6} {:>6} {:>6} {:>5}",
            self.scheduler,
            self.committed,
            self.waits,
            self.total_wait_time,
            self.max_wait,
            self.aborts,
            self.wasted_work,
            self.makespan,
            self.mean_latency(),
            self.cc.re_evals,
            self.cc.re_assigns,
            self.cc.reeval_aborts,
            self.cc.cascade_aborts,
        )
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.row())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let m = Metrics {
            scheduler: "test".into(),
            committed: 4,
            waits: 2,
            total_wait_time: 10,
            max_wait: 7,
            aborts: 1,
            wasted_work: 5,
            makespan: 1000,
            total_latency: 400,
            latencies: vec![50, 100, 150, 100],
            cc: CcCounters::default(),
        };
        assert_eq!(m.mean_wait(), 5.0);
        assert_eq!(m.mean_latency(), 100.0);
        assert_eq!(m.throughput(), 4.0);
        assert!(m.row().contains("test"));
        assert_eq!(m.latency_percentile(0), 50);
        assert_eq!(m.latency_percentile(50), 100);
        assert_eq!(m.latency_percentile(100), 150);
    }

    #[test]
    fn zero_safe() {
        let m = Metrics::default();
        assert_eq!(m.mean_wait(), 0.0);
        assert_eq!(m.mean_latency(), 0.0);
        assert_eq!(m.throughput(), 0.0);
        assert_eq!(m.latency_percentile(95), 0);
    }
}
