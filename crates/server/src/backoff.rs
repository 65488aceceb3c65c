//! Bounded jittered exponential backoff, shared by every retry loop in
//! the stack.
//!
//! The schedule is the one the networked client has always used: attempt
//! `n` (1-based) waits `min(cap, base·2^(n−1))`, jittered by a uniform
//! draw from `[delay/2, delay]` so synchronized clients decorrelate
//! instead of stampeding in lock-step. This module makes that policy a
//! named, reusable thing — the `ks-net` retry envelope, the in-process
//! retry-on-[`Busy`](crate::ServerError::Busy) loops in drivers and
//! tests, and the bench harness all draw from the same curve instead of
//! burning a core in `yield_now` spins.

use ks_predicate::random::SplitMix64;
use std::time::Duration;

/// The raw schedule: `min(cap, base·2^(attempt−1))`, jittered into
/// `[delay/2, delay]`. `attempt` is 1-based; a zero `base` is clamped to
/// 1µs so the exponential has somewhere to start, and `cap` never cuts
/// below `base`.
pub fn jittered_delay(
    rng: &mut SplitMix64,
    base: Duration,
    cap: Duration,
    attempt: u32,
) -> Duration {
    let base = base.max(Duration::from_micros(1));
    let exp = base.saturating_mul(1u32 << (attempt.saturating_sub(1)).min(20));
    let delay = exp.min(cap.max(base));
    let ns = delay.as_nanos() as u64;
    Duration::from_nanos(ns / 2 + rng.below(ns - ns / 2 + 1))
}

/// A retry loop's backoff state: attempt counter plus jitter RNG.
///
/// ```
/// use ks_server::backoff::Backoff;
/// use std::time::Duration;
///
/// let mut backoff = Backoff::new(Duration::from_micros(5), Duration::from_micros(50), 7);
/// for _ in 0..3 {
///     // ... attempt the operation; on a retryable error:
///     let d = backoff.next_delay();
///     assert!(d <= Duration::from_micros(50));
/// }
/// backoff.reset(); // operation succeeded; next failure starts cold
/// ```
#[derive(Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: SplitMix64,
}

impl Backoff {
    /// A fresh schedule. `seed` keys the jitter — give concurrent loops
    /// distinct seeds so they decorrelate.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff {
            base,
            cap,
            attempt: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// The delay for the next attempt (advances the attempt counter).
    pub fn next_delay(&mut self) -> Duration {
        self.attempt = self.attempt.saturating_add(1);
        jittered_delay(&mut self.rng, self.base, self.cap, self.attempt)
    }

    /// Sleep for [`next_delay`](Backoff::next_delay). The convenience
    /// form for retry-on-`Busy` loops that used to `yield_now`.
    pub fn snooze(&mut self) {
        std::thread::sleep(self.next_delay());
    }

    /// Forget accumulated attempts (call after a success so the next
    /// failure starts from `base` again).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_is_bounded_and_grows_toward_cap() {
        let base = Duration::from_micros(10);
        let cap = Duration::from_micros(80);
        let mut rng = SplitMix64::new(42);
        for attempt in 1..=12 {
            let ceiling = base.saturating_mul(1u32 << (attempt - 1).min(20)).min(cap);
            let d = jittered_delay(&mut rng, base, cap, attempt);
            assert!(d <= ceiling, "attempt {attempt}: {d:?} > {ceiling:?}");
            assert!(
                d >= ceiling / 2,
                "attempt {attempt}: {d:?} < {:?}",
                ceiling / 2
            );
        }
    }

    #[test]
    fn zero_base_is_clamped_not_divided_by_zero() {
        let mut rng = SplitMix64::new(0);
        let d = jittered_delay(&mut rng, Duration::ZERO, Duration::ZERO, 1);
        assert!(d <= Duration::from_micros(1));
    }

    #[test]
    fn reset_restarts_the_exponential() {
        let mut b = Backoff::new(Duration::from_micros(4), Duration::from_millis(1), 9);
        for _ in 0..6 {
            b.next_delay();
        }
        b.reset();
        assert!(b.next_delay() <= Duration::from_micros(4));
    }

    #[test]
    fn distinct_seeds_decorrelate() {
        let mut a = Backoff::new(Duration::from_millis(1), Duration::from_secs(1), 1);
        let mut b = Backoff::new(Duration::from_millis(1), Duration::from_secs(1), 2);
        let draws_a: Vec<_> = (0..8).map(|_| a.next_delay()).collect();
        let draws_b: Vec<_> = (0..8).map(|_| b.next_delay()).collect();
        assert_ne!(draws_a, draws_b);
    }
}
