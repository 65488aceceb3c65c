//! Exact sample statistics and the process's own resource counters.
//!
//! Latencies are kept as raw samples and sorted; nothing here reads a
//! bucketed histogram.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. Panics on an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The highest of the usual percentiles that still has at least ten samples
/// beyond it (`None` below 20 samples, where even the median has not).
pub fn top_quantile(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|q| samples_beyond(n, *q) >= 10)
}

/// Samples strictly above the nearest-rank position of `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Median, top supported percentile, and count of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub n: usize,
    pub p50: u64,
    /// `(q, value)` of [`top_quantile`].
    pub top: Option<(f64, u64)>,
}

impl Timing {
    /// Sorts `samples` in place.
    pub fn of(samples: &mut [u64]) -> Option<Timing> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        Some(Timing {
            n: samples.len(),
            p50: percentile(samples, 0.5),
            top: top_quantile(samples.len()).map(|q| (q, percentile(samples, q))),
        })
    }

    /// `median / pXX / n` in microseconds, for the human-readable report.
    pub fn render_us(&self) -> String {
        let top = match self.top {
            Some((q, v)) => format!("p{} {:.1}", q * 100.0, v as f64 / 1e3),
            None => "p- -".to_string(),
        };
        format!(
            "p50 {:.1} us, {} us, n={}",
            self.p50 as f64 / 1e3,
            top,
            self.n
        )
    }
}

/// Median of unsorted nanosecond samples as microseconds; 0 when empty.
pub fn median_us(samples: &mut [u64]) -> f64 {
    Timing::of(samples).map_or(0.0, |t| t.p50 as f64 / 1e3)
}

/// Median of floats (mean of the middle two for even counts); NaN-free
/// input assumed. Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method) gives
/// them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let ld = v.len();
    assert!(ld >= 2, "quartiles need two values");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Run-to-run spread the way the benchmark contract defines it: distance
/// between the first and third quartile as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// `(user, system)` CPU seconds this process (all threads) has used, from
/// `/proc/self/stat`. Linux reports both in `USER_HZ` = 100 ticks a second.
pub fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3, so utime (14) and stime (15) are 11 and 12.
    let ticks = |i: usize| -> f64 { fields[i].parse().expect("numeric stat field") };
    (ticks(11) / 100.0, ticks(12) / 100.0)
}

/// `VmHWM` (peak) or `VmRSS` (current) of this process, in KiB.
pub fn status_kib(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{key} missing from /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        let odd: Vec<u64> = vec![10, 20, 30];
        assert_eq!(percentile(&odd, 0.5), 20);
    }

    #[test]
    fn top_quantile_keeps_ten_samples_beyond() {
        assert_eq!(top_quantile(19), None);
        assert_eq!(top_quantile(20), Some(0.5));
        assert_eq!(top_quantile(100), Some(0.9));
        assert_eq!(top_quantile(999), Some(0.9));
        assert_eq!(top_quantile(1000), Some(0.99));
        assert_eq!(top_quantile(10_000), Some(0.999));
        assert_eq!(top_quantile(100_000), Some(0.9999));
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(1001, 0.99), 10);
    }

    #[test]
    fn timing_sorts_and_reports_count() {
        let mut s: Vec<u64> = (1..=2000).rev().collect();
        let t = Timing::of(&mut s).unwrap();
        assert_eq!((t.n, t.p50), (2000, 1000));
        assert_eq!(t.top, Some((0.99, 1980)));
        assert_eq!(Timing::of(&mut []), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(
            quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]),
            [1.0, 3.0, 5.0]
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&v), 5.5);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn process_counters_read() {
        let before = cpu_seconds().0;
        let mut x = 0u64;
        while cpu_seconds().0 - before < 0.02 {
            x = std::hint::black_box(x + 1);
        }
        assert!(status_kib("VmHWM") >= status_kib("VmRSS") * 0.5);
        assert!(status_kib("VmRSS") > 0.0);
    }
}
