//! Measurement utilities: log-bucketed latency histograms, online
//! mean/variance accumulators, and windowed time series for instantaneous
//! throughput plots.

use crate::time::Ns;

/// HDR-style histogram with logarithmic buckets and linear sub-buckets.
///
/// Values are recorded in nanoseconds; percentile queries return the upper
/// bound of the bucket containing the requested rank, so relative error is
/// bounded by the sub-bucket resolution (1/32 by default).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// `buckets[log2][sub]` counts values with the given magnitude.
    buckets: Vec<[u64; Histogram::SUBS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    const SUBS: usize = 32;

    /// Creates an empty histogram covering the full `u64` range.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![[0; Histogram::SUBS]; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index(value: u64) -> (usize, usize) {
        if value < Histogram::SUBS as u64 {
            return (0, value as usize);
        }
        let log = 63 - value.leading_zeros() as usize;
        // Use the SUBS sub-buckets below the leading bit for resolution.
        let shift = log.saturating_sub(5);
        let sub = ((value >> shift) as usize) & (Histogram::SUBS - 1);
        (log - 4, sub)
    }

    fn bucket_upper(log: usize, sub: usize) -> u64 {
        if log == 0 {
            return sub as u64;
        }
        let real_log = log + 4;
        let shift = real_log - 5;
        // Saturate: the top bucket's upper bound would overflow u64.
        (1u64 << real_log)
            .saturating_add(((sub as u64) + 1).saturating_mul(1u64 << shift))
            .saturating_sub(1)
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let (log, sub) = Histogram::index(value);
        self.buckets[log][sub] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a duration in nanoseconds.
    pub fn record_ns(&mut self, value: Ns) {
        self.record(value.as_nanos());
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]` (e.g. 0.5 = median, 0.999 = p99.9).
    ///
    /// Returns 0 for an empty histogram. The result is the upper bound of
    /// the bucket containing the rank, clamped to the observed maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (log, subs) in self.buckets.iter().enumerate() {
            for (sub, &c) in subs.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return Histogram::bucket_upper(log, sub).min(self.max);
                }
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            for (x, y) in a.iter_mut().zip(b.iter()) {
                *x += y;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Online mean / variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Running {
        Running::default()
    }

    /// Adds a sample.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance, or 0 with fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }
}

/// Windowed counter producing an instantaneous-rate time series
/// (e.g. instantaneous GUPS for Figure 9).
#[derive(Debug, Clone)]
pub struct RateSeries {
    window: Ns,
    window_start: Ns,
    in_window: f64,
    points: Vec<(Ns, f64)>,
}

impl RateSeries {
    /// Creates a series that emits one point per `window` of virtual time.
    pub fn new(window: Ns) -> RateSeries {
        assert!(window > Ns::ZERO, "window must be positive");
        RateSeries {
            window,
            window_start: Ns::ZERO,
            in_window: 0.0,
            points: Vec::new(),
        }
    }

    /// Adds `amount` events at time `now`, closing windows as needed.
    pub fn add(&mut self, now: Ns, amount: f64) {
        self.roll_to(now);
        self.in_window += amount;
    }

    fn roll_to(&mut self, now: Ns) {
        while now.0 >= self.window_start.0 + self.window.0 {
            let end = Ns(self.window_start.0 + self.window.0);
            let rate = self.in_window / self.window.as_secs_f64();
            self.points.push((end, rate));
            self.in_window = 0.0;
            self.window_start = end;
        }
    }

    /// Flushes the current partial window and returns all points
    /// `(window_end, events_per_second)`.
    pub fn finish(mut self, now: Ns) -> Vec<(Ns, f64)> {
        self.roll_to(now);
        if self.in_window > 0.0 && now > self.window_start {
            let rate = self.in_window / (now - self.window_start).as_secs_f64();
            self.points.push((now, rate));
        }
        self.points
    }

    /// Points emitted so far.
    pub fn points(&self) -> &[(Ns, f64)] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_exact_for_small_values() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.quantile(0.0), 0); // rank 1 lands in value 0's bucket
        assert_eq!(h.quantile(1.0), 31);
    }

    #[test]
    fn histogram_quantiles_bounded_error() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for &(q, expect) in &[(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.05, "q={q}: got {got}, expected ~{expect}");
        }
    }

    #[test]
    fn histogram_quantile_rank_semantics_single_value() {
        // rank = max(1, ceil(q * count)): with count = 1 every quantile —
        // including q = 0.0, whose ceil is 0 before the max — must resolve
        // to the single recorded value.
        let mut h = Histogram::new();
        h.record(17);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 17, "q={q}");
        }
    }

    #[test]
    fn histogram_linear_to_log_transition_at_32() {
        // Values below SUBS (32) land in exact linear buckets; from 32 on
        // they move to log buckets whose upper bound may exceed the value.
        // The quantile clamp to the observed max keeps results exact here.
        let mut h = Histogram::new();
        for v in [31u64, 32, 33] {
            h.record(v);
        }
        // 32..63 keep exact one-value sub-buckets (shift 0), so the
        // transition loses no precision until values reach 64.
        assert_eq!(h.quantile(1.0 / 3.0), 31, "rank 1: exact linear bucket");
        assert_eq!(h.quantile(2.0 / 3.0), 32, "rank 2: first log bucket");
        assert_eq!(h.quantile(1.0), 33, "rank 3: observed max");
        // From 64 up, sub-buckets widen; the upper bound over-reports
        // within the bucket but the clamp to the observed max holds.
        let mut wide = Histogram::new();
        wide.record(64);
        assert_eq!(wide.quantile(0.5), 64, "upper bound 65 clamped to max");
    }

    #[test]
    fn histogram_mean_and_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        a.record(20);
        b.record(30);
        b.record(40);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert!((a.mean() - 25.0).abs() < 1e-9);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 40);
    }

    #[test]
    fn histogram_empty_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn histogram_large_values() {
        let mut h = Histogram::new();
        h.record(u64::MAX / 2);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0) >= u64::MAX / 2);
    }

    #[test]
    fn running_mean_variance() {
        let mut r = Running::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            r.add(x);
        }
        assert!((r.mean() - 5.0).abs() < 1e-12);
        assert!((r.variance() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rate_series_windows() {
        let mut s = RateSeries::new(Ns::secs(1));
        s.add(Ns::millis(100), 500.0);
        s.add(Ns::millis(900), 500.0);
        s.add(Ns::millis(1500), 2000.0);
        let pts = s.finish(Ns::secs(2));
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].0, Ns::secs(1));
        assert!((pts[0].1 - 1000.0).abs() < 1e-9);
        assert!((pts[1].1 - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn rate_series_skips_empty_windows_with_zero_rate() {
        let mut s = RateSeries::new(Ns::secs(1));
        s.add(Ns::millis(500), 100.0);
        s.add(Ns::millis(3500), 100.0);
        let pts = s.finish(Ns::secs(4));
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[1].1, 0.0);
        assert_eq!(pts[2].1, 0.0);
    }
}
