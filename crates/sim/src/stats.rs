//! Statistics collection: counters, histograms, interval (traffic) trackers,
//! and mean / 95% confidence-interval aggregation across perturbed runs.

use crate::time::Cycle;
use std::fmt;

/// A named monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use cgct_sim::Counter;
/// let mut c = Counter::default();
/// c.add(3);
/// c.inc();
/// assert_eq!(c.value(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// This counter as a fraction of `total` (0.0 if `total` is zero).
    pub fn fraction_of(&self, total: u64) -> f64 {
        if total == 0 {
            0.0
        } else {
            self.0 as f64 / total as f64
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Online mean / variance accumulator (Welford) with a Student-t 95%
/// confidence interval, used to aggregate the perturbed runs of one
/// benchmark exactly as the paper does for its error bars.
///
/// # Examples
///
/// ```
/// use cgct_sim::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [10.0, 12.0, 11.0, 13.0] {
///     s.push(x);
/// }
/// assert!((s.mean() - 11.5).abs() < 1e-9);
/// let ci = s.confidence_interval_95();
/// assert!(ci.low < 11.5 && ci.high > 11.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningStats {
    n: u64,
    mean: f64, // cgct-lint: allow(D005) report-time cross-run aggregation in canonical run order, not a per-event accumulator
    m2: f64,   // cgct-lint: allow(D005) Welford second moment, report-time only
    min: f64,  // cgct-lint: allow(D005) report-time extremum over canonically ordered runs
    max: f64,  // cgct-lint: allow(D005) report-time extremum over canonically ordered runs
}

/// A symmetric confidence interval `[low, high]` around a sample mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound.
    pub low: f64, // cgct-lint: allow(D005) CI bounds are rendered report output, never re-accumulated
    /// Upper bound.
    pub high: f64, // cgct-lint: allow(D005) CI bounds are rendered report output, never re-accumulated
}

impl ConfidenceInterval {
    /// Half-width of the interval.
    pub fn half_width(&self) -> f64 {
        (self.high - self.low) / 2.0
    }

    /// Whether `x` lies inside the interval (inclusive).
    // cgct-lint: allow(D005) report-time predicate over an already-rendered interval
    pub fn contains(&self, x: f64) -> bool {
        x >= self.low && x <= self.high
    }
}

impl fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.4}, {:.4}]", self.low, self.high)
    }
}

impl crate::json::ToJson for ConfidenceInterval {
    fn to_json(&self) -> crate::json::Json {
        crate::json::Json::obj([
            ("low", crate::json::Json::f64(self.low)),
            ("high", crate::json::Json::f64(self.high)),
        ])
    }
}

/// Two-sided 97.5% Student-t quantiles for n-1 degrees of freedom (index 1..30),
/// used for 95% confidence intervals over small numbers of runs.
const T_975: [f64; 31] = [
    f64::INFINITY, // 0 dof: undefined
    12.706,
    4.303,
    3.182,
    2.776,
    2.571,
    2.447,
    2.365,
    2.306,
    2.262,
    2.228,
    2.201,
    2.179,
    2.160,
    2.145,
    2.131,
    2.120,
    2.110,
    2.101,
    2.093,
    2.086,
    2.080,
    2.074,
    2.069,
    2.064,
    2.060,
    2.056,
    2.052,
    2.048,
    2.045,
    2.042,
];

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY, // cgct-lint: allow(D005) empty-accumulator sentinel, not arithmetic
            max: f64::NEG_INFINITY, // cgct-lint: allow(D005) empty-accumulator sentinel, not arithmetic
        }
    }

    /// Adds one observation.
    // cgct-lint: allow(D005) f64 ingress for report-time aggregation; per-event paths use IntStats
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation (`NaN` when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (`NaN` when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Unbiased sample variance (0.0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// 95% confidence interval for the mean using the Student-t
    /// distribution, as the paper's error bars do.
    ///
    /// With a single observation the interval degenerates to the point.
    pub fn confidence_interval_95(&self) -> ConfidenceInterval {
        if self.n <= 1 {
            return ConfidenceInterval {
                low: self.mean(),
                high: self.mean(),
            };
        }
        let dof = (self.n - 1) as usize;
        let t = if dof < T_975.len() {
            T_975[dof]
        } else {
            1.96 // normal approximation for large n
        };
        let h = t * self.std_error();
        ConfidenceInterval {
            low: self.mean - h,
            high: self.mean + h,
        }
    }
}

impl Default for RunningStats {
    /// Same as [`RunningStats::new`] (empty accumulator with correct
    /// min/max sentinels).
    fn default() -> Self {
        Self::new()
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = RunningStats::new();
        s.extend(iter);
        s
    }
}

/// Exact integer statistics accumulator in milli-units.
///
/// Per-event accumulation inside a run must be order-independent and
/// exact so that artifacts stay byte-identical across `CGCT_JOBS` and
/// across checkpoint/resume. `IntStats` keeps an
/// exact integer sum (i128 — no overflow at any realistic run length)
/// plus min/max, and only converts to `f64` at report time. Samples are
/// in milli-units: a whole-unit sample (a latency in cycles, a line
/// count) is pushed as `value * 1000` via [`IntStats::push_units`].
///
/// # Examples
///
/// ```
/// use cgct_sim::IntStats;
/// let mut s = IntStats::new();
/// s.push_units(10);
/// s.push_units(11);
/// assert_eq!(s.count(), 2);
/// assert_eq!(s.sum_milli(), 21_000);
/// assert_eq!(s.mean_milli(), 10_500);
/// assert!((s.mean() - 10.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntStats {
    n: u64,
    sum_milli: i128,
    min_milli: i64,
    max_milli: i64,
}

impl IntStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        IntStats {
            n: 0,
            sum_milli: 0,
            min_milli: i64::MAX,
            max_milli: i64::MIN,
        }
    }

    /// Adds one observation of `milli` milli-units.
    pub fn push_milli(&mut self, milli: i64) {
        self.n += 1;
        self.sum_milli += milli as i128;
        self.min_milli = self.min_milli.min(milli);
        self.max_milli = self.max_milli.max(milli);
    }

    /// Adds one whole-unit observation (`units * 1000` milli-units).
    pub fn push_units(&mut self, units: u64) {
        self.push_milli((units as i64).saturating_mul(1000));
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Exact sum in milli-units.
    pub fn sum_milli(&self) -> i128 {
        self.sum_milli
    }

    /// Mean in milli-units, rounded half away from zero (0 when empty).
    pub fn mean_milli(&self) -> i64 {
        if self.n == 0 {
            return 0;
        }
        let n = self.n as i128;
        let half = if self.sum_milli >= 0 { n / 2 } else { -(n / 2) };
        ((self.sum_milli + half) / n) as i64
    }

    /// Mean in whole units as `f64`, for report-time formatting only
    /// (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum_milli as f64 / self.n as f64 / 1000.0
        }
    }

    /// Smallest observation in milli-units (`None` when empty).
    pub fn min_milli(&self) -> Option<i64> {
        (self.n > 0).then_some(self.min_milli)
    }

    /// Largest observation in milli-units (`None` when empty).
    pub fn max_milli(&self) -> Option<i64> {
        (self.n > 0).then_some(self.max_milli)
    }

    /// Merges another accumulator into this one. Exact and
    /// order-independent: `a.merge(&b)` equals pushing all of `b`'s
    /// samples into `a` in any order.
    pub fn merge(&mut self, other: &IntStats) {
        self.n += other.n;
        self.sum_milli += other.sum_milli;
        self.min_milli = self.min_milli.min(other.min_milli);
        self.max_milli = self.max_milli.max(other.max_milli);
    }
}

impl Default for IntStats {
    /// Same as [`IntStats::new`] (empty accumulator with correct
    /// min/max sentinels).
    fn default() -> Self {
        Self::new()
    }
}

/// A fixed-bucket histogram over `u64` samples.
///
/// Used for e.g. "lines cached per evicted region" (§3.2: 65.1% empty,
/// 17.2% one line, 5.1% two lines).
///
/// # Examples
///
/// ```
/// use cgct_sim::Histogram;
/// let mut h = Histogram::new(4);
/// h.record(0);
/// h.record(0);
/// h.record(2);
/// h.record(99); // clamps into the overflow bucket
/// assert_eq!(h.count(0), 2);
/// assert!((h.fraction(0) - 0.5).abs() < 1e-12);
/// assert_eq!(h.count(3), 1);
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    total: u64,
}

impl Clone for Histogram {
    fn clone(&self) -> Self {
        Histogram {
            buckets: self.buckets.clone(),
            total: self.total,
        }
    }

    /// Copies `source` into this histogram's existing bucket allocation.
    fn clone_from(&mut self, source: &Self) {
        self.buckets.clone_from(&source.buckets);
        self.total = source.total;
    }
}

impl Histogram {
    /// Creates a histogram with `buckets` buckets; values `>= buckets - 1`
    /// land in the last (overflow) bucket.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn new(buckets: usize) -> Self {
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram {
            buckets: vec![0; buckets],
            total: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = (value as usize).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.total += 1;
    }

    /// Count in bucket `idx` (0 for out-of-range indices).
    pub fn count(&self, idx: usize) -> u64 {
        self.buckets.get(idx).copied().unwrap_or(0)
    }

    /// Fraction of all samples in bucket `idx`.
    pub fn fraction(&self, idx: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(idx) as f64 / self.total as f64
        }
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of the recorded samples (overflow bucket counted at its index).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| i as u64 * c)
            .sum();
        sum as f64 / self.total as f64
    }

    /// Iterates over `(bucket_index, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().copied().enumerate()
    }
}

/// Tracks an event rate over fixed windows of simulated time, reporting both
/// the average rate and the peak window, as Figure 10 does for broadcasts
/// per 100,000 cycles.
///
/// # Examples
///
/// ```
/// use cgct_sim::{Cycle, IntervalTracker};
/// let mut t = IntervalTracker::new(100);
/// for i in 0..50 {
///     t.record(Cycle(i)); // 50 events in window [0, 100)
/// }
/// t.record(Cycle(150)); // 1 event in window [100, 200)
/// t.finish(Cycle(200));
/// assert_eq!(t.peak(), 50);
/// assert!((t.average_per_window() - 25.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalTracker {
    window: u64,
    current_window_start: Cycle,
    current_count: u64,
    peak: u64,
    total_events: u64,
    windows_elapsed: u64,
}

impl IntervalTracker {
    /// Creates a tracker with windows of `window` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "interval window must be positive");
        IntervalTracker {
            window,
            current_window_start: Cycle::ZERO,
            current_count: 0,
            peak: 0,
            total_events: 0,
            windows_elapsed: 0,
        }
    }

    /// Records one event at time `at`. Events must be recorded in
    /// non-decreasing time order.
    pub fn record(&mut self, at: Cycle) {
        self.roll_to(at);
        self.current_count += 1;
        self.total_events += 1;
    }

    /// Closes out the run at `end`, flushing the final (possibly partial)
    /// window into the peak and average figures.
    pub fn finish(&mut self, end: Cycle) {
        self.roll_to(end);
        // Count the in-progress window if it saw any events.
        if self.current_count > 0 {
            self.peak = self.peak.max(self.current_count);
            self.windows_elapsed += 1;
            self.current_count = 0;
        }
    }

    fn roll_to(&mut self, at: Cycle) {
        while at.0 >= self.current_window_start.0 + self.window {
            self.peak = self.peak.max(self.current_count);
            self.current_count = 0;
            self.current_window_start += self.window;
            self.windows_elapsed += 1;
        }
    }

    /// Largest number of events observed in any single window.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.total_events
    }

    /// Average events per window across the whole run.
    pub fn average_per_window(&self) -> f64 {
        if self.windows_elapsed == 0 {
            0.0
        } else {
            self.total_events as f64 / self.windows_elapsed as f64
        }
    }
}

mod snap_impls {
    //! [`Snap`](crate::snap::Snap) implementations for the statistics
    //! types. Floats travel as IEEE-754 bit patterns so the empty-
    //! accumulator `±INF` min/max sentinels survive the round trip.

    use super::*;
    use crate::json::Json;
    use crate::snap::{unsnap_field, Snap};

    impl Snap for Counter {
        fn snap(&self) -> Json {
            Json::u64(self.0)
        }
        fn unsnap(v: &Json) -> Result<Self, String> {
            Ok(Counter(v.as_u64().ok_or("expected counter")?))
        }
    }

    impl Snap for RunningStats {
        fn snap(&self) -> Json {
            Json::obj([
                ("n", self.n.snap()),
                ("mean", self.mean.snap()),
                ("m2", self.m2.snap()),
                ("min", self.min.snap()),
                ("max", self.max.snap()),
            ])
        }
        fn unsnap(v: &Json) -> Result<Self, String> {
            Ok(RunningStats {
                n: unsnap_field(v, "n")?,
                mean: unsnap_field(v, "mean")?,
                m2: unsnap_field(v, "m2")?,
                min: unsnap_field(v, "min")?,
                max: unsnap_field(v, "max")?,
            })
        }
    }

    impl Snap for IntStats {
        fn snap(&self) -> Json {
            // The i128 sum travels as a decimal string: JSON numbers in
            // this codebase are u64/i64/f64 and must stay exact.
            Json::obj([
                ("n", self.n.snap()),
                ("sum_milli", Json::str(self.sum_milli.to_string())),
                ("min_milli", self.min_milli.snap()),
                ("max_milli", self.max_milli.snap()),
            ])
        }
        fn unsnap(v: &Json) -> Result<Self, String> {
            let sum_text: String = unsnap_field(v, "sum_milli")?;
            Ok(IntStats {
                n: unsnap_field(v, "n")?,
                sum_milli: sum_text
                    .parse::<i128>()
                    .map_err(|e| format!("bad sum_milli {sum_text:?}: {e}"))?,
                min_milli: unsnap_field(v, "min_milli")?,
                max_milli: unsnap_field(v, "max_milli")?,
            })
        }
    }

    impl Snap for Histogram {
        fn snap(&self) -> Json {
            Json::obj([
                ("buckets", self.buckets.snap()),
                ("total", self.total.snap()),
            ])
        }
        fn unsnap(v: &Json) -> Result<Self, String> {
            let buckets: Vec<u64> = unsnap_field(v, "buckets")?;
            if buckets.is_empty() {
                return Err("histogram needs at least one bucket".to_string());
            }
            Ok(Histogram {
                buckets,
                total: unsnap_field(v, "total")?,
            })
        }
    }

    impl Snap for IntervalTracker {
        fn snap(&self) -> Json {
            Json::obj([
                ("window", self.window.snap()),
                ("start", self.current_window_start.snap()),
                ("count", self.current_count.snap()),
                ("peak", self.peak.snap()),
                ("total", self.total_events.snap()),
                ("windows", self.windows_elapsed.snap()),
            ])
        }
        fn unsnap(v: &Json) -> Result<Self, String> {
            let window: u64 = unsnap_field(v, "window")?;
            if window == 0 {
                return Err("interval window must be positive".to_string());
            }
            Ok(IntervalTracker {
                window,
                current_window_start: unsnap_field(v, "start")?,
                current_count: unsnap_field(v, "count")?,
                peak: unsnap_field(v, "peak")?,
                total_events: unsnap_field(v, "total")?,
                windows_elapsed: unsnap_field(v, "windows")?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        assert_eq!(c.value(), 0);
        c.inc();
        c.add(9);
        assert_eq!(c.value(), 10);
        assert!((c.fraction_of(40) - 0.25).abs() < 1e-12);
        assert_eq!(c.fraction_of(0), 0.0);
    }

    #[test]
    fn running_stats_mean_and_variance() {
        let s: RunningStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic dataset is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn confidence_interval_single_sample_degenerates() {
        let mut s = RunningStats::new();
        s.push(5.0);
        let ci = s.confidence_interval_95();
        assert_eq!(ci.low, 5.0);
        assert_eq!(ci.high, 5.0);
        assert_eq!(ci.half_width(), 0.0);
    }

    #[test]
    fn confidence_interval_contains_true_mean_for_identical_samples() {
        let mut s = RunningStats::new();
        for _ in 0..5 {
            s.push(3.0);
        }
        let ci = s.confidence_interval_95();
        assert!(ci.contains(3.0));
        assert!(ci.half_width() < 1e-12);
    }

    #[test]
    fn confidence_interval_known_value() {
        // n=4, mean=11.5, sd=sqrt(5/3), se=sd/2, t(3)=3.182.
        let s: RunningStats = [10.0, 12.0, 11.0, 13.0].into_iter().collect();
        let ci = s.confidence_interval_95();
        let expected_half = 3.182 * (5.0f64 / 3.0).sqrt() / 2.0;
        assert!((ci.half_width() - expected_half).abs() < 1e-9);
    }

    #[test]
    fn confidence_interval_large_n_uses_normal_quantile() {
        let mut s = RunningStats::new();
        for i in 0..100 {
            s.push(i as f64 % 2.0);
        }
        let ci = s.confidence_interval_95();
        let expected_half = 1.96 * s.std_error();
        assert!((ci.half_width() - expected_half).abs() < 1e-9);
    }

    #[test]
    fn int_stats_exact_mean_and_extrema() {
        let mut s = IntStats::new();
        for v in [10u64, 12, 11, 13] {
            s.push_units(v);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum_milli(), 46_000);
        assert_eq!(s.mean_milli(), 11_500);
        assert!((s.mean() - 11.5).abs() < 1e-12);
        assert_eq!(s.min_milli(), Some(10_000));
        assert_eq!(s.max_milli(), Some(13_000));
    }

    #[test]
    fn int_stats_empty() {
        let s = IntStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean_milli(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min_milli(), None);
        assert_eq!(s.max_milli(), None);
    }

    #[test]
    fn int_stats_rounds_half_away_from_zero() {
        let mut s = IntStats::new();
        s.push_milli(1);
        s.push_milli(2); // mean 1.5 milli
        assert_eq!(s.mean_milli(), 2);
        let mut t = IntStats::new();
        t.push_milli(-1);
        t.push_milli(-2);
        assert_eq!(t.mean_milli(), -2);
    }

    #[test]
    fn int_stats_merge_is_order_independent() {
        let samples = [5u64, 900, 3, 77, 77, 0];
        let mut whole = IntStats::new();
        for v in samples {
            whole.push_units(v);
        }
        let mut left = IntStats::new();
        let mut right = IntStats::new();
        for v in &samples[..2] {
            left.push_units(*v);
        }
        for v in &samples[2..] {
            right.push_units(*v);
        }
        let mut merged = right; // reversed merge order
        merged.merge(&left);
        assert_eq!(merged, whole);
    }

    #[test]
    fn int_stats_merge_with_empty_is_identity() {
        let mut s = IntStats::new();
        s.push_units(42);
        let before = s;
        s.merge(&IntStats::new());
        assert_eq!(s, before);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(3);
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1000);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(2), 3); // 2, 3, 1000 clamp to last bucket
        assert_eq!(h.total(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn histogram_rejects_zero_buckets() {
        let _ = Histogram::new(0);
    }

    #[test]
    fn histogram_mean() {
        let mut h = Histogram::new(10);
        h.record(2);
        h.record(4);
        assert!((h.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn interval_tracker_peak_and_average() {
        let mut t = IntervalTracker::new(10);
        // Window 0: 3 events; window 1: 1 event; window 2: 5 events.
        for at in [0, 5, 9] {
            t.record(Cycle(at));
        }
        t.record(Cycle(12));
        for at in [20, 21, 22, 23, 24] {
            t.record(Cycle(at));
        }
        t.finish(Cycle(30));
        assert_eq!(t.peak(), 5);
        assert_eq!(t.total(), 9);
        assert!((t.average_per_window() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn interval_tracker_empty_run() {
        let mut t = IntervalTracker::new(100);
        t.finish(Cycle(1000));
        assert_eq!(t.peak(), 0);
        assert_eq!(t.average_per_window(), 0.0);
    }

    #[test]
    fn interval_tracker_events_far_apart() {
        let mut t = IntervalTracker::new(10);
        t.record(Cycle(0));
        t.record(Cycle(1_000));
        t.finish(Cycle(1_010));
        assert_eq!(t.peak(), 1);
        assert_eq!(t.total(), 2);
    }
}
