//! Log-bucketed duration histogram with `&self` percentile queries.
//!
//! The one latency-population type: client I/O stats, per-volume target
//! stats and the telemetry registry all record into it. Values are bucketed by power of two with 64
//! linear sub-buckets per power, bounding the relative quantile error to
//! about 1.6% while keeping a record O(1) with no allocation after the
//! bucket table stops growing. Count, sum, min and max are kept exactly,
//! so means are exact and the extreme percentiles clamp to real samples.

use crate::SimDuration;

/// Linear sub-buckets per power of two (2^6).
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;

/// A histogram of [`SimDuration`] samples.
///
/// Unlike the sorted-vector recorder it replaces, queries never mutate
/// interior state: percentiles walk the bucket table directly, so shared
/// references (report formatters, `&self` accessors) need no cache or
/// `RefCell`.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// Bucket index for a raw nanosecond value.
fn index_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let p = 63 - v.leading_zeros();
    let group = (p - SUB_BITS + 1) as u64;
    let sub = (v >> (p - SUB_BITS)) & (SUB - 1);
    (group * SUB + sub) as usize
}

/// Lowest raw value mapping to bucket `idx`.
fn lower_bound(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        return idx;
    }
    let group = idx / SUB;
    let sub = idx % SUB;
    (SUB + sub) << (group - 1)
}

/// Width of bucket `idx` in raw units.
fn width_of(idx: usize) -> u64 {
    let group = idx as u64 / SUB;
    if group == 0 {
        1
    } else {
        1 << (group - 1)
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        let v = d.as_nanos();
        let idx = index_of(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.sum += v as u128;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> SimDuration {
        SimDuration::from_nanos(u64::try_from(self.sum).unwrap_or(u64::MAX))
    }

    /// Smallest sample (exact), or zero when empty.
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos(self.min)
    }

    /// Largest sample (exact), or zero when empty.
    pub fn max(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos(self.max)
    }

    /// Exact arithmetic mean, or zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum / self.count as u128) as u64)
    }

    /// Value at quantile `q` in `[0, 1]`, or zero when empty.
    ///
    /// The result is the midpoint of the bucket holding the sample of rank
    /// `ceil(q * count)`, clamped into `[min, max]`; `q <= 0` returns the
    /// exact minimum and `q >= 1` the exact maximum.
    ///
    /// A NaN quantile is a caller bug (it compares false against both
    /// guards, and `NaN * count` poisons the rank): debug builds panic;
    /// release builds clamp to the maximum, the conservative reading for
    /// a tail-latency query.
    pub fn value_at_quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        if q.is_nan() {
            debug_assert!(false, "quantile is NaN");
            return self.max();
        }
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max();
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                let mid = lower_bound(idx) + width_of(idx) / 2;
                return SimDuration::from_nanos(mid.clamp(self.min, self.max));
            }
        }
        self.max()
    }

    /// Percentile in `[0, 100]` — see [`value_at_quantile`](Self::value_at_quantile).
    pub fn percentile(&self, p: f64) -> SimDuration {
        self.value_at_quantile(p / 100.0)
    }

    /// Number of samples at or below `threshold`.
    ///
    /// Samples in the bucket straddling the threshold count as "below"
    /// when the bucket midpoint is — consistent with
    /// [`value_at_quantile`](Self::value_at_quantile) reporting bucket
    /// midpoints, so `count_at_or_below(value_at_quantile(q))` is never
    /// less than `ceil(q * count)`.
    pub fn count_at_or_below(&self, threshold: SimDuration) -> u64 {
        let t = threshold.as_nanos();
        let mut cum = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let mid = lower_bound(idx) + width_of(idx) / 2;
            if mid.clamp(self.min, self.max) <= t {
                cum += n;
            }
        }
        cum
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (idx, &n) in other.buckets.iter().enumerate() {
            self.buckets[idx] += n;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: SimDuration, b: SimDuration, rel: f64) -> bool {
        let (a, b) = (a.as_nanos() as f64, b.as_nanos() as f64);
        (a - b).abs() <= rel * b.max(1.0)
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB {
            h.record(SimDuration::from_nanos(v));
        }
        // Values below the sub-bucket width land in unit buckets.
        assert_eq!(h.value_at_quantile(0.0), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::from_nanos(SUB - 1));
        assert_eq!(index_of(5), 5);
        assert_eq!(lower_bound(index_of(5)), 5);
    }

    #[test]
    fn index_and_bounds_are_consistent() {
        for v in [
            0u64,
            1,
            63,
            64,
            65,
            127,
            128,
            1000,
            4096,
            1_000_000,
            123_456_789,
            u64::MAX / 2,
        ] {
            let idx = index_of(v);
            let lo = lower_bound(idx);
            let w = width_of(idx);
            assert!(lo <= v && v < lo + w, "v={v} idx={idx} lo={lo} w={w}");
        }
    }

    #[test]
    fn percentiles_are_within_bucket_error() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(SimDuration::from_micros(i));
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), SimDuration::from_micros(1));
        assert_eq!(h.max(), SimDuration::from_micros(1000));
        assert_eq!(h.mean(), SimDuration::from_nanos(500_500));
        assert!(close(
            h.percentile(50.0),
            SimDuration::from_micros(500),
            0.02
        ));
        assert!(close(
            h.percentile(99.0),
            SimDuration::from_micros(990),
            0.02
        ));
        assert_eq!(h.percentile(0.0), SimDuration::from_micros(1));
        assert_eq!(h.percentile(100.0), SimDuration::from_micros(1000));
    }

    #[test]
    fn count_at_or_below_tracks_quantiles() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(SimDuration::from_micros(i));
        }
        assert_eq!(h.count_at_or_below(SimDuration::ZERO), 0);
        assert_eq!(h.count_at_or_below(h.max()), 1000);
        // Consistency with the quantile query: at least q*count samples
        // sit at or below the reported quantile value.
        for q in [0.5, 0.9, 0.99] {
            let v = h.value_at_quantile(q);
            let n = h.count_at_or_below(v);
            assert!(
                n >= (q * 1000.0).ceil() as u64,
                "q={q}: {n} samples below {v}"
            );
        }
        // Small exact buckets behave exactly.
        let mut small = Histogram::new();
        for v in 0..10u64 {
            small.record(SimDuration::from_nanos(v));
        }
        assert_eq!(small.count_at_or_below(SimDuration::from_nanos(4)), 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "quantile is NaN")]
    fn nan_quantile_panics_in_debug() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_nanos(5));
        let _ = h.percentile(f64::NAN);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn nan_quantile_clamps_to_max_in_release() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_nanos(5));
        h.record(SimDuration::from_nanos(9));
        assert_eq!(h.percentile(f64::NAN), h.max());
    }

    #[test]
    fn nan_quantile_on_empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.value_at_quantile(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn merge_combines_populations() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimDuration::from_millis(1));
        b.record(SimDuration::from_millis(9));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), SimDuration::from_millis(1));
        assert_eq!(a.max(), SimDuration::from_millis(9));
        assert_eq!(a.mean(), SimDuration::from_millis(5));
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.value_at_quantile(0.5), SimDuration::ZERO);
        assert_eq!(h.sum(), SimDuration::ZERO);
    }
}
