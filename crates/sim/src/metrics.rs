//! Measurement primitives: rate meters and time series (latency
//! populations live in [`crate::hist::Histogram`]).
//!
//! These feed the evaluation harness: IOPS and latency for Figures 4–9,
//! utilization for Figure 10, per-second transaction timelines for
//! Figure 13.

use crate::{SimDuration, SimTime};

/// Counts events over a window and reports a rate (events per second).
///
/// The completion counter behind every IOPS number in Figures 4–6.
#[derive(Debug, Clone, Default)]
pub struct Meter {
    count: u64,
    bytes: u64,
}

impl Meter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one event carrying `bytes` bytes.
    pub fn record(&mut self, bytes: u64) {
        self.count += 1;
        self.bytes += bytes;
    }

    /// Total events recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total bytes recorded.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Events per second over `window`.
    pub fn rate(&self, window: SimDuration) -> f64 {
        let secs = window.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.count as f64 / secs
    }

    /// Bytes per second over `window`.
    pub fn throughput(&self, window: SimDuration) -> f64 {
        let secs = window.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.bytes as f64 / secs
    }
}

/// Bins event counts into fixed-width time buckets — the per-second TPS
/// timeline of Figure 13.
#[derive(Debug, Clone)]
pub struct Timeline {
    bucket: SimDuration,
    counts: Vec<u64>,
}

impl Timeline {
    /// Creates a timeline with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn new(bucket: SimDuration) -> Self {
        assert!(bucket > SimDuration::ZERO, "bucket must be positive");
        Timeline {
            bucket,
            counts: Vec::new(),
        }
    }

    /// Records one event at instant `at`.
    pub fn record(&mut self, at: SimTime) {
        let idx = (at.as_nanos() / self.bucket.as_nanos()) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// Bucket width.
    pub fn bucket(&self) -> SimDuration {
        self.bucket
    }

    /// Event counts per bucket, index 0 starting at time zero.
    pub fn series(&self) -> &[u64] {
        &self.counts
    }

    /// Mean rate (events per bucket) over the bucket range `[lo, hi)`.
    pub fn mean_over(&self, lo: usize, hi: usize) -> f64 {
        let hi = hi.min(self.counts.len());
        if lo >= hi {
            return 0.0;
        }
        let total: u64 = self.counts[lo..hi].iter().sum();
        total as f64 / (hi - lo) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_rates() {
        let mut m = Meter::new();
        for _ in 0..500 {
            m.record(4096);
        }
        assert_eq!(m.count(), 500);
        assert_eq!(m.bytes(), 500 * 4096);
        let iops = m.rate(SimDuration::from_secs(5));
        assert!((iops - 100.0).abs() < 1e-9);
        let bw = m.throughput(SimDuration::from_secs(5));
        assert!((bw - 409_600.0).abs() < 1e-6);
        assert_eq!(m.rate(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn timeline_buckets() {
        let mut t = Timeline::new(SimDuration::from_secs(1));
        t.record(SimTime::from_nanos(100));
        t.record(SimTime::from_nanos(999_999_999));
        t.record(SimTime::from_nanos(1_000_000_000));
        t.record(SimTime::from_nanos(3_500_000_000));
        assert_eq!(t.series(), &[2, 1, 0, 1]);
        assert!((t.mean_over(0, 2) - 1.5).abs() < 1e-9);
        assert_eq!(t.mean_over(5, 9), 0.0);
    }
}
