//! Order statistics and the digest the sim-clock checks are built on.

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice
/// (the "inclusive" method: rank `q * (n - 1)`), 0.0 when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (any order).
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// `(first quartile, median, third quartile)` of `values` (any order).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    (
        quantile_sorted(&s, 0.25),
        quantile_sorted(&s, 0.5),
        quantile_sorted(&s, 0.75),
    )
}

/// Percentile `p` in `[0, 100]` of ascending integer nanosecond samples,
/// in nanoseconds, interpolated like [`quantile_sorted`].
pub fn percentile_sorted_ns(samples: &[u64], p: f64) -> f64 {
    match samples.len() {
        0 => 0.0,
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            samples[lo] as f64 + (samples[hi] - samples[lo]) as f64 * (rank - lo as f64)
        }
    }
}

/// Streaming FNV-1a, the fingerprint behind `sim_digest`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_interpolate() {
        let (q1, q2, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q1, q2, q3), (2.0, 3.0, 4.0));
        let (q1, _, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0]);
        assert!((q1 - 1.75).abs() < 1e-12 && (q3 - 3.25).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s: Vec<u64> = (1..=101).collect();
        assert_eq!(percentile_sorted_ns(&s, 50.0), 51.0);
        assert_eq!(percentile_sorted_ns(&s, 99.0), 100.0);
        assert_eq!(percentile_sorted_ns(&s, 100.0), 101.0);
        assert_eq!(percentile_sorted_ns(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted_ns(&[10, 20], 50.0), 15.0);
        assert_eq!(percentile_sorted_ns(&[10, 20], 99.0), 19.9);
        assert_eq!(percentile_sorted_ns(&[], 50.0), 0.0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut f = Fnv::new();
        assert_eq!(f.finish(), 0xcbf2_9ce4_8422_2325);
        f.write(b"a");
        assert_eq!(f.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut g = Fnv::new();
        g.write_u64(1);
        let mut h = Fnv::new();
        h.write(&[1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(g.finish(), h.finish());
    }
}
