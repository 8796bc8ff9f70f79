//! Deterministic token-bucket shapers driven by the simulation clock.

use storm_sim::{SimDuration, SimTime};

/// Nanoseconds per second — the fixed-point scale of the bucket level.
const NS: u128 = 1_000_000_000;

/// A token bucket over the virtual clock.
///
/// The level is tracked in *token-nanoseconds* (tokens × 10⁹), so a refill
/// of `rate` tokens/second adds exactly `rate × Δns` scaled units per
/// elapsed nanosecond — pure integer arithmetic, no drift, no float. The
/// level may go negative (debt): a take that overdraws returns the delay
/// until the debt is repaid, which is how sustained overload turns into
/// back-to-back spacing at exactly the configured rate.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Refill rate in tokens per second (0 = unlimited).
    rate: u64,
    /// Bucket capacity in tokens (burst credit).
    burst: u64,
    /// Current level in token-nanoseconds; negative = debt.
    level: i128,
    /// Last refill instant.
    last: SimTime,
}

impl TokenBucket {
    /// Creates a bucket refilling at `rate` tokens/second with `burst`
    /// tokens of credit, initially full. `rate == 0` disables limiting.
    pub fn new(rate: u64, burst: u64) -> Self {
        TokenBucket {
            rate,
            burst,
            level: burst as i128 * NS as i128,
            last: SimTime::ZERO,
        }
    }

    /// The configured rate in tokens/second (0 = unlimited).
    pub fn rate(&self) -> u64 {
        self.rate
    }

    /// The configured burst capacity in tokens.
    pub fn burst(&self) -> u64 {
        self.burst
    }

    /// Whole tokens currently available at `now` (clamped at zero while
    /// in debt).
    pub fn available(&mut self, now: SimTime) -> u64 {
        self.refill(now);
        if self.level <= 0 {
            0
        } else {
            (self.level / NS as i128) as u64
        }
    }

    fn refill(&mut self, now: SimTime) {
        if now <= self.last {
            return;
        }
        let dt = (now - self.last).as_nanos() as u128;
        self.last = now;
        if self.rate == 0 {
            return;
        }
        let cap = self.burst as i128 * NS as i128;
        self.level = (self.level + (self.rate as u128 * dt) as i128).min(cap);
    }

    /// Takes `n` tokens at `now` and returns how long the caller must
    /// delay before the tokens are actually covered by refill.
    ///
    /// [`SimDuration::ZERO`] is the uncontended fast path: the request is
    /// under its limit and proceeds untouched. A positive delay means the
    /// bucket went into debt; callers should hold the work for that long.
    pub fn take(&mut self, now: SimTime, n: u64) -> SimDuration {
        if self.rate == 0 {
            return SimDuration::ZERO;
        }
        self.refill(now);
        self.level -= n as i128 * NS as i128;
        if self.level >= 0 {
            return SimDuration::ZERO;
        }
        // Delay until the debt is repaid: ceil(-level / rate) nanoseconds.
        let debt = (-self.level) as u128;
        SimDuration::from_nanos(debt.div_ceil(self.rate as u128) as u64)
    }
}

/// Per-tenant rate limits: an IOPS bucket and a bandwidth bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimitSpec {
    /// Operations per second (0 = unlimited).
    pub iops: u64,
    /// Burst credit in operations.
    pub iops_burst: u64,
    /// Bytes per second (0 = unlimited).
    pub bytes_per_sec: u64,
    /// Burst credit in bytes.
    pub bytes_burst: u64,
}

impl RateLimitSpec {
    /// No limiting at all — every admit is the zero-delay fast path.
    pub const UNLIMITED: RateLimitSpec = RateLimitSpec {
        iops: 0,
        iops_burst: 0,
        bytes_per_sec: 0,
        bytes_burst: 0,
    };

    /// An IOPS-only limit with `burst` operations of credit.
    pub const fn iops_limit(iops: u64, burst: u64) -> Self {
        RateLimitSpec {
            iops,
            iops_burst: burst,
            bytes_per_sec: 0,
            bytes_burst: 0,
        }
    }
}

/// The dual token-bucket limiter enforcing a [`RateLimitSpec`].
#[derive(Debug, Clone)]
pub struct RateLimiter {
    ops: TokenBucket,
    bytes: TokenBucket,
    /// Operations that were delayed (left the fast path).
    throttled: u64,
    /// Total shaping delay imposed.
    throttle_total: SimDuration,
}

impl RateLimiter {
    /// Creates a limiter from a spec.
    pub fn new(spec: RateLimitSpec) -> Self {
        RateLimiter {
            ops: TokenBucket::new(spec.iops, spec.iops_burst),
            bytes: TokenBucket::new(spec.bytes_per_sec, spec.bytes_burst),
            throttled: 0,
            throttle_total: SimDuration::ZERO,
        }
    }

    /// Admits one operation of `bytes` payload at `now`; the result is
    /// the shaping delay (ZERO = under both limits, the fast path).
    pub fn admit(&mut self, now: SimTime, bytes: u64) -> SimDuration {
        let d_ops = self.ops.take(now, 1);
        let d_bytes = self.bytes.take(now, bytes);
        let d = d_ops.max(d_bytes);
        if d > SimDuration::ZERO {
            self.throttled += 1;
            self.throttle_total += d;
        }
        d
    }

    /// `(throttled operation count, summed shaping delay)` so far.
    pub fn throttle_stats(&self) -> (u64, SimDuration) {
        (self.throttled, self.throttle_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    /// Burst credit drains instantly, then sustained load is spaced at
    /// exactly the configured rate — and the refill boundary has no
    /// off-by-one: the token that becomes available at instant T is
    /// usable at T, not T±1ns.
    #[test]
    fn burst_then_sustained_rate_no_refill_off_by_one() {
        // 1000 ops/s (one token per millisecond), 4 tokens of burst.
        let mut b = TokenBucket::new(1000, 4);
        // The burst passes with zero delay.
        for _ in 0..4 {
            assert_eq!(b.take(SimTime::ZERO, 1), SimDuration::ZERO);
        }
        // The 5th op at t=0 owes exactly one full refill interval.
        assert_eq!(b.take(SimTime::ZERO, 1), SimDuration::from_millis(1));
        // The 6th owes two, and so on: sustained load spaces at the rate.
        assert_eq!(b.take(SimTime::ZERO, 1), SimDuration::from_millis(2));
        // At exactly t = 3ms the debt from both delayed ops is repaid
        // (level back to 1 token): a take at the boundary is free again.
        let t = SimTime::from_millis(3);
        assert_eq!(b.take(t, 1), SimDuration::ZERO);
        // ... and the very next one at the same instant owes exactly one
        // interval again — the boundary credited one token, not two.
        assert_eq!(b.take(t, 1), SimDuration::from_millis(1));
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut b = TokenBucket::new(1000, 8);
        for _ in 0..8 {
            assert_eq!(b.take(at(0), 1), SimDuration::ZERO);
        }
        // A long idle period refills to the cap, not beyond.
        assert_eq!(b.available(SimTime::from_secs(10)), 8);
    }

    #[test]
    fn zero_rate_is_unlimited() {
        let mut b = TokenBucket::new(0, 0);
        for i in 0..1000 {
            assert_eq!(b.take(at(i), 1_000_000), SimDuration::ZERO);
        }
    }

    #[test]
    fn fractional_refill_accumulates_exactly() {
        // 3 ops/s: one token every 333,333,333.33... ns. Integer
        // token-nanosecond accounting must not lose the fraction.
        let mut b = TokenBucket::new(3, 1);
        assert_eq!(b.take(SimTime::ZERO, 1), SimDuration::ZERO);
        // Ten seconds of refill at 3/s = exactly 30 tokens earned; with
        // burst 1 the bucket caps, but debt repayment is exact: take 31
        // tokens at t=10s leaves 30 tokens of debt = 10s of delay.
        let t = SimTime::from_secs(10);
        assert_eq!(b.take(t, 31), SimDuration::from_secs(10));
    }

    #[test]
    fn limiter_combines_ops_and_bytes() {
        let mut l = RateLimiter::new(RateLimitSpec {
            iops: 1000,
            iops_burst: 1000,
            bytes_per_sec: 1_000_000,
            bytes_burst: 64 * 1024,
        });
        // Under both limits: fast path.
        assert_eq!(l.admit(SimTime::ZERO, 4096), SimDuration::ZERO);
        // A huge write exhausts the byte bucket long before the op bucket.
        let d = l.admit(SimTime::ZERO, 10_000_000);
        assert!(d > SimDuration::from_secs(9), "byte bucket dominates: {d}");
        let (n, total) = l.throttle_stats();
        assert_eq!(n, 1);
        assert_eq!(total, d);
    }

    #[test]
    fn unlimited_spec_never_throttles() {
        let mut l = RateLimiter::new(RateLimitSpec::UNLIMITED);
        for i in 0..100 {
            assert_eq!(l.admit(at(i), u64::MAX / 2), SimDuration::ZERO);
        }
        assert_eq!(l.throttle_stats().0, 0);
    }
}
