//! Per-tenant quality of service on the storage hosts.
//!
//! StorM's datapath treats every tenant identically; at fleet scale that
//! means noisy neighbors. This module supplies the mechanisms that turn
//! the shared platform into an isolated one, in the style of IOArbiter's
//! SLO-tagged provisioning:
//!
//! - [`RateLimiter`] — a deterministic, sim-clock-driven IOPS token
//!   bucket with burst credit. A tenant under its limit stays on the
//!   zero-delay fast path and its datapath behavior is byte-identical to
//!   an unlimited run.
//! - [`WeightedFairQueue`] — virtual-finish-time WFQ for the target
//!   dispatch queue: under contention, service shares converge to the
//!   configured weight ratio.
//! - [`VolumeSlo`] / [`DiskTier`] — the objective a volume is created
//!   under; [`crate::ProvisioningEngine`] admits volumes against it and
//!   migrates persistent violators.
//!
//! Everything here is pure mechanism over the virtual clock: no wall
//! time, no ambient randomness, `BTreeMap` iteration only — the same
//! determinism contract the workspace lints enforce on the rest of the
//! stack.

use std::collections::BTreeMap;

use storm_sim::{SimDuration, SimTime};

/// The backing-disk tier a volume lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskTier {
    /// Low-latency tier (SSD-class: short seek, high bandwidth).
    Fast,
    /// Capacity tier (spindle-class: long seek, modest bandwidth).
    Slow,
}

impl DiskTier {
    /// Stable label for metrics and trace output.
    pub fn label(self) -> &'static str {
        match self {
            DiskTier::Fast => "fast",
            DiskTier::Slow => "slow",
        }
    }

    /// Index into per-tier arrays: fast then slow.
    pub(crate) fn index(self) -> usize {
        match self {
            DiskTier::Fast => 0,
            DiskTier::Slow => 1,
        }
    }
}

/// The service-level objective attached to a volume at create time.
///
/// Mirrors IOArbiter's SLO-tagged provisioning: a floor on sustainable
/// IOPS, a ceiling on read p99, and the tier the volume is placed on to
/// satisfy them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VolumeSlo {
    /// Minimum IOPS the tenant must be able to sustain.
    pub iops_floor: u64,
    /// p99 completion-latency ceiling in microseconds (0 = no ceiling).
    pub p99_ceiling_us: u64,
    /// Tier the volume is (currently) placed on.
    pub tier: DiskTier,
}

impl VolumeSlo {
    /// A best-effort SLO: no floors, no ceilings, capacity tier.
    pub const BEST_EFFORT: VolumeSlo = VolumeSlo {
        iops_floor: 0,
        p99_ceiling_us: 0,
        tier: DiskTier::Slow,
    };

    /// A latency-sensitive SLO that asks for the fast tier.
    pub fn latency(iops_floor: u64, p99_ceiling_us: u64) -> Self {
        VolumeSlo {
            iops_floor,
            p99_ceiling_us,
            tier: DiskTier::Fast,
        }
    }

    /// Whether an observed p99 (in microseconds) violates the ceiling.
    pub fn violated_by(&self, p99_us: u64) -> bool {
        self.p99_ceiling_us > 0 && p99_us > self.p99_ceiling_us
    }
}

/// Nanoseconds per second — the fixed-point scale of the bucket level.
const NS: i128 = 1_000_000_000;

/// A per-tenant IOPS limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimitSpec {
    /// Operations per second (0 = unlimited).
    pub iops: u64,
    /// Burst credit in operations.
    pub iops_burst: u64,
}

impl RateLimitSpec {
    /// A limit of `iops` operations per second with `burst` operations of
    /// credit.
    pub const fn iops_limit(iops: u64, burst: u64) -> Self {
        RateLimitSpec {
            iops,
            iops_burst: burst,
        }
    }
}

/// The token bucket enforcing a [`RateLimitSpec`] over the virtual clock.
///
/// The level is tracked in *token-nanoseconds* (tokens × 10⁹), so a refill
/// of `rate` tokens/second adds exactly `rate × Δns` scaled units per
/// elapsed nanosecond — pure integer arithmetic, no drift, no float. The
/// level may go negative (debt): an admit that overdraws returns the delay
/// until the debt is repaid, which is how sustained overload turns into
/// back-to-back spacing at exactly the configured rate.
#[derive(Debug, Clone)]
pub struct RateLimiter {
    /// Refill rate in operations per second (0 = unlimited).
    rate: u64,
    /// Bucket capacity in token-nanoseconds (burst credit).
    cap: i128,
    /// Current level in token-nanoseconds; negative = debt.
    level: i128,
    /// Last refill instant.
    last: SimTime,
    /// Operations that were delayed (left the fast path).
    throttled: u64,
    /// Total shaping delay imposed.
    throttle_total: SimDuration,
}

impl RateLimiter {
    /// Creates a limiter from a spec, its bucket initially full.
    pub fn new(spec: RateLimitSpec) -> Self {
        let cap = spec.iops_burst as i128 * NS;
        RateLimiter {
            rate: spec.iops,
            cap,
            level: cap,
            last: SimTime::ZERO,
            throttled: 0,
            throttle_total: SimDuration::ZERO,
        }
    }

    /// Admits one operation at `now` and returns how long the caller must
    /// delay it before its token is actually covered by refill.
    ///
    /// [`SimDuration::ZERO`] is the uncontended fast path: the operation
    /// is under its limit and proceeds untouched. A positive delay means
    /// the bucket went into debt; callers should hold the work that long.
    pub fn admit(&mut self, now: SimTime) -> SimDuration {
        if self.rate == 0 {
            return SimDuration::ZERO;
        }
        if now > self.last {
            let dt = (now - self.last).as_nanos() as i128;
            self.last = now;
            self.level = (self.level + self.rate as i128 * dt).min(self.cap);
        }
        self.level -= NS;
        if self.level >= 0 {
            return SimDuration::ZERO;
        }
        // Delay until the debt is repaid: ceil(-level / rate) nanoseconds.
        let debt = (-self.level) as u128;
        let d = SimDuration::from_nanos(debt.div_ceil(self.rate as u128) as u64);
        self.throttled += 1;
        self.throttle_total += d;
        d
    }

    /// `(throttled operation count, summed shaping delay)` so far.
    pub fn throttle_stats(&self) -> (u64, SimDuration) {
        (self.throttled, self.throttle_total)
    }
}

/// A weighted fair queue over opaque work items.
///
/// Classic virtual-finish-time WFQ: each tenant carries a weight, each
/// enqueued item a cost, and the scheduler always pops the item with the
/// smallest finish tag `max(vtime, last_finish[tenant]) + cost/weight`.
/// Over any long window, tenant service shares converge to the weight
/// ratio regardless of arrival patterns.
///
/// Everything is integer arithmetic over [`BTreeMap`]s; ties break on
/// `(finish_tag, tenant, seq)`, so iteration and pop order are fully
/// deterministic — a hard requirement for the equal-seed trace property.
#[derive(Debug)]
pub struct WeightedFairQueue<T> {
    /// Per-tenant weight (share of service under contention).
    weights: BTreeMap<u32, u64>,
    /// Per-tenant finish tag of the most recently enqueued item.
    last_finish: BTreeMap<u32, u128>,
    /// Queued items keyed by (finish tag, tenant, seq) for deterministic
    /// smallest-tag-first pop.
    queue: BTreeMap<(u128, u32, u64), T>,
    /// Global virtual time: finish tag of the last popped item.
    vtime: u128,
    /// Monotone enqueue counter for tie-breaking.
    seq: u64,
}

/// Scale factor applied to costs so integer division by the weight keeps
/// sub-unit precision.
const COST_SCALE: u128 = 1 << 20;

impl<T> Default for WeightedFairQueue<T> {
    /// An empty queue. Tenants weigh 1 until
    /// [`set_weight`](Self::set_weight) is called.
    fn default() -> Self {
        WeightedFairQueue {
            weights: BTreeMap::new(),
            last_finish: BTreeMap::new(),
            queue: BTreeMap::new(),
            vtime: 0,
            seq: 0,
        }
    }
}

impl<T> WeightedFairQueue<T> {
    /// Sets `tenant`'s weight. A weight of 0 is clamped to 1.
    pub fn set_weight(&mut self, tenant: u32, weight: u64) {
        self.weights.insert(tenant, weight.max(1));
    }

    /// Enqueues `item` for `tenant` with the given service `cost`
    /// (arbitrary units — e.g. estimated service nanoseconds or bytes).
    pub fn push(&mut self, tenant: u32, cost: u64, item: T) {
        let start = self
            .last_finish
            .get(&tenant)
            .copied()
            .unwrap_or(0)
            .max(self.vtime);
        let w = self.weights.get(&tenant).copied().unwrap_or(1) as u128;
        let finish = start + (cost.max(1) as u128 * COST_SCALE) / w;
        self.last_finish.insert(tenant, finish);
        let seq = self.seq;
        self.seq += 1;
        self.queue.insert((finish, tenant, seq), item);
    }

    /// Pops the item with the smallest virtual finish tag, advancing the
    /// virtual clock. Returns `(tenant, item)`.
    pub fn pop(&mut self) -> Option<(u32, T)> {
        let ((finish, tenant, _), item) = self.queue.pop_first()?;
        self.vtime = self.vtime.max(finish);
        Some((tenant, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceiling_zero_never_violates() {
        let slo = VolumeSlo::BEST_EFFORT;
        assert!(!slo.violated_by(u64::MAX));
    }

    #[test]
    fn ceiling_is_exclusive_bound() {
        let slo = VolumeSlo::latency(1000, 500);
        assert!(!slo.violated_by(500));
        assert!(slo.violated_by(501));
    }

    #[test]
    fn tier_labels_are_stable() {
        assert_eq!(DiskTier::Fast.label(), "fast");
        assert_eq!(DiskTier::Slow.label(), "slow");
    }

    fn at(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    /// Burst credit drains instantly, then sustained load is spaced at
    /// exactly the configured rate — and the refill boundary has no
    /// off-by-one: the token that becomes available at instant T is
    /// usable at T, not T±1ns. Only the delayed admits count as throttled.
    #[test]
    fn burst_then_sustained_rate_no_refill_off_by_one() {
        // 1000 ops/s (one token per millisecond), 4 tokens of burst.
        let mut l = RateLimiter::new(RateLimitSpec::iops_limit(1000, 4));
        // The burst passes with zero delay.
        for _ in 0..4 {
            assert_eq!(l.admit(SimTime::ZERO), SimDuration::ZERO);
        }
        // The 5th op at t=0 owes exactly one full refill interval.
        assert_eq!(l.admit(SimTime::ZERO), SimDuration::from_millis(1));
        // The 6th owes two, and so on: sustained load spaces at the rate.
        assert_eq!(l.admit(SimTime::ZERO), SimDuration::from_millis(2));
        // At exactly t = 3ms the debt from both delayed ops is repaid
        // (level back to 1 token): an admit at the boundary is free again.
        let t = SimTime::from_millis(3);
        assert_eq!(l.admit(t), SimDuration::ZERO);
        // ... and the very next one at the same instant owes exactly one
        // interval again — the boundary credited one token, not two.
        assert_eq!(l.admit(t), SimDuration::from_millis(1));
        assert_eq!(l.throttle_stats(), (3, SimDuration::from_millis(4)));
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut l = RateLimiter::new(RateLimitSpec::iops_limit(1000, 8));
        for _ in 0..8 {
            assert_eq!(l.admit(at(0)), SimDuration::ZERO);
        }
        // A long idle period refills to the cap, not beyond: 8 free
        // admits, then the 9th owes one interval.
        let t = SimTime::from_secs(10);
        for _ in 0..8 {
            assert_eq!(l.admit(t), SimDuration::ZERO);
        }
        assert_eq!(l.admit(t), SimDuration::from_millis(1));
    }

    #[test]
    fn zero_rate_is_unlimited() {
        let mut l = RateLimiter::new(RateLimitSpec::iops_limit(0, 0));
        for i in 0..1000 {
            assert_eq!(l.admit(at(i)), SimDuration::ZERO);
        }
        assert_eq!(l.throttle_stats(), (0, SimDuration::ZERO));
    }

    #[test]
    fn fractional_refill_accumulates_exactly() {
        // 3 ops/s: one token every 333,333,333.33... ns. Integer
        // token-nanosecond accounting must not lose the fraction.
        let mut l = RateLimiter::new(RateLimitSpec::iops_limit(3, 1));
        assert_eq!(l.admit(SimTime::ZERO), SimDuration::ZERO);
        // Ten seconds of refill at 3/s = exactly 30 tokens earned; with
        // burst 1 the bucket caps, but debt repayment is exact: 31 admits
        // at t=10s leave 30 tokens of debt = 10s of delay.
        let t = SimTime::from_secs(10);
        for _ in 0..30 {
            l.admit(t);
        }
        assert_eq!(l.admit(t), SimDuration::from_secs(10));
    }

    /// With weights 2:1 and both tenants continuously backlogged, the
    /// long-run service shares land within 5% of 2/3 and 1/3.
    #[test]
    fn weighted_shares_converge_2_to_1() {
        let mut q: WeightedFairQueue<u64> = WeightedFairQueue::default();
        q.set_weight(1, 2);
        q.set_weight(2, 1);
        // Keep both backlogs non-empty: top up as items are served.
        let cost = 100u64;
        for _ in 0..8 {
            q.push(1, cost, cost);
            q.push(2, cost, cost);
        }
        let mut served = [0u64; 3];
        for _ in 0..3000 {
            let (tenant, cost) = q.pop().expect("backlogged");
            served[tenant as usize] += cost;
            // Replenish the popped tenant so both stay backlogged.
            q.push(tenant, cost, cost);
        }
        let total = (served[1] + served[2]) as f64;
        let share1 = served[1] as f64 / total;
        let share2 = served[2] as f64 / total;
        assert!(
            (share1 - 2.0 / 3.0).abs() < 0.05,
            "tenant 1 share {share1:.3} not within 5% of 2/3"
        );
        assert!(
            (share2 - 1.0 / 3.0).abs() < 0.05,
            "tenant 2 share {share2:.3} not within 5% of 1/3"
        );
    }

    /// Equal weights with unequal costs still split service evenly:
    /// fairness is in cost units, not op counts.
    #[test]
    fn equal_weights_split_cost_evenly() {
        let mut q: WeightedFairQueue<u64> = WeightedFairQueue::default();
        for _ in 0..4 {
            q.push(1, 400, 400); // few large ops
            for _ in 0..4 {
                q.push(2, 100, 100); // many small ops
            }
        }
        let mut served = [0u64; 3];
        while let Some((tenant, cost)) = q.pop() {
            served[tenant as usize] += cost;
        }
        assert_eq!(served[1], served[2]);
    }

    /// Pop order is fully deterministic, including ties.
    #[test]
    fn deterministic_tie_break() {
        let run = || {
            let mut q: WeightedFairQueue<u32> = WeightedFairQueue::default();
            for i in 0..20 {
                q.push(i % 4, 50, i);
            }
            let mut order = Vec::new();
            while let Some((_, item)) = q.pop() {
                order.push(item);
            }
            order
        };
        assert_eq!(run(), run());
    }

    /// An idle tenant doesn't bank credit: after idling, its next item
    /// starts at the current virtual time, not its stale finish tag.
    #[test]
    fn no_credit_for_idle_time() {
        let mut q: WeightedFairQueue<&'static str> = WeightedFairQueue::default();
        q.set_weight(1, 1);
        q.set_weight(2, 1);
        for _ in 0..10 {
            q.push(1, 100, "busy");
        }
        for _ in 0..5 {
            q.pop();
        }
        // Tenant 2 arrives late; it must interleave from now on, not
        // preempt everything tenant 1 already queued.
        q.push(2, 100, "late");
        let mut popped = Vec::new();
        while let Some((t, _)) = q.pop() {
            popped.push(t);
        }
        // The late arrival lands somewhere in the middle, not first.
        assert_ne!(popped[0], 2, "late arrival must not jump the queue");
        assert!(popped.contains(&2));
    }
}
