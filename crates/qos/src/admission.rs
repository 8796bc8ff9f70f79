//! SLO admission control: accept, degrade, or reject new volumes.

use std::collections::BTreeMap;

use crate::slo::{DiskTier, VolumeSlo};

/// The admission controller's ruling on a requested SLO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// The requested SLO fits on its requested tier.
    Accepted(VolumeSlo),
    /// The requested tier is full; the SLO was downgraded (slower tier,
    /// ceiling dropped) rather than turned away.
    Degraded(VolumeSlo),
    /// No tier can cover the IOPS floor — the volume must not be created
    /// with this SLO.
    Rejected,
}

impl AdmissionDecision {
    /// Stable label for metrics and trace output.
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionDecision::Accepted(_) => "accepted",
            AdmissionDecision::Degraded(_) => "degraded",
            AdmissionDecision::Rejected => "rejected",
        }
    }

    /// The SLO to actually provision, if any.
    pub fn slo(&self) -> Option<VolumeSlo> {
        match self {
            AdmissionDecision::Accepted(s) | AdmissionDecision::Degraded(s) => Some(*s),
            AdmissionDecision::Rejected => None,
        }
    }
}

/// Tracks committed IOPS floors per tier against fixed tier capacities
/// and rules on new SLO requests.
///
/// Capacity accounting is intentionally simple — the sum of admitted
/// `iops_floor`s may not exceed the tier's provisioned IOPS — which is
/// exactly the overbooking guard IOArbiter applies at volume create.
#[derive(Debug)]
pub struct AdmissionController {
    /// Provisioned IOPS capacity per tier.
    capacity: BTreeMap<DiskTier, u64>,
    /// Sum of admitted floors per tier.
    committed: BTreeMap<DiskTier, u64>,
    /// Decision counts per label.
    decisions: BTreeMap<&'static str, u64>,
}

impl AdmissionController {
    /// Creates a controller with the given per-tier IOPS capacities.
    pub fn new(fast_capacity: u64, slow_capacity: u64) -> Self {
        let mut capacity = BTreeMap::new();
        capacity.insert(DiskTier::Fast, fast_capacity);
        capacity.insert(DiskTier::Slow, slow_capacity);
        AdmissionController {
            capacity,
            committed: BTreeMap::new(),
            decisions: BTreeMap::new(),
        }
    }

    fn headroom(&self, tier: DiskTier) -> u64 {
        let cap = self.capacity.get(&tier).copied().unwrap_or(0);
        let used = self.committed.get(&tier).copied().unwrap_or(0);
        cap.saturating_sub(used)
    }

    /// Rules on `requested`, committing capacity on accept/degrade.
    ///
    /// Best-effort requests (floor 0) are always accepted. A floored
    /// request is accepted on its requested tier when headroom covers
    /// the floor; otherwise it is degraded to the other tier (with the
    /// p99 ceiling dropped, since the slower tier can't honor it); if
    /// neither tier has headroom it is rejected.
    pub fn admit(&mut self, requested: VolumeSlo) -> AdmissionDecision {
        let decision = self.decide(requested);
        if let Some(slo) = decision.slo() {
            *self.committed.entry(slo.tier).or_insert(0) += slo.iops_floor;
        }
        *self.decisions.entry(decision.label()).or_insert(0) += 1;
        decision
    }

    fn decide(&self, requested: VolumeSlo) -> AdmissionDecision {
        if requested.iops_floor == 0 {
            return AdmissionDecision::Accepted(requested);
        }
        if self.headroom(requested.tier) >= requested.iops_floor {
            return AdmissionDecision::Accepted(requested);
        }
        let other = match requested.tier {
            DiskTier::Fast => DiskTier::Slow,
            DiskTier::Slow => DiskTier::Fast,
        };
        if self.headroom(other) >= requested.iops_floor {
            let degraded = VolumeSlo {
                tier: other,
                // A forced downgrade can't promise the original latency
                // ceiling; an upgrade keeps it.
                p99_ceiling_us: if other == DiskTier::Slow {
                    0
                } else {
                    requested.p99_ceiling_us
                },
                ..requested
            };
            return AdmissionDecision::Degraded(degraded);
        }
        AdmissionDecision::Rejected
    }

    /// Releases a previously admitted floor (volume deleted or migrated
    /// off the tier).
    pub fn release(&mut self, tier: DiskTier, iops_floor: u64) {
        if let Some(used) = self.committed.get_mut(&tier) {
            *used = used.saturating_sub(iops_floor);
        }
    }

    /// Moves a committed floor between tiers (live migration).
    pub fn transfer(&mut self, from: DiskTier, to: DiskTier, iops_floor: u64) {
        self.release(from, iops_floor);
        *self.committed.entry(to).or_insert(0) += iops_floor;
    }

    /// Decision counts per label (`accepted`/`degraded`/`rejected`).
    pub fn decision_counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.decisions
    }

    /// Committed floor on `tier`.
    pub fn committed(&self, tier: DiskTier) -> u64 {
        self.committed.get(&tier).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_until_capacity_then_degrades_then_rejects() {
        let mut ac = AdmissionController::new(1000, 500);
        let req = VolumeSlo::latency(600, 800);
        assert_eq!(ac.admit(req), AdmissionDecision::Accepted(req));
        // Fast tier has only 400 left: degrade to slow, ceiling dropped.
        match ac.admit(VolumeSlo::latency(500, 800)) {
            AdmissionDecision::Degraded(s) => {
                assert_eq!(s.tier, DiskTier::Slow);
                assert_eq!(s.p99_ceiling_us, 0);
                assert_eq!(s.iops_floor, 500);
            }
            other => panic!("expected degrade, got {other:?}"),
        }
        // Both tiers now full for a 500-floor request.
        assert_eq!(
            ac.admit(VolumeSlo::latency(500, 800)),
            AdmissionDecision::Rejected
        );
        assert_eq!(ac.decision_counts().get("accepted"), Some(&1));
        assert_eq!(ac.decision_counts().get("degraded"), Some(&1));
        assert_eq!(ac.decision_counts().get("rejected"), Some(&1));
    }

    #[test]
    fn best_effort_always_admitted() {
        let mut ac = AdmissionController::new(0, 0);
        assert_eq!(
            ac.admit(VolumeSlo::BEST_EFFORT),
            AdmissionDecision::Accepted(VolumeSlo::BEST_EFFORT)
        );
    }

    #[test]
    fn release_and_transfer_return_headroom() {
        let mut ac = AdmissionController::new(1000, 1000);
        let req = VolumeSlo::latency(1000, 500);
        assert!(matches!(ac.admit(req), AdmissionDecision::Accepted(_)));
        assert_eq!(ac.committed(DiskTier::Fast), 1000);
        ac.transfer(DiskTier::Fast, DiskTier::Slow, 1000);
        assert_eq!(ac.committed(DiskTier::Fast), 0);
        assert_eq!(ac.committed(DiskTier::Slow), 1000);
        ac.release(DiskTier::Slow, 1000);
        assert_eq!(ac.committed(DiskTier::Slow), 0);
        // Headroom is back: the same request is accepted again.
        assert!(matches!(ac.admit(req), AdmissionDecision::Accepted(_)));
    }
}
