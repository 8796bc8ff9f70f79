//! SLO-driven backend provisioning: the IOArbiter-style control loop.
//!
//! The [`ProvisioningEngine`] sits above the fleet: volume creates pass
//! its admission check (accept / degrade / reject against per-tier IOPS
//! capacity), admitted volumes register with their storage host's QoS
//! scheduler on the chosen tier, and a periodic [`tick`] watches each
//! volume's target-side p99 against its SLO ceiling — persistent
//! violators get a copy-then-cutover migration to the fast tier. Every
//! decision is visible as a [`Hop::Qos`] trace event.
//!
//! [`tick`]: ProvisioningEngine::tick

use std::collections::BTreeMap;

use storm_block::transport::Iqn;
use storm_sim::trace::{Hop, TraceEvent};
use storm_sim::SimTime;

use crate::qos::{DiskTier, VolumeSlo};
use crate::topology::{Cloud, VolumeHandle};

/// One volume under SLO management.
#[derive(Debug, Clone)]
struct Managed {
    iqn: Iqn,
    storage_host: usize,
    tenant: u32,
    /// The SLO in force (post-degrade, post-migration).
    slo: VolumeSlo,
    /// Consecutive violating p99 observations.
    strikes: u32,
    /// Set once a migration has been started: each volume moves at most
    /// once, so tiers never ping-pong.
    migrated: bool,
}

/// The fleet-level SLO control loop.
///
/// Capacity accounting is intentionally simple — the sum of admitted
/// `iops_floor`s may not exceed the tier's provisioned IOPS — which is
/// exactly the overbooking guard IOArbiter applies at volume create.
/// Migration is deliberately conservative: a single bad sample never
/// triggers a move; `strike_threshold` consecutive violations do.
#[derive(Debug)]
pub struct ProvisioningEngine {
    /// Provisioned IOPS capacity per tier, indexed by [`DiskTier::index`].
    capacity: [u64; 2],
    /// Sum of admitted floors per tier.
    committed: [u64; 2],
    strike_threshold: u32,
    managed: BTreeMap<u64, Managed>,
}

impl ProvisioningEngine {
    /// Creates an engine with per-tier IOPS capacities; a volume migrates
    /// after `strike_threshold` consecutive violating p99 observations
    /// (clamped to ≥ 1).
    pub fn new(fast_capacity: u64, slow_capacity: u64, strike_threshold: u32) -> Self {
        ProvisioningEngine {
            capacity: [fast_capacity, slow_capacity],
            committed: [0; 2],
            strike_threshold: strike_threshold.max(1),
            managed: BTreeMap::new(),
        }
    }

    /// Creates a volume of `bytes` on storage host `host` for `tenant`
    /// under the `requested` SLO. Returns `None` when admission rejects
    /// the request (no volume is created); otherwise the volume is
    /// registered with the host's QoS scheduler on the admitted tier.
    pub fn provision(
        &mut self,
        cloud: &mut Cloud,
        now: SimTime,
        bytes: u64,
        host: usize,
        tenant: u32,
        requested: VolumeSlo,
    ) -> Option<VolumeHandle> {
        let slo = self.admit(requested);
        let label = match slo {
            Some(slo) if slo == requested => "accepted",
            Some(_) => "degraded",
            None => "rejected",
        };
        cloud.trace_hook().emit_with(now, || TraceEvent::Meta {
            hop: Hop::Qos,
            id: host as u32,
            name: format!("admit:{label}:tenant{tenant}"),
        });
        let slo = slo?;
        let handle = cloud.create_volume(bytes, host);
        cloud
            .target_mut(host)
            .register_qos_volume(&handle.iqn, tenant, slo.tier);
        self.managed.insert(
            handle.id.0 as u64,
            Managed {
                iqn: handle.iqn.clone(),
                storage_host: host,
                tenant,
                slo,
                strikes: 0,
                migrated: false,
            },
        );
        Some(handle)
    }

    /// One control epoch: read each managed volume's target-side p99 and
    /// start a copy-then-cutover migration for persistent SLO violators.
    /// Call periodically between [`storm_net::Network::run_until`]
    /// slices. Returns how many migrations this tick started.
    pub fn tick(&mut self, cloud: &mut Cloud, now: SimTime) -> u64 {
        let mut started = 0;
        let ids: Vec<u64> = self.managed.keys().copied().collect();
        for id in ids {
            let m = self.managed[&id].clone();
            // Commit any due cutover first so migration counts and tier
            // maps are current even for idle volumes.
            let target = cloud.target_mut(m.storage_host);
            target.poll_migration(now, &m.iqn);
            let Some(p99) = target.volume_latency(&m.iqn).map(|h| h.percentile(99.0)) else {
                continue;
            };
            let Some(to) = self.observe(id, p99.as_micros()) else {
                continue;
            };
            let Some(cutover) = target.migrate_volume(now, &m.iqn, to) else {
                continue;
            };
            started += 1;
            self.cut_over(id, to);
            cloud.trace_hook().emit_with(now, || TraceEvent::Meta {
                hop: Hop::Qos,
                id: m.storage_host as u32,
                name: format!(
                    "migrate:tenant{}:{}->{}:cutover@{}",
                    m.tenant,
                    m.slo.tier.label(),
                    to.label(),
                    cutover.as_micros()
                ),
            });
        }
        started
    }

    /// Rules on `requested`, committing its floor on the tier it gets.
    ///
    /// Best-effort requests (floor 0) are always accepted. A floored
    /// request is accepted on its requested tier when headroom covers
    /// the floor; otherwise it is degraded to the other tier (with the
    /// p99 ceiling dropped when that tier is the slower one, since it
    /// can't honor it); if neither tier has headroom it is rejected
    /// (`None`).
    fn admit(&mut self, requested: VolumeSlo) -> Option<VolumeSlo> {
        let floor = requested.iops_floor;
        let headroom = |tier: DiskTier| {
            self.capacity[tier.index()].saturating_sub(self.committed[tier.index()])
        };
        let other = match requested.tier {
            DiskTier::Fast => DiskTier::Slow,
            DiskTier::Slow => DiskTier::Fast,
        };
        let slo = if floor == 0 || headroom(requested.tier) >= floor {
            requested
        } else if headroom(other) >= floor {
            VolumeSlo {
                tier: other,
                p99_ceiling_us: match other {
                    DiskTier::Slow => 0,
                    DiskTier::Fast => requested.p99_ceiling_us,
                },
                ..requested
            }
        } else {
            return None;
        };
        self.committed[slo.tier.index()] += floor;
        Some(slo)
    }

    /// Feeds one p99 observation (microseconds) for volume `id`. Returns
    /// the tier to migrate to when the volume has violated its ceiling
    /// `strike_threshold` times in a row and a faster tier exists; that
    /// uses up the volume's one migration.
    fn observe(&mut self, id: u64, p99_us: u64) -> Option<DiskTier> {
        let m = self.managed.get_mut(&id)?;
        if !m.slo.violated_by(p99_us) {
            m.strikes = 0;
            return None;
        }
        m.strikes += 1;
        // Only one escalation exists: Slow → Fast. A volume already on
        // the fast tier has nowhere better to go.
        if m.migrated || m.strikes < self.strike_threshold || m.slo.tier != DiskTier::Slow {
            return None;
        }
        m.migrated = true;
        m.strikes = 0;
        Some(DiskTier::Fast)
    }

    /// Commits a started migration of volume `id` to `to`: the volume's
    /// tier flips and its committed floor moves with it.
    fn cut_over(&mut self, id: u64, to: DiskTier) {
        if let Some(m) = self.managed.get_mut(&id) {
            let from = std::mem::replace(&mut m.slo.tier, to);
            self.committed[from.index()] =
                self.committed[from.index()].saturating_sub(m.slo.iops_floor);
            self.committed[to.index()] += m.slo.iops_floor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Puts volume `id` under management with `slo`, as `provision` does
    /// once admission passed.
    fn manage(pe: &mut ProvisioningEngine, id: u64, slo: VolumeSlo) {
        let m = Managed {
            iqn: Iqn::for_volume(id as u32),
            storage_host: 0,
            tenant: 1,
            slo,
            strikes: 0,
            migrated: false,
        };
        pe.managed.insert(id, m);
    }

    #[test]
    fn accepts_until_capacity_then_degrades_then_rejects() {
        let mut pe = ProvisioningEngine::new(1000, 500, 3);
        let req = VolumeSlo::latency(600, 800);
        assert_eq!(pe.admit(req), Some(req));
        // Fast tier has only 400 left: degrade to slow, ceiling dropped.
        let degraded = VolumeSlo {
            iops_floor: 500,
            p99_ceiling_us: 0,
            tier: DiskTier::Slow,
        };
        assert_eq!(pe.admit(VolumeSlo::latency(500, 800)), Some(degraded));
        // Both tiers now full for a 500-floor request.
        assert_eq!(pe.admit(VolumeSlo::latency(500, 800)), None);
        assert_eq!(pe.committed, [600, 500]);
    }

    #[test]
    fn best_effort_always_admitted() {
        let mut pe = ProvisioningEngine::new(0, 0, 3);
        let slo = VolumeSlo::BEST_EFFORT;
        assert_eq!(pe.admit(slo), Some(slo));
    }

    #[test]
    fn cutover_moves_the_floor_and_frees_headroom() {
        let mut pe = ProvisioningEngine::new(1000, 1000, 1);
        let slow = VolumeSlo {
            iops_floor: 1000,
            p99_ceiling_us: 100,
            tier: DiskTier::Slow,
        };
        assert_eq!(pe.admit(slow), Some(slow));
        manage(&mut pe, 7, slow);
        pe.cut_over(7, DiskTier::Fast);
        assert_eq!(pe.managed[&7].slo.tier, DiskTier::Fast);
        assert_eq!(pe.committed, [1000, 0]);
        // The slow tier's headroom is back; the fast tier's is gone.
        assert_eq!(pe.admit(slow), Some(slow));
        assert_eq!(pe.admit(VolumeSlo::latency(1, 100)), None);
    }

    #[test]
    fn migrates_after_consecutive_strikes_only() {
        let mut pe = ProvisioningEngine::new(1000, 1000, 3);
        let slo = VolumeSlo {
            iops_floor: 100,
            p99_ceiling_us: 1000,
            tier: DiskTier::Slow,
        };
        manage(&mut pe, 7, slo);
        assert_eq!(pe.observe(7, 2000), None);
        assert_eq!(pe.observe(7, 2000), None);
        // A good sample resets the streak.
        assert_eq!(pe.observe(7, 500), None);
        assert_eq!(pe.observe(7, 2000), None);
        assert_eq!(pe.observe(7, 2000), None);
        assert_eq!(pe.observe(7, 2000), Some(DiskTier::Fast));
        // At most one migration per volume, even before it cut over.
        for _ in 0..3 {
            assert_eq!(pe.observe(7, 2000), None);
        }
    }

    #[test]
    fn fast_tier_violator_has_nowhere_to_go() {
        let mut pe = ProvisioningEngine::new(1000, 1000, 1);
        manage(&mut pe, 1, VolumeSlo::latency(100, 10));
        assert_eq!(pe.observe(1, 99_999), None);
    }

    #[test]
    fn unknown_volume_is_ignored() {
        let mut pe = ProvisioningEngine::new(1000, 1000, 1);
        assert_eq!(pe.observe(42, 1_000_000), None);
    }
}
