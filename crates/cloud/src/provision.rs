//! SLO-driven backend provisioning: the IOArbiter-style control loop.
//!
//! The [`ProvisioningEngine`] sits above the fleet: volume creates pass
//! through its admission controller (accept / degrade / reject against
//! per-tier IOPS capacity), admitted volumes register with their storage
//! host's QoS scheduler on the chosen tier, and a periodic [`tick`]
//! watches each volume's target-side p99 against its SLO ceiling —
//! persistent violators get a copy-then-cutover migration to the fast
//! tier. Every decision is visible as a [`Hop::Qos`] trace event.
//!
//! [`tick`]: ProvisioningEngine::tick

use std::collections::BTreeMap;

use storm_block::transport::Iqn;
use storm_qos::{AdmissionController, AdmissionDecision, PlacementEngine, VolumeSlo};
use storm_sim::trace::{Hop, TraceEvent};
use storm_sim::SimTime;

use crate::topology::{Cloud, VolumeHandle};

/// One volume under SLO management.
#[derive(Debug, Clone)]
struct Managed {
    iqn: Iqn,
    storage_host: usize,
    tenant: u32,
}

/// A successfully provisioned volume and the ruling that admitted it.
#[derive(Debug, Clone)]
pub struct ProvisionedVolume {
    /// The created volume.
    pub handle: VolumeHandle,
    /// The admission ruling (accepted or degraded; rejects return no
    /// volume at all).
    pub decision: AdmissionDecision,
    /// The SLO actually in force (post-degrade).
    pub slo: VolumeSlo,
}

/// The fleet-level SLO control loop.
#[derive(Debug)]
pub struct ProvisioningEngine {
    admission: AdmissionController,
    placement: PlacementEngine,
    managed: BTreeMap<u64, Managed>,
    migrations_started: u64,
}

impl ProvisioningEngine {
    /// Creates an engine with per-tier IOPS capacities; a volume migrates
    /// after `strike_threshold` consecutive violating p99 observations.
    pub fn new(fast_capacity: u64, slow_capacity: u64, strike_threshold: u32) -> Self {
        ProvisioningEngine {
            admission: AdmissionController::new(fast_capacity, slow_capacity),
            placement: PlacementEngine::new(strike_threshold),
            managed: BTreeMap::new(),
            migrations_started: 0,
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
    ) -> Option<ProvisionedVolume> {
        let decision = self.admission.admit(requested);
        cloud.trace_hook().emit_with(now, || TraceEvent::Meta {
            hop: Hop::Qos,
            id: host as u32,
            name: format!("admit:{}:tenant{tenant}", decision.label()),
        });
        let slo = decision.slo()?;
        let handle = cloud.create_volume(bytes, host);
        cloud
            .target_mut(host)
            .register_qos_volume(&handle.iqn, tenant, slo.tier);
        let id = handle.id.0 as u64;
        self.placement.register(id, slo);
        self.managed.insert(
            id,
            Managed {
                iqn: handle.iqn.clone(),
                storage_host: host,
                tenant,
            },
        );
        Some(ProvisionedVolume {
            handle,
            decision,
            slo,
        })
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
            cloud.target_mut(m.storage_host).poll_migration(now, &m.iqn);
            let p99_us = match cloud.target_mut(m.storage_host).volume_latency(&m.iqn) {
                Some(h) if h.count() > 0 => h.percentile(99.0).as_micros(),
                _ => continue,
            };
            let Some(plan) = self.placement.observe_p99(now, id, p99_us) else {
                continue;
            };
            let cutover = cloud
                .target_mut(m.storage_host)
                .migrate_volume(now, &m.iqn, plan.to);
            if let Some(cutover) = cutover {
                self.migrations_started += 1;
                started += 1;
                let floor = self.placement.slo(id).map_or(0, |s| s.iops_floor);
                self.admission.transfer(plan.from, plan.to, floor);
                self.placement.complete_migration(&plan);
                cloud.trace_hook().emit_with(now, || TraceEvent::Meta {
                    hop: Hop::Qos,
                    id: m.storage_host as u32,
                    name: format!(
                        "migrate:tenant{}:{}->{}:cutover@{}",
                        m.tenant,
                        plan.from.label(),
                        plan.to.label(),
                        cutover.as_micros()
                    ),
                });
            }
        }
        started
    }

    /// Admission decision counts per label.
    pub fn decision_counts(&self) -> &BTreeMap<&'static str, u64> {
        self.admission.decision_counts()
    }

    /// Migrations the control loop has started.
    pub fn migrations_started(&self) -> u64 {
        self.migrations_started
    }

    /// The SLO currently in force for volume `id` (post-degrade,
    /// post-migration).
    pub fn slo(&self, id: u64) -> Option<VolumeSlo> {
        self.placement.slo(id)
    }
}
