//! One single-tenant scenario, named by a value.
//!
//! The paper's §V evaluates everything on one testbed: tenant VM, ingress
//! gateway, middle-box VM and egress gateway each on a *different* host,
//! "to measure the routing impact in the worst case". [`Spec`] is that
//! testbed as a value — the chain × transport × queue depth × fault plan
//! × seed a test ran — and [`Spec::build`] is the one way to assemble it:
//!
//! 1. build the cloud (one storage host for the primary, one per spare);
//! 2. arm the trace recorder, if `traced`;
//! 3. create the primary volume, then the spares;
//! 4. run the caller's `prepare` (target-side QoS, filesystem images);
//! 5. deploy the chain: gateways on compute1/compute2, the middle-box on
//!    compute3;
//! 6. attach the volume on compute0 through the atomic steering window
//!    (the simulation runs until the login completes);
//! 7. arm the fault plan on the fabric, the targets and the relay.
//!
//! That order is part of the golden-trace contract
//! (`tests/relay_golden_trace.rs`): guests, apps and hooks are numbered
//! and seeded in the order they are created, so reordering the steps
//! moves every pinned trace.
//!
//! # Every field is a value two callers disagree on
//!
//! A knob only one value reaches is a constant inside `build`: the
//! placement above, `backing_bytes` (the `CloudConfig` default; volume
//! groups are sparse) and `timeline = false`. Each field of [`Spec`] is
//! set to different values by at least two callers in `tests/` and
//! `examples/`:
//!
//! | field | one caller | another |
//! |---|---|---|
//! | `seed` | `relay_golden_trace` (20160628) | `trace_determinism` (drawn per case) |
//! | `client_seed` | `relay_golden_trace` (`SEED ^ 0x5EED`) | `splice_e2e` (99) |
//! | `transport` | `nvmeq_determinism` (nvmeq) | `trace_determinism` (iSCSI) |
//! | `queue_depth` | `relay_golden_trace::nvmeq_qd8_chacha` (8) | `nvmeq_determinism` (16) |
//! | `label` | `relay_golden_trace` (`vm:golden`; it reaches the login PDU) | `trace_determinism` (`vm:det`) |
//! | `volume_bytes` | `relay_golden_trace` (1 GiB) | `splice_e2e` (128 MiB) |
//! | `spares` | `nvmeq_side_actions` (one, 64 MiB) | `failover_recovery` (two, 1 GiB) |
//! | `disk` | `ablations` (prewarmed cache) | `failover_recovery` (128 MiB page cache) |
//! | `mode` | `splice_e2e` (all three) | `services_e2e` (passive stream cipher) |
//! | `services` | `relay_golden_trace` (dedup, compress, XTS) | `zero_copy_relay` (none) |
//! | `replicas` | `nvmeq_side_actions` (journal, then primary) | `examples/backup_clone` (primary only) |
//! | `platform` | `ablations` (`tso`, `buffer_cap`) | `trace_determinism` (relay QoS) |
//! | `faults` | `cache_crash_consistency` (`MbCrash`) | `failover_recovery` (`MuteTarget`) |
//! | `traced` | `trace_determinism` (on) | `ablations` (off: 3 s at depth 16) |
//!
//! Multi-tenant, direct-attach and scripted-initiator set-ups are not this
//! shape and stay on [`Cloud`] and [`StormPlatform`] directly;
//! `examples/quickstart.rs` shows the three calls `build` expands to.

use std::sync::Arc;

use storm_cloud::{Cloud, CloudConfig, DiskSpec, VolumeClient, VolumeHandle, Workload};
use storm_core::relay::{ActiveRelayMb, ReplicaTarget};
use storm_core::service::StorageService;
use storm_core::{ChainDeployment, MbSpec, RelayMode, StormPlatform};
use storm_faults::{FaultPlan, FaultRunner};
use storm_iscsi::TransportKind;
use storm_net::AppId;
use storm_sim::SimTime;
use storm_telemetry::{parse_jsonl, Recorder};

/// A volume the relay opens its own session to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replica {
    /// The tenant's volume itself (a cache's flush path, a snapshot
    /// service's pre-image fetches).
    Primary,
    /// The `n`-th entry of [`Spec::spares`].
    Spare(usize),
}

/// One tenant, one volume, one middle-box on the worst-case placement.
pub struct Spec {
    /// Simulation seed ([`CloudConfig::seed`]).
    pub seed: u64,
    /// Seed of the guest's own random source.
    pub client_seed: u64,
    /// Wire protocol the guest speaks.
    pub transport: TransportKind,
    /// nvmeq submission-ring depth (ignored by iSCSI).
    pub queue_depth: u16,
    /// The VM's label; it names the initiator, so it is on the wire.
    pub label: &'static str,
    /// Size of the tenant's volume on storage host 0.
    pub volume_bytes: u64,
    /// Sizes of further volumes, the `n`-th on storage host `n + 1`.
    pub spares: Vec<u64>,
    /// Disk and page-cache model of every storage host.
    pub disk: DiskSpec,
    /// How the middle-box intercepts the flow.
    pub mode: RelayMode,
    /// The service chain inside the middle-box, in write-path order.
    pub services: Vec<Box<dyn StorageService>>,
    /// The relay's replica sessions, in the order services index them.
    pub replicas: Vec<Replica>,
    /// Platform tunables (costs, buffer size, TSO, relay-side QoS).
    pub platform: StormPlatform,
    /// Fault plan armed after attach and fired by [`Run::run_until`].
    pub faults: Option<FaultPlan>,
    /// Whether a [`Recorder`] is armed across every layer.
    pub traced: bool,
}

impl Default for Spec {
    /// A bare active relay in front of a 64 MiB iSCSI volume: no spares,
    /// no faults, no recorder.
    fn default() -> Self {
        let cloud = CloudConfig::default();
        Spec {
            seed: cloud.seed,
            client_seed: 1,
            transport: cloud.transport,
            queue_depth: cloud.queue_depth,
            label: "vm:tenant",
            volume_bytes: 64 << 20,
            spares: Vec::new(),
            disk: cloud.target.disk,
            mode: RelayMode::Active,
            services: Vec::new(),
            replicas: Vec::new(),
            platform: StormPlatform::default(),
            faults: None,
            traced: false,
        }
    }
}

impl Spec {
    /// Assembles the testbed in the module's construction order and
    /// attaches `workload`; `prepare` sees the cloud and the primary
    /// volume before anything is deployed on them.
    ///
    /// # Panics
    ///
    /// Panics if a [`Replica::Spare`] index is out of range.
    pub fn build(
        self,
        workload: impl Workload,
        prepare: impl FnOnce(&mut Cloud, &VolumeHandle),
    ) -> Run {
        let mut cfg = CloudConfig {
            seed: self.seed,
            transport: self.transport,
            queue_depth: self.queue_depth,
            storage_hosts: 1 + self.spares.len(),
            ..CloudConfig::default()
        };
        cfg.target.disk = self.disk;
        let mut cloud = Cloud::build(cfg);
        let recorder = self.traced.then(|| {
            let recorder = Arc::new(Recorder::new());
            cloud.set_trace_hook(Recorder::hook(&recorder));
            recorder
        });
        let volume = cloud.create_volume(self.volume_bytes, 0);
        let spares: Vec<VolumeHandle> = (self.spares.iter().zip(1..))
            .map(|(&bytes, host)| cloud.create_volume(bytes, host))
            .collect();
        prepare(&mut cloud, &volume);
        let replicas = (self.replicas.iter())
            .map(|r| match r {
                Replica::Primary => &volume,
                Replica::Spare(n) => &spares[*n],
            })
            .map(|v| ReplicaTarget {
                portal: v.portal,
                iqn: v.iqn.clone(),
            })
            .collect();
        let mb = MbSpec {
            host_idx: 3,
            mode: self.mode,
            services: self.services,
            replicas,
        };
        let platform = self.platform;
        let deployment = platform.deploy_chain(&mut cloud, &volume, (1, 2), vec![mb]);
        let app = platform.attach_volume_steered(
            &mut cloud,
            &deployment,
            0,
            self.label,
            &volume,
            Box::new(workload),
            self.client_seed,
            false,
        );
        let faults = self.faults.map(|plan| {
            let mut runner = FaultRunner::new(plan.schedule());
            runner.arm_cloud(&mut cloud);
            // Forward and passive chains run no relay app to arm; fabric
            // and target faults still fire.
            if let (RelayMode::Active, Some(mb_app)) = (self.mode, deployment.mb_apps[0]) {
                let armed = runner.arm_mb(&mut cloud, 0, deployment.mb_nodes[0].node, mb_app);
                assert!(armed, "active middle-box runs an ActiveRelayMb");
            }
            runner
        });
        Run {
            cloud,
            volume,
            spares,
            deployment,
            app,
            platform,
            recorder,
            faults,
        }
    }
}

/// A built scenario: the cloud, what was deployed on it, and typed access
/// to the parts tests inspect after a run.
pub struct Run {
    /// The cloud; drive `cloud.net` directly for mid-run interventions.
    pub cloud: Cloud,
    /// The tenant's volume (`shared` reads it at rest).
    pub volume: VolumeHandle,
    /// The spare volumes, in [`Spec::spares`] order.
    pub spares: Vec<VolumeHandle>,
    /// Gateways, middle-box node and the installed chains.
    pub deployment: ChainDeployment,
    /// The tenant's client app on compute0.
    pub app: AppId,
    platform: StormPlatform,
    recorder: Option<Arc<Recorder>>,
    faults: Option<FaultRunner>,
}

impl Run {
    /// Runs the simulation to `end`, firing the fault plan on the way.
    pub fn run_until(&mut self, end: SimTime) {
        match &mut self.faults {
            Some(runner) => runner.run(&mut self.cloud, end),
            None => self.cloud.net.run_until(end),
        }
    }

    /// The tenant's client.
    ///
    /// # Panics
    ///
    /// Panics if its session is not in full-feature phase: the login
    /// failed, or the session has dropped since.
    pub fn client(&mut self) -> &mut VolumeClient {
        let client = self.cloud.client_mut(0, self.app);
        assert!(client.is_ready(), "tenant session is not logged in");
        client
    }

    /// The tenant's workload, whatever state its session is in.
    ///
    /// # Panics
    ///
    /// Panics if the workload is not a `W`.
    pub fn workload<W: Workload>(&mut self) -> &W {
        self.workload_of(0, self.app)
    }

    /// Attaches one more guest to the same volume through the same chain,
    /// on compute host `host_idx` (a second initiator, a later phase).
    pub fn attach(
        &mut self,
        host_idx: usize,
        label: &str,
        workload: impl Workload,
        seed: u64,
    ) -> AppId {
        self.platform.attach_volume_steered(
            &mut self.cloud,
            &self.deployment,
            host_idx,
            label,
            &self.volume,
            Box::new(workload),
            seed,
            false,
        )
    }

    /// The workload of the guest [`attach`](Self::attach) returned `app`
    /// for.
    ///
    /// # Panics
    ///
    /// Panics if `(host_idx, app)` is no volume client or its workload is
    /// not a `W`.
    pub fn workload_of<W: Workload>(&mut self, host_idx: usize, app: AppId) -> &W {
        let client = self.cloud.client_mut(host_idx, app);
        let workload = client.workload_ref().expect("workload present");
        workload.downcast_ref().expect("workload type")
    }

    /// The middle-box's active relay.
    ///
    /// # Panics
    ///
    /// Panics on a forward or passive chain, which runs none.
    pub fn relay(&mut self) -> &mut ActiveRelayMb {
        let (mode, node) = (self.deployment.modes[0], self.deployment.mb_nodes[0].node);
        let app = match (mode, self.deployment.mb_apps[0]) {
            (RelayMode::Active, Some(app)) => app,
            _ => panic!("no active relay: the chain's mode is {mode:?}"),
        };
        let relay = self.cloud.net.app_mut(node, app).expect("relay app");
        relay.downcast_mut().expect("active relay app")
    }

    /// Stage `idx` of the relay's service chain.
    ///
    /// # Panics
    ///
    /// Panics if there is no such stage or it is not an `S`.
    pub fn service<S: StorageService>(&mut self, idx: usize) -> &mut S {
        let service = self.relay().service_mut(idx).expect("service index");
        service.downcast_mut().expect("service type")
    }

    /// The armed recorder.
    ///
    /// # Panics
    ///
    /// Panics unless the spec was `traced`.
    pub fn recorder(&self) -> &Recorder {
        self.recorder.as_ref().expect("Spec::traced was off")
    }

    /// The JSONL export of everything recorded so far.
    pub fn trace(&self) -> String {
        self.recorder().to_jsonl()
    }

    /// The fault runner's event log (empty without a plan).
    pub fn fault_trace(&self) -> Vec<String> {
        self.faults.as_ref().map_or_else(Vec::new, |f| f.trace())
    }
}

/// Equal seed ⇒ byte-identical trace, and the export parses back: runs
/// `scenario(seed)` twice and returns the trace for further checks.
///
/// # Panics
///
/// Panics if the trace is empty, differs between the runs or is not
/// well-formed JSONL.
pub fn assert_replays(seed: u64, scenario: impl Fn(u64) -> String) -> String {
    let trace = scenario(seed);
    assert!(!trace.is_empty(), "seed {seed} traced nothing");
    assert!(
        trace == scenario(seed),
        "seed {seed} did not replay byte-identically"
    );
    assert!(parse_jsonl(&trace).is_some(), "export must parse back");
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_faults::Fault;
    use storm_sim::SimDuration;
    use storm_workloads::VerifyWorkload;

    fn forward(faults: Option<FaultPlan>) -> Run {
        let spec = Spec {
            mode: RelayMode::Forward,
            faults,
            ..Spec::default()
        };
        spec.build(VerifyWorkload::new(64, 16 * 1024).rounds(4), |_, _| {})
    }

    /// A forward chain has no relay app for `arm_mb`; the plan must still
    /// arm the fabric and the targets, and fire there.
    #[test]
    fn faults_on_a_forward_chain_arm_the_cloud_only() {
        let plan = FaultPlan::new(7).at(
            SimTime::ZERO,
            Fault::DiskDelay {
                host: 0,
                extra: SimDuration::from_micros(150),
                prob: 1.0,
            },
        );
        let mut run = forward(Some(plan));
        run.run_until(SimTime::from_secs(5));
        assert_eq!(run.client().stats.errors, 0);
        assert_eq!(run.workload::<VerifyWorkload>().verified(), 4);
        let faults = run.fault_trace();
        assert!(faults.iter().any(|l| l.contains("DiskServe")), "{faults:?}");
    }

    #[test]
    #[should_panic(expected = "no active relay: the chain's mode is Forward")]
    fn relay_on_a_forward_chain_names_the_mode() {
        forward(None).relay();
    }
}
