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
//!    compute3 (skipped when the guest attaches directly);
//! 6. attach the volume on compute0, through the atomic steering window
//!    if a chain is deployed (either way the simulation runs until the
//!    login completes);
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
//! set to different values by at least two callers in `tests/`,
//! `examples/`, `storm-bench` and [`Case`]:
//!
//! | field | one caller | another |
//! |---|---|---|
//! | `seed` | `relay_golden_trace` (20160628) | [`Case`] (drawn) |
//! | `client_seed` | `relay_golden_trace` (`SEED ^ 0x5EED`) | `splice_e2e` (3) |
//! | `transport` | `relay_golden_trace::nvmeq_qd8_chacha` (nvmeq) | [`Case`] (drawn) |
//! | `queue_depth` | `relay_golden_trace::nvmeq_qd8_chacha` (8) | [`Case`] (1 to 32) |
//! | `label` | `relay_golden_trace` (`vm:golden`; it reaches the login PDU) | [`Case`] (`vm:case`) |
//! | `volume_bytes` | `relay_golden_trace` (1 GiB) | `services_e2e` (192 MiB) |
//! | `spares` | [`Case`] (one, 64 MiB) | `failover_recovery` (two, 1 GiB) |
//! | `disk` | `ablations` (prewarmed cache) | `failover_recovery` (128 MiB page cache) |
//! | `mode` | [`Case`] (all three) | `services_e2e` (passive stream cipher) |
//! | `mode: None` (direct attach) | `storm-bench`'s LEGACY rows | `fault_injection` (a failing storage link) |
//! | `phys_link` | `storm-bench`'s figure rows (1 GbE) | its transport lab (10 GbE) |
//! | `virtio_link` | `storm-bench`'s figure rows (vhost copies) | its transport lab (passthrough vNICs) |
//! | `services` | `relay_golden_trace` (dedup, compress, XTS) | [`Case`] (none to four) |
//! | `replicas` | [`Case`] (journal, then primary) | `examples/backup_clone` (primary only) |
//! | `platform` | `ablations` (`tso`, `buffer_cap`) | [`Case`] (relay QoS) |
//! | `faults` | `cache_crash_consistency` (`MbCrash`) | `failover_recovery` (`MuteTarget`) |
//! | `traced` | [`Case`] (on) | `ablations` (off: 3 s at depth 16) |
//!
//! [`Run::attach`] adds one more guest of the same volume and chain (the
//! services tell guests apart by the flow an op's tag names). Multi-tenant
//! and scripted-initiator set-ups are not this shape and stay on [`Cloud`]
//! and [`StormPlatform`] directly; `examples/quickstart.rs` shows the three
//! calls `build` expands to.
//!
//! # Generated cases
//!
//! [`Case`] is a drawn `Spec` plus workload and fault: [`Case::draw`]
//! picks transport, depth, mode, a chain in an order the service catalogue
//! accepts, QoS, workload and a fault inside the job's window from a
//! seed, and [`Case::check`] holds it to every oracle the determinism
//! tests share.

use std::sync::Arc;

use storm_block::transport::TransportKind;
use storm_block::BlockDevice;
use storm_cloud::qos::{DiskTier, RateLimitSpec};
use storm_cloud::{Cloud, CloudConfig, DiskSpec, VolumeClient, VolumeHandle, Workload};
use storm_core::relay::{ActiveRelayMb, ReplicaTarget};
use storm_core::service::StorageService;
use storm_core::{ChainDeployment, FsOp, MbSpec, Reconstructor, RelayMode, StormPlatform};
use storm_net::{AppId, LinkSpec};
use storm_services::{
    catalog, CacheConfig, CompressService, DedupService, EncryptionService, MonitorConfig,
    MonitorService, ReplicationService, SnapshotService, WriteBackCacheService,
};
use storm_sim::{SimDuration, SimRng, SimTime};
use storm_telemetry::{parse_jsonl, Recorder};
use storm_workloads::{malware, postmark, FioJob, FioWorkload, ShadowWorkload, TraceWorkload};

use crate::faults::{Fault, FaultPlan, FaultRunner};

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
    /// Physical (storage and uplink) links.
    pub phys_link: LinkSpec,
    /// VM vifs.
    pub virtio_link: LinkSpec,
    /// How the middle-box intercepts the flow; `None` deploys no chain
    /// (`services` and `replicas` go unused) and attaches the guest
    /// directly (the paper's LEGACY).
    pub mode: Option<RelayMode>,
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
            phys_link: cloud.phys_link,
            virtio_link: cloud.virtio_link,
            mode: Some(RelayMode::Active),
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
            phys_link: self.phys_link,
            virtio_link: self.virtio_link,
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
        let platform = self.platform;
        let deployment = self.mode.map(|mode| {
            let mb = MbSpec {
                host_idx: 3,
                mode,
                services: self.services,
                replicas,
            };
            platform.deploy_chain(&mut cloud, &volume, (1, 2), vec![mb])
        });
        let (workload, seed) = (Box::new(workload), self.client_seed);
        let app = match &deployment {
            Some(d) => platform.attach_volume_steered(
                &mut cloud, d, 0, self.label, &volume, workload, seed, false,
            ),
            None => {
                let app = cloud.attach_volume(0, self.label, &volume, workload, seed, false);
                // The platform's login wait, with no steering rule to drop.
                let deadline = cloud.net.now() + SimDuration::from_secs(5);
                while !cloud.client_mut(0, app).is_ready() && cloud.net.step_until(deadline) {}
                app
            }
        };
        let mut run = Run {
            cloud,
            volume,
            spares,
            deployment,
            app,
            platform,
            recorder,
            faults: None,
        };
        if let Some(plan) = self.faults {
            run.arm(plan);
        }
        run
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
    /// The tenant's client app on compute0.
    pub app: AppId,
    deployment: Option<ChainDeployment>,
    platform: StormPlatform,
    recorder: Option<Arc<Recorder>>,
    faults: Option<FaultRunner>,
}

impl Run {
    /// Arms `plan` on the targets and the relay.
    fn arm(&mut self, plan: FaultPlan) {
        let mut runner = FaultRunner::new(plan);
        runner.arm_cloud(&mut self.cloud);
        // Direct attach, forward and passive chains run no relay app to
        // arm; target faults still fire.
        if let Some(d) = &self.deployment {
            if let (RelayMode::Active, Some(mb_app)) = (d.modes[0], d.mb_apps[0]) {
                let armed = runner.arm_mb(&mut self.cloud, 0, d.mb_nodes[0].node, mb_app);
                assert!(armed, "active middle-box runs an ActiveRelayMb");
            }
        }
        self.faults = Some(runner);
    }

    /// Gateways, middle-box node and the installed chains.
    ///
    /// # Panics
    ///
    /// Panics if the guest attached directly.
    pub fn deployment(&self) -> &ChainDeployment {
        self.deployment.as_ref().expect(NO_MIDDLE_BOX)
    }

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
    ///
    /// # Panics
    ///
    /// Panics if the guest attached directly.
    pub fn attach(
        &mut self,
        host_idx: usize,
        label: &str,
        workload: impl Workload,
        seed: u64,
    ) -> AppId {
        self.platform.attach_volume_steered(
            &mut self.cloud,
            self.deployment.as_ref().expect(NO_MIDDLE_BOX),
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
    /// Panics on a forward or passive chain, which runs none, and if the
    /// guest attached directly.
    pub fn relay(&mut self) -> &mut ActiveRelayMb {
        let d = self.deployment();
        let (mode, node, app) = (d.modes[0], d.mb_nodes[0].node, d.mb_apps[0]);
        let app = match (mode, app) {
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
    pub fn recorder(&self) -> &Arc<Recorder> {
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

const NO_MIDDLE_BOX: &str = "no middle-box: the guest attached directly";

/// Equal seed ⇒ byte-identical trace, and the export parses back: runs
/// `scenario(seed)` twice and returns the trace for further checks.
///
/// # Panics
///
/// Panics if the trace is empty, differs between the runs or is not
/// well-formed JSONL.
pub fn assert_replays(seed: u64, mut scenario: impl FnMut(u64) -> String) -> String {
    let trace = scenario(seed);
    assert!(!trace.is_empty(), "seed {seed} traced nothing");
    assert!(
        trace == scenario(seed),
        "seed {seed} did not replay byte-identically"
    );
    assert!(parse_jsonl(&trace).is_some(), "export must parse back");
    trace
}

/// A service a [`Case`] can put in a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Svc {
    /// The access monitor, bootstrapped from the malware load's system
    /// image and watching `/etc/init.d` (not drawn).
    Monitor,
    /// Content-defined dedup.
    Dedup,
    /// Inline compression in 4 KiB extents.
    Compress,
    /// AES-XTS.
    Xts,
    /// The ChaCha20 stream cipher, the one service a passive tap runs.
    ChaCha,
    /// The write-back cache, journalling to the spare volume.
    Cache,
    /// Copy-on-write, with a snapshot taken at deploy.
    Snapshot,
    /// One mirror, on the spare volume, with striped reads.
    Replication,
}

impl Svc {
    /// The service catalogue's name for this kind.
    pub fn kind(self) -> &'static str {
        match self {
            Svc::Monitor => "monitor",
            Svc::Dedup => "dedup",
            Svc::Compress => "compress",
            Svc::Xts | Svc::ChaCha => "encryption",
            Svc::Cache => "cache",
            Svc::Snapshot => "snapshot",
            Svc::Replication => "replication",
        }
    }

    fn service(self, case: &Case) -> Box<dyn StorageService> {
        match self {
            Svc::Monitor => {
                let recon = Reconstructor::from_device(&mut malware::build_system_image(), "");
                let cfg = MonitorConfig {
                    watch: vec!["/etc/init.d".into()],
                    per_byte_cost: SimDuration::ZERO,
                };
                Box::new(MonitorService::new(cfg, recon.expect("the image mounts")))
            }
            Svc::Dedup => Box::new(DedupService::new(case.seed, 12)),
            Svc::Compress => Box::new(CompressService::new(4096)),
            Svc::Xts => Box::new(EncryptionService::aes_xts(&[0x5C; 64])),
            Svc::ChaCha => Box::new(EncryptionService::stream_cipher(&[7; 32], &[3; 12])),
            Svc::Cache => {
                // Under a concurrent verify load, half its footprint: reads hit and miss.
                let mut cfg = CacheConfig::default();
                if let (Load::Verify(block, rounds), 2..) = (case.load, case.queue_depth) {
                    cfg.capacity_sectors = (rounds * block / 1024) as u64;
                }
                Box::new(WriteBackCacheService::new(cfg))
            }
            Svc::Snapshot => {
                let mut snap = SnapshotService::new(128);
                snap.take_snapshot();
                Box::new(snap)
            }
            Svc::Replication => Box::new(ReplicationService::new(1, true)),
        }
    }
}

/// What the guest runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// 50/50 random fio: `(request bytes, threads, milliseconds)`.
    Fio(usize, usize, u64),
    /// [`ShadowWorkload`] at sector 64, as many requests in flight as
    /// the case's queue depth: `(bytes per round, rounds)`.
    Verify(usize, usize),
    /// The Table III malware installation, replayed over the system image
    /// the volume holds (not drawn).
    Malware,
}

/// A latency fault armed `at_ms` into the job and never healed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delay {
    /// `(at_ms, us)`: [`Fault::DiskDelay`] of `us` microseconds on every
    /// access to every storage host's disk. A throttled or cached job may
    /// reach a disk a few times only, so each access is delayed.
    Disk(u64, u64),
    /// `(at_ms, us, percent)`: [`Fault::MbDelay`] of `us` microseconds on
    /// `percent` % of the middle-box's batches.
    Mb(u64, u64, u8),
}

/// One generated scenario: what the determinism tests vary, as a value.
/// [`Case::draw`] picks one from a seed; its `Debug` form is the literal
/// that replays it, so a failing draw becomes a regression test by
/// committing what the test printed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// Simulation seed; the guest's and the services' derive from it.
    pub seed: u64,
    /// Wire protocol.
    pub transport: TransportKind,
    /// nvmeq ring depth, and the verify load's requests in flight on
    /// either wire protocol.
    pub queue_depth: u16,
    /// Interception mode.
    pub mode: RelayMode,
    /// Service chain, in write-path order.
    pub chain: Vec<Svc>,
    /// Tenant 1 rate-limited at the relay and at the target.
    pub qos: bool,
    /// A fault armed inside the job's window.
    pub fault: Option<Delay>,
    /// The guest's workload.
    pub load: Load,
}

impl Default for Case {
    /// Four verified 16 KiB rounds through a bare active relay over iSCSI.
    fn default() -> Self {
        Case {
            seed: 1,
            transport: TransportKind::Iscsi,
            queue_depth: 1,
            mode: RelayMode::Active,
            chain: Vec::new(),
            qos: false,
            fault: None,
            load: Load::Verify(16 * 1024, 4),
        }
    }
}

const QOS_LIMIT: RateLimitSpec = RateLimitSpec::iops_limit(600, 4);

impl Case {
    /// Draws transport × queue depth × mode × chain × QoS × workload ×
    /// fault from `seed`. An active chain is dedup, compress, one cipher,
    /// the cache, the snapshot and replication, each or not, in any order:
    /// drawn again until the service catalogue accepts it (DESIGN §3.3). A
    /// passive tap runs iSCSI and at most the stream cipher; a forward
    /// chain runs nothing.
    pub fn draw(seed: u64) -> Case {
        use {RelayMode::*, Svc::*};
        let mut rng = SimRng::seed_from_u64(seed);
        let transport = *rng.pick(&[TransportKind::Iscsi, TransportKind::Nvmeq]);
        let queue_depth = *rng.pick(&[1, 8, 16, 32]);
        let iscsi = usize::from(transport == TransportKind::Iscsi);
        let mode = *rng.pick(&[Active, Forward, Passive][..2 + iscsi]);
        let mut chain = Vec::new();
        if mode == Passive && rng.chance(0.5) {
            chain.push(ChaCha);
        }
        if mode == Active {
            let cipher = *rng.pick(&[Xts, ChaCha]);
            chain = loop {
                // Each service or not, at uniform insertion points: a uniform
                // order. The catalogue decides which orders to keep.
                let mut order = Vec::new();
                for svc in [Dedup, Compress, cipher, Cache, Snapshot, Replication] {
                    if rng.chance(0.5) {
                        order.insert(rng.below(order.len() as u64 + 1) as usize, svc);
                    }
                }
                if catalog::check_order(order.iter().map(|s| s.kind())).is_ok() {
                    break order;
                }
            };
        }
        let qos = rng.chance(0.3);
        let block = *rng.pick(&[4096, 16384, 65536]);
        let load = if rng.chance(0.5) {
            Load::Fio(block, rng.range(1, 5) as usize, *rng.pick(&[50, 100]))
        } else {
            Load::Verify(block, rng.range(4, 9) as usize)
        };
        // A verify job may last a few milliseconds only: armed at its start.
        let at_ms = match load {
            Load::Fio(_, _, ms) => rng.below(ms / 2),
            Load::Verify(..) | Load::Malware => 0,
        };
        let (us, percent) = (rng.range(20, 200), *rng.pick(&[50, 100]));
        let delays = [Delay::Disk(at_ms, us), Delay::Mb(at_ms, us, percent)];
        let relay = usize::from(mode == Active);
        let fault = rng.chance(0.5).then(|| *rng.pick(&delays[..1 + relay]));
        Case {
            seed,
            transport,
            queue_depth,
            mode,
            chain,
            qos,
            fault,
            load,
        }
    }

    /// Checks the first `n` draws from seed `from` on that `pin` accepts.
    pub fn check_draws(from: u64, n: usize, pin: impl Fn(&Case) -> bool) -> Vec<(Case, Run)> {
        let draws = (from..).map(Case::draw).filter(pin).take(n);
        draws.map(|case| (case.clone(), case.check())).collect()
    }

    /// The case's testbed, traced: a 64 MiB primary (128 MiB, the system
    /// image's size, under the malware load), plus a spare of that size
    /// when the chain journals or mirrors to one.
    ///
    /// # Panics
    ///
    /// Panics, naming both, if two stages issue replica I/O: the relay's
    /// replica sessions have one owner (the catalogue refuses such chains).
    pub fn spec(&self) -> Spec {
        let wiring = |svc: &Svc| match svc {
            Svc::Cache => Some((1, vec![Replica::Spare(0), Replica::Primary])),
            Svc::Snapshot => Some((0, vec![Replica::Primary])),
            Svc::Replication => Some((1, vec![Replica::Spare(0)])),
            _ => None,
        };
        let mut issuers = self
            .chain
            .iter()
            .filter_map(|svc| Some((svc, wiring(svc)?)));
        let (spares, replicas) = match (issuers.next(), issuers.next()) {
            (Some((first, _)), Some((second, _))) => {
                panic!("two stages issue replica I/O: {first:?} and {second:?}")
            }
            (issuer, _) => issuer.map(|(_, wired)| wired).unwrap_or_default(),
        };
        let volume_bytes = if self.load == Load::Malware {
            128 << 20
        } else {
            64 << 20
        };
        Spec {
            seed: self.seed,
            client_seed: self.seed ^ 0x5EED,
            transport: self.transport,
            queue_depth: self.queue_depth,
            label: "vm:case",
            volume_bytes,
            spares: vec![volume_bytes; spares],
            mode: Some(self.mode),
            services: self.chain.iter().map(|s| s.service(self)).collect(),
            replicas,
            platform: StormPlatform {
                qos: self.qos.then_some(QOS_LIMIT),
                ..StormPlatform::default()
            },
            traced: true,
            ..Spec::default()
        }
    }

    /// Builds the case, arms its fault `at_ms` after the guest logged in
    /// and runs to the end of the job's window: a fio job's time plus
    /// 300 ms to drain, the verify load's 2 s (10 s when it keeps
    /// `queue_depth > 1` requests in flight), or the malware load's 2 s.
    pub fn run(&self) -> Run {
        let prepare = |cloud: &mut Cloud, vol: &VolumeHandle| {
            if self.qos {
                let target = cloud.target_mut(0);
                target.enable_qos(DiskSpec::fast_tier(), DiskSpec::slow_tier());
                target.register_qos_volume(&vol.iqn, 1, DiskTier::Fast);
                target.set_tenant_limit(1, QOS_LIMIT);
            }
        };
        let spec = self.spec();
        let (mut run, window) = match self.load {
            Load::Fio(block, threads, ms) => {
                let (time, area) = (SimDuration::from_millis(ms), spec.volume_bytes / 512);
                let fio = FioWorkload::new(FioJob::randrw(block, time, area).threads(threads));
                (spec.build(fio, prepare), ms + 300)
            }
            Load::Verify(block, rounds) => {
                let depth = usize::from(self.queue_depth);
                let verify = ShadowWorkload::new(64, block).rounds(rounds).depth(depth);
                // Up to 2 × rounds × depth requests pass QoS at 600 IOPS.
                let window = if depth > 1 { 10_000 } else { 2000 };
                (spec.build(verify, prepare), window)
            }
            Load::Malware => {
                let image = malware::build_system_image();
                let (groups, _) = malware::ganiw_trace(image.clone());
                let install = |cloud: &mut Cloud, vol: &VolumeHandle| {
                    prepare(cloud, vol);
                    postmark::install_image(&image, &mut vol.shared.clone());
                };
                (spec.build(TraceWorkload::new(groups), install), 2000)
            }
        };
        let start = run.cloud.net.now();
        if let Some(delay) = self.fault {
            let (Delay::Disk(at_ms, us) | Delay::Mb(at_ms, us, _)) = delay;
            let at = start + SimDuration::from_millis(at_ms);
            let (extra, prob) = (SimDuration::from_micros(us), 1.0);
            let mut plan = FaultPlan::new(self.seed ^ 0xFA17);
            match delay {
                // Every disk: a cache's journal takes the writes it absorbs.
                Delay::Disk(..) => {
                    for host in 0..=run.spares.len() as u32 {
                        plan = plan.at(at, Fault::DiskDelay { host, extra, prob });
                    }
                }
                Delay::Mb(.., percent) => {
                    let (delay, prob) = (extra, f64::from(percent) / 100.0);
                    plan = plan.at(at, Fault::MbDelay { mb: 0, delay, prob });
                }
            }
            run.arm(plan);
        }
        run.run_until(start + SimDuration::from_millis(window));
        run
    }

    /// Runs the case twice and holds it to every oracle, returning the
    /// second run: equal seeds replay byte-identically
    /// ([`assert_replays`]); the guest completes I/O without errors and
    /// has no command in flight when the window ends; a fault fires; a
    /// verify job checks `rounds × queue_depth` reads against its shadow
    /// model and, behind a cipher, leaves no footprint sector on any
    /// volume equal to what a write to it carried, and nothing below the
    /// footprint on the primary or a mirror; an active relay copies
    /// no payload byte, ends with no command open on any flow, and every
    /// stage of its chain sees writes.
    ///
    /// # Panics
    ///
    /// On the first oracle that fails.
    pub fn check(&self) -> Run {
        // Printed first, so a failing test's captured output is the
        // literal that replays it.
        println!("{self:?}");
        let mut last = None;
        assert_replays(self.seed, |_| last.insert(self.run()).trace());
        let mut run = last.expect("ran");
        let stats = &run.client().stats;
        assert!(stats.ops() > 0 && stats.errors == 0, "{stats:?}");
        let in_flight = run.client().transport().in_flight();
        assert_eq!(in_flight, 0, "a guest command never completed");
        let faults = run.fault_trace();
        let fired = faults.iter().any(|l| l.contains(" -> "));
        assert!(fired || self.fault.is_none(), "no fault fired: {faults:?}");
        if let Load::Verify(block, rounds) = self.load {
            let ciphered = self.chain.contains(&Svc::Xts) || self.chain.contains(&Svc::ChaCha);
            let volumes = std::iter::once(&run.volume).chain(&run.spares);
            let disks: Vec<_> = volumes.map(|v| v.shared.clone()).collect();
            let shadow = run.workload::<ShadowWorkload>();
            assert_eq!(shadow.verified(), rounds * usize::from(self.queue_depth));
            let mirrored = self.chain.contains(&Svc::Replication);
            let mut sector = [0u8; 512];
            for (volume, mut disk) in disks.into_iter().enumerate() {
                for lba in (64..64 + (rounds * block / 512) as u64).filter(|_| ciphered) {
                    disk.read(lba, &mut sector).expect("in range");
                    let plain = shadow.wrote(lba, &sector);
                    assert!(!plain, "plaintext at rest at sector {lba}");
                }
                // Below the footprint only a cache's journal, on its own
                // spare, writes: the primary and a mirror read zero.
                for lba in (0..64).filter(|_| volume == 0 || mirrored) {
                    disk.read(lba, &mut sector).expect("in range");
                    let zero = sector.iter().all(|&b| b == 0);
                    assert!(
                        zero,
                        "volume {volume} written at sector {lba}, below the footprint"
                    );
                }
            }
        }
        if self.mode == RelayMode::Active {
            assert_eq!(run.relay().copy_stats().data_bytes_copied, 0);
            assert_eq!(
                run.relay().open_commands(),
                0,
                "a relay flow left commands open"
            );
            for (idx, svc) in self.chain.iter().enumerate() {
                let written = match svc {
                    Svc::Monitor => {
                        let log = run.service::<MonitorService>(idx).log();
                        log.iter().filter(|e| e.row.op == FsOp::Write).count() as u64
                    }
                    Svc::Dedup => run.service::<DedupService>(idx).stats.logical_bytes,
                    Svc::Compress => run.service::<CompressService>(idx).stats.logical_bytes,
                    Svc::Xts | Svc::ChaCha => run.service::<EncryptionService>(idx).counters().0,
                    Svc::Cache => {
                        run.service::<WriteBackCacheService>(idx)
                            .stats
                            .writes_absorbed
                    }
                    Svc::Snapshot => run.service::<SnapshotService>(idx).stats.cow_copies,
                    Svc::Replication => run.service::<ReplicationService>(idx).stats.replica_writes,
                };
                assert!(written > 0, "{svc:?} saw no writes");
            }
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forward(fault: Option<Delay>) -> Case {
        Case {
            mode: RelayMode::Forward,
            fault,
            ..Case::default()
        }
    }

    /// A forward chain has no relay app for `arm_mb`; the plan must still
    /// arm the fabric and the targets, and fire there.
    #[test]
    fn faults_on_a_forward_chain_arm_the_cloud_only() {
        let faults = forward(Some(Delay::Disk(0, 150))).check().fault_trace();
        assert!(faults.iter().any(|l| l.contains("DiskServe")), "{faults:?}");
    }

    /// The replica sessions have one owner: a literal with two would run
    /// the second one's sessions on the first one's volumes (a snapshot
    /// ahead of replication mirrors onto the primary itself).
    #[test]
    #[should_panic(expected = "two stages issue replica I/O: Snapshot and Replication")]
    fn two_replica_io_issuers_name_both() {
        let chain = vec![Svc::Snapshot, Svc::Replication];
        Case {
            chain,
            ..Case::default()
        }
        .spec();
    }

    #[test]
    #[should_panic(expected = "no active relay: the chain's mode is Forward")]
    fn relay_on_a_forward_chain_names_the_mode() {
        forward(None).run().relay();
    }

    /// LEGACY: no chain is deployed, the guest still logs in and completes
    /// I/O, and asking for the relay says there is no middle-box.
    #[test]
    #[should_panic(expected = "no middle-box: the guest attached directly")]
    fn a_direct_attach_deploys_nothing_and_has_no_relay() {
        let spec = Spec {
            mode: None,
            ..Spec::default()
        };
        let job = FioJob::randrw(4096, SimDuration::from_millis(50), 1 << 16);
        let mut run = spec.build(FioWorkload::new(job), |_, _| {});
        run.run_until(run.cloud.net.now() + SimDuration::from_millis(100));
        let stats = &run.client().stats;
        assert!(stats.ops() > 0 && stats.errors == 0, "{stats:?}");
        assert!(run.deployment.is_none());
        run.relay();
    }
}
