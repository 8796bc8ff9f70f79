//! The one evaluation harness: a gated scenario table that regenerates
//! every table and figure of the paper's evaluation.
//!
//! `bench_smoke` walks [`SCENARIOS`] (see DESIGN.md's experiment index for
//! which rows belong to which figure), writes the rows to
//! `BENCH_results.json` and renders the paper-vs-measured tables and the
//! fidelity summary into `BENCH_figures.md` ([`render_figures`]). The
//! runners here assemble the testbed as §V describes: a cloud of compute
//! hosts + one Cinder storage host, the tenant VM on one host and — in the
//! middle-box cases — the ingress gateway, middle-box VM and egress
//! gateway spread across *different* physical hosts ("to measure the
//! routing impact in the worst case"), scaled to a smoke run (1 sim-s per
//! fio point, 1 GiB volume instead of the paper's 20 GB).

#![warn(missing_docs)]

use storm_cloud::{Cloud, CloudConfig, VolumeHandle, Workload};
use storm_core::service::StorageService;
use storm_core::{ActiveRelayMb, ChainDeployment, MbSpec, RelayMode, StormPlatform};
use storm_net::AppId;
use storm_services::EncryptionService;
use storm_sim::trace::TraceHook;
use storm_sim::SimDuration;
use storm_workloads::{FioJob, FioWorkload};

mod figures;
mod fleet;
mod paper;
mod qos;
mod results;
mod scenarios;
mod services_suite;

pub use figures::{render_figures, Claim};
pub use fleet::{run_fleet, FleetConfig, FleetRun};
pub use results::{render_json, Row};
pub use scenarios::{Output, Scenario, SCENARIOS};

/// Which data path the experiment measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathMode {
    /// Direct VM → target (the baseline without StorM).
    Legacy,
    /// Steered through a middle-box doing pure IP forwarding.
    MbFwd,
    /// Steered through a passive-relay middle-box running the stream
    /// cipher service.
    MbPassiveRelay,
    /// Steered through an active-relay middle-box running the stream
    /// cipher service.
    MbActiveRelay,
}

impl std::fmt::Display for PathMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathMode::Legacy => write!(f, "LEGACY"),
            PathMode::MbFwd => write!(f, "MB-FWD"),
            PathMode::MbPassiveRelay => write!(f, "MB-PASSIVE-RELAY"),
            PathMode::MbActiveRelay => write!(f, "MB-ACTIVE-RELAY"),
        }
    }
}

/// Result of one Fio experiment point.
#[derive(Debug, Clone, Copy)]
pub struct FioPoint {
    /// Completed operations.
    pub ops: u64,
    /// Operations per second over the measurement window.
    pub iops: f64,
    /// Mean I/O latency in milliseconds.
    pub mean_latency_ms: f64,
    /// Median I/O latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile I/O latency in milliseconds.
    pub p99_ms: f64,
}

/// The shared testbed parameters (one place to calibrate).
#[derive(Debug, Clone)]
pub struct Testbed {
    /// Volume size in bytes (paper: 20 GB; 1 GiB keeps the run small).
    pub volume_bytes: u64,
    /// Measurement duration per point.
    pub duration: SimDuration,
    /// Seed.
    pub seed: u64,
    /// Stream-cipher per-byte processing cost inside the middle-box.
    pub cipher_cost_per_byte: SimDuration,
}

impl Default for Testbed {
    fn default() -> Self {
        Testbed {
            volume_bytes: 1 << 30,
            duration: SimDuration::from_secs(1),
            seed: 20160628,
            // A byte-wise software stream cipher (~250 MB/s single core).
            cipher_cost_per_byte: SimDuration::from_nanos(4),
        }
    }
}

/// Builds the standard cloud: tenant VM on compute0, gateways on 1 and 2,
/// middle-box on compute3 (all different physical machines), one storage
/// host.
pub fn build_cloud(seed: u64) -> Cloud {
    let mut cfg = CloudConfig {
        seed,
        backing_bytes: 64 << 30, // room for the 20 GB test volume + replicas
        ..CloudConfig::default()
    };
    // Steady-state page cache, as after the paper's repeated runs.
    cfg.target.disk.prewarmed = true;
    Cloud::build(cfg)
}

/// Deploys `spec` as a one-middle-box chain in front of `volume` (gateways
/// on compute1 and compute2) and attaches `workload` on compute0 through
/// it.
pub(crate) fn attach_steered(
    cloud: &mut Cloud,
    volume: &VolumeHandle,
    spec: MbSpec,
    vm_label: &str,
    workload: Box<dyn Workload>,
    seed: u64,
) -> (ChainDeployment, AppId) {
    let platform = StormPlatform::default();
    let deployment = platform.deploy_chain(cloud, volume, (1, 2), vec![spec]);
    let app = platform.attach_volume_steered(
        cloud,
        &deployment,
        0,
        vm_label,
        volume,
        workload,
        seed,
        false,
    );
    (deployment, app)
}

/// Attaches `volume` on compute0 over the requested path and returns the
/// client app.
pub fn attach_over_path(
    cloud: &mut Cloud,
    mode: PathMode,
    volume: &VolumeHandle,
    workload: Box<dyn Workload>,
    testbed: &Testbed,
) -> AppId {
    let relay = match mode {
        PathMode::Legacy => {
            let app = cloud.attach_volume(0, "vm:tenant", volume, workload, testbed.seed, false);
            // Drive the login to completion like the platform does
            // (event-stepped, not polled).
            let deadline = cloud.net.now() + SimDuration::from_secs(5);
            while !cloud.client_mut(0, app).is_ready() && cloud.net.step_until(deadline) {}
            return app;
        }
        PathMode::MbFwd => RelayMode::Forward,
        PathMode::MbPassiveRelay => RelayMode::Passive,
        PathMode::MbActiveRelay => RelayMode::Active,
    };
    let spec = if matches!(relay, RelayMode::Forward) {
        MbSpec::bare(3, relay)
    } else {
        let mut enc = EncryptionService::stream_cipher(&[9u8; 32], &[4u8; 12]);
        enc.set_per_byte_cost(testbed.cipher_cost_per_byte);
        MbSpec::with_services(3, relay, vec![Box::new(enc)])
    };
    attach_steered(cloud, volume, spec, "vm:tenant", workload, testbed.seed).1
}

/// Runs one Fio point: `block_bytes` requests, `threads` outstanding,
/// 50/50 random mix, over the given path.
pub fn fio_point(
    mode: PathMode,
    block_bytes: usize,
    threads: usize,
    testbed: &Testbed,
) -> FioPoint {
    fio_point_traced(mode, block_bytes, threads, testbed, TraceHook::none())
}

/// Like [`fio_point`], with a trace hook armed across the whole cloud
/// before any volume is attached (pass `TraceHook::none()` to disable).
pub fn fio_point_traced(
    mode: PathMode,
    block_bytes: usize,
    threads: usize,
    testbed: &Testbed,
    hook: TraceHook,
) -> FioPoint {
    let mut cloud = build_cloud(testbed.seed);
    cloud.set_trace_hook(hook);
    let vol = cloud.create_volume(testbed.volume_bytes, 0);
    let job = FioJob::randrw(block_bytes, testbed.duration, vol.sectors).threads(threads);
    let workload = Box::new(FioWorkload::new(job));
    let app = attach_over_path(&mut cloud, mode, &vol, workload, testbed);
    run_and_measure(&mut cloud, app, testbed)
}

/// Drives an attached client to the end of the measurement window (plus
/// drain slack) and reads its point back.
pub(crate) fn run_and_measure(cloud: &mut Cloud, app: AppId, testbed: &Testbed) -> FioPoint {
    let end = cloud.net.now() + testbed.duration + SimDuration::from_secs(2);
    cloud.net.run_until(end);
    client_point(cloud, 0, app, testbed.duration)
}

/// Folds the stats of the client `app` on compute `host` into a
/// [`FioPoint`] over `window`. Every scenario runner funnels through here
/// so the ready/error acceptance checks live in exactly one place.
pub(crate) fn client_point(
    cloud: &mut Cloud,
    host: usize,
    app: AppId,
    window: SimDuration,
) -> FioPoint {
    let client = cloud.client_mut(host, app);
    assert!(client.is_ready(), "login failed (host {host})");
    assert_eq!(client.stats.errors, 0, "I/O errors (host {host})");
    let ops = client.stats.ops();
    FioPoint {
        ops,
        iops: ops as f64 / window.as_secs_f64(),
        mean_latency_ms: client.stats.latency.mean().as_nanos() as f64 / 1e6,
        p50_ms: client.stats.latency.percentile(50.0).as_nanos() as f64 / 1e6,
        p99_ms: client.stats.latency.percentile(99.0).as_nanos() as f64 / 1e6,
    }
}

/// The first middle-box of a deployed chain, as the active relay it runs.
pub(crate) fn relay_of<'a>(
    cloud: &'a mut Cloud,
    deployment: &ChainDeployment,
) -> &'a mut ActiveRelayMb {
    let mb_app = deployment.mb_apps[0].expect("active relay has an app");
    cloud
        .net
        .app_mut(deployment.mb_nodes[0].node, mb_app)
        .expect("middle-box app present")
        .downcast_mut::<ActiveRelayMb>()
        .expect("app is an ActiveRelayMb")
}

/// Service 0 of that relay, as its concrete type.
pub(crate) fn service_of<'a, S: StorageService>(
    cloud: &'a mut Cloud,
    deployment: &ChainDeployment,
) -> &'a mut S {
    relay_of(cloud, deployment)
        .service_mut(0)
        .and_then(|s| s.downcast_mut::<S>())
        .expect("service 0 has the requested type")
}

pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_point_produces_iops() {
        let testbed = Testbed::default();
        let p = fio_point(PathMode::Legacy, 4096, 1, &testbed);
        assert!(p.iops > 100.0, "{p:?}");
        assert!(p.mean_latency_ms > 0.0);
    }

    #[test]
    fn mb_fwd_point_is_slower_than_legacy() {
        let testbed = Testbed::default();
        let legacy = fio_point(PathMode::Legacy, 65536, 1, &testbed);
        let fwd = fio_point(PathMode::MbFwd, 65536, 1, &testbed);
        assert!(
            fwd.iops < legacy.iops,
            "redirection must cost something: {legacy:?} vs {fwd:?}"
        );
    }
}
