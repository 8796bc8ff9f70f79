//! The one evaluation harness: a gated scenario table that regenerates
//! every table and figure of the paper's evaluation.
//!
//! `bench_smoke` walks [`SCENARIOS`] (see DESIGN.md's experiment index for
//! which rows belong to which figure), writes the rows to
//! `BENCH_results.json` and renders the paper-vs-measured tables and the
//! fidelity summary into `BENCH_figures.md` ([`render_figures`]). Every
//! single-tenant row is a [`storm::scenario::Spec`]: the testbed §V
//! describes, with the tenant VM, the ingress gateway, the middle-box VM
//! and the egress gateway on *different* physical hosts ("to measure the
//! routing impact in the worst case"), scaled to a smoke run by the
//! constants below (1 sim-s per fio point, 1 GiB volume instead of the
//! paper's 20 GB). The two-tenant QoS rows build their cloud themselves,
//! and the fleet is a model of its own.

#![warn(missing_docs)]

use storm::cloud::{Cloud, DiskSpec};
use storm::core::RelayMode;
use storm::net::AppId;
use storm::scenario::{Run, Spec};
use storm::services::EncryptionService;
use storm::sim::SimDuration;
use storm::workloads::{FioJob, FioWorkload};

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

/// Seed of every scenario.
pub const SEED: u64 = 20160628;
/// Measurement window of a fio point.
pub const WINDOW: SimDuration = SimDuration::from_secs(1);
/// Volume size (paper: 20 GB; 1 GiB keeps the run small).
pub const VOLUME_BYTES: u64 = 1 << 30;
/// Stream-cipher per-byte processing cost inside the middle-box: a
/// byte-wise software stream cipher (~250 MB/s single core).
pub const CIPHER_PER_BYTE: SimDuration = SimDuration::from_nanos(4);

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

/// The testbed over `mode` (`None`: the guest attaches directly), with a
/// steady-state page cache, as after the paper's repeated runs.
pub(crate) fn testbed(mode: Option<RelayMode>) -> Spec {
    Spec {
        seed: SEED,
        client_seed: SEED,
        volume_bytes: VOLUME_BYTES,
        disk: DiskSpec {
            prewarmed: true,
            ..DiskSpec::default()
        },
        mode,
        ..Spec::default()
    }
}

/// Runs fio on `spec`: `block_bytes` requests, `threads` outstanding,
/// 50/50 random mix over the whole volume, for [`WINDOW`] plus drain
/// slack. Returns the run and its point.
pub(crate) fn fio(spec: Spec, block_bytes: usize, threads: usize) -> (Run, FioPoint) {
    let job = FioJob::randrw(block_bytes, WINDOW, spec.volume_bytes / 512).threads(threads);
    let mut run = spec.build(FioWorkload::new(job), |_, _| {});
    run.run_until(run.cloud.net.now() + WINDOW + SimDuration::from_secs(2));
    let point = client_point(&mut run.cloud, 0, run.app, WINDOW);
    (run, point)
}

/// The figure testbed over `mode`: a relay runs the stream cipher at
/// [`CIPHER_PER_BYTE`].
pub(crate) fn figure_path(mode: Option<RelayMode>) -> Spec {
    let mut spec = testbed(mode);
    if matches!(mode, Some(RelayMode::Passive | RelayMode::Active)) {
        let mut enc = EncryptionService::stream_cipher(&[9u8; 32], &[4u8; 12]);
        enc.set_per_byte_cost(CIPHER_PER_BYTE);
        spec.services.push(Box::new(enc));
    }
    spec
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
        let (_, p) = fio(figure_path(None), 4096, 1);
        assert!(p.iops > 100.0, "{p:?}");
        assert!(p.mean_latency_ms > 0.0);
    }

    #[test]
    fn mb_fwd_point_is_slower_than_legacy() {
        let (_, legacy) = fio(figure_path(None), 65536, 1);
        let (_, fwd) = fio(figure_path(Some(RelayMode::Forward)), 65536, 1);
        assert!(
            fwd.iops < legacy.iops,
            "redirection must cost something: {legacy:?} vs {fwd:?}"
        );
    }
}
