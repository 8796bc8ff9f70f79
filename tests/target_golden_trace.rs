//! Cross-commit guard for the storage host's behaviour contract.
//!
//! The companion of `relay_golden_trace.rs` for `TargetHostApp`: each
//! scenario pins the exported JSONL trace (as an FNV-1a digest) plus the
//! host's dispatch and throttle counters to constants recorded at the
//! commit before the host's QoS and direct-dispatch paths were merged
//! into one job pipeline. A failure prints the new values; re-record them
//! only for a change that is *meant* to move the storage host's timing,
//! fault-verdict order or trace emission.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use storm::cloud::{Cloud, CloudConfig, DiskSpec, VolumeHandle};
use storm::iscsi::TransportKind;
use storm::qos::{DiskTier, RateLimitSpec};
use storm::telemetry::Recorder;
use storm_faults::{Fault, FaultPlan, FaultRunner};
use storm_net::AppId;
use storm_sim::{FaultAction, FaultHook, FaultPoint, FaultSite, SimDuration, SimTime};
use storm_workloads::{FioJob, FioWorkload};

const SEED: u64 = 20160628;
const UNTIL: SimTime = SimTime::from_nanos(1_200_000_000);

/// What a scenario is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    trace_fnv1a: u64,
    trace_len: usize,
    /// `TargetHostApp::dispatch_stats`.
    dispatch: (u64, u64, usize),
    /// `TargetHostApp::qos_throttle_stats`, delay in nanoseconds.
    throttle: (u64, u64),
    /// Completed ops summed over the scenario's clients.
    ops: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn traced_cloud(transport: TransportKind, queue_depth: u16) -> (Cloud, Arc<Recorder>) {
    let mut cloud = Cloud::build(CloudConfig {
        seed: SEED,
        transport,
        queue_depth,
        ..CloudConfig::default()
    });
    let recorder = Arc::new(Recorder::new());
    cloud.set_trace_hook(Recorder::hook(&recorder));
    (cloud, recorder)
}

/// Attaches a `millis`-long randrw fio job of `threads` threads to `vol`
/// from compute host `host`.
fn attach_fio(
    cloud: &mut Cloud,
    host: usize,
    vol: &VolumeHandle,
    block: usize,
    threads: usize,
    millis: u64,
) -> (usize, AppId) {
    let job = FioJob::randrw(block, SimDuration::from_millis(millis), vol.sectors).threads(threads);
    let app = cloud.attach_volume(
        host,
        &format!("vm:golden{host}"),
        vol,
        Box::new(FioWorkload::new(job)),
        SEED ^ (0x5EED + host as u64),
        false,
    );
    (host, app)
}

fn digest(cloud: &mut Cloud, recorder: &Recorder, clients: &[(usize, AppId)]) -> Golden {
    let mut ops = 0;
    for &(host, app) in clients {
        let client = cloud.client_mut(host, app);
        assert!(client.is_ready(), "connect failed");
        assert!(client.stats.ops() > 0, "no I/O completed");
        ops += client.stats.ops();
    }
    let trace = recorder.to_jsonl();
    let target = cloud.target_mut(0);
    let (throttled, delay) = target.qos_throttle_stats();
    Golden {
        trace_fnv1a: fnv1a(trace.as_bytes()),
        trace_len: trace.len(),
        dispatch: target.dispatch_stats(),
        throttle: (throttled, delay.as_nanos()),
        ops,
    }
}

const DRIFT: &str = "storage-host behaviour drifted from the recorded commit (left = this build)";

/// Two tenants under QoS on one host: the aggressor is rate-limited and
/// out-weighted, and the victim's volume is migrated slow → fast mid-run
/// (copy occupies both tier disks, then the tier map cuts over).
#[test]
fn two_tenant_qos_with_migration() {
    let (mut cloud, recorder) = traced_cloud(TransportKind::Iscsi, 32);
    let victim = cloud.create_volume(16 << 20, 0);
    let aggressor = cloud.create_volume(16 << 20, 0);
    {
        let target = cloud.target_mut(0);
        target.enable_qos(DiskSpec::fast_tier(), DiskSpec::slow_tier());
        target.register_qos_volume(&victim.iqn, 1, DiskTier::Slow);
        target.register_qos_volume(&aggressor.iqn, 2, DiskTier::Slow);
        target.set_tenant_limit(2, RateLimitSpec::iops_limit(120, 4));
        target.set_tenant_weight(1, 8);
    }
    let clients = [
        attach_fio(&mut cloud, 0, &victim, 4096, 2, 700),
        attach_fio(&mut cloud, 1, &aggressor, 16 * 1024, 4, 700),
    ];
    let at = SimTime::from_millis(100);
    cloud.net.run_until(at);
    let cutover = cloud
        .target_mut(0)
        .migrate_volume(at, &victim.iqn, DiskTier::Fast)
        .expect("migration starts");
    assert!(cutover < UNTIL, "cut-over lands inside the run");
    cloud.net.run_until(UNTIL);
    assert_eq!(cloud.target_mut(0).completed_migrations(), 1);
    let got = digest(&mut cloud, &recorder, &clients);
    let trace = recorder.to_jsonl();
    assert!(trace.contains("\"hop\":\"qos\""), "QoS never engaged");
    assert!(trace.contains("migrate:"), "migration not traced");
    assert_eq!(
        got,
        Golden {
            trace_fnv1a: 2948144713560396980,
            trace_len: 3410982,
            dispatch: (6354, 6354, 1),
            throttle: (59, 1809818022),
            ops: 6354,
        },
        "{DRIFT}"
    );
}

/// No QoS: every command goes straight to the shared disk, under a
/// probabilistic disk-latency spike and a window in which the target
/// swallows its responses.
#[test]
fn direct_path_under_disk_delay_and_mute_windows() {
    let (mut cloud, recorder) = traced_cloud(TransportKind::Iscsi, 32);
    let vol = cloud.create_volume(64 << 20, 0);
    let clients = [attach_fio(&mut cloud, 0, &vol, 4096, 4, 300)];
    let plan = FaultPlan::new(SEED ^ 0xFA17)
        .window(
            SimTime::from_millis(80),
            SimDuration::from_millis(120),
            Fault::DiskDelay {
                host: 0,
                extra: SimDuration::from_micros(150),
                prob: 0.4,
            },
        )
        .window(
            SimTime::from_millis(220),
            SimDuration::from_micros(400),
            Fault::MuteTarget { host: 0 },
        );
    let mut runner = FaultRunner::new(plan.schedule());
    runner.arm_cloud(&mut cloud);
    runner.run(&mut cloud, UNTIL);
    let faults = runner.trace();
    assert!(
        faults.iter().any(|l| l.contains("DiskServe")),
        "no disk spike"
    );
    assert!(
        faults.iter().any(|l| l.contains("TargetRespond")),
        "mute window swallowed nothing"
    );
    assert_eq!(
        digest(&mut cloud, &recorder, &clients),
        Golden {
            trace_fnv1a: 6205599707707618971,
            trace_len: 342001,
            dispatch: (722, 722, 1),
            throttle: (0, 0),
            ops: 720,
        },
        "{DRIFT}"
    );
}

/// nvmeq at queue depth 8: whole doorbell batches are admitted in one
/// dispatch tick and held completions leave on the interrupt-moderation
/// timer (`cq_deadline_ns` / `flush_cq`).
#[test]
fn nvmeq_qd8_coalesced_completions() {
    let (mut cloud, recorder) = traced_cloud(TransportKind::Nvmeq, 8);
    let vol = cloud.create_volume(64 << 20, 0);
    let clients = [attach_fio(&mut cloud, 0, &vol, 4096, 8, 300)];
    cloud.net.run_until(UNTIL);
    let got = digest(&mut cloud, &recorder, &clients);
    assert!(got.dispatch.2 > 1, "doorbells never batched");
    assert_eq!(
        got,
        Golden {
            trace_fnv1a: 4147722677607519907,
            trace_len: 355568,
            dispatch: (743, 750, 8),
            throttle: (0, 0),
            ops: 750,
        },
        "{DRIFT}"
    );
}

/// A scripted fault plan: fails, delays and drops by decision count.
#[derive(Default)]
struct Scripted {
    serve: AtomicU64,
    respond: AtomicU64,
}

impl FaultPoint for Scripted {
    fn decide(&self, _now: SimTime, site: FaultSite) -> FaultAction {
        let delay = FaultAction::Delay(SimDuration::from_micros(90));
        match site {
            FaultSite::DiskServe { .. } => match self.serve.fetch_add(1, Ordering::Relaxed) {
                101 | 202 => FaultAction::Drop,
                n if n % 7 == 3 => FaultAction::Fail,
                n if n % 5 == 2 => delay,
                _ => FaultAction::Proceed,
            },
            FaultSite::TargetRespond { .. } => match self.respond.fetch_add(1, Ordering::Relaxed) {
                150 => FaultAction::Drop,
                n if n % 11 == 5 => FaultAction::Fail,
                n if n % 6 == 1 => delay,
                _ => FaultAction::Proceed,
            },
            _ => FaultAction::Proceed,
        }
    }
}

/// Every verdict arm of both storage-host fault sites, on a host that
/// serves one QoS-registered and one unregistered volume side by side.
#[test]
fn mixed_host_under_every_fault_verdict() {
    let (mut cloud, recorder) = traced_cloud(TransportKind::Iscsi, 32);
    let shaped = cloud.create_volume(16 << 20, 0);
    let plain = cloud.create_volume(16 << 20, 0);
    {
        let target = cloud.target_mut(0);
        target.enable_qos(DiskSpec::fast_tier(), DiskSpec::slow_tier());
        target.register_qos_volume(&shaped.iqn, 1, DiskTier::Fast);
        target.set_tenant_limit(1, RateLimitSpec::iops_limit(800, 4));
        target.set_fault_hook(FaultHook::armed(Arc::new(Scripted::default())), 0);
    }
    let clients = [
        attach_fio(&mut cloud, 0, &shaped, 4096, 4, 300),
        attach_fio(&mut cloud, 1, &plain, 4096, 4, 300),
    ];
    cloud.net.run_until(UNTIL);
    let errors: u64 = clients
        .iter()
        .map(|&(h, a)| cloud.client_mut(h, a).stats.errors)
        .sum();
    assert!(errors > 0, "failed verdicts must surface as I/O errors");
    assert_eq!(
        digest(&mut cloud, &recorder, &clients),
        Golden {
            trace_fnv1a: 17633038581490044341,
            trace_len: 403099,
            dispatch: (853, 853, 1),
            throttle: (243, 1167808184),
            ops: 850,
        },
        "{DRIFT}"
    );
}
