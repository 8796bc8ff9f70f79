//! Per-tenant QoS scenarios: two-tenant interference and SLO-driven
//! provisioning churn.
//!
//! Both scenarios run the target-side QoS machinery (per-tenant token
//! buckets + weighted fair queueing on tiered disks) end to end from real
//! tenant VMs:
//!
//! * [`qos_interference`] — a latency-sensitive *victim* shares the
//!   fast tier with a bandwidth-hungry *aggressor*. Three runs: victim
//!   solo, contended with no limits, and contended with the aggressor
//!   rate-limited plus a WFQ weight favouring the victim. The acceptance
//!   bar is the paper-style isolation claim: victim p99 under QoS within
//!   1.2x of its solo p99.
//! * [`qos_churn`] — the [`ProvisioningEngine`] control
//!   loop in anger: an SLO'd volume lands on the slow tier next to a
//!   best-effort hog, its p99 blows through the ceiling, and the engine
//!   live-migrates it to the fast tier mid-run (copy-then-cutover).

use storm::cloud::{Cloud, CloudConfig, DiskSpec, ProvisioningEngine};
use storm::net::AppId;
use storm::qos::{DiskTier, RateLimitSpec, VolumeSlo};
use storm::sim::SimDuration;
use storm::telemetry::analyze;
use storm::workloads::{FioJob, FioWorkload};

use crate::{client_point, FioPoint, Output, Row, SEED, VOLUME_BYTES, WINDOW};

/// Aggressor IOPS cap in the shaped run.
const AGGRESSOR_IOPS: u64 = 200;
/// Aggressor burst allowance (ops).
const AGGRESSOR_BURST: u64 = 4;
/// Aggressor request size: a 4 KiB IOPS hog. Small frames keep its
/// in-flight bytes off the shared 1 GbE target link — target-side shaping
/// cannot un-send data, so a large-block aggressor would still
/// head-of-line block the victim's transfers *on the wire*.
const AGGRESSOR_BLOCK: usize = 4096;
/// WFQ weight handed to the victim (aggressor keeps the default 1).
const VICTIM_WEIGHT: u64 = 8;

fn drive_logins(cloud: &mut Cloud, apps: &[(usize, AppId)]) {
    let deadline = cloud.net.now() + SimDuration::from_secs(5);
    while cloud.net.now() < deadline {
        cloud.net.run_for(SimDuration::from_millis(1));
        if apps
            .iter()
            .all(|&(host, app)| cloud.client_mut(host, app).is_ready())
        {
            break;
        }
    }
}

/// One interference case: victim always runs; the aggressor and the
/// shaping knobs are optional. Returns the victim's point and the
/// target-side ops that drew a shaping delay.
fn interference_case(with_aggressor: bool, shaped: bool) -> (FioPoint, u64) {
    let mut cfg = CloudConfig {
        seed: SEED,
        ..CloudConfig::default()
    };
    // Steady-state page cache, as in every single-tenant row.
    cfg.target.disk.prewarmed = true;
    let mut cloud = Cloud::build(cfg);
    let victim_vol = cloud.create_volume(VOLUME_BYTES, 0);
    let aggr_vol = cloud.create_volume(VOLUME_BYTES, 0);
    {
        let target = cloud.target_mut(0);
        target.enable_qos(DiskSpec::fast_tier(), DiskSpec::slow_tier());
        target.register_qos_volume(&victim_vol.iqn, 1, DiskTier::Fast);
        target.register_qos_volume(&aggr_vol.iqn, 2, DiskTier::Fast);
        if shaped {
            target.set_tenant_limit(
                2,
                RateLimitSpec::iops_limit(AGGRESSOR_IOPS, AGGRESSOR_BURST),
            );
            target.set_tenant_weight(1, VICTIM_WEIGHT);
        }
    }
    let victim_job = FioJob::randrw(64 * 1024, WINDOW, victim_vol.sectors).threads(1);
    let victim = cloud.attach_volume(
        0,
        "vm:victim",
        &victim_vol,
        Box::new(FioWorkload::new(victim_job)),
        SEED,
        false,
    );
    let mut apps = vec![(0usize, victim)];
    if with_aggressor {
        let job = FioJob::randrw(AGGRESSOR_BLOCK, WINDOW, aggr_vol.sectors).threads(4);
        let app = cloud.attach_volume(
            1,
            "vm:aggressor",
            &aggr_vol,
            Box::new(FioWorkload::new(job)),
            SEED + 1,
            false,
        );
        apps.push((1, app));
    }
    drive_logins(&mut cloud, &apps);
    let end = cloud.net.now() + WINDOW + SimDuration::from_secs(2);
    cloud.net.run_until(end);
    let (throttled, _) = cloud.target_mut(0).qos_throttle_stats();
    // Reading a point checks its tenant logged in and saw no error; the
    // victim's is the one reported.
    let points: Vec<FioPoint> = apps
        .iter()
        .map(|&(host, app)| client_point(&mut cloud, host, app, WINDOW))
        .collect();
    (points[0], throttled)
}

/// `qos.interference.2tenant`: victim solo, contended, and shaped
/// (aggressor limited to `AGGRESSOR_IOPS`, victim WFQ weight
/// `VICTIM_WEIGHT`). The shaped victim's p99 must stay within 20 % of its
/// solo baseline.
pub(crate) fn qos_interference() -> Output {
    let (solo, _) = interference_case(false, false);
    let (contended, _) = interference_case(true, false);
    let (shaped, throttled_ops) = interference_case(true, true);
    assert!(
        shaped.p99_ms <= solo.p99_ms * 1.2,
        "QoS failed to protect the victim: shaped p99 {:.3} ms vs solo {:.3} ms",
        shaped.p99_ms,
        solo.p99_ms
    );
    assert!(throttled_ops > 0, "the aggressor was never throttled");
    let name = "qos.interference.2tenant";
    vec![Row::new(name, None, 64 * 1024, 1, 1, shaped)
        .extra("solo_p99_ms", solo.p99_ms)
        .extra("contended_p99_ms", contended.p99_ms)
        .extra("qos_over_solo", shaped.p99_ms / solo.p99_ms)
        .extra("throttled_ops", throttled_ops as f64)]
    .into()
}

/// SLO'd volume size: small enough that the copy-then-cutover migration
/// commits well inside the measurement window.
const CHURN_VOLUME_BYTES: u64 = 16 << 20;
/// The SLO'd tenant's p99 ceiling.
const CHURN_P99_CEILING_US: u64 = 1_500;

/// `qos.provisioning.churn`: an SLO'd volume deliberately placed on the
/// slow tier next to a best-effort hog, with the [`ProvisioningEngine`]
/// ticking every 50 ms of simulated time. The control loop must
/// live-migrate the violating volume to the fast tier mid-run.
pub(crate) fn qos_churn() -> Output {
    let mut cfg = CloudConfig {
        seed: SEED,
        ..CloudConfig::default()
    };
    cfg.target.disk.prewarmed = true;
    let mut cloud = Cloud::build(cfg);
    cloud
        .target_mut(0)
        .enable_qos(DiskSpec::fast_tier(), DiskSpec::slow_tier());
    let mut engine = ProvisioningEngine::new(5_000, 20_000, 3);
    let now = cloud.net.now();
    // Economy placement: the ceiling is real but the volume starts on the
    // cheap tier — exactly the case the control loop exists to fix.
    let slo = VolumeSlo {
        iops_floor: 200,
        p99_ceiling_us: CHURN_P99_CEILING_US,
        tier: DiskTier::Slow,
    };
    let watched = engine
        .provision(&mut cloud, now, CHURN_VOLUME_BYTES, 0, 1, slo)
        .expect("SLO'd volume admitted");
    let hog = engine
        .provision(
            &mut cloud,
            now,
            CHURN_VOLUME_BYTES,
            0,
            2,
            VolumeSlo::BEST_EFFORT,
        )
        .expect("best-effort volume admitted");
    // Overload: a floor beyond both tiers' capacity must be rejected.
    let overload_rejected = engine
        .provision(
            &mut cloud,
            now,
            CHURN_VOLUME_BYTES,
            0,
            3,
            VolumeSlo::latency(1_000_000, 100),
        )
        .is_none();

    let watched_job = FioJob::randrw(4096, WINDOW, watched.sectors).threads(1);
    let watched_app = cloud.attach_volume(
        0,
        "vm:slo",
        &watched,
        Box::new(FioWorkload::new(watched_job)),
        SEED,
        false,
    );
    let hog_job = FioJob::randrw(64 * 1024, WINDOW, hog.sectors).threads(4);
    let hog_app = cloud.attach_volume(
        1,
        "vm:hog",
        &hog,
        Box::new(FioWorkload::new(hog_job)),
        SEED + 1,
        false,
    );
    drive_logins(&mut cloud, &[(0, watched_app), (1, hog_app)]);

    // Run in slices, ticking the control loop between them.
    let end = cloud.net.now() + WINDOW + SimDuration::from_secs(2);
    while cloud.net.now() < end {
        cloud.net.run_for(SimDuration::from_millis(50));
        let t = cloud.net.now();
        engine.tick(&mut cloud, t);
    }

    let ceiling = SimDuration::from_micros(CHURN_P99_CEILING_US);
    let (migrations_completed, slo_attainment) = {
        let t = cloud.target_mut(0);
        t.poll_migration(end, &watched.iqn);
        let attainment = t
            .volume_latency(&watched.iqn)
            .map_or(1.0, |h| analyze::slo_attainment(h, ceiling));
        (t.completed_migrations(), attainment)
    };
    assert!(
        migrations_completed >= 1,
        "no tier migration cut over mid-run"
    );
    assert!(overload_rejected, "overload request was not rejected");
    assert!(slo_attainment > 0.0, "SLO attainment metric missing");
    let point = client_point(&mut cloud, 0, watched_app, WINDOW);
    let name = "qos.provisioning.churn";
    vec![Row::new(name, None, 4096, 1, 1, point)
        .extra("migrations", migrations_completed as f64)
        .extra("slo_attainment", slo_attainment)]
    .into()
}
