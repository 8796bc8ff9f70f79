//! Noisy neighbor: per-tenant QoS protecting a latency-sensitive tenant
//! from an IOPS hog on the same storage host.
//!
//! Two tenants share the fast tier of one Cinder node. Without QoS the
//! aggressor's closed-loop 4 KiB flood queues ahead of the victim's I/O;
//! with a token-bucket rate limit on the aggressor and a WFQ weight on
//! the victim, the victim's tail latency returns to (near) its solo
//! value. The same knobs the provisioning engine uses — tenant limits,
//! tenant weights, tiered placement — driven by hand.
//!
//! ```text
//! cargo run --release --example noisy_neighbor
//! ```

use storm::cloud::{Cloud, CloudConfig, DiskSpec};
use storm::qos::{DiskTier, RateLimitSpec};
use storm::telemetry::names::tenant_scoped;
use storm::telemetry::MetricsRegistry;
use storm_sim::{SimDuration, SimTime};
use storm_workloads::{FioJob, FioWorkload};

const VICTIM: u32 = 1;
const AGGRESSOR: u32 = 2;

/// One contended run; returns the victim's p99 in milliseconds and the
/// number of target-side ops the shaper throttled.
fn contended_run(shaped: bool) -> (f64, u64) {
    let mut cloud = Cloud::build(CloudConfig {
        seed: 7,
        ..CloudConfig::default()
    });
    let duration = SimDuration::from_secs(1);
    let victim_vol = cloud.create_volume(1 << 30, 0);
    let aggr_vol = cloud.create_volume(1 << 30, 0);
    {
        let target = cloud.target_mut(0);
        target.enable_qos(DiskSpec::fast_tier(), DiskSpec::slow_tier());
        target.register_qos_volume(&victim_vol.iqn, VICTIM, DiskTier::Fast);
        target.register_qos_volume(&aggr_vol.iqn, AGGRESSOR, DiskTier::Fast);
        if shaped {
            // The aggressor gets 200 IOPS and a quarter of the victim's
            // scheduler weight; everything else is unchanged.
            target.set_tenant_limit(AGGRESSOR, RateLimitSpec::iops_limit(200, 4));
            target.set_tenant_weight(VICTIM, 8);
        }
    }
    let victim_job = FioJob::randrw(64 * 1024, duration, victim_vol.sectors).threads(1);
    let victim = cloud.attach_volume(
        0,
        "vm:victim",
        &victim_vol,
        Box::new(FioWorkload::new(victim_job)),
        7,
        false,
    );
    let aggr_job = FioJob::randrw(4096, duration, aggr_vol.sectors).threads(4);
    let aggressor = cloud.attach_volume(
        1,
        "vm:aggressor",
        &aggr_vol,
        Box::new(FioWorkload::new(aggr_job)),
        8,
        false,
    );
    let deadline = cloud.net.now() + SimDuration::from_secs(5);
    while cloud.net.now() < deadline {
        cloud.net.run_for(SimDuration::from_millis(1));
        let ready =
            cloud.client_mut(0, victim).is_ready() && cloud.client_mut(1, aggressor).is_ready();
        if ready {
            break;
        }
    }
    let end = cloud.net.now() + duration + SimDuration::from_secs(2);
    cloud.net.run_until(SimTime::from_nanos(end.as_nanos()));

    let (throttled, _) = cloud.target_mut(0).qos_throttle_stats();
    let mut registry = MetricsRegistry::new();
    for (tenant, host, app) in [(VICTIM, 0usize, victim), (AGGRESSOR, 1usize, aggressor)] {
        let client = cloud.client_mut(host, app);
        assert!(client.is_ready(), "tenant {tenant} login failed");
        assert_eq!(client.stats.errors, 0);
        registry.inc(&tenant_scoped("vm.ops", tenant), client.stats.ops());
        registry.merge_histogram(&tenant_scoped("vm.latency", tenant), &client.stats.latency);
    }
    let label = if shaped { "with QoS" } else { "no QoS" };
    println!("[{label}]");
    print!("{}", registry.report());
    let p99 = cloud
        .client_mut(0, victim)
        .stats
        .latency
        .percentile(99.0)
        .as_nanos() as f64
        / 1e6;
    (p99, throttled)
}

fn main() {
    println!("two tenants, one fast tier: 64 KiB victim vs 4 KiB closed-loop aggressor\n");
    let (contended, _) = contended_run(false);
    let (shaped, throttled) = contended_run(true);
    println!();
    println!("victim p99, no QoS:   {contended:.2} ms");
    println!("victim p99, with QoS: {shaped:.2} ms ({throttled} aggressor ops throttled)");
    assert!(
        shaped < contended,
        "shaping must improve the victim's tail latency"
    );
    println!("\nnoisy neighbor tamed");
}
