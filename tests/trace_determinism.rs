//! Equal seeds ⇒ byte-identical telemetry traces.
//!
//! The whole stack — event queue, TCP, relays, disk model — is
//! deterministic, and the JSONL writer has a fixed key order, so two runs
//! of the same scenario must export the same bytes. This holds with a
//! fault schedule armed too: `storm-faults` draws every decision from the
//! seeded state, so even a run full of drops and delays replays exactly.

use proptest::prelude::*;
use storm::cloud::DiskSpec;
use storm::core::{RelayQosConfig, StormPlatform};
use storm::qos::{DiskTier, RateLimitSpec};
use storm::scenario::{assert_replays, Replica, Spec};
use storm::services::{
    CacheConfig, CompressService, DedupService, EncryptionService, SnapshotService,
    WriteBackCacheService,
};
use storm_faults::{Fault, FaultPlan};
use storm_sim::{SimDuration, SimTime};
use storm_workloads::{FioJob, FioWorkload};

const VOLUME_BYTES: u64 = 1 << 30;

/// 300 ms of two-thread 4 KiB randrw over the whole volume.
fn fio() -> FioWorkload {
    let job = FioJob::randrw(4096, SimDuration::from_millis(300), VOLUME_BYTES / 512).threads(2);
    FioWorkload::new(job)
}

/// Runs a short encrypted active-relay fio scenario with the recorder
/// armed; with `faulted`, a disk-delay + middle-box-delay schedule fires
/// inside the job's 300 ms window; with `qos`, tight per-tenant limits
/// shape the flow at both enforcement points (relay token bucket + target
/// WFQ dispatch).
/// Returns the JSONL trace export.
fn traced_run(seed: u64, faulted: bool, qos: bool) -> String {
    let limit = RateLimitSpec::iops_limit(600, 4);
    let plan = FaultPlan::new(seed ^ 0xFA17)
        .at(
            SimTime::from_millis(100),
            Fault::DiskDelay {
                host: 0,
                extra: SimDuration::from_micros(150),
                prob: 0.3,
            },
        )
        .at(
            SimTime::from_millis(150),
            Fault::MbDelay {
                mb: 0,
                delay: SimDuration::from_micros(40),
                prob: 0.5,
            },
        );
    let spec = Spec {
        seed,
        client_seed: seed ^ 0x5EED,
        label: "vm:det",
        volume_bytes: VOLUME_BYTES,
        services: vec![Box::new(EncryptionService::stream_cipher(
            &[7u8; 32], &[3u8; 12],
        ))],
        platform: StormPlatform {
            qos: qos.then_some(RelayQosConfig { tenant: 1, limit }),
            ..StormPlatform::default()
        },
        faults: faulted.then_some(plan),
        traced: true,
        ..Spec::default()
    };
    let mut run = spec.build(fio(), |cloud, vol| {
        if qos {
            let target = cloud.target_mut(0);
            target.enable_qos(DiskSpec::fast_tier(), DiskSpec::slow_tier());
            target.register_qos_volume(&vol.iqn, 1, DiskTier::Fast);
            target.set_tenant_limit(1, limit);
        }
    });
    run.run_until(SimTime::from_nanos(1_200_000_000));
    assert!(run.client().stats.ops() > 0, "no I/O completed");
    run.trace()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Two clean runs with the same seed export identical bytes.
    #[test]
    fn equal_seeds_equal_traces(seed in 1u64..1_000_000) {
        assert_replays(seed, |seed| traced_run(seed, false, false));
    }

    /// Determinism survives an armed fault schedule — one that fires:
    /// the faulted trace is not the clean trace of the same seed.
    #[test]
    fn equal_seeds_equal_traces_under_faults(seed in 1u64..1_000_000) {
        let faulted = assert_replays(seed, |seed| traced_run(seed, true, false));
        prop_assert!(faulted != traced_run(seed, false, false), "no fault fired");
    }

    /// Determinism survives QoS shaping: the token buckets and WFQ draw
    /// nothing from ambient state, so a rate-limited run replays exactly
    /// — and the shaping is real (qos stage events appear in the trace).
    #[test]
    fn equal_seeds_equal_traces_with_qos(seed in 1u64..1_000_000) {
        let trace = assert_replays(seed, |seed| traced_run(seed, false, true));
        prop_assert!(trace.contains("\"hop\":\"qos\""), "QoS never engaged");
    }
}

/// The seed is load-bearing: different seeds almost surely diverge.
#[test]
fn different_seeds_diverge() {
    let a = traced_run(11, false, false);
    let b = traced_run(12, false, false);
    assert_ne!(a, b);
}

/// Runs a short fio scenario through the full data-reduction suite —
/// write-back cache, CDC dedup, inline compression and snapshot/CoW all
/// **armed** (a snapshot is taken at deploy time so copy-on-first-write
/// triggers) — and exports the JSONL trace.
fn suite_traced_run(seed: u64) -> String {
    let mut snap = SnapshotService::new(128);
    snap.take_snapshot();
    let spec = Spec {
        seed,
        client_seed: seed ^ 0x5EED,
        label: "vm:suite",
        volume_bytes: VOLUME_BYTES,
        spares: vec![64 << 20],
        services: vec![
            Box::new(WriteBackCacheService::new(CacheConfig::default())),
            Box::new(DedupService::new(seed, 12)),
            Box::new(CompressService::new(4096)),
            Box::new(snap),
        ],
        // Replica 0 is the cache's journal, replica 1 the primary.
        replicas: vec![Replica::Spare(0), Replica::Primary],
        traced: true,
        ..Spec::default()
    };
    let mut run = spec.build(fio(), |_, _| {});
    run.run_until(SimTime::from_nanos(1_200_000_000));
    assert!(run.client().stats.ops() > 0, "no I/O completed");
    run.trace()
}

mod suite_determinism {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]

        /// Determinism survives the full four-service suite armed: the
        /// cache's journal and flush timers, the dedup index, the
        /// compression codec and snapshot copy-on-first-write all draw
        /// only on sim-clock time and seeded state, so equal seeds still
        /// export byte-identical traces.
        #[test]
        fn equal_seeds_equal_traces_with_suite_armed(seed in 1u64..1_000_000) {
            assert_replays(seed, suite_traced_run);
        }
    }
}
