//! Figure-13 failover scenario, end to end, driven by `storm-faults`.
//!
//! An OLTP guest runs through a replication middle-box with two backup
//! replicas (replication factor 3). Mid-run the fault plan mutes the
//! storage host backing replica 0: its target keeps serving I/O but the
//! responses never leave the host — the paper's "not responsive" replica,
//! detectable only by timeout. The relay's watchdog must time the
//! requests out, retry with backoff, evict the replica, and re-dispatch
//! its unfinished reads; the database keeps running with zero lost reads
//! and throughput dips then recovers on the surviving lanes.

use storm::cloud::DiskSpec;
use storm::scenario::{Replica, Spec};
use storm::telemetry::analyze;
use storm_faults::{Fault, FaultPlan};
use storm_services::ReplicationService;
use storm_sim::{SimDuration, SimTime};
use storm_workloads::{OltpConfig, OltpWorkload};

const RUN_SECS: u64 = 10;
const FAIL_AT_SECS: u64 = 4;

#[test]
fn replica_goes_mute_mid_workload_and_is_evicted() {
    let spec = Spec {
        client_seed: 77,
        label: "vm:mysql",
        volume_bytes: 1 << 30,
        spares: vec![1 << 30, 1 << 30],
        // Keep the page cache small so reads hit the spindles — the regime
        // where read striping (and losing a stripe lane) matters.
        disk: DiskSpec {
            cache_blocks: 32_768,
            ..DiskSpec::default()
        },
        services: vec![Box::new(ReplicationService::new(2, true))],
        replicas: vec![Replica::Spare(0), Replica::Spare(1)],
        // Replica 0 lives on storage host 1: mute that target at the fail
        // mark. Served requests produce no responses from then on.
        faults: Some(FaultPlan::new(0xF1613).at(
            SimTime::from_secs(FAIL_AT_SECS),
            Fault::MuteTarget { host: 1 },
        )),
        // Record the telemetry trace alongside the fault trace: the
        // eviction must be visible to an observability consumer, not just
        // test hooks.
        traced: true,
        ..Spec::default()
    };
    let oltp = OltpWorkload::new(OltpConfig {
        threads: 2,
        reads_per_txn: 2,
        area_sectors: 1 << 19,
        duration: SimDuration::from_secs(RUN_SECS),
    });
    let mut run = spec.build(oltp, |_, _| {});
    assert_eq!(run.spares[0].storage_host, 1);
    run.run_until(SimTime::from_secs(RUN_SECS + 2));

    // Zero lost reads: the guest never sees an I/O error; every read the
    // muted replica swallowed was timed out and re-served elsewhere.
    assert_eq!(
        run.client().stats.errors,
        0,
        "the database must never see an I/O error"
    );
    let w = run.workload::<OltpWorkload>();
    let before = w.mean_tps(2, FAIL_AT_SECS as usize);
    let dip = w.mean_tps(FAIL_AT_SECS as usize, FAIL_AT_SECS as usize + 2);
    let after = w.mean_tps(FAIL_AT_SECS as usize + 3, RUN_SECS as usize);
    assert!(
        before > 0.0,
        "workload must make progress before the failure"
    );
    assert!(
        dip < before,
        "throughput must dip while the mute replica times out: before={before:.0} dip={dip:.0}"
    );
    assert!(
        after > before * 0.5,
        "throughput must recover on the surviving lanes: before={before:.0} after={after:.0}"
    );

    // The watchdog evicted exactly the muted replica.
    assert!(!run.relay().is_crashed());
    let svc = run.service::<ReplicationService>(0);
    assert_eq!(
        svc.alive_replicas(),
        1,
        "the mute replica must be eliminated"
    );
    assert!(
        svc.stats.retried_reads > 0,
        "unfinished reads of the failed replica must be re-dispatched"
    );
    assert!(svc.stats.striped_reads > 0);

    // The muted responses are visible in the fault trace.
    let trace = run.fault_trace();
    assert!(
        trace.iter().any(|l| l.contains("arm #1 MuteTarget")),
        "{trace:?}"
    );
    assert!(
        trace.iter().any(|l| l.contains("TargetRespond")),
        "{trace:?}"
    );

    // The telemetry trace carries the eviction too, after the fail mark,
    // naming the muted replica (index 0 = rep1).
    let report = analyze::attribute(&run.recorder().events());
    assert_eq!(
        report.evictions.len(),
        1,
        "exactly one replica eviction in the trace"
    );
    let (at, mb, replica) = report.evictions[0];
    assert_eq!(mb, 0);
    assert_eq!(
        replica, 0,
        "the muted replica (rep1) must be the one evicted"
    );
    assert!(
        at >= SimTime::from_secs(FAIL_AT_SECS),
        "eviction {at} must follow the fail mark"
    );
    // The failover run still yields a coherent attribution table.
    assert!(report.requests > 0);
    let share_sum: f64 = report.rows.iter().map(|r| r.share).sum();
    assert!(
        (share_sum - 100.0).abs() < 0.5,
        "shares sum to {share_sum}%"
    );
}
