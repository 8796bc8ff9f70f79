//! Fault injection: replay the paper's Figure-13 failure with `storm-faults`.
//!
//! An OLTP database runs through a replication middle-box with two backup
//! replicas. A fault plan mutes one replica's storage host at t=4s — it
//! keeps serving I/O but its responses never leave the host. The relay's
//! watchdog times the stuck requests out, retries with backoff, evicts
//! the replica, and the replication service re-serves its unfinished
//! reads from a surviving copy. The guest never sees an error.
//!
//! Run with `cargo run --release --example fault_injection`.

use storm::cloud::DiskSpec;
use storm::faults::{Fault, FaultPlan};
use storm::scenario::{Replica, Spec};
use storm::services::ReplicationService;
use storm::sim::{SimDuration, SimTime};
use storm::workloads::{OltpConfig, OltpWorkload};

const RUN_SECS: u64 = 10;
const FAIL_AT_SECS: u64 = 4;
/// Replica 0 is spare 0, which lives on storage host 1.
const MUTED_HOST: u32 = 1;

fn main() {
    let spec = Spec {
        client_seed: 77,
        label: "vm:mysql",
        volume_bytes: 1 << 30,
        spares: vec![1 << 30, 1 << 30],
        disk: DiskSpec {
            cache_blocks: 32_768,
            ..DiskSpec::default()
        },
        services: vec![Box::new(ReplicationService::new(2, true))],
        replicas: vec![Replica::Spare(0), Replica::Spare(1)],
        faults: Some(FaultPlan::new(0xF1613).at(
            SimTime::from_secs(FAIL_AT_SECS),
            Fault::MuteTarget { host: MUTED_HOST },
        )),
        ..Spec::default()
    };
    let oltp = OltpWorkload::new(OltpConfig {
        threads: 2,
        reads_per_txn: 2,
        area_sectors: 1 << 19,
        duration: SimDuration::from_secs(RUN_SECS),
    });
    let mut run = spec.build(oltp, |_, _| {});

    println!("fault plan (seed 0xF1613):");
    println!("  t={FAIL_AT_SECS}s  mute storage host {MUTED_HOST} (replica 0)");
    println!();
    run.run_until(SimTime::from_secs(RUN_SECS + 2));

    let errors = run.client().stats.errors;
    let w = run.workload::<OltpWorkload>();
    println!("TPS timeline (failure at t={FAIL_AT_SECS}s):");
    for s in 0..RUN_SECS as usize {
        let tps = w.mean_tps(s, s + 1);
        let bar = "#".repeat((tps / 400.0).round() as usize);
        let mark = if s == FAIL_AT_SECS as usize {
            "  <- replica muted"
        } else {
            ""
        };
        println!("  t={s:>2}s {tps:>7.0} tps {bar}{mark}");
    }
    println!();

    let trace = run.fault_trace();
    let svc = run.service::<ReplicationService>(0);
    println!("recovery:");
    println!("  guest-visible I/O errors : {errors}");
    println!("  alive replicas           : {} of 2", svc.alive_replicas());
    println!("  reads re-dispatched      : {}", svc.stats.retried_reads);
    println!("  replica write failures   : {}", svc.stats.write_failures);
    println!();

    println!("fault trace ({} events, first 6):", trace.len());
    for line in trace.iter().take(6) {
        println!("  {line}");
    }

    assert_eq!(errors, 0, "the database must never see an I/O error");
    assert_eq!(svc.alive_replicas(), 1, "the muted replica must be evicted");
    assert!(
        svc.stats.retried_reads > 0,
        "unfinished reads must be re-served"
    );
    println!("\nOK: replica eliminated, unfinished reads re-served, zero lost reads.");
}
