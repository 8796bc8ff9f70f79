//! Case study 3: a database surviving a replica failure.
//!
//! Recreates the paper's Figure 12/13 scenario: a MySQL-like server VM
//! whose volume is attached through a replication middle-box with two
//! backup volumes (replication factor 3). OLTP clients hammer it; halfway
//! through, one replica's backing store fails. The database never sees an
//! error, and the failed replica is removed from service.
//!
//! ```text
//! cargo run --release --example replicated_database
//! ```

use storm::scenario::{Replica, Spec};
use storm::services::ReplicationService;
use storm::workloads::{OltpConfig, OltpWorkload};
use storm_sim::{SimDuration, SimTime};

fn main() {
    let spec = Spec {
        client_seed: 3,
        label: "vm:mysql",
        volume_bytes: 2 << 30,
        spares: vec![2 << 30, 2 << 30],
        services: vec![Box::new(ReplicationService::new(2, true))],
        replicas: vec![Replica::Spare(0), Replica::Spare(1)],
        ..Spec::default()
    };
    let oltp = OltpConfig {
        duration: SimDuration::from_secs(30),
        ..OltpConfig::default()
    };
    let mut run = spec.build(OltpWorkload::new(oltp), |_, _| {});
    println!("replication middle-box deployed: primary + 2 replicas, read striping on");

    // Fail replica 1 at the 15-second mark.
    run.run_until(SimTime::from_nanos(15_000_000_000));
    println!("t=15s: replica 1's backing store fails");
    run.spares[0].shared.fail();
    run.run_until(SimTime::from_nanos(40_000_000_000));

    assert_eq!(
        run.client().stats.errors,
        0,
        "the database must never see the failure"
    );
    let w = run.workload::<OltpWorkload>();
    println!("\nper-second transactions:");
    for (t, tps) in w.tps.series().iter().enumerate().step_by(3) {
        let bar = "#".repeat((*tps as usize) / 20);
        println!("  t={t:>3}s {tps:>5} {bar}");
    }
    println!(
        "\ntotal transactions: {} (zero client-visible errors)",
        w.transactions
    );

    for (at, msg) in run.relay().alerts() {
        println!("alert [{at}]: {msg}");
    }
    let svc = run.service::<ReplicationService>(0);
    println!(
        "replica writes: {}, striped reads: {}, retried reads: {}, replicas alive: {}",
        svc.stats.replica_writes,
        svc.stats.striped_reads,
        svc.stats.retried_reads,
        svc.alive_replicas()
    );
}
