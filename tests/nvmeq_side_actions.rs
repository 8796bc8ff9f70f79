//! Side actions on a multi-queue flow leave in the flow's own protocol.
//!
//! PDUs a service emits outside the data path — a write acknowledged from
//! a journal-commit completion, a read served from a replica — used to be
//! encoded as iSCSI unconditionally, which put an iSCSI PDU on an nvmeq
//! stream and killed the session. Both scenarios run the nvmeq transport
//! through an active relay and must complete every round with verified
//! read-back and zero client errors.

use storm::core::service::StorageService;
use storm::iscsi::TransportKind;
use storm::scenario::{Replica, Run, Spec};
use storm::services::{CacheConfig, ReplicationService, WriteBackCacheService};
use storm_sim::SimTime;
use storm_workloads::VerifyWorkload;

const ROUNDS: usize = 12;

/// Runs twelve verified 16 KiB rounds over nvmeq through one active relay
/// carrying `service`, with `replicas` drawn from the primary and one
/// spare volume, and returns the run once every round has verified.
fn run(service: Box<dyn StorageService>, replicas: Vec<Replica>) -> Run {
    let spec = Spec {
        client_seed: 21,
        transport: TransportKind::Nvmeq,
        label: "vm:nvq-side",
        spares: vec![64 << 20],
        services: vec![service],
        replicas,
        ..Spec::default()
    };
    let mut run = spec.build(VerifyWorkload::new(64, 16 * 1024).rounds(ROUNDS), |_, _| {});
    run.run_until(SimTime::from_nanos(10_000_000_000));
    let client = run.client();
    assert_eq!(client.transport().kind(), TransportKind::Nvmeq);
    assert_eq!(client.stats.errors, 0, "client saw I/O errors");
    let verified = run.workload::<VerifyWorkload>().verified();
    assert_eq!(verified, ROUNDS, "every round must read back what it wrote");
    run
}

/// The write-back cache acknowledges each write from its journal-commit
/// completion (`on_replica_done` → `Reply`) and flushes on a timer.
#[test]
fn write_back_cache_acks_from_replica_completion_over_nvmeq() {
    let mut run = run(
        Box::new(WriteBackCacheService::new(CacheConfig::default())),
        // Replica 0 is the journal, replica 1 the primary (flush path).
        vec![Replica::Spare(0), Replica::Primary],
    );
    let stats = run.service::<WriteBackCacheService>(0).stats;
    assert_eq!(stats.writes_absorbed, ROUNDS as u64);
    assert!(stats.flushes > 0, "the flush timer must have fired");
}

/// Replication stripes reads to the replica and serves them from its
/// completion (`on_replica_done` → `Reply`).
#[test]
fn replica_served_reads_reply_over_nvmeq() {
    let mut run = run(
        Box::new(ReplicationService::new(1, true)),
        vec![Replica::Spare(0)],
    );
    let stats = run.service::<ReplicationService>(0).stats;
    assert!(stats.replica_writes > 0, "writes must mirror to replica");
    assert!(stats.striped_reads > 0, "reads must stripe to the replica");
}
