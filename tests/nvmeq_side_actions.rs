//! Side actions on a multi-queue flow leave in the flow's own protocol.
//!
//! PDUs a service emits outside the data path — a write acknowledged from
//! a journal-commit completion, a read served from a replica — used to be
//! encoded as iSCSI unconditionally, which put an iSCSI PDU on an nvmeq
//! stream and killed the session. Both cases run twelve verified 16 KiB
//! rounds over nvmeq through an active relay, held to [`Case::check`].

use storm::block::transport::TransportKind;
use storm::scenario::{Case, Load, Run, Svc};
use storm::services::{ReplicationService, WriteBackCacheService};

const ROUNDS: usize = 12;

fn run(svc: Svc) -> Run {
    let case = Case {
        transport: TransportKind::Nvmeq,
        chain: vec![svc],
        load: Load::Verify(16 * 1024, ROUNDS),
        ..Case::default()
    };
    case.check()
}

/// The write-back cache acknowledges each write from its journal-commit
/// completion (`on_replica_done` → `Reply`) and flushes on a timer.
#[test]
fn write_back_cache_acks_from_replica_completion_over_nvmeq() {
    let stats = run(Svc::Cache).service::<WriteBackCacheService>(0).stats;
    assert_eq!(stats.writes_absorbed, ROUNDS as u64);
    assert!(stats.flushes > 0, "the flush timer must have fired");
}

/// Replication stripes reads to the replica and serves them from its
/// completion (`on_replica_done` → `Reply`).
#[test]
fn replica_served_reads_reply_over_nvmeq() {
    let stats = run(Svc::Replication).service::<ReplicationService>(0).stats;
    assert!(stats.replica_writes > 0, "writes must mirror to replica");
    assert!(stats.striped_reads > 0, "reads must stripe to the replica");
}
