//! Zero-copy relay datapath: the passthrough chain forwards wire bytes
//! verbatim, and side-action routing stays correct with multiple
//! initiators sharing one middle-box.

use storm::block::transport::TransportKind;
use storm::scenario::{Case, Load, Replica, Spec};
use storm::services::ReplicationService;
use storm_sim::SimTime;
use storm_workloads::ShadowWorkload;

/// On either wire protocol a bare active-relay chain forwards every
/// message verbatim — PDUs, doorbell and completion frames, and the nvmeq
/// handshake that bypasses the chain. [`Case::check`] holds it to
/// byte-identical read-back and zero data bytes copied; only fixed-size
/// header copies into reassembly scratch are allowed.
fn passthrough_stays_zero_copy(transport: TransportKind) {
    let case = Case {
        transport,
        load: Load::Verify(16 * 1024, 8),
        ..Case::default()
    };
    let mut run = case.check();
    let relay = run.relay();
    assert!(relay.pdus_forwarded() > 0, "chain must have carried PDUs");
    assert_eq!(
        relay.copy_stats().verbatim_forwards,
        relay.pdus_forwarded(),
        "every forwarded message must take the verbatim fast path"
    );
}

#[test]
fn passthrough_relay_forwards_verbatim_with_zero_copies() {
    passthrough_stays_zero_copy(TransportKind::Iscsi);
}

/// The relay sniffs the nvmeq magic byte and bridges each frame's unit
/// through the (empty) chain: the zero-copy invariant is wire-protocol
/// agnostic.
#[test]
fn passthrough_relay_stays_zero_copy_over_nvmeq() {
    passthrough_stays_zero_copy(TransportKind::Nvmeq);
}

/// Regression test for side-action routing: with TWO initiators on one
/// middle-box, replica replies and forwards must go back to the
/// originating pair. (The relay used to emit side actions on whichever
/// pair was processed last, which cross-delivered replies once a second
/// initiator logged in.)
#[test]
fn two_initiators_side_actions_route_to_originating_pair() {
    let spec = Spec {
        client_seed: 22,
        label: "vm:tenant-a",
        spares: vec![64 << 20],
        services: vec![Box::new(ReplicationService::new(1, true))],
        replicas: vec![Replica::Spare(0)],
        ..Spec::default()
    };
    // Two clients on different compute hosts, disjoint LBA ranges,
    // different payloads.
    let a = ShadowWorkload::new(0, 16 * 1024).rounds(24).salt(17);
    let b = ShadowWorkload::new(32 * 1024, 16 * 1024)
        .rounds(24)
        .salt(91);
    let mut run = spec.build(a, |_, _| {});
    let app_b = run.attach(1, "vm:tenant-b", b, 23);
    run.run_until(SimTime::from_nanos(30_000_000_000));

    for (idx, app) in [(0, run.app), (1, app_b)] {
        let errors = run.cloud.client_mut(idx, app).stats.errors;
        assert_eq!(errors, 0, "client {idx} saw errors");
        let verified = run.workload_of::<ShadowWorkload>(idx, app).verified();
        assert_eq!(verified, 24, "client {idx} must verify all rounds");
    }

    // The replies were genuinely served by side actions: reads striped to
    // the replica produce Reply actions, writes produce replica Forwards.
    let stats = run.service::<ReplicationService>(0).stats;
    assert!(stats.replica_writes > 0, "writes must mirror to replica");
    assert!(
        stats.striped_reads > 0,
        "reads must stripe to the replica (Reply side actions)"
    );
}
