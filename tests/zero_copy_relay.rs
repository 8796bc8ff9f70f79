//! Zero-copy relay datapath: the passthrough chain forwards wire bytes
//! verbatim, and side-action routing stays correct with multiple
//! initiators sharing one middle-box.

use storm::iscsi::TransportKind;
use storm::scenario::{Replica, Spec};
use storm::services::ReplicationService;
use storm_sim::SimTime;
use storm_workloads::VerifyWorkload;

/// Tentpole acceptance, on either wire protocol: a bare active-relay
/// chain forwards every data segment verbatim — byte-identical wire data,
/// zero data bytes copied. Only fixed-size header copies into reassembly
/// scratch are allowed.
fn passthrough_stays_zero_copy(transport: TransportKind, label: &'static str, salt: u8) {
    let spec = Spec {
        client_seed: 21,
        transport,
        label,
        ..Spec::default()
    };
    let workload = VerifyWorkload::new(64, 16 * 1024).rounds(8).salt(salt);
    let mut run = spec.build(workload, |_, _| {});
    run.run_until(SimTime::from_nanos(10_000_000_000));
    let client = run.client();
    assert_eq!(client.stats.errors, 0);
    assert_eq!(client.transport().kind(), transport);
    assert_eq!(
        run.workload::<VerifyWorkload>().verified(),
        8,
        "every round must read back byte-identical data through the relay"
    );

    let relay = run.relay();
    let copy = relay.copy_stats();
    assert!(relay.pdus_forwarded() > 0, "chain must have carried PDUs");
    assert_eq!(
        copy.data_bytes_copied, 0,
        "passthrough must not copy forwarded data segments on {transport:?}"
    );
    match transport {
        TransportKind::Iscsi => assert_eq!(
            copy.verbatim_forwards,
            relay.pdus_forwarded(),
            "every forwarded PDU must take the verbatim fast path"
        ),
        // The relay bridges doorbell/completion units; the command units
        // among them are the ones forwarded verbatim.
        TransportKind::Nvmeq => assert!(
            copy.verbatim_forwards > 0,
            "command units must take the verbatim fast path"
        ),
    }
}

#[test]
fn passthrough_relay_forwards_verbatim_with_zero_copies() {
    passthrough_stays_zero_copy(TransportKind::Iscsi, "vm:zc", 0);
}

/// The relay sniffs the nvmeq magic byte and bridges units through the
/// (empty) chain: the zero-copy invariant is wire-protocol agnostic.
#[test]
fn passthrough_relay_stays_zero_copy_over_nvmeq() {
    passthrough_stays_zero_copy(TransportKind::Nvmeq, "vm:zc-nvq", 5);
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
    // different data patterns.
    let pattern_a = VerifyWorkload::new(0, 16 * 1024).rounds(24).salt(17);
    let pattern_b = VerifyWorkload::new(32 * 1024, 16 * 1024)
        .rounds(24)
        .salt(91);
    let mut run = spec.build(pattern_a, |_, _| {});
    let app_b = run.attach(1, "vm:tenant-b", pattern_b, 23);
    run.run_until(SimTime::from_nanos(30_000_000_000));

    for (idx, app) in [(0, run.app), (1, app_b)] {
        let client = run.cloud.client_mut(idx, app);
        assert_eq!(client.stats.errors, 0, "client {idx} saw errors");
        let workload = client.workload_ref().unwrap();
        assert_eq!(
            workload
                .downcast_ref::<VerifyWorkload>()
                .unwrap()
                .verified(),
            24,
            "client {idx} must verify all rounds"
        );
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
