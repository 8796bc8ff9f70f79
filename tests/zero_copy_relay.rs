//! Zero-copy relay datapath: the passthrough chain forwards wire bytes
//! verbatim, and every op reaches the right guest with several initiators
//! sharing one middle-box.

use storm::block::transport::TransportKind;
use storm::scenario::{Case, Load, Svc};
use storm_sim::SimDuration;
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

/// Two guests share one relay, and every op leaves on the flow its tag
/// names. Wire tags are unique only within a flow, and both guests number
/// theirs alike, so a service keying state by the wire tag alone mixed
/// the guests' writes, and side outputs routed by a remembered origin
/// sent one guest's parked writes down the other's flow. Both guests keep
/// their sessions and verify every read, on either wire protocol, behind
/// replication, a write-back cache and a snapshot, at depths 1 and 4.
#[test]
fn two_initiators_side_actions_route_to_originating_pair() {
    let (rounds, block) = (8, 64 * 1024);
    for transport in [TransportKind::Iscsi, TransportKind::Nvmeq] {
        for svc in [Svc::Replication, Svc::Cache, Svc::Snapshot] {
            for depth in [1, 4] {
                let mut case = Case::default();
                (case.transport, case.queue_depth) = (transport, depth as u16);
                (case.chain, case.load) = (vec![svc], Load::Verify(block, rounds));
                // Two clients on different compute hosts, disjoint LBA
                // ranges, different payloads.
                let shadow = |lba, salt| {
                    let w = ShadowWorkload::new(lba, block);
                    w.rounds(rounds).depth(depth).salt(salt)
                };
                let mut run = case.spec().build(shadow(64, 17), |_, _| {});
                let app_b = run.attach(1, "vm:tenant-b", shadow(16384, 91), 23);
                run.run_until(run.cloud.net.now() + SimDuration::from_secs(10));
                for (idx, app) in [(0, run.app), (1, app_b)] {
                    let what = format!("{transport:?} {svc:?} depth {depth}: client {idx}");
                    let client = run.cloud.client_mut(idx, app);
                    assert!(client.is_ready(), "{what} lost its session");
                    assert_eq!(client.stats.errors, 0, "{what} saw errors");
                    let verified = run.workload_of::<ShadowWorkload>(idx, app).verified();
                    assert_eq!(verified, rounds * depth, "{what} verified too few reads");
                }
            }
        }
    }
}
