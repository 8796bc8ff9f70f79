//! Defects the `Case` generator found, pinned as the literals that
//! reproduce them.

use storm::block::transport::TransportKind;
use storm::block::BlockDevice;
use storm::core::{PassiveTap, RelayMode};
use storm::scenario::{Case, Delay, Load, Svc};
use storm::services::catalog::{check_order, CatalogError};
use storm::workloads::ShadowWorkload;

/// Whatever a service emits walks every stage between it and the wire. A
/// cache hit, a read a replica served and a write a snapshot released
/// from its pre-image completion used to skip the stages between their
/// service and the wire, so the first two read back ciphertext and the
/// third stored plaintext the cipher then "decrypted" on the way back.
#[test]
fn service_outputs_walk_the_rest_of_the_chain() {
    use Svc::{Cache, Replication, Snapshot, Xts};
    for chain in [
        vec![Xts, Cache],
        vec![Snapshot, Xts],
        vec![Xts, Replication],
    ] {
        let case = Case {
            chain,
            ..Case::default()
        };
        case.check();
    }
}

/// A passive tap cannot walk multi-queue frames as iSCSI PDUs, so with a
/// chain to apply it refuses an nvmeq flow instead of passing its data
/// on untransformed: the session never logs in and nothing lands at rest.
#[test]
fn passive_tap_refuses_an_nvmeq_flow_it_cannot_transform() {
    let case = Case {
        transport: TransportKind::Nvmeq,
        mode: RelayMode::Passive,
        chain: vec![Svc::ChaCha],
        ..Case::default()
    };
    let mut run = case.run();
    let mut at_rest = vec![0u8; 16 * 1024];
    run.volume.shared.clone().read(64, &mut at_rest).unwrap();
    assert_ne!(
        at_rest,
        ShadowWorkload::payload(0, 0, 16 * 1024),
        "plaintext at rest"
    );
    assert!(!run.cloud.client_mut(0, run.app).is_ready());
    let d = run.deployment();
    let (node, app) = (d.mb_nodes[0].node, d.mb_apps[0]);
    let tap = run.cloud.net.app_mut(node, app.unwrap()).unwrap();
    assert_eq!(tap.downcast_mut::<PassiveTap>().unwrap().refused_flows(), 1);
}

/// A service answers a read larger than 64 KiB itself
/// (a cache hit, a read a replica served). Over nvmeq that answer must
/// reach the guest as one completion carrying all of its data: the relay
/// used to turn only the last Data-In of the service's train into a
/// completion and drop the rest, so the guest read back short data.
#[test]
fn service_read_replies_over_64k_reach_an_nvmeq_guest_whole() {
    for chain in [vec![Svc::Cache], vec![Svc::Replication]] {
        let case = Case {
            transport: TransportKind::Nvmeq,
            chain,
            load: Load::Verify(131072, 4),
            ..Case::default()
        };
        case.check();
    }
}

/// The iSCSI twin: the same answers leave as a Data-In train.
#[test]
fn service_read_replies_over_64k_reach_an_iscsi_guest_whole() {
    for chain in [vec![Svc::Cache], vec![Svc::Replication]] {
        let case = Case {
            chain,
            load: Load::Verify(131072, 4),
            ..Case::default()
        };
        case.check();
    }
}

/// A cache holding half a concurrent verify load's footprint answered a
/// miss read with a sector older than a write acknowledged before the
/// read was issued. The volume may serve a read before a flush lands, and
/// by the time its answer passes the cache that flush has completed: the
/// sector was clean, so not patched in, or already evicted. Every cached
/// sector now patches the answer, and a sector a miss read covers stays
/// cached until the answer has passed; this case fails with either half
/// undone.
#[test]
fn cache_miss_answers_are_no_older_than_acknowledged_writes() {
    let case = Case {
        seed: 11905,
        transport: TransportKind::Nvmeq,
        queue_depth: 8,
        chain: vec![Svc::Cache],
        fault: Some(Delay::Disk(0, 90)),
        load: Load::Verify(65536, 6),
        ..Case::default()
    };
    case.check();
}

/// Replica indices are fixed per service: the cache journals to session 0
/// and flushes to 1, a snapshot reads pre-images from 0. As a `Case`,
/// `[Snapshot, Cache]` passed every oracle of [`Case::check`] while the
/// cache journalled into the snapshot's session 0, the primary,
/// overwriting 63 of its sectors 0–63 (none with the cache alone). Two
/// owners of the replica sessions are refused.
#[test]
fn two_replica_session_owners_are_refused() {
    let (stage, behind) = ("cache", "snapshot");
    let order = check_order([Svc::Snapshot, Svc::Cache].map(Svc::kind));
    assert_eq!(order, Err(CatalogError::Hidden { stage, behind }));
}
