//! Side actions on a multi-queue flow leave in the flow's own protocol.
//!
//! PDUs a service emits outside the data path — a write acknowledged from
//! a journal-commit completion, a read served from a replica — used to be
//! encoded as iSCSI unconditionally, which put an iSCSI PDU on an nvmeq
//! stream and killed the session. Both scenarios run the nvmeq transport
//! through an active relay and must complete every round with verified
//! read-back and zero client errors.

use bytes::Bytes;
use storm::cloud::{Cloud, CloudConfig, IoCtx, IoKind, IoResult, ReqId, VolumeHandle, Workload};
use storm::core::relay::{ActiveRelayMb, ReplicaTarget};
use storm::core::service::StorageService;
use storm::core::{MbSpec, RelayMode, StormPlatform};
use storm::iscsi::TransportKind;
use storm::services::{CacheConfig, ReplicationService, WriteBackCacheService};
use storm_sim::SimTime;

const ROUNDS: usize = 12;
const BYTES: usize = 16 * 1024;

/// Writes a per-round pattern, reads it back, verifies, repeats.
#[derive(Default)]
struct WriteReadVerify {
    verified: usize,
    wrote: Option<ReqId>,
    read: Option<ReqId>,
}

impl WriteReadVerify {
    fn lba(round: usize) -> u64 {
        64 + (round * BYTES / 512) as u64
    }

    fn pattern(round: usize) -> Vec<u8> {
        (0..BYTES)
            .map(|i| ((i * 3 + 11 + round * 7) % 251) as u8)
            .collect()
    }

    fn write(&mut self, io: &mut IoCtx<'_>) {
        let round = self.verified;
        self.wrote = Some(io.write(Self::lba(round), Bytes::from(Self::pattern(round))));
    }
}

impl Workload for WriteReadVerify {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        self.write(io);
    }
    fn completed(&mut self, io: &mut IoCtx<'_>, req: ReqId, _kind: IoKind, result: IoResult) {
        assert!(result.ok, "I/O failed in round {}", self.verified);
        if self.wrote.take_if(|w| *w == req).is_some() {
            self.read = Some(io.read(Self::lba(self.verified), (BYTES / 512) as u32));
        } else if self.read.take_if(|r| *r == req).is_some() {
            assert_eq!(
                &result.data[..],
                &Self::pattern(self.verified)[..],
                "read-back mismatch in round {}",
                self.verified
            );
            self.verified += 1;
            if self.verified == ROUNDS {
                io.stop();
            } else {
                self.write(io);
            }
        }
    }
}

/// Runs the workload over nvmeq through one active relay carrying
/// `service`, with `replicas(vol, spare)` attached, and hands the relay
/// to `inspect` once every round has verified.
fn run(
    service: Box<dyn StorageService>,
    replicas: impl Fn(&VolumeHandle, &VolumeHandle) -> Vec<VolumeHandle>,
    inspect: impl Fn(&ActiveRelayMb),
) {
    let mut cloud = Cloud::build(CloudConfig {
        transport: TransportKind::Nvmeq,
        storage_hosts: 2,
        ..CloudConfig::default()
    });
    let platform = StormPlatform::default();
    let vol = cloud.create_volume(64 << 20, 0);
    let spare = cloud.create_volume(64 << 20, 1);
    let replicas = replicas(&vol, &spare)
        .iter()
        .map(|v| ReplicaTarget {
            portal: v.portal,
            iqn: v.iqn.clone(),
        })
        .collect();
    let mbs = vec![MbSpec {
        host_idx: 3,
        mode: RelayMode::Active,
        services: vec![service],
        replicas,
    }];
    let deployment = platform.deploy_chain(&mut cloud, &vol, (1, 2), mbs);
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:nvq-side",
        &vol,
        Box::new(WriteReadVerify::default()),
        21,
        false,
    );
    cloud.net.run_until(SimTime::from_nanos(10_000_000_000));
    let client = cloud.client_mut(0, app);
    assert!(client.is_ready(), "connect failed");
    assert_eq!(client.transport().kind(), TransportKind::Nvmeq);
    assert_eq!(client.stats.errors, 0, "client saw I/O errors");
    let verified = client
        .workload_ref()
        .unwrap()
        .downcast_ref::<WriteReadVerify>()
        .unwrap()
        .verified;
    assert_eq!(verified, ROUNDS, "every round must read back what it wrote");
    let relay = cloud
        .net
        .app_mut(deployment.mb_nodes[0].node, deployment.mb_apps[0].unwrap())
        .unwrap()
        .downcast_mut::<ActiveRelayMb>()
        .unwrap();
    inspect(relay);
}

/// The write-back cache acknowledges each write from its journal-commit
/// completion (`on_replica_done` → `Reply`) and flushes on a timer.
#[test]
fn write_back_cache_acks_from_replica_completion_over_nvmeq() {
    run(
        Box::new(WriteBackCacheService::new(CacheConfig::default())),
        // Replica 0 is the journal, replica 1 the primary (flush path).
        |vol, journal| vec![journal.clone(), vol.clone()],
        |relay| {
            let cache = relay.service(0).unwrap();
            let stats = cache.downcast_ref::<WriteBackCacheService>().unwrap().stats;
            assert_eq!(stats.writes_absorbed, ROUNDS as u64);
            assert!(stats.flushes > 0, "the flush timer must have fired");
        },
    );
}

/// Replication stripes reads to the replica and serves them from its
/// completion (`on_replica_done` → `Reply`).
#[test]
fn replica_served_reads_reply_over_nvmeq() {
    run(
        Box::new(ReplicationService::new(1, true)),
        |_vol, replica| vec![replica.clone()],
        |relay| {
            let rep = relay.service(0).unwrap();
            let stats = rep.downcast_ref::<ReplicationService>().unwrap().stats;
            assert!(stats.replica_writes > 0, "writes must mirror to replica");
            assert!(stats.striped_reads > 0, "reads must stripe to the replica");
        },
    );
}
