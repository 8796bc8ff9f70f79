//! End-to-end service tests: the paper's three case studies running in
//! middle-boxes on the full spliced path.

use bytes::Bytes;
use storm::cloud::{Cloud, CloudConfig, IoCtx, IoKind, IoResult, ReqId, Workload};
use storm::core::relay::{ActiveRelayMb, ReplicaTarget};
use storm::core::{FsOp, FsTargetKind, MbSpec, Reconstructor, RelayMode, StormPlatform};
use storm::services::{
    DedupService, EncryptionService, MonitorConfig, MonitorService, ReplicationService,
};
use storm::workloads::{malware, postmark, TraceWorkload};
use storm_block::BlockDevice;
use storm_sim::{SimDuration, SimRng, SimTime};

struct VerifyWorkload {
    wrote: Option<ReqId>,
    read: Option<ReqId>,
    verified: bool,
    lba: u64,
    bytes: usize,
}

impl VerifyWorkload {
    fn new(lba: u64, bytes: usize) -> Self {
        VerifyWorkload {
            wrote: None,
            read: None,
            verified: false,
            lba,
            bytes,
        }
    }
    fn pattern(&self) -> Vec<u8> {
        (0..self.bytes)
            .map(|i| ((i * 3 + 11) % 251) as u8)
            .collect()
    }
}

impl Workload for VerifyWorkload {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        self.wrote = Some(io.write(self.lba, Bytes::from(self.pattern())));
    }
    fn completed(&mut self, io: &mut IoCtx<'_>, req: ReqId, _kind: IoKind, result: IoResult) {
        assert!(result.ok);
        if Some(req) == self.wrote {
            self.read = Some(io.read(self.lba, (self.bytes / 512) as u32));
        } else if Some(req) == self.read {
            assert_eq!(&result.data[..], &self.pattern()[..]);
            self.verified = true;
            io.stop();
        }
    }
}

/// Case 2 (encryption): plaintext in the VM, ciphertext at rest.
#[test]
fn encryption_middlebox_encrypts_at_rest() {
    let mut cloud = Cloud::build(CloudConfig::default());
    let platform = StormPlatform::default();
    let vol = cloud.create_volume(64 << 20, 0);
    let enc = EncryptionService::aes_xts(&[0x5C; 64]);
    let mbs = vec![MbSpec::with_services(
        3,
        RelayMode::Active,
        vec![Box::new(enc)],
    )];
    let deployment = platform.deploy_chain(&mut cloud, &vol, (1, 2), mbs);
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:enc",
        &vol,
        Box::new(VerifyWorkload::new(4096, 32 * 1024)),
        7,
        false,
    );
    cloud.net.run_until(SimTime::from_nanos(10_000_000_000));
    let client = cloud.client_mut(0, app);
    assert!(
        client
            .workload_ref()
            .unwrap()
            .downcast_ref::<VerifyWorkload>()
            .unwrap()
            .verified
    );
    // At rest: the backing volume holds ciphertext, not the pattern.
    let mut shared = vol.shared.clone();
    let mut at_rest = vec![0u8; 32 * 1024];
    shared.read(4096, &mut at_rest).unwrap();
    let plain: Vec<u8> = (0..32 * 1024).map(|i| ((i * 3 + 11) % 251) as u8).collect();
    assert_ne!(at_rest, plain, "volume must hold ciphertext");
    // Decrypting at rest with the tenant key yields the plaintext.
    let xts = storm_crypto::AesXts::from_master_key(&[0x5C; 64]);
    xts.decrypt_run(4096, 512, &mut at_rest);
    assert_eq!(at_rest, plain);
}

/// Case 2 on the passive path: the stream cipher transforms packets in
/// flight.
#[test]
fn passive_stream_cipher_encrypts_at_rest() {
    let mut cloud = Cloud::build(CloudConfig::default());
    let platform = StormPlatform::default();
    let vol = cloud.create_volume(64 << 20, 0);
    let enc = EncryptionService::stream_cipher(&[0x77; 32], &[0x13; 12]);
    let mbs = vec![MbSpec::with_services(
        3,
        RelayMode::Passive,
        vec![Box::new(enc)],
    )];
    let deployment = platform.deploy_chain(&mut cloud, &vol, (1, 2), mbs);
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:stream",
        &vol,
        Box::new(VerifyWorkload::new(512, 16 * 1024)),
        8,
        false,
    );
    cloud.net.run_until(SimTime::from_nanos(10_000_000_000));
    let client = cloud.client_mut(0, app);
    assert!(
        client
            .workload_ref()
            .unwrap()
            .downcast_ref::<VerifyWorkload>()
            .unwrap()
            .verified
    );
    let mut shared = vol.shared.clone();
    let mut at_rest = vec![0u8; 16 * 1024];
    shared.read(512, &mut at_rest).unwrap();
    let plain: Vec<u8> = (0..16 * 1024).map(|i| ((i * 3 + 11) % 251) as u8).collect();
    assert_ne!(at_rest, plain, "volume must hold ciphertext");
    // The keystream at the right volume offset recovers the data.
    let c = storm_crypto::ChaCha20::new(&[0x77; 32], &[0x13; 12]);
    c.apply_keystream_at(512 * 512, &mut at_rest);
    assert_eq!(at_rest, plain);
}

/// Case 1 (monitor): file operations replayed over the wire are
/// reconstructed with paths, through the whole spliced chain.
#[test]
fn monitor_reconstructs_malware_install_over_the_wire() {
    let mut cloud = Cloud::build(CloudConfig::default());
    let platform = StormPlatform::default();
    let vol = cloud.create_volume(192 << 20, 0);

    // Install the pre-infection system image on the volume.
    let mut image = malware::build_system_image();
    let (groups, steps) = malware::ganiw_trace(image.clone());
    postmark::install_image(&mut image, &mut vol.shared.clone());

    // Bootstrap the monitor from the attached volume (what the platform
    // does at attach time).
    let recon = Reconstructor::from_device(&mut vol.shared.clone(), "").unwrap();
    let monitor = MonitorService::new(
        MonitorConfig {
            watch: vec!["/etc/init.d".into()],
            per_byte_cost: SimDuration::ZERO,
        },
        recon,
    );
    let mbs = vec![MbSpec::with_services(
        3,
        RelayMode::Active,
        vec![Box::new(monitor)],
    )];
    let deployment = platform.deploy_chain(&mut cloud, &vol, (1, 2), mbs);
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:victim",
        &vol,
        Box::new(TraceWorkload::new(groups)),
        9,
        false,
    );
    cloud.net.run_until(SimTime::from_nanos(30_000_000_000));
    let client = cloud.client_mut(0, app);
    assert_eq!(client.stats.errors, 0);
    assert!(client
        .workload_ref()
        .unwrap()
        .downcast_ref::<TraceWorkload>()
        .unwrap()
        .is_finished());

    // Read the monitor's analysis out of the middle-box.
    let mb_node = deployment.mb_nodes[0].node;
    let mb_app = deployment.mb_apps[0].unwrap();
    let relay = cloud
        .net
        .app_mut(mb_node, mb_app)
        .unwrap()
        .downcast_mut::<ActiveRelayMb>()
        .unwrap();
    assert!(relay.pdus_forwarded() > 0);
    assert!(!relay.alerts().is_empty(), "watched /etc/init.d must alert");
    let monitor = relay
        .service(0)
        .unwrap()
        .downcast_ref::<MonitorService>()
        .unwrap();
    let rows = monitor.analysis();
    assert!(!rows.is_empty());
    // Every Table III artifact the steps name must appear in the log.
    for step in &steps {
        for touched in &step.touches {
            let seen = rows.iter().any(|e| match &e.row.target {
                FsTargetKind::File { path } | FsTargetKind::Dir { path } => path == touched,
                _ => false,
            });
            assert!(seen, "monitor missed {touched} ({})", step.description);
        }
    }
    // Reads of the GeoIP database are reconstructed as reads.
    assert!(rows.iter().any(|e| e.row.op == FsOp::Read
        && matches!(&e.row.target, FsTargetKind::File { path } if path == "/usr/share/GeoIP/GeoIPv6.dat")));
}

/// Case 3 (replication): writes hit every replica; a failed replica is
/// removed while the client keeps running (the Figure 13 scenario).
#[test]
fn replication_mirrors_and_survives_replica_failure() {
    let mut cloud = Cloud::build(CloudConfig {
        storage_hosts: 3,
        ..CloudConfig::default()
    });
    let platform = StormPlatform::default();
    let vol = cloud.create_volume(64 << 20, 0);
    let rep1 = cloud.create_volume(64 << 20, 1);
    let rep2 = cloud.create_volume(64 << 20, 2);
    let svc = ReplicationService::new(2, true);
    let mbs = vec![MbSpec {
        host_idx: 3,
        mode: RelayMode::Active,
        services: vec![Box::new(svc)],
        replicas: vec![
            ReplicaTarget {
                portal: rep1.portal,
                iqn: rep1.iqn.clone(),
            },
            ReplicaTarget {
                portal: rep2.portal,
                iqn: rep2.iqn.clone(),
            },
        ],
    }];
    let deployment = platform.deploy_chain(&mut cloud, &vol, (1, 2), mbs);

    /// Writes then reads blocks repeatedly; tolerates no errors.
    struct Churn {
        rounds: usize,
        issued: usize,
        next_is_read: bool,
    }
    impl Workload for Churn {
        fn start(&mut self, io: &mut IoCtx<'_>) {
            io.write(0, Bytes::from(vec![1u8; 4096]));
        }
        fn completed(&mut self, io: &mut IoCtx<'_>, _r: ReqId, _k: IoKind, result: IoResult) {
            assert!(result.ok, "client I/O failed");
            self.issued += 1;
            if self.issued >= self.rounds {
                io.stop();
                return;
            }
            let lba = (self.issued as u64 % 64) * 8;
            if self.next_is_read {
                io.read(lba, 8);
            } else {
                io.write(lba, Bytes::from(vec![(self.issued % 251) as u8; 4096]));
            }
            self.next_is_read = !self.next_is_read;
        }
    }
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:db",
        &vol,
        Box::new(Churn {
            rounds: 3000,
            issued: 0,
            next_is_read: false,
        }),
        10,
        false,
    );
    // Run briefly, then fail replica 1's backing volume mid-workload.
    cloud.net.run_for(SimDuration::from_millis(50));
    rep1.shared.fail();
    cloud.net.run_until(SimTime::from_nanos(60_000_000_000));

    let client = cloud.client_mut(0, app);
    assert_eq!(client.stats.errors, 0, "client must not see the failure");
    assert!(client.stats.ops() >= 3000, "ops: {}", client.stats.ops());

    let mb_node = deployment.mb_nodes[0].node;
    let mb_app = deployment.mb_apps[0].unwrap();
    let relay = cloud
        .net
        .app_mut(mb_node, mb_app)
        .unwrap()
        .downcast_mut::<ActiveRelayMb>()
        .unwrap();
    let svc = relay
        .service(0)
        .unwrap()
        .downcast_ref::<ReplicationService>()
        .unwrap();
    assert_eq!(svc.alive_replicas(), 1, "failed replica must be removed");
    assert!(svc.stats.replica_writes > 0);
    assert!(svc.stats.striped_reads > 0);
    assert!(relay.alerts().iter().any(|(_, m)| m.contains("replica")));
    // The surviving replica holds the mirrored writes: block 0 was written
    // with 1s before the failure.
    let mut buf = vec![0u8; 4096];
    rep2.shared.clone().read(0, &mut buf).unwrap();
    assert!(
        buf.iter().all(|&b| b == 1),
        "replica 2 missing mirrored write"
    );
}

/// Writes a fixed set of `(lba, payload)` pairs one at a time, then
/// reads each back and verifies the bytes byte-for-byte.
struct WriteReadVerify {
    ops: Vec<(u64, Bytes)>,
    next_write: usize,
    next_read: usize,
    verified: bool,
}

impl WriteReadVerify {
    fn new(ops: Vec<(u64, Bytes)>) -> Self {
        WriteReadVerify {
            ops,
            next_write: 0,
            next_read: 0,
            verified: false,
        }
    }
}

impl Workload for WriteReadVerify {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        let (lba, data) = self.ops[0].clone();
        self.next_write = 1;
        io.write(lba, data);
    }

    fn completed(&mut self, io: &mut IoCtx<'_>, _req: ReqId, kind: IoKind, result: IoResult) {
        assert!(result.ok, "I/O failed");
        if kind == IoKind::Read {
            let (_, expected) = &self.ops[self.next_read - 1];
            assert_eq!(
                &result.data[..],
                &expected[..],
                "read-back mismatch at op {}",
                self.next_read - 1
            );
        }
        if self.next_write < self.ops.len() {
            let (lba, data) = self.ops[self.next_write].clone();
            self.next_write += 1;
            io.write(lba, data);
        } else if self.next_read < self.ops.len() {
            let (lba, data) = self.ops[self.next_read].clone();
            self.next_read += 1;
            io.read(lba, (data.len() / 512) as u32);
        } else {
            self.verified = true;
            io.stop();
        }
    }
}

/// Runs `ops` through an armed dedup middle-box, verifies every byte
/// round-trips and survives at rest, and returns the service's stats.
fn dedup_roundtrip(seed: u64, ops: Vec<(u64, Bytes)>) -> storm::services::DedupStats {
    let mut cloud = Cloud::build(CloudConfig::default());
    let platform = StormPlatform::default();
    let vol = cloud.create_volume(64 << 20, 0);
    let svc = DedupService::new(seed, 12);
    let mbs = vec![MbSpec::with_services(
        3,
        RelayMode::Active,
        vec![Box::new(svc)],
    )];
    let deployment = platform.deploy_chain(&mut cloud, &vol, (1, 2), mbs);
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:dedup",
        &vol,
        Box::new(WriteReadVerify::new(ops.clone())),
        seed,
        false,
    );
    cloud.net.run_until(SimTime::from_nanos(10_000_000_000));
    let client = cloud.client_mut(0, app);
    assert!(
        client
            .workload_ref()
            .unwrap()
            .downcast_ref::<WriteReadVerify>()
            .unwrap()
            .verified
    );
    // Dedup is inspection-only: the exact bytes sit at rest.
    let mut shared = vol.shared.clone();
    for (lba, data) in &ops {
        let mut at_rest = vec![0u8; data.len()];
        shared.read(*lba, &mut at_rest).unwrap();
        assert_eq!(&at_rest[..], &data[..], "at-rest bytes diverge at {lba}");
    }
    let relay = cloud
        .net
        .app_mut(deployment.mb_nodes[0].node, deployment.mb_apps[0].unwrap())
        .unwrap()
        .downcast_mut::<ActiveRelayMb>()
        .unwrap();
    relay
        .service(0)
        .unwrap()
        .downcast_ref::<DedupService>()
        .unwrap()
        .stats
}

/// Random (not patterned) payloads: periodic data degenerates CDC to
/// fixed max-size cuts, hiding the behaviour under test.
fn random_payload(rng: &mut SimRng, bytes: usize) -> Bytes {
    let mut buf = vec![0u8; bytes];
    rng.fill(&mut buf);
    Bytes::from(buf)
}

/// Duplicate-heavy workload through the dedup middle-box: the same
/// content written to many places dedups well past the 1.5x acceptance
/// floor, and the data itself is untouched in flight and at rest.
#[test]
fn dedup_reduces_duplicate_heavy_workload() {
    let mut rng = SimRng::seed_from_u64(0xD1D1);
    let a = random_payload(&mut rng, 32 * 1024);
    let b = random_payload(&mut rng, 32 * 1024);
    // `a` written four times (three duplicates), `b` once.
    let ops = vec![
        (0, a.clone()),
        (64, a.clone()),
        (128, a.clone()),
        (192, a),
        (256, b),
    ];
    let stats = dedup_roundtrip(21, ops);
    assert!(stats.duplicate_chunks > 0, "{stats:?}");
    assert!(
        stats.reduction_ratio() >= 1.5,
        "duplicate-heavy ratio too low: {stats:?}"
    );
}

/// Unique, incompressible workload through the dedup middle-box: random
/// content with no repeats must not be miscounted as duplicate — the
/// ratio stays at 1.0 — and still round-trips byte-for-byte.
#[test]
fn dedup_is_honest_on_incompressible_workload() {
    let mut rng = SimRng::seed_from_u64(0xD2D2);
    let ops = (0..5)
        .map(|i| (i * 64, random_payload(&mut rng, 32 * 1024)))
        .collect();
    let stats = dedup_roundtrip(22, ops);
    assert_eq!(stats.duplicate_chunks, 0, "{stats:?}");
    assert!(
        stats.reduction_ratio() < 1.01,
        "unique data must not dedup: {stats:?}"
    );
    assert!(stats.chunks > 5, "CDC must cut sub-payload chunks");
}

/// Service chaining (paper §II-B): monitor + encryption in ONE middle-box;
/// the monitor sees plaintext, the volume sees ciphertext.
#[test]
fn chained_monitor_then_encryption() {
    let mut cloud = Cloud::build(CloudConfig::default());
    let platform = StormPlatform::default();
    let vol = cloud.create_volume(64 << 20, 0);
    // A raw (unformatted) volume has nothing to reconstruct; stage one is
    // a counting passthrough standing in for any inspection service.
    let monitor_counts = storm::core::service::PassthroughService::new();
    let enc = EncryptionService::aes_xts(&[0xD4; 64]);
    let mbs = vec![MbSpec::with_services(
        3,
        RelayMode::Active,
        vec![Box::new(monitor_counts), Box::new(enc)],
    )];
    let deployment = platform.deploy_chain(&mut cloud, &vol, (1, 2), mbs);
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:chain",
        &vol,
        Box::new(VerifyWorkload::new(1024, 8192)),
        11,
        false,
    );
    cloud.net.run_until(SimTime::from_nanos(10_000_000_000));
    let client = cloud.client_mut(0, app);
    assert!(
        client
            .workload_ref()
            .unwrap()
            .downcast_ref::<VerifyWorkload>()
            .unwrap()
            .verified
    );
    // Ciphertext at rest proves the encryption stage ran *after* the
    // monitor stage on the write path.
    let mut at_rest = vec![0u8; 8192];
    vol.shared.clone().read(1024, &mut at_rest).unwrap();
    let plain: Vec<u8> = (0..8192).map(|i| ((i * 3 + 11) % 251) as u8).collect();
    assert_ne!(at_rest, plain);
    let relay = cloud
        .net
        .app_mut(deployment.mb_nodes[0].node, deployment.mb_apps[0].unwrap())
        .unwrap()
        .downcast_mut::<ActiveRelayMb>()
        .unwrap();
    let pt = relay
        .service(0)
        .unwrap()
        .downcast_ref::<storm::core::service::PassthroughService>()
        .unwrap();
    assert!(pt.pdus() > 4, "first chain stage saw the PDUs");
}

/// The trust boundary of Case 2: a tenant that cuts its write data off a
/// sector boundary gets that write refused by the encryption middle-box —
/// no panic, no plaintext towards storage — and the same connection goes
/// on to complete a well-formed write.
#[test]
fn encryption_middlebox_refuses_unaligned_write_and_carries_on() {
    use storm::core::ActiveRelayConfig;
    use storm::iscsi::exchange::{data_out_train, status_response, BlockCmd, BlockOp};
    use storm::iscsi::{Pdu, PduStream, ScsiStatus};
    use storm::net::{App, Cx, LinkSpec, Network, SendQueue, SockAddr, SockId};

    /// A raw initiator: streams a prepared wire image, decodes what returns.
    struct Tenant {
        to: SockAddr,
        q: SendQueue,
        stream: PduStream,
        got: Vec<Pdu>,
    }
    impl App for Tenant {
        fn on_start(&mut self, cx: &mut Cx<'_>) {
            cx.connect(self.to);
        }
        fn on_connected(&mut self, cx: &mut Cx<'_>, sock: SockId) {
            self.q.pump(cx, sock);
        }
        fn on_writable(&mut self, cx: &mut Cx<'_>, sock: SockId) {
            self.q.pump(cx, sock);
        }
        fn on_data(&mut self, _cx: &mut Cx<'_>, _sock: SockId, data: Bytes) {
            self.got.extend(self.stream.feed(&data).unwrap());
        }
    }

    /// Stands in for storage: records every PDU and acknowledges a write
    /// once its command carried all of its data.
    #[derive(Default)]
    struct Storage {
        stream: PduStream,
        got: Vec<Pdu>,
    }
    impl App for Storage {
        fn on_start(&mut self, cx: &mut Cx<'_>) {
            cx.listen(3260);
        }
        fn on_data(&mut self, cx: &mut Cx<'_>, sock: SockId, data: Bytes) {
            for pdu in self.stream.feed(&data).unwrap() {
                if let Pdu::ScsiCommand(c) = &pdu {
                    if c.data.len() == c.edtl as usize {
                        cx.send(sock, &status_response(c.itt, ScsiStatus::Good).encode());
                    }
                }
                self.got.push(pdu);
            }
        }
    }

    let write = |lba, sectors| BlockCmd {
        op: BlockOp::Write,
        lba,
        sectors,
    };
    let plain = Bytes::from((0..3072).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let good = plain.slice(..1024);
    let mut wire = vec![write(100, 6).command(1, 1, 1, Bytes::new())];
    // 100 bytes of a sector, then a well-formed rest that must not pass
    // either: its command is dead.
    wire.extend(data_out_train(1, 1, 1, &plain, 0..100, 100));
    wire.extend(data_out_train(1, 1, 1, &plain, 512..3072, 1024));
    wire.push(write(8, 2).command(2, 2, 1, good.clone()));

    let mut net = Network::new(7);
    let sw = net.add_switch("sw", 8);
    let hosts: Vec<_> = (1..=3u8)
        .map(|i| {
            let h = net.add_host(format!("h{i}"), 4);
            let iface = net.add_iface(h, [10, 0, 0, i].into());
            net.link_host_switch(h, iface, sw, LinkSpec::gigabit());
            h
        })
        .collect();
    let cfg = ActiveRelayConfig::new(SockAddr::new([10, 0, 0, 3].into(), 3260));
    let enc = EncryptionService::aes_xts(&[0x5C; 64]);
    let relay = ActiveRelayMb::new(cfg, vec![Box::new(enc)]);
    let storage = net.add_app(hosts[2], Box::new(Storage::default()));
    let mb = net.add_app(hosts[1], Box::new(relay));
    let mut q = SendQueue::new();
    q.push_all(wire.iter().map(|p| Bytes::from(p.encode())));
    let tenant = net.add_app(
        hosts[0],
        Box::new(Tenant {
            to: SockAddr::new([10, 0, 0, 2].into(), 13260),
            q,
            stream: PduStream::new(),
            got: Vec::new(),
        }),
    );
    net.run_until(SimTime::from_nanos(1_000_000_000));

    // Storage saw both commands, no byte of the refused write's data, and
    // the second write as ciphertext.
    let mut stored = good.to_vec();
    storm_crypto::AesXts::from_master_key(&[0x5C; 64]).encrypt_run(8, 512, &mut stored);
    let storage = net.app_mut(hosts[2], storage).unwrap();
    let storage = storage.downcast_mut::<Storage>().unwrap();
    assert_eq!(
        storage.got,
        [
            wire[0].clone(),
            write(8, 2).command(2, 2, 1, Bytes::from(stored))
        ]
    );
    // The tenant heard about both.
    let tenant = net.app_mut(hosts[0], tenant).unwrap();
    assert_eq!(
        tenant.downcast_mut::<Tenant>().unwrap().got,
        [
            status_response(1, ScsiStatus::CheckCondition),
            status_response(2, ScsiStatus::Good)
        ]
    );
    let relay = net.app_mut(hosts[1], mb).unwrap();
    let relay = relay.downcast_mut::<ActiveRelayMb>().unwrap();
    assert_eq!(relay.alerts().len(), 1, "{:?}", relay.alerts());
}
