//! End-to-end service tests: the paper's three case studies running in
//! middle-boxes on the full spliced path.

use bytes::Bytes;
use storm::cloud::{IoCtx, IoKind, IoResult, ReqId, Workload};
use storm::core::relay::ActiveRelayMb;
use storm::core::service::PassthroughService;
use storm::core::{FsOp, FsTargetKind, Reconstructor, RelayMode};
use storm::scenario::{Replica, Spec};
use storm::services::{
    DedupService, EncryptionService, MonitorConfig, MonitorService, ReplicationService,
};
use storm::workloads::{malware, postmark, TraceWorkload, VerifyWorkload};
use storm_block::BlockDevice;
use storm_sim::{SimDuration, SimTime};

const TEN_SECS: SimTime = SimTime::from_nanos(10_000_000_000);

/// Runs one verified round of `bytes` at `lba` through `spec` and returns
/// what the volume holds there afterwards.
fn verified_at_rest(spec: Spec, lba: u64, bytes: usize) -> Vec<u8> {
    let mut run = spec.build(VerifyWorkload::new(lba, bytes), |_, _| {});
    run.run_until(TEN_SECS);
    assert_eq!(run.client().stats.errors, 0);
    assert_eq!(run.workload::<VerifyWorkload>().verified(), 1);
    let mut at_rest = vec![0u8; bytes];
    run.volume.shared.clone().read(lba, &mut at_rest).unwrap();
    at_rest
}

/// Case 2 (encryption): plaintext in the VM, ciphertext at rest.
#[test]
fn encryption_middlebox_encrypts_at_rest() {
    let spec = Spec {
        client_seed: 7,
        label: "vm:enc",
        services: vec![Box::new(EncryptionService::aes_xts(&[0x5C; 64]))],
        ..Spec::default()
    };
    let mut at_rest = verified_at_rest(spec, 4096, 32 * 1024);
    let plain = VerifyWorkload::pattern(0, 0, 32 * 1024);
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
    let spec = Spec {
        client_seed: 8,
        label: "vm:stream",
        mode: RelayMode::Passive,
        services: vec![Box::new(EncryptionService::stream_cipher(
            &[0x77; 32],
            &[0x13; 12],
        ))],
        ..Spec::default()
    };
    let mut at_rest = verified_at_rest(spec, 512, 16 * 1024);
    let plain = VerifyWorkload::pattern(0, 0, 16 * 1024);
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
    // The pre-infection system image the volume is provisioned with, and
    // the monitor bootstrapped from it (what the platform does at attach
    // time).
    let mut image = malware::build_system_image();
    let (groups, steps) = malware::ganiw_trace(image.clone());
    let recon = Reconstructor::from_device(&mut image, "").unwrap();
    let monitor = MonitorService::new(
        MonitorConfig {
            watch: vec!["/etc/init.d".into()],
            per_byte_cost: SimDuration::ZERO,
        },
        recon,
    );
    let spec = Spec {
        client_seed: 9,
        label: "vm:victim",
        volume_bytes: 192 << 20,
        services: vec![Box::new(monitor)],
        ..Spec::default()
    };
    let mut run = spec.build(TraceWorkload::new(groups), |_, vol| {
        postmark::install_image(&mut image, &mut vol.shared.clone());
    });
    run.run_until(SimTime::from_nanos(30_000_000_000));
    assert_eq!(run.client().stats.errors, 0);
    assert!(run.workload::<TraceWorkload>().is_finished());

    // Read the monitor's analysis out of the middle-box.
    let relay = run.relay();
    assert!(relay.pdus_forwarded() > 0);
    assert!(!relay.alerts().is_empty(), "watched /etc/init.d must alert");
    let rows = run.service::<MonitorService>(0).analysis();
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
    let spec = Spec {
        client_seed: 10,
        label: "vm:db",
        spares: vec![64 << 20, 64 << 20],
        services: vec![Box::new(ReplicationService::new(2, true))],
        replicas: vec![Replica::Spare(0), Replica::Spare(1)],
        ..Spec::default()
    };
    let churn = Churn {
        rounds: 3000,
        issued: 0,
        next_is_read: false,
    };
    let mut run = spec.build(churn, |_, _| {});
    // Run briefly, then fail replica 1's backing volume mid-workload.
    run.cloud.net.run_for(SimDuration::from_millis(50));
    run.spares[0].shared.fail();
    run.run_until(SimTime::from_nanos(60_000_000_000));

    let client = run.client();
    assert_eq!(client.stats.errors, 0, "client must not see the failure");
    assert!(client.stats.ops() >= 3000, "ops: {}", client.stats.ops());

    let svc = run.service::<ReplicationService>(0);
    assert_eq!(svc.alive_replicas(), 1, "failed replica must be removed");
    assert!(svc.stats.replica_writes > 0);
    assert!(svc.stats.striped_reads > 0);
    let alerts = run.relay().alerts();
    assert!(alerts.iter().any(|(_, m)| m.contains("replica")));
    // The surviving replica holds the mirrored writes: block 0 was written
    // with 1s before the failure.
    let mut buf = vec![0u8; 4096];
    run.spares[1].shared.clone().read(0, &mut buf).unwrap();
    assert!(
        buf.iter().all(|&b| b == 1),
        "replica 2 missing mirrored write"
    );
}

const DEDUP_ROUNDS: usize = 5;
const DEDUP_BYTES: usize = 32 * 1024;

/// `vms` tenant VMs each lay down the same five 32 KiB extents (every
/// extent different from the other four) at disjoint addresses through
/// one armed dedup middle-box. Verifies every byte round-trips and
/// survives at rest, and returns the service's stats.
///
/// The payloads are [`VerifyWorkload`]'s seeded noise: periodic data
/// degenerates CDC to fixed max-size cuts, hiding the behaviour under
/// test.
fn dedup_roundtrip(seed: u64, vms: usize) -> storm::services::DedupStats {
    let spec = Spec {
        client_seed: seed,
        label: "vm:dedup",
        services: vec![Box::new(DedupService::new(seed, 12))],
        ..Spec::default()
    };
    let workload =
        |vm: usize| VerifyWorkload::new(vm as u64 * 1024, DEDUP_BYTES).rounds(DEDUP_ROUNDS);
    let mut run = spec.build(workload(0), |_, _| {});
    let mut clients = vec![(0, run.app)];
    for vm in 1..vms {
        let app = run.attach(vm, "vm:dedup-clone", workload(vm), seed);
        clients.push((vm, app));
    }
    run.run_until(TEN_SECS);
    // Dedup is inspection-only: the exact bytes sit at rest.
    let mut shared = run.volume.shared.clone();
    let mut at_rest = vec![0u8; DEDUP_BYTES];
    for (vm, app) in clients {
        let verified = run.workload_of::<VerifyWorkload>(vm, app).verified();
        assert_eq!(verified, DEDUP_ROUNDS, "vm {vm}");
        for round in 0..DEDUP_ROUNDS {
            let lba = (vm * 1024 + round * DEDUP_BYTES / 512) as u64;
            shared.read(lba, &mut at_rest).unwrap();
            let wrote = VerifyWorkload::pattern(0, round, DEDUP_BYTES);
            assert_eq!(at_rest, wrote, "at-rest bytes diverge at {lba}");
        }
    }
    run.service::<DedupService>(0).stats
}

/// Duplicate-heavy workload through the dedup middle-box: the same
/// content written to many places (two VMs cloned from one image) dedups
/// well past the 1.5x acceptance floor, and the data itself is untouched
/// in flight and at rest.
#[test]
fn dedup_reduces_duplicate_heavy_workload() {
    let stats = dedup_roundtrip(21, 2);
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
    let stats = dedup_roundtrip(22, 1);
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
    // A raw (unformatted) volume has nothing to reconstruct; stage one is
    // a counting passthrough standing in for any inspection service.
    let spec = Spec {
        client_seed: 11,
        label: "vm:chain",
        services: vec![
            Box::new(PassthroughService::new()),
            Box::new(EncryptionService::aes_xts(&[0xD4; 64])),
        ],
        ..Spec::default()
    };
    let mut run = spec.build(VerifyWorkload::new(1024, 8192), |_, _| {});
    run.run_until(TEN_SECS);
    assert_eq!(run.workload::<VerifyWorkload>().verified(), 1);
    // Ciphertext at rest proves the encryption stage ran *after* the
    // monitor stage on the write path.
    let mut at_rest = vec![0u8; 8192];
    run.volume.shared.clone().read(1024, &mut at_rest).unwrap();
    assert_ne!(at_rest, VerifyWorkload::pattern(0, 0, 8192));
    let pdus = run.service::<PassthroughService>(0).pdus();
    assert!(pdus > 4, "first chain stage saw the PDUs");
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
    let relay: &mut ActiveRelayMb = net.app_mut(hosts[1], mb).unwrap().downcast_mut().unwrap();
    assert_eq!(relay.alerts().len(), 1, "{:?}", relay.alerts());
}
