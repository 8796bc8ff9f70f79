//! End-to-end service tests: the paper's three case studies running in
//! middle-boxes on the full spliced path.

use bytes::Bytes;
use storm::core::relay::ActiveRelayMb;
use storm::core::{FsOp, FsTargetKind, RelayMode};
use storm::scenario::{Case, Load, Replica, Spec, Svc};
use storm::services::{DedupService, EncryptionService, MonitorService, ReplicationService};
use storm::workloads::{malware, ShadowWorkload, TraceWorkload};
use storm_block::{AccessKind, BlockDevice};
use storm_sim::{SimDuration, SimTime};

const TEN_SECS: SimTime = SimTime::from_nanos(10_000_000_000);

/// Runs one verified round of `bytes` at `lba` through `spec` and returns
/// what the volume holds there afterwards.
fn verified_at_rest(spec: Spec, lba: u64, bytes: usize) -> Vec<u8> {
    let mut run = spec.build(ShadowWorkload::new(lba, bytes), |_, _| {});
    run.run_until(TEN_SECS);
    assert_eq!(run.client().stats.errors, 0);
    assert_eq!(run.workload::<ShadowWorkload>().verified(), 1);
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
    let plain = ShadowWorkload::payload(0, 0, 32 * 1024);
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
        mode: Some(RelayMode::Passive),
        services: vec![Box::new(EncryptionService::stream_cipher(
            &[0x77; 32],
            &[0x13; 12],
        ))],
        ..Spec::default()
    };
    let mut at_rest = verified_at_rest(spec, 512, 16 * 1024);
    let plain = ShadowWorkload::payload(0, 0, 16 * 1024);
    assert_ne!(at_rest, plain, "volume must hold ciphertext");
    // The keystream at the right volume offset recovers the data.
    let c = storm_crypto::ChaCha20::new(&[0x77; 32], &[0x13; 12]);
    c.apply_keystream_at(512 * 512, &mut at_rest);
    assert_eq!(at_rest, plain);
}

/// Case 2 with the stream cipher in the active relay, on both transports:
/// reads and writes of 4–64 KiB, some in flight at once, verify against
/// the shadow model whatever share of the keystream the helper core
/// computed ahead, and once the guest is idle the service keeps nothing
/// for any command.
#[test]
fn stream_cipher_keeps_no_command_once_the_guest_is_idle() {
    use storm::block::transport::TransportKind;
    for transport in [TransportKind::Iscsi, TransportKind::Nvmeq] {
        let spec = Spec {
            client_seed: 11,
            transport,
            label: "vm:stream",
            services: vec![Box::new(EncryptionService::stream_cipher(
                &[0x77; 32],
                &[0x13; 12],
            ))],
            ..Spec::default()
        };
        let load = ShadowWorkload::new(64, 64 * 1024).rounds(4).depth(4);
        let mut run = spec.build(load, |_, _| {});
        run.run_until(TEN_SECS);
        assert_eq!(run.client().stats.errors, 0, "{transport:?}");
        assert_eq!(
            run.workload::<ShadowWorkload>().verified(),
            16,
            "{transport:?}"
        );
        let enc = run.service::<EncryptionService>(0);
        assert!(
            enc.counters().0 > 0 && enc.counters().1 > 0,
            "{transport:?}"
        );
        assert_eq!(enc.open_commands(), 0, "{transport:?}");
    }
}

/// Case 1 (monitor): file operations replayed over the wire are
/// reconstructed with paths, through the whole spliced chain. The volume
/// holds the pre-infection system image and the monitor is bootstrapped
/// from it (what the platform does at attach time).
#[test]
fn monitor_reconstructs_malware_install_over_the_wire() {
    let chain = vec![Svc::Monitor];
    let mut run = Case {
        chain,
        load: Load::Malware,
        ..Case::default()
    }
    .check();
    assert!(run.workload::<TraceWorkload>().is_finished());

    // Read the monitor's analysis out of the middle-box.
    let relay = run.relay();
    assert!(relay.pdus_forwarded() > 0);
    assert!(!relay.alerts().is_empty(), "watched /etc/init.d must alert");
    let rows = run.service::<MonitorService>(0).analysis();
    assert!(!rows.is_empty());
    // Every Table III artifact the steps name must appear in the log.
    let (_, steps) = malware::ganiw_trace(malware::build_system_image());
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
    let spec = Spec {
        client_seed: 10,
        label: "vm:db",
        spares: vec![64 << 20, 64 << 20],
        services: vec![Box::new(ReplicationService::new(2, true))],
        replicas: vec![Replica::Spare(0), Replica::Spare(1)],
        ..Spec::default()
    };
    let mut run = spec.build(ShadowWorkload::new(0, 4096).rounds(1500), |_, _| {});
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
    // before the failure.
    let mut buf = vec![0u8; 4096];
    run.spares[1].shared.clone().read(0, &mut buf).unwrap();
    let wrote = ShadowWorkload::payload(0, 0, 4096);
    assert_eq!(buf, wrote, "replica 2 missing mirrored write");
}

const DEDUP_ROUNDS: usize = 5;
const DEDUP_BYTES: usize = 32 * 1024;

/// `vms` tenant VMs each lay down the same five 32 KiB extents (every
/// extent different from the other four) at disjoint addresses through
/// one armed dedup middle-box. Verifies every byte round-trips and
/// survives at rest, and returns the service's stats.
///
/// The payloads are [`ShadowWorkload`]'s seeded noise, keyed by write
/// and not by address, so equal salts write equal extents: periodic data
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
        |vm: usize| ShadowWorkload::new(vm as u64 * 1024, DEDUP_BYTES).rounds(DEDUP_ROUNDS);
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
        let verified = run.workload_of::<ShadowWorkload>(vm, app).verified();
        assert_eq!(verified, DEDUP_ROUNDS, "vm {vm}");
        for round in 0..DEDUP_ROUNDS {
            let lba = (vm * 1024 + round * DEDUP_BYTES / 512) as u64;
            shared.read(lba, &mut at_rest).unwrap();
            let wrote = ShadowWorkload::payload(0, round, DEDUP_BYTES);
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
    let chain = vec![Svc::Monitor, Svc::Xts];
    let mut run = Case {
        chain,
        load: Load::Malware,
        ..Case::default()
    }
    .check();
    // All eight watched-path alerts of the trace: the monitor parsed what
    // the guest wrote, ahead of the cipher.
    assert_eq!(run.relay().alerts().len(), 8);
    // No block the trace wrote is at rest as written.
    let (groups, _) = malware::ganiw_trace(malware::build_system_image());
    let mut shared = run.volume.shared.clone();
    let accesses = groups.iter().flat_map(|g| &g.accesses);
    for write in accesses.filter(|a| a.kind == AccessKind::Write) {
        let mut at_rest = vec![0u8; write.data.len()];
        shared.read(write.lba, &mut at_rest).unwrap();
        assert_ne!(at_rest, write.data, "plaintext at rest at {}", write.lba);
    }
}

/// The trust boundary of Case 2: a tenant that cuts its write data off a
/// sector boundary gets that write refused by the encryption middle-box —
/// no panic, no plaintext towards storage — and the same connection goes
/// on to complete a well-formed write.
#[test]
fn encryption_middlebox_refuses_unaligned_write_and_carries_on() {
    use storm::block::transport::{BlockCmd, BlockOp, ScsiStatus, WireBuf};
    use storm::core::ActiveRelayConfig;
    use storm::iscsi::exchange::{data_out_train, scsi_command, status_response};
    use storm::iscsi::{Pdu, PduStream};
    use storm::net::{App, Cx, LinkSpec, Network, SockAddr, SockId};

    /// The PDUs `data` completes on `stream`.
    fn decode(stream: &mut PduStream, data: Bytes) -> Vec<Pdu> {
        let pdus = stream.feed_bytes(data).unwrap();
        pdus.into_iter().map(|pw| pw.pdu).collect()
    }

    /// A raw initiator: streams a prepared wire image, decodes what returns.
    struct Tenant {
        to: SockAddr,
        q: WireBuf,
        stream: PduStream,
        got: Vec<Pdu>,
    }
    impl App for Tenant {
        fn on_start(&mut self, cx: &mut Cx<'_>) {
            cx.connect(self.to);
        }
        fn on_connected(&mut self, cx: &mut Cx<'_>, sock: SockId) {
            self.q.send(|c| cx.send_chunks(sock, c));
        }
        fn on_writable(&mut self, cx: &mut Cx<'_>, sock: SockId) {
            self.q.send(|c| cx.send_chunks(sock, c));
        }
        fn on_data(&mut self, _cx: &mut Cx<'_>, _sock: SockId, data: Bytes) {
            self.got.extend(decode(&mut self.stream, data));
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
            for pdu in decode(&mut self.stream, data) {
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
    let mut wire = vec![scsi_command(write(100, 6), 1, 1, 1, Bytes::new())];
    // 100 bytes of a sector, then a well-formed rest that must not pass
    // either: its command is dead.
    wire.extend(data_out_train(1, 1, 1, &plain, 0..100, 100));
    wire.extend(data_out_train(1, 1, 1, &plain, 512..3072, 1024));
    wire.push(scsi_command(write(8, 2), 2, 2, 1, good.clone()));

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
    let mut q = WireBuf::new();
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
            scsi_command(write(8, 2), 2, 2, 1, Bytes::from(stored))
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
    // The refused write's last data byte went by: nothing is kept for it.
    let enc = relay.service_mut(0).unwrap();
    assert_eq!(
        enc.downcast_mut::<EncryptionService>()
            .unwrap()
            .open_commands(),
        0
    );
}
