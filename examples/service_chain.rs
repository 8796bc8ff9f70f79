//! Service chaining (paper §II-B): "a tenant concerned about data
//! security and audit logging can request both storage monitoring and
//! encryption service middle-boxes. StorM chains these middle-boxes so
//! that after the storage monitor records the I/O access, the data is
//! passed through the encryption box."
//!
//! This example deploys monitor → encryption in one active-relay
//! middle-box over a real ext-formatted volume: the monitor (first on the
//! write path) sees plaintext file operations; the volume stores
//! ciphertext.
//!
//! ```text
//! cargo run --release --example service_chain
//! ```

use storm::core::Reconstructor;
use storm::scenario::Spec;
use storm::services::{EncryptionService, MonitorConfig, MonitorService};
use storm::telemetry::analyze;
use storm::workloads::postmark::install_image;
use storm::workloads::{Accesses, OpClass, OpGroup, TraceWorkload};
use storm_block::{MemDisk, RecordingDevice};
use storm_extfs::ExtFs;
use storm_sim::{SimDuration, SimTime};

fn main() {
    // A volume with a filesystem and one audit-worthy file operation.
    let dev = RecordingDevice::new(MemDisk::with_capacity_bytes(128 << 20));
    let mut fs = ExtFs::mkfs(dev).unwrap();
    fs.mkdir("/finance").unwrap();
    fs.sync().unwrap();
    fs.device_mut().take_log();
    fs.create("/finance/q3-forecast.xlsx").unwrap();
    fs.write_file("/finance/q3-forecast.xlsx", 0, &vec![0x55; 16384])
        .unwrap();
    fs.sync().unwrap();
    let ops = fs.device_mut().take_log();
    let mut image = fs.into_device().unwrap().into_inner();

    // The chain: monitor first, then encryption — order matters.
    let recon = Reconstructor::from_device(&mut image, "").unwrap();
    let monitor = MonitorService::new(
        MonitorConfig {
            watch: vec!["/finance".into()],
            per_byte_cost: SimDuration::ZERO,
        },
        recon,
    );
    let encryption = EncryptionService::aes_xts(&[0x99; 64]);
    let spec = Spec {
        client_seed: 5,
        label: "vm:erp",
        volume_bytes: 128 << 20,
        services: vec![Box::new(monitor), Box::new(encryption)],
        traced: true,
        ..Spec::default()
    };
    let groups = vec![OpGroup {
        class: OpClass::Create,
        label: "create+write /finance/q3-forecast.xlsx".into(),
        accesses: Accesses::from_log(ops),
    }];
    let mut run = spec.build(TraceWorkload::new(groups), |_, volume| {
        install_image(&image, &mut volume.shared.clone());
    });
    run.run_until(SimTime::from_nanos(20_000_000_000));
    assert_eq!(run.client().stats.errors, 0);

    // The monitor (stage 1) saw the plaintext file operation...
    println!("audit log (stage 1 — monitor, sees plaintext):");
    for (at, msg) in run.relay().alerts() {
        println!("  [{at}] {msg}");
    }
    for e in run.service::<MonitorService>(0).analysis().iter().take(8) {
        println!("  {e}");
    }
    let (enc_bytes, _) = run.service::<EncryptionService>(1).counters();
    println!("\nstage 2 — encryption: {enc_bytes} bytes encrypted on the write path");

    // Telemetry: per-stage counters and the chain's latency attribution.
    // The Meta events the relay emitted at arm time label the service
    // rows by name (service:monitor, service:encryption).
    let relay = run.relay();
    println!(
        "\n[relay] alerts={} pdus_forwarded={}",
        relay.alerts().len(),
        relay.pdus_forwarded()
    );
    let stats = &run.client().stats;
    println!(
        "[client] ops={} latency mean={} p99={}",
        stats.ops(),
        stats.latency.mean(),
        stats.latency.percentile(99.0)
    );
    let recorder = run.recorder();
    let report = analyze::attribute(&recorder.events());
    print!("\n[trace] {} events\n{}", recorder.len(), report.table());

    // ...while the volume holds ciphertext.
    let mut fs_check = ExtFs::mount(run.volume.shared.clone());
    match fs_check {
        Ok(ref mut f) => {
            let data = f.read_file_to_end("/finance/q3-forecast.xlsx");
            match data {
                Ok(d) if d.iter().all(|&b| b == 0x55) => {
                    panic!("volume holds plaintext — encryption failed")
                }
                _ => println!("volume-side read of the file fails or yields ciphertext ✓"),
            }
        }
        Err(_) => println!("volume metadata unreadable without the key ✓"),
    }
}
