//! Per-hop latency attribution for an encrypted FTP transfer — the
//! software analogue of the paper's Figure 10 CPU breakdown.
//!
//! An FTP server VM uploads a file over a StorM encryption middle-box
//! (active relay). Every layer reports trace events through the armed
//! recorder: the guest's virtio work, gateway forwarding, the relay
//! framework, the cipher service, the target's CPU and the disk model.
//! The analyzer stitches them per request (source port + ITT) and prints
//! which hop dominates end-to-end latency.
//!
//! ```text
//! cargo run --release --example trace_breakdown
//! ```

use storm::scenario::Spec;
use storm::services::EncryptionService;
use storm::telemetry::analyze;
use storm::workloads::{FtpDirection, FtpWorkload};
use storm_sim::{SimDuration, SimTime};

fn main() {
    let mut cipher = EncryptionService::stream_cipher(&[0x11u8; 32], &[0x22u8; 12]);
    cipher.set_per_byte_cost(SimDuration::from_nanos(4));
    let spec = Spec {
        client_seed: 7,
        label: "vm:ftp",
        volume_bytes: 256 << 20,
        services: vec![Box::new(cipher)],
        traced: true,
        ..Spec::default()
    };
    let total = 16u64 << 20;
    let mut run = spec.build(FtpWorkload::new(FtpDirection::Upload, total), |_, _| {});
    run.run_until(SimTime::from_nanos(30_000_000_000));

    assert_eq!(run.client().stats.errors, 0);
    let w = run.workload::<FtpWorkload>();
    println!(
        "uploaded {} MiB at {:.1} MB/s through the encryption middle-box",
        w.done_bytes >> 20,
        w.throughput_mbps().expect("transfer finished")
    );

    let recorder = run.recorder();
    let report = analyze::attribute(&recorder.events());
    println!("\nlatency attribution ({} trace events):", recorder.len());
    print!("{}", report.table());
    let sum: f64 = report.rows.iter().map(|r| r.share).sum();
    assert!((sum - 100.0).abs() < 0.5, "shares sum to {sum}%");
    assert!(
        report.rows.iter().any(|r| r.label == "service:encryption"),
        "cipher stage missing from trace"
    );
}
