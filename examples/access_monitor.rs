//! Case study 1: the storage access monitor catching a malware install.
//!
//! Replays the `HEUR:Backdoor.Linux.Ganiw.a` installation (Table III of
//! the paper) against a monitored volume and prints what the middle-box
//! reconstructed — all from raw block traffic, with zero software inside
//! the tenant VM.
//!
//! ```text
//! cargo run --release --example access_monitor
//! ```

use storm::core::semantics::FsEvent;
use storm::core::Reconstructor;
use storm::scenario::Spec;
use storm::services::{MonitorConfig, MonitorService};
use storm::workloads::malware;
use storm::workloads::postmark::install_image;
use storm::workloads::TraceWorkload;
use storm_sim::{SimDuration, SimTime};

fn main() {
    // A realistic pre-infection system image, and the scripted install.
    let mut image = malware::build_system_image();
    let (trace, steps) = malware::ganiw_trace(image.clone());
    println!(
        "replaying {} installation steps through the monitor...",
        steps.len()
    );

    // The tenant marks sensitive paths; the platform bootstraps the
    // monitor's system view (dumpe2fs) from the image the volume is
    // provisioned with.
    let recon = Reconstructor::from_device(&mut image, "").unwrap();
    let monitor = MonitorService::new(
        MonitorConfig {
            watch: vec!["/etc/init.d".into(), "/bin".into()],
            per_byte_cost: SimDuration::ZERO,
        },
        recon,
    );
    let spec = Spec {
        client_seed: 7,
        label: "vm:victim",
        volume_bytes: 256 << 20,
        services: vec![Box::new(monitor)],
        ..Spec::default()
    };
    let mut run = spec.build(TraceWorkload::new(trace), |_, volume| {
        install_image(&image, &mut volume.shared.clone());
    });
    run.run_until(SimTime::from_nanos(60_000_000_000));
    assert_eq!(run.client().stats.errors, 0);

    println!("\nalerts raised while the malware installed itself:");
    for (at, msg) in run.relay().alerts() {
        println!("  [{at}] {msg}");
    }
    let monitor = run.service::<MonitorService>(0);
    println!("\nfile creations inferred from metadata writes:");
    for ev in monitor.events() {
        if let FsEvent::Created { path, .. } = ev {
            println!("  {path}");
        }
    }
    println!("\nfirst 12 reconstructed accesses:");
    for entry in monitor.analysis().into_iter().take(12) {
        println!("  {entry}");
    }
}
