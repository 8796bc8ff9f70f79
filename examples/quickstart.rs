//! Quickstart: build a cloud, deploy a StorM encryption middle-box for a
//! tenant volume, run I/O through it, and inspect the result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use bytes::Bytes;
use storm::cloud::{Cloud, CloudConfig, IoCtx, IoKind, IoResult, ReqId, Workload};
use storm::core::{MbSpec, RelayMode, ServiceSpec, StormPlatform, TenantPolicy, VolumePolicy};
use storm::services::catalog;
use storm::telemetry::{analyze, Recorder};
use storm_block::BlockDevice;
use storm_sim::SimTime;

/// A tiny workload: write a secret, read it back, verify.
struct Quickstart {
    write: Option<ReqId>,
    secret: Vec<u8>,
}

impl Workload for Quickstart {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        println!("[vm] volume attached; writing 4 KiB of sensitive data");
        self.write = Some(io.write(128, Bytes::from(self.secret.clone())));
    }
    fn completed(&mut self, io: &mut IoCtx<'_>, req: ReqId, kind: IoKind, result: IoResult) {
        assert!(result.ok);
        if Some(req) == self.write {
            println!("[vm] write acknowledged in {}", result.latency);
            io.read(128, 8);
        } else {
            assert_eq!(kind, IoKind::Read);
            assert_eq!(
                &result.data[..],
                &self.secret[..],
                "decryption must round-trip"
            );
            println!("[vm] read back and verified in {}", result.latency);
            io.stop();
        }
    }
}

fn main() {
    // 1. The tenant's policy document (what they submit to the provider).
    let policy = TenantPolicy {
        tenant: 1,
        volumes: vec![VolumePolicy {
            vm: "web-1".into(),
            volume_gb: 1,
            mode: RelayMode::Active,
            services: vec![ServiceSpec::new("encryption").param("cipher", "aes-256-xts")],
        }],
    };
    let vp = &policy.volumes[0];
    let services = catalog::build_chain(vp, None).expect("policy is well-formed");
    println!(
        "[policy] built: {} service(s) for vm {}",
        services.len(),
        vp.vm
    );

    // 2. The provider builds the cloud and deploys the chain, with the
    //    telemetry recorder armed across every layer.
    let mut cloud = Cloud::build(CloudConfig::default());
    let recorder = Arc::new(Recorder::new());
    cloud.set_trace_hook(Recorder::hook(&recorder));
    let platform = StormPlatform::default();
    let volume = cloud.create_volume(u64::from(vp.volume_gb) << 30, 0);
    let mbs = vec![MbSpec::with_services(3, vp.mode, services)];
    let deployment = platform.deploy_chain(&mut cloud, &volume, (1, 2), mbs);
    println!(
        "[platform] gateways on compute1/compute2, encryption middle-box on compute3 ({} chain rules)",
        deployment.forward_chain.rule_count()
    );

    // 3. Attach the volume with the paper's atomic steering window.
    let secret = b"attack at dawn..".repeat(256);
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        &format!("vm:{}", vp.vm),
        &volume,
        Box::new(Quickstart {
            write: None,
            secret: secret.clone(),
        }),
        1,
        false,
    );
    cloud.net.run_until(SimTime::from_nanos(5_000_000_000));

    // 4. The workload verified plaintext round-trips; check the at-rest
    //    bytes are ciphertext.
    let client = cloud.client_mut(0, app);
    assert!(client.is_ready());
    assert_eq!(client.stats.errors, 0);
    let mut at_rest = vec![0u8; 4096];
    volume.shared.clone().read(128, &mut at_rest).unwrap();
    assert_ne!(at_rest, secret, "the volume must hold ciphertext");
    println!("[volume] at-rest bytes differ from plaintext: encryption is transparent to the VM");

    // 5. Telemetry: the client's own stats plus the per-hop trace breakdown.
    let stats = &cloud.client_mut(0, app).stats;
    println!(
        "[client] reads={} writes={} latency mean={} p99={}",
        stats.reads.count(),
        stats.writes.count(),
        stats.latency.mean(),
        stats.latency.percentile(99.0)
    );
    let report = analyze::attribute(&recorder.events());
    print!(
        "[trace] {} events recorded\n{}",
        recorder.len(),
        report.table()
    );
    println!("quickstart complete");
}
