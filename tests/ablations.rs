//! Ablation studies for the design choices DESIGN.md calls out.

use bytes::Bytes;
use storm::cloud::{DiskSpec, IoCtx, IoKind, IoResult, ReqId, Workload};
use storm::core::StormPlatform;
use storm::scenario::Spec;
use storm_sim::{SimDuration, SimTime};

/// Keeps `depth` 16 KiB writes in flight for `secs` seconds.
struct Load {
    depth: usize,
    deadline: Option<SimTime>,
    secs: u64,
    pub done: u64,
}

impl Workload for Load {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        self.deadline = Some(io.now + SimDuration::from_secs(self.secs));
        for i in 0..self.depth {
            io.write((i as u64) * 32, Bytes::from(vec![1u8; 16 * 1024]));
        }
    }
    fn completed(&mut self, io: &mut IoCtx<'_>, _r: ReqId, _k: IoKind, result: IoResult) {
        assert!(result.ok);
        self.done += 1;
        if self.deadline.is_some_and(|d| io.now < d) {
            io.write((self.done % 512) * 32, Bytes::from(vec![1u8; 16 * 1024]));
        } else if io.in_flight <= 1 {
            io.stop();
        }
    }
}

fn throughput(platform: StormPlatform) -> u64 {
    let spec = Spec {
        client_seed: 5,
        label: "vm:load",
        volume_bytes: 1 << 30,
        disk: DiskSpec {
            prewarmed: true,
            ..DiskSpec::default()
        },
        platform,
        ..Spec::default()
    };
    let load = Load {
        depth: 16,
        deadline: None,
        secs: 3,
        done: 0,
    };
    let mut run = spec.build(load, |_, _| {});
    run.run_until(SimTime::from_nanos(8_000_000_000));
    let client = run.client();
    assert_eq!(client.stats.errors, 0);
    client.stats.ops()
}

/// Ablation: disabling the active relay's TSO copy-batching must cost
/// throughput under load — evidence for the paper's "packs several packets
/// together for each copy" efficiency claim.
#[test]
fn tso_batching_matters_under_load() {
    let with_tso = throughput(StormPlatform::default());
    let without_tso = throughput(StormPlatform {
        tso: false,
        ..StormPlatform::default()
    });
    assert!(
        with_tso as f64 > without_tso as f64 * 1.1,
        "TSO should raise active-relay throughput by >10%: {with_tso} vs {without_tso}"
    );
}

/// Ablation: a tiny persistence buffer throttles the active relay (the
/// backpressure path engages) but must never corrupt or error.
#[test]
fn small_persistence_buffer_throttles_but_stays_correct() {
    let big = throughput(StormPlatform::default());
    let small = throughput(StormPlatform {
        buffer_cap: 32 * 1024,
        ..StormPlatform::default()
    });
    assert!(
        small <= big,
        "a 32 KiB persistence buffer cannot beat an 8 MiB one: {small} vs {big}"
    );
    assert!(small > 0, "backpressure must throttle, not deadlock");
}
