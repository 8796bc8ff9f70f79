//! Equal seeds ⇒ byte-identical traces on the multi-queue transport.
//!
//! Mirrors `trace_determinism.rs` with the nvmeq transport armed: the
//! client batches SQEs behind doorbells, the target coalesces CQEs under
//! the interrupt-moderation timer, and the active relay bridges frame
//! units through an encrypting chain — none of which may draw on ambient
//! state, so two runs of one seed still export the same bytes.

use proptest::prelude::*;
use storm::iscsi::TransportKind;
use storm::scenario::{assert_replays, Spec};
use storm::services::EncryptionService;
use storm_sim::{SimDuration, SimTime};
use storm_workloads::{FioJob, FioWorkload};

const VOLUME_BYTES: u64 = 1 << 30;

/// Runs a short encrypted active-relay fio scenario over nvmeq with the
/// recorder armed and returns the JSONL trace export.
fn traced_run(seed: u64) -> String {
    let spec = Spec {
        seed,
        client_seed: seed ^ 0x5EED,
        transport: TransportKind::Nvmeq,
        queue_depth: 16,
        label: "vm:nvq-det",
        volume_bytes: VOLUME_BYTES,
        services: vec![Box::new(EncryptionService::stream_cipher(
            &[7u8; 32], &[3u8; 12],
        ))],
        traced: true,
        ..Spec::default()
    };
    let job = FioJob::randrw(4096, SimDuration::from_millis(300), VOLUME_BYTES / 512).threads(2);
    let mut run = spec.build(FioWorkload::new(job), |_, _| {});
    run.run_until(SimTime::from_nanos(1_200_000_000));
    let client = run.client();
    assert_eq!(client.transport().kind(), TransportKind::Nvmeq);
    assert_eq!(client.stats.errors, 0, "I/O errors through encrypted chain");
    assert!(client.stats.ops() > 0, "no I/O completed");
    run.trace()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Two runs with the same seed export identical bytes, with the
    /// doorbell batching and CQ moderation machinery fully engaged.
    #[test]
    fn equal_seeds_equal_traces_over_nvmeq(seed in 1u64..1_000_000) {
        assert_replays(seed, traced_run);
    }
}

/// The seed is load-bearing: different seeds almost surely diverge.
#[test]
fn different_seeds_diverge() {
    let a = traced_run(31);
    let b = traced_run(32);
    assert_ne!(a, b);
}
