//! Cross-commit guard for the active relay's behaviour contract.
//!
//! `trace_determinism.rs` and `nvmeq_determinism.rs` compare two runs of
//! the *same* build, so they cannot see a refactor that shifts every run
//! the same way. These scenarios pin the exported JSONL trace (as an
//! FNV-1a digest) plus the relay's copy counters to constants recorded at
//! the commit before the relay datapath was merged into one loop. A
//! failure prints the new values; re-record them only for a change that
//! is *meant* to move the relay's timing, token order or copy accounting.

use storm::block::transport::TransportKind;
use storm::core::service::StorageService;
use storm::core::{RelayCopyStats, StormPlatform};
use storm::faults::{Fault, FaultPlan};
use storm::qos::RateLimitSpec;
use storm::scenario::Spec;
use storm::services::{CompressService, DedupService, EncryptionService};
use storm_sim::{SimDuration, SimTime};
use storm_workloads::{FioJob, FioWorkload};

const SEED: u64 = 20160628;
const VOLUME_BYTES: u64 = 1 << 30;

/// What a scenario is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    trace_fnv1a: u64,
    trace_len: usize,
    pdus_forwarded: u64,
    copy: RelayCopyStats,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs 300 ms of 4 KiB randrw (`queue_depth` fio threads) through one
/// active relay with the recorder armed and digests what came out.
fn run(
    transport: TransportKind,
    queue_depth: u16,
    services: Vec<Box<dyn StorageService>>,
    qos: bool,
    mb_fault: bool,
) -> Golden {
    let mb_delay = FaultPlan::new(SEED ^ 0xFA17).at(
        SimTime::from_millis(150),
        Fault::MbDelay {
            mb: 0,
            delay: SimDuration::from_micros(40),
            prob: 0.5,
        },
    );
    let spec = Spec {
        seed: SEED,
        client_seed: SEED ^ 0x5EED,
        transport,
        queue_depth,
        label: "vm:golden",
        volume_bytes: VOLUME_BYTES,
        services,
        platform: StormPlatform {
            qos: qos.then_some(RateLimitSpec::iops_limit(600, 4)),
            ..StormPlatform::default()
        },
        faults: mb_fault.then_some(mb_delay),
        traced: true,
        ..Spec::default()
    };
    let job = FioJob::randrw(4096, SimDuration::from_millis(300), VOLUME_BYTES / 512)
        .threads(usize::from(queue_depth));
    let mut run = spec.build(FioWorkload::new(job), |_, _| {});
    run.run_until(SimTime::from_nanos(1_200_000_000));
    let client = run.client();
    assert_eq!(client.transport().kind(), transport);
    assert_eq!(client.stats.errors, 0, "I/O errors through the relay");
    assert!(client.stats.ops() > 0, "no I/O completed");
    let trace = run.trace();
    assert_eq!(trace.contains("\"hop\":\"qos\""), qos, "QoS engagement");
    let delayed = run.fault_trace().iter().any(|l| l.contains("MbProcess"));
    assert_eq!(delayed, mb_fault, "middle-box delay engagement");
    let relay = run.relay();
    Golden {
        trace_fnv1a: fnv1a(trace.as_bytes()),
        trace_len: trace.len(),
        pdus_forwarded: relay.pdus_forwarded(),
        copy: relay.copy_stats(),
    }
}

fn chacha() -> Vec<Box<dyn StorageService>> {
    vec![Box::new(EncryptionService::stream_cipher(
        &[7u8; 32], &[3u8; 12],
    ))]
}

fn golden(trace_fnv1a: u64, trace_len: usize, pdus_forwarded: u64, copy: [u64; 3]) -> Golden {
    Golden {
        trace_fnv1a,
        trace_len,
        pdus_forwarded,
        copy: RelayCopyStats {
            data_bytes_copied: copy[0],
            header_bytes_copied: copy[1],
            verbatim_forwards: copy[2],
        },
    }
}

const DRIFT: &str = "relay behaviour drifted from the recorded commit (left = this build)";

/// The iSCSI goldens' header counts were re-recorded when a rebuilt
/// PDU's 48-byte header began to count, as a rebuilt nvmeq frame's
/// header and entry already did; nothing else moved.
#[test]
fn iscsi_dedup_compress_xts_chain() {
    let services: Vec<Box<dyn StorageService>> = vec![
        Box::new(DedupService::new(SEED, 12)),
        Box::new(CompressService::new(4096)),
        Box::new(EncryptionService::aes_xts(&[0x5C; 64])),
    ];
    assert_eq!(
        run(TransportKind::Iscsi, 2, services, false, false),
        golden(2388109379941293150, 1036523, 1118, [0, 160848, 560]),
        "{DRIFT}"
    );
}

#[test]
fn iscsi_chacha_qos_and_mb_delay_fault() {
    assert_eq!(
        run(TransportKind::Iscsi, 2, chacha(), true, true),
        golden(16068552644889463073, 334237, 370, [0, 53136, 186]),
        "{DRIFT}"
    );
}

/// Re-recorded when nvmeq frames became one command each: every SQE and
/// CQE now pays its own frame header, and the two handshake frames count
/// as the verbatim forwards they are.
#[test]
fn nvmeq_qd8_chacha() {
    assert_eq!(
        run(TransportKind::Nvmeq, 8, chacha(), false, false),
        golden(16690498211268419988, 1244247, 1442, [0, 97728, 722]),
        "{DRIFT}"
    );
}
