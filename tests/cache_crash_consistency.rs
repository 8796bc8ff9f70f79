//! Crash consistency of the write-back cache (ISSUE 7's durability
//! claim): power-cut the middle-box at an arbitrary point in the
//! journal/flush cycle, replay the journal onto the backing volume, and
//! verify that **no acknowledged write is lost** and **no torn extent
//! survives recovery**.
//!
//! The workload stamps every write payload with its sequence number, so
//! recovery can be audited block by block: a recovered block must hold
//! one *complete* stamped payload (torn detection) whose sequence is at
//! least the newest acknowledged write to that block (durability).

use std::collections::BTreeMap;

use bytes::Bytes;
use storm::cloud::{IoCtx, IoKind, IoResult, ReqId, Workload};
use storm::faults::{Fault, FaultPlan};
use storm::scenario::{Replica, Spec};
use storm_block::BlockDevice;
use storm_services::{recover_journal, CacheConfig, WriteBackCacheService};
use storm_sim::SimTime;

const BLOCKS: u64 = 48;
const SECTORS_PER_BLOCK: u64 = 8;
const BLOCK_BYTES: usize = 4096;

/// A 4 KiB payload carrying its own audit trail: the sequence number in
/// the first 8 bytes, a sequence-derived fill byte everywhere else.
fn stamped_payload(seq: u64) -> Bytes {
    let mut buf = vec![(seq % 251) as u8; BLOCK_BYTES];
    buf[..8].copy_from_slice(&seq.to_le_bytes());
    Bytes::from(buf)
}

/// Issues stamped writes over a small block set and records which were
/// acknowledged before the power cut.
struct RecordingWorkload {
    seq: u64,
    in_flight: BTreeMap<ReqId, (u64, u64)>,
    /// block -> newest acknowledged sequence.
    acked: BTreeMap<u64, u64>,
    /// block -> every sequence ever issued to it.
    issued: BTreeMap<u64, Vec<u64>>,
}

impl RecordingWorkload {
    fn new() -> Self {
        RecordingWorkload {
            seq: 0,
            in_flight: BTreeMap::new(),
            acked: BTreeMap::new(),
            issued: BTreeMap::new(),
        }
    }

    fn issue(&mut self, io: &mut IoCtx<'_>) {
        self.seq += 1;
        let seq = self.seq;
        // Stride-5 walk: revisits blocks quickly so journal appends,
        // overwrites and flushes interleave.
        let block = seq * 5 % BLOCKS;
        let req = io.write(block * SECTORS_PER_BLOCK, stamped_payload(seq));
        self.in_flight.insert(req, (block, seq));
        self.issued.entry(block).or_default().push(seq);
    }
}

impl Workload for RecordingWorkload {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        self.issue(io);
        self.issue(io);
    }

    fn completed(&mut self, io: &mut IoCtx<'_>, req: ReqId, _kind: IoKind, result: IoResult) {
        let Some((block, seq)) = self.in_flight.remove(&req) else {
            return;
        };
        if !result.ok {
            // The power cut surfaced as an I/O error; stop issuing.
            io.stop();
            return;
        }
        let newest = self.acked.entry(block).or_insert(0);
        *newest = (*newest).max(seq);
        self.issue(io);
    }
}

/// One full power-cut round: run the workload through an armed cache
/// middle-box, crash the middle-box VM at `crash_ms`, replay the journal
/// and audit the backing volume.
fn power_cut_round(seed: u64, crash_ms: u64) {
    let spec = Spec {
        seed,
        client_seed: seed,
        label: "vm:crash",
        volume_bytes: 256 << 20,
        spares: vec![64 << 20],
        services: vec![Box::new(WriteBackCacheService::new(CacheConfig::default()))],
        // Replica 0 is the journal, replica 1 the primary (flush path).
        replicas: vec![Replica::Spare(0), Replica::Primary],
        faults: Some(FaultPlan::new(0xCAC4E ^ seed).at(
            SimTime::from_nanos(crash_ms * 1_000_000),
            Fault::MbCrash { mb: 0 },
        )),
        ..Spec::default()
    };
    let mut run = spec.build(RecordingWorkload::new(), |_, _| {});
    run.run_until(SimTime::from_nanos((crash_ms + 200) * 1_000_000));

    let w = run.workload::<RecordingWorkload>();
    let acked = w.acked.clone();
    let issued = w.issued.clone();
    assert!(
        acked.len() >= BLOCKS as usize / 2,
        "crash at {crash_ms} ms landed before the workload warmed up ({} blocks acked)",
        acked.len()
    );

    // Out-of-band recovery, exactly what a rebooted middle-box would run
    // before re-exporting the volume.
    let mut journal_dev = run.spares[0].shared.clone();
    let mut backing_dev = run.volume.shared.clone();
    let report = recover_journal(&mut journal_dev, &mut backing_dev).expect("recovery I/O");

    // Audit every block the workload ever touched.
    let mut buf = vec![0u8; BLOCK_BYTES];
    for (&block, seqs) in &issued {
        backing_dev
            .read(block * SECTORS_PER_BLOCK, &mut buf)
            .expect("backing read");
        let got_seq = u64::from_le_bytes(buf[..8].try_into().unwrap());
        if got_seq == 0 && buf.iter().all(|&b| b == 0) {
            // Never reached the volume: only legal if never acked.
            assert!(
                !acked.contains_key(&block),
                "crash at {crash_ms} ms lost acked write seq {} to block {block}",
                acked[&block]
            );
            continue;
        }
        // No torn extent: the block holds one complete stamped payload.
        let fill = (got_seq % 251) as u8;
        assert!(
            buf[8..].iter().all(|&b| b == fill),
            "crash at {crash_ms} ms left block {block} torn (seq {got_seq})"
        );
        assert!(
            seqs.contains(&got_seq),
            "block {block} holds seq {got_seq}, never issued to it"
        );
        // No acknowledged write lost: the recovered content is the acked
        // write or a newer (journaled-but-unacked) overwrite of it.
        if let Some(&newest_acked) = acked.get(&block) {
            assert!(
                got_seq >= newest_acked,
                "crash at {crash_ms} ms lost acked seq {newest_acked} of block {block} \
                 (recovered seq {got_seq})"
            );
        }
    }
    assert!(
        report.applied_entries > 0 || acked.is_empty(),
        "recovery replayed nothing despite acked writes ({report:?})"
    );
}

/// The paper-level claim, across several arbitrary cut points in the
/// flush cycle (the cache's flush timer fires every 5 ms, so these land
/// at different phases of journal append, flush and checkpoint).
#[test]
fn power_cut_preserves_acked_writes_and_leaves_no_torn_extents() {
    for (i, crash_ms) in [233u64, 307, 411].into_iter().enumerate() {
        power_cut_round(0xC0FFEE + i as u64, crash_ms);
    }
}
