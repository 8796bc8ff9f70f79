//! Content-defined-chunk deduplication on the active relay.
//!
//! The service chunks every write payload with a Gear rolling hash
//! (content-defined boundaries, so an insertion early in a stream does
//! not reshuffle every later chunk), fingerprints each chunk and keeps a
//! fingerprint → chunk index. Writes are *inspected, never modified* —
//! the same PDU value is forwarded, so the relay's verbatim zero-copy
//! fast path survives even with dedup armed. What the index buys is the
//! data-reduction ledger (`logical_bytes` / `unique_bytes`, the ratio a
//! thin backing store would see) and the CPU cost model: chunking and
//! fingerprinting are charged per byte, so the Fig-10 per-service
//! attribution breaks dedup's cost out of the relay total.

use std::collections::BTreeMap;

use bytes::Bytes;

use storm_core::{Dir, StorageService, SvcCtx};
use storm_iscsi::Pdu;
use storm_sim::{SimDuration, SimRng};

/// Steps after which the Gear hash (one left shift per byte, 64 bits)
/// has forgotten a byte.
const GEAR_MEMORY: usize = 64;

/// Counters for the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Bytes chunked (every write payload byte seen).
    pub logical_bytes: u64,
    /// Bytes of chunks seen for the first time (what a deduplicating
    /// store would actually hold).
    pub unique_bytes: u64,
    /// Chunks produced by the content-defined chunker.
    pub chunks: u64,
    /// Chunks whose fingerprint (and bytes) matched an indexed chunk.
    pub duplicate_chunks: u64,
    /// Fingerprint collisions caught by the verify-on-match byte compare.
    pub collisions: u64,
}

impl DedupStats {
    /// Logical over unique bytes — the headline data-reduction ratio.
    /// 1.0 when nothing has been chunked yet.
    pub fn reduction_ratio(&self) -> f64 {
        if self.unique_bytes == 0 {
            return 1.0;
        }
        self.logical_bytes as f64 / self.unique_bytes as f64
    }
}

/// Content-defined-chunking dedup service.
pub struct DedupService {
    armed: bool,
    gear: [u64; 256],
    boundary_mask: u64,
    min_chunk: usize,
    max_chunk: usize,
    index: BTreeMap<u128, Bytes>,
    per_byte: SimDuration,
    /// Measurements.
    pub stats: DedupStats,
}

impl DedupService {
    /// Creates the service. The Gear table is derived from `seed`, so
    /// equal-seed runs chunk identically; `boundary_bits` sets the mean
    /// chunk size (`2^boundary_bits` bytes between boundaries).
    pub fn new(seed: u64, boundary_bits: u32) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xCDC0_CDC0);
        let mut gear = [0u64; 256];
        for g in gear.iter_mut() {
            let mut b = [0u8; 8];
            rng.fill(&mut b);
            *g = u64::from_le_bytes(b);
        }
        let bits = boundary_bits.clamp(6, 20);
        DedupService {
            armed: true,
            gear,
            boundary_mask: (1u64 << bits) - 1,
            min_chunk: 1usize << (bits - 2),
            max_chunk: 4usize << bits,
            index: BTreeMap::new(),
            // ~1 GB/s chunk+fingerprint on one core.
            per_byte: SimDuration::from_nanos(1),
            stats: DedupStats::default(),
        }
    }

    /// Installs the service disabled: PDUs pass through uninspected and
    /// uncharged until [`DedupService::arm`].
    pub fn disarmed(seed: u64, boundary_bits: u32) -> Self {
        let mut s = Self::new(seed, boundary_bits);
        s.armed = false;
        s
    }

    /// Enables or disables inspection.
    pub fn arm(&mut self, armed: bool) {
        self.armed = armed;
    }

    /// Unique chunks currently indexed.
    pub fn indexed_chunks(&self) -> usize {
        self.index.len()
    }

    /// Sets the per-byte CPU cost charged for chunking + fingerprinting.
    pub fn set_per_byte_cost(&mut self, cost: SimDuration) {
        self.per_byte = cost;
    }

    /// End offset of the content-defined chunk of `data` that starts at
    /// `start` (`start < data.len()`): the first position at least
    /// `min_chunk` in where the Gear hash has its low `boundary_bits` clear,
    /// else `max_chunk` in, else the end of the data.
    ///
    /// `hash = (hash << 1) + gear[b]` has shifted a byte out entirely 64
    /// steps later, so the hash at the first position that is tested
    /// depends only on the 64 bytes up to it: the bytes of the chunk before
    /// those are never hashed. The warm-up loop has no test in it and the
    /// search loop only the mask test; both ends are slice bounds.
    fn next_cut(&self, data: &[u8], start: usize) -> usize {
        let limit = data.len().min(start + self.max_chunk);
        // The first byte whose hash is tested ends a chunk of `min_chunk`.
        let first = start + self.min_chunk - 1;
        let Some(warm_up) = data.get(first.saturating_sub(GEAR_MEMORY - 1).max(start)..first)
        else {
            return limit;
        };
        let mut hash = 0u64;
        for &b in warm_up {
            hash = (hash << 1).wrapping_add(self.gear[b as usize]);
        }
        for (i, &b) in data[first..limit].iter().enumerate() {
            hash = (hash << 1).wrapping_add(self.gear[b as usize]);
            if hash & self.boundary_mask == 0 {
                return first + i + 1;
            }
        }
        limit
    }

    /// 128-bit chunk fingerprint: two multiply-rotate lanes over 8-byte
    /// words, then the zero-filled tail word and the length. Only the
    /// index key — every hit is verified by a byte compare, so no count
    /// or byte anywhere depends on its value.
    fn fingerprint(chunk: &[u8]) -> u128 {
        let step = |(a, b): (u64, u64), w: u64| {
            (
                (a ^ w).wrapping_mul(0x9E37_79B1_85EB_CA87).rotate_left(31),
                (b ^ w).wrapping_mul(0xC2B2_AE3D_27D4_EB4F).rotate_left(27),
            )
        };
        let (words, tail) = chunk.as_chunks::<8>();
        let mut last = [0u8; 8];
        for (dst, &src) in last.iter_mut().zip(tail) {
            *dst = src;
        }
        let lanes = words
            .iter()
            .chain([&last, &(chunk.len() as u64).to_le_bytes()])
            .fold((0xcbf2_9ce4_8422_2325, 0x6c62_272e_07bb_0142), |h, w| {
                step(h, u64::from_le_bytes(*w))
            });
        ((lanes.0 as u128) << 64) | lanes.1 as u128
    }

    /// Chunks and indexes one write payload.
    fn ingest(&mut self, cx: &mut SvcCtx, data: &Bytes) {
        if data.is_empty() {
            return;
        }
        cx.charge(self.per_byte * data.len() as u64);
        let mut start = 0;
        while start < data.len() {
            let end = self.next_cut(data, start);
            let chunk = data.slice(start..end);
            start = end;
            self.stats.chunks += 1;
            self.stats.logical_bytes += chunk.len() as u64;
            let fp = Self::fingerprint(&chunk);
            match self.index.get(&fp) {
                Some(existing) if existing == &chunk => {
                    self.stats.duplicate_chunks += 1;
                }
                Some(_) => {
                    // Verified fingerprint collision: count the chunk as
                    // unique but keep the first occupant of the slot.
                    self.stats.collisions += 1;
                    self.stats.unique_bytes += chunk.len() as u64;
                }
                None => {
                    self.stats.unique_bytes += chunk.len() as u64;
                    self.index.insert(fp, chunk);
                }
            }
        }
    }
}

impl StorageService for DedupService {
    fn name(&self) -> &str {
        "dedup"
    }

    fn on_pdu(&mut self, cx: &mut SvcCtx, dir: Dir, pdu: Pdu) {
        if self.armed && dir == Dir::ToTarget {
            match &pdu {
                Pdu::ScsiCommand(c) if c.write => self.ingest(cx, &c.data),
                Pdu::DataOut(d) => self.ingest(cx, &d.data),
                _ => {}
            }
        }
        // Inspection only: the received PDU value is forwarded untouched,
        // preserving the relay's verbatim zero-copy fast path.
        cx.forward(pdu);
    }

    fn per_byte_cost(&self) -> SimDuration {
        if self.armed {
            self.per_byte
        } else {
            SimDuration::ZERO
        }
    }
}

impl std::fmt::Debug for DedupService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DedupService")
            .field("armed", &self.armed)
            .field("indexed_chunks", &self.index.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_core::service::SvcAction;
    use storm_iscsi::exchange::{BlockCmd, BlockOp};
    use storm_sim::SimTime;

    fn write_pdu(itt: u32, data: Vec<u8>) -> Pdu {
        let cmd = BlockCmd {
            op: BlockOp::Write,
            lba: 0,
            sectors: (data.len() / 512) as u32,
        };
        cmd.command(itt, 1, 1, Bytes::from(data))
    }

    fn run(svc: &mut DedupService, pdu: Pdu) -> Vec<SvcAction> {
        let mut cx = SvcCtx::new(SimTime::ZERO);
        svc.on_pdu(&mut cx, Dir::ToTarget, pdu);
        cx.take_actions()
    }

    impl DedupService {
        /// Every cut of `data` (end offsets), by [`DedupService::next_cut`].
        fn boundaries(&self, data: &[u8]) -> Vec<usize> {
            let mut cuts = Vec::new();
            let mut start = 0;
            while start < data.len() {
                start = self.next_cut(data, start);
                cuts.push(start);
            }
            cuts
        }

        /// The chunker before the skip-ahead rewrite: hashes every byte and
        /// tests every position. The oracle for where chunks end.
        fn boundaries_oracle(&self, data: &[u8]) -> Vec<usize> {
            let mut cuts = Vec::new();
            let mut start = 0;
            let mut hash = 0u64;
            for (i, &b) in data.iter().enumerate() {
                hash = (hash << 1).wrapping_add(self.gear[b as usize]);
                let len = i + 1 - start;
                if (len >= self.min_chunk && hash & self.boundary_mask == 0)
                    || len >= self.max_chunk
                {
                    cuts.push(i + 1);
                    start = i + 1;
                    hash = 0;
                }
            }
            if start < data.len() {
                cuts.push(data.len());
            }
            cuts
        }
    }

    #[test]
    fn cuts_match_the_every_byte_oracle() {
        let mut rng = SimRng::seed_from_u64(0xB0DA);
        let mut cuts_seen = 0;
        for bits in [6, 7, 8, 10, 12, 14] {
            let svc = DedupService::new(u64::from(bits) * 31, bits);
            for len in [0, 1, 63, 64, 1_000, 16_384, 300_000] {
                let mut random = vec![0u8; len];
                rng.fill(&mut random);
                let one_bit: Vec<u8> = random.iter().map(|b| b & 1).collect();
                for data in [random, one_bit, vec![0u8; len], patterned(len, 3)] {
                    let cuts = svc.boundaries(&data);
                    assert_eq!(cuts, svc.boundaries_oracle(&data), "bits {bits} len {len}");
                    cuts_seen += cuts.len();
                }
            }
        }
        assert!(cuts_seen > 10_000);
    }

    #[test]
    fn fingerprint_tells_apart_what_differs_by_a_byte_or_a_length() {
        let base = patterned(4096, 9);
        let mut seen = std::collections::BTreeSet::new();
        for len in [0, 1, 7, 8, 9, 63, 64, 4095, 4096] {
            assert!(seen.insert(DedupService::fingerprint(&base[..len])));
            // Zero-extended tails are where a length-blind hash collides.
            assert!(seen.insert(DedupService::fingerprint(&vec![0u8; len + 10_000])));
        }
        for at in [0, 7, 8, 2049, 4088, 4095] {
            for bit in 0..8 {
                let mut v = base.clone();
                v[at] ^= 1 << bit;
                assert!(
                    seen.insert(DedupService::fingerprint(&v)),
                    "flip {at}.{bit}"
                );
            }
        }
    }

    fn patterned(len: usize, phase: u8) -> Vec<u8> {
        (0..len)
            .map(|i| ((i * 7) as u8).wrapping_add(phase))
            .collect()
    }

    #[test]
    fn chunking_is_deterministic_for_equal_seeds() {
        let a = DedupService::new(42, 10);
        let b = DedupService::new(42, 10);
        let mut data = vec![0u8; 64 * 1024];
        SimRng::seed_from_u64(5).fill(&mut data);
        assert_eq!(a.boundaries(&data), b.boundaries(&data));
        let c = DedupService::new(43, 10);
        assert_ne!(a.boundaries(&data), c.boundaries(&data));
    }

    #[test]
    fn boundaries_respect_min_and_max() {
        let svc = DedupService::new(7, 10);
        let data = patterned(256 * 1024, 0);
        let cuts = svc.boundaries(&data);
        let mut start = 0;
        for &end in &cuts {
            let len = end - start;
            assert!(len <= svc.max_chunk, "chunk of {len} exceeds max");
            // Every chunk except the trailing remainder honours min_chunk.
            if end != data.len() {
                assert!(len >= svc.min_chunk, "chunk of {len} under min");
            }
            start = end;
        }
        assert_eq!(start, data.len());
    }

    #[test]
    fn duplicate_writes_dedup_and_forward_same_pdu() {
        let mut svc = DedupService::new(1, 10);
        let mut block = vec![0u8; 8192];
        SimRng::seed_from_u64(77).fill(&mut block);
        for itt in 0..4 {
            let pdu = write_pdu(itt, block.clone());
            let acts = run(&mut svc, pdu.clone());
            // The identical PDU value is forwarded (plus a CPU charge).
            assert!(
                acts.iter()
                    .any(|a| matches!(a, SvcAction::Forward(p) if *p == pdu)),
                "write must be forwarded untouched"
            );
        }
        assert_eq!(svc.stats.logical_bytes, 4 * 8192);
        assert_eq!(svc.stats.unique_bytes, 8192);
        assert!(svc.stats.reduction_ratio() > 3.9);
        assert!(svc.stats.duplicate_chunks > 0);
        assert_eq!(svc.stats.collisions, 0);
    }

    #[test]
    fn unique_writes_stay_near_ratio_one() {
        let mut svc = DedupService::new(1, 10);
        let mut rng = SimRng::seed_from_u64(99);
        for itt in 0..4 {
            let mut block = vec![0u8; 8192];
            rng.fill(&mut block);
            run(&mut svc, write_pdu(itt, block));
        }
        assert!(svc.stats.reduction_ratio() < 1.05);
    }

    #[test]
    fn insertion_shifts_only_local_chunks() {
        // Content-defined boundaries: prepending bytes must not change
        // most chunk fingerprints (a fixed-size chunker would shift all).
        let mut base = DedupService::new(5, 9);
        let data = patterned(128 * 1024, 1);
        run(&mut base, write_pdu(1, data.clone()));
        let unique_before = base.stats.unique_bytes;
        let mut shifted = Vec::with_capacity(data.len() + 64);
        shifted.extend_from_slice(&[0xEEu8; 64]);
        shifted.extend_from_slice(&data);
        run(&mut base, write_pdu(2, shifted));
        // Far less than half the bytes re-indexed as new.
        let added = base.stats.unique_bytes - unique_before;
        assert!(
            added < data.len() as u64 / 2,
            "CDC failed to realign: {added} new bytes"
        );
    }

    #[test]
    fn disarmed_service_charges_and_indexes_nothing() {
        let mut svc = DedupService::disarmed(1, 10);
        let pdu = write_pdu(1, patterned(4096, 2));
        let acts = run(&mut svc, pdu.clone());
        assert!(matches!(&acts[..], [SvcAction::Forward(p)] if *p == pdu));
        assert_eq!(svc.stats, DedupStats::default());
        assert_eq!(svc.per_byte_cost(), SimDuration::ZERO);
        svc.arm(true);
        run(&mut svc, write_pdu(2, patterned(4096, 2)));
        assert!(svc.stats.chunks > 0);
    }
}
