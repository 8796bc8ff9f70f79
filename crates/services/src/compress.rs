//! Inline per-extent compression on the active relay.
//!
//! Write payloads are compressed extent by extent (4 KiB by default) with
//! a small LZ77-style codec and re-framed *at the same size*: a frame is
//! `[16-byte header | compressed bytes | zero pad]`, so the backing
//! volume's sector layout never changes and reads stay trivially
//! addressable. The win is accounted, not physical — `stored_bytes`
//! tracks what a thin-provisioned backing store would actually persist.
//! Extents that do not shrink are stored raw untouched
//! (skip-if-incompressible), and the read path distinguishes frames from
//! raw data by validating the header magic, lengths and payload checksum
//! before decompressing.
//!
//! The transform only engages for extent-aligned payloads (offset and
//! length both multiples of the extent size) — anything else passes
//! through raw, and mixed raw/framed extents decode correctly because
//! raw extents fail header validation. Sub-extent writes into a framed
//! extent are not supported (the tenant policy pins the extent size to
//! the workload block size).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use bytes::Bytes;

use storm_block::transport::{BlockOp, Step};
use storm_core::{Dir, Op, StorageService, SvcCtx};
use storm_sim::SimDuration;

use crate::lz::{fnv32, lz_compress, lz_decompress, put_field, ENCODER_OVERRUN};

/// CPU cost per byte (de)compressed: ~500 MB/s single-core LZ.
const PER_BYTE: SimDuration = SimDuration::from_nanos(2);

/// Frame header magic ("SCZ1").
const MAGIC: u32 = 0x5343_5A31;
/// Frame header size in bytes.
const HEADER: usize = 16;

/// Counters for the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompressStats {
    /// Payload bytes that entered the write-side transform.
    pub logical_bytes: u64,
    /// Bytes a thin store would persist (frame header + compressed
    /// payload for framed extents, the full extent for skipped ones).
    pub stored_bytes: u64,
    /// Extents compressed into frames.
    pub compressed_extents: u64,
    /// Extents stored raw because compression did not shrink them.
    pub skipped_extents: u64,
    /// Extents decompressed on the read path.
    pub decompressed_extents: u64,
}

impl CompressStats {
    /// Logical over stored bytes — the space-saving ratio.
    pub fn reduction_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            return 1.0;
        }
        self.logical_bytes as f64 / self.stored_bytes as f64
    }
}

/// The inline compression service.
pub struct CompressService {
    armed: bool,
    extent: usize,
    /// Measurements.
    pub stats: CompressStats,
}

impl CompressService {
    /// Creates the service with `extent`-byte compression granularity
    /// (rounded up to at least 512; use the workload's block size).
    pub fn new(extent: usize) -> Self {
        CompressService {
            armed: true,
            extent: extent.max(512),
            stats: CompressStats::default(),
        }
    }

    /// Installs the service disabled: ops pass through untouched until
    /// [`CompressService::arm`].
    pub fn disarmed(extent: usize) -> Self {
        let mut s = Self::new(extent);
        s.armed = false;
        s
    }

    /// Enables or disables the transform.
    pub fn arm(&mut self, armed: bool) {
        self.armed = armed;
    }

    /// Whether the transform engages for a payload at `offset`.
    fn aligned(&self, offset: usize, data: &Bytes) -> bool {
        !data.is_empty()
            && offset.is_multiple_of(self.extent)
            && data.len().is_multiple_of(self.extent)
    }

    /// Compresses aligned write payload extents into same-size frames.
    /// Returns `None` when the payload is left untouched (unaligned, or
    /// every extent skipped) so the caller can forward the original.
    fn encode_payload(&mut self, offset: usize, data: &Bytes) -> Option<Bytes> {
        if !self.aligned(offset, data) {
            return None;
        }
        // One buffer for the whole payload; the encoder may run past the
        // last extent's end before it gives that extent up.
        let mut out = Vec::with_capacity(data.len() + ENCODER_OVERRUN);
        let mut any = false;
        for ext in data.chunks(self.extent) {
            self.stats.logical_bytes += ext.len() as u64;
            let at = out.len();
            out.resize(at + HEADER, 0);
            if lz_compress(ext, ext.len() - HEADER - 1, &mut out) {
                let comp_len = out.len() - at - HEADER;
                self.stats.compressed_extents += 1;
                self.stats.stored_bytes += (HEADER + comp_len) as u64;
                let sum = fnv32(&out[at + HEADER..]);
                let hdr = &mut out[at..at + HEADER];
                put_field(hdr, 0, &MAGIC.to_le_bytes());
                put_field(hdr, 4, &(comp_len as u32).to_le_bytes());
                put_field(hdr, 8, &(ext.len() as u32).to_le_bytes());
                put_field(hdr, 12, &sum.to_le_bytes());
                // Zero pad: the frame keeps the extent's stored size.
                out.resize(at + ext.len(), 0);
                any = true;
            } else {
                self.stats.skipped_extents += 1;
                self.stats.stored_bytes += ext.len() as u64;
                out.truncate(at);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "armed transform path, incompressible extent stored raw."
                )]
                out.extend_from_slice(ext);
            }
        }
        any.then(|| Bytes::from(out))
    }

    /// Decompresses framed extents in a read payload. Returns `None`
    /// when no extent held a valid frame (forward the original).
    fn decode_payload(&mut self, offset: usize, data: &Bytes) -> Option<Bytes> {
        if !self.aligned(offset, data) {
            return None;
        }
        // Stays unallocated while every extent so far is raw: a pure raw
        // payload keeps the original Bytes (zero-copy).
        let mut out = Vec::new();
        let mut framed = false;
        let mut raw_from = 0;
        for (k, ext) in data.chunks(self.extent).enumerate() {
            let Some(comp) = frame_payload(ext) else {
                continue;
            };
            if !framed {
                framed = true;
                out.reserve_exact(data.len());
            }
            let at = k * self.extent;
            #[expect(
                clippy::disallowed_methods,
                reason = "raw extents copied only because a framed sibling forced reassembly."
            )]
            out.extend_from_slice(&data[raw_from..at]);
            raw_from = at;
            if lz_decompress(comp, ext.len(), &mut out) {
                self.stats.decompressed_extents += 1;
                raw_from += ext.len();
            }
        }
        if !framed {
            return None;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "raw tail after the last framed extent, same reassembly."
        )]
        out.extend_from_slice(&data[raw_from..]);
        Some(Bytes::from(out))
    }
}

/// Validates a frame header; returns the compressed payload slice.
fn frame_payload(ext: &[u8]) -> Option<&[u8]> {
    if ext.len() < HEADER + 1 {
        return None;
    }
    let word = |o: usize| u32::from_le_bytes([ext[o], ext[o + 1], ext[o + 2], ext[o + 3]]);
    if word(0) != MAGIC {
        return None;
    }
    let comp_len = word(4) as usize;
    let orig_len = word(8) as usize;
    if orig_len != ext.len() || comp_len == 0 || comp_len > ext.len() - HEADER - 1 {
        return None;
    }
    let comp = &ext[HEADER..HEADER + comp_len];
    if fnv32(comp) != word(12) {
        return None;
    }
    Some(comp)
}

impl StorageService for CompressService {
    fn name(&self) -> &str {
        "compress"
    }

    fn on_op(&mut self, cx: &mut SvcCtx<Op>, dir: Dir, mut op: Op) {
        let write = op.cmd().is_some_and(|c| c.op == BlockOp::Write);
        let (at, encode) = match (dir, op.step()) {
            _ if !self.armed || op.data.is_empty() => return cx.forward(op),
            (Dir::ToTarget, Step::Command) if write => (0, true),
            (Dir::ToTarget, Step::WriteData(at)) => (at as usize, true),
            (Dir::ToInitiator, Step::ReadData(at)) => (at as usize, false),
            _ => return cx.forward(op),
        };
        cx.charge(PER_BYTE * op.data.len() as u64);
        let transformed = match encode {
            true => self.encode_payload(at, &op.data),
            false => self.decode_payload(at, &op.data),
        };
        if let Some(data) = transformed {
            op.data = data;
        }
        cx.forward(op);
    }
}

impl std::fmt::Debug for CompressService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressService")
            .field("armed", &self.armed)
            .field("extent", &self.extent)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lz::tests::{compress_vec, decompress_vec, word_text};
    use storm_core::service::SvcAction;
    use storm_sim::{SimRng, SimTime};

    fn compressible(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i / 64) % 7) as u8).collect()
    }

    fn incompressible(len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        SimRng::seed_from_u64(0xC0FFEE).fill(&mut v);
        v
    }

    #[test]
    fn lz_roundtrips() {
        for data in [
            compressible(4096),
            vec![0u8; 4096],
            (0..255u8).cycle().take(4096).collect(),
        ] {
            let comp = compress_vec(&data, data.len() - HEADER - 1).expect("compresses");
            assert!(comp.len() < data.len());
            assert_eq!(decompress_vec(&comp, data.len()).expect("decodes"), data);
        }
    }

    #[test]
    fn incompressible_input_is_skipped() {
        assert!(compress_vec(&incompressible(4096), 4096 - HEADER - 1).is_none());
    }

    fn run(svc: &mut CompressService, dir: Dir, op: Op) -> Op {
        let mut cx = SvcCtx::new(SimTime::ZERO);
        svc.on_op(&mut cx, dir, op);
        let fwd = cx.take_actions().into_iter().find_map(|a| match a {
            SvcAction::Forward(p) => Some(p),
            _ => None,
        });
        fwd.expect("forwarded")
    }

    /// Write data at `offset`; compression needs no command.
    fn data_out(offset: u32, data: Vec<u8>) -> Op {
        Op::new(Step::WriteData(offset), None, 1, Bytes::from(data))
    }

    fn data_in(offset: u32, data: Bytes) -> Op {
        Op::new(Step::ReadData(offset), None, 1, data)
    }

    #[test]
    fn write_read_roundtrip_through_frames() {
        let mut svc = CompressService::new(4096);
        let plain = compressible(8192);
        let framed = run(&mut svc, Dir::ToTarget, data_out(0, plain.clone())).data;
        assert_eq!(framed.len(), plain.len(), "frames keep the stored size");
        assert_ne!(&framed[..], &plain[..]);
        assert_eq!(svc.stats.compressed_extents, 2);
        assert!(svc.stats.reduction_ratio() > 1.5, "{:?}", svc.stats);
        // Read path: the framed bytes come back from the target.
        let decoded = run(&mut svc, Dir::ToInitiator, data_in(0, framed)).data;
        assert_eq!(&decoded[..], &plain[..]);
        assert_eq!(svc.stats.decompressed_extents, 2);
    }

    /// The on-volume format: what a later read must still decode. A
    /// change to the encoder's choices or the header moves this.
    #[test]
    fn frame_of_a_fixed_text_extent_is_pinned() {
        let mut svc = CompressService::new(4096);
        let plain = word_text(&mut SimRng::seed_from_u64(0x601D), 4096);
        let framed = run(&mut svc, Dir::ToTarget, data_out(0, plain)).data;
        assert_eq!(framed.len(), 4096);
        assert_eq!(
            (svc.stats.stored_bytes, fnv32(&framed)),
            (1513, 0xA46E_F298)
        );
    }

    #[test]
    fn incompressible_extents_pass_raw_and_decode_raw() {
        let mut svc = CompressService::new(4096);
        let noise = incompressible(4096);
        let stored = run(&mut svc, Dir::ToTarget, data_out(0, noise.clone())).data;
        assert_eq!(&stored[..], &noise[..], "skipped extent stored verbatim");
        assert_eq!(svc.stats.skipped_extents, 1);
        // Raw bytes fail frame validation and pass through unchanged —
        // and without a framed sibling the original Bytes is forwarded.
        let back = run(&mut svc, Dir::ToInitiator, data_in(0, stored.clone())).data;
        assert_eq!(&back[..], &noise[..]);
        assert_eq!(svc.stats.decompressed_extents, 0);
    }

    #[test]
    fn mixed_raw_framed_and_undecodable_extents_reassemble() {
        let mut svc = CompressService::new(4096);
        let plain = compressible(4096);
        let framed = run(&mut svc, Dir::ToTarget, data_out(0, plain.clone())).data;
        // A well-formed header over a stream that does not decode (a match
        // with nothing before it): handed back as stored.
        let mut undecodable = incompressible(4096);
        let stream = [0x80, 0x01, 0x00];
        put_field(&mut undecodable, 0, &MAGIC.to_le_bytes());
        put_field(&mut undecodable, 4, &(stream.len() as u32).to_le_bytes());
        put_field(&mut undecodable, 8, &4096u32.to_le_bytes());
        put_field(&mut undecodable, 12, &fnv32(&stream).to_le_bytes());
        put_field(&mut undecodable, HEADER, &stream);
        assert!(frame_payload(&undecodable).is_some());
        let noise = incompressible(4096);
        let stored = [&noise[..], &framed, &undecodable, &noise, &framed, &noise].concat();
        let expect = [&noise[..], &plain, &undecodable, &noise, &plain, &noise].concat();
        let back = run(&mut svc, Dir::ToInitiator, data_in(0, Bytes::from(stored))).data;
        assert_eq!(&back[..], &expect[..]);
        assert_eq!(svc.stats.decompressed_extents, 2);
    }

    #[test]
    fn unaligned_payloads_are_left_alone() {
        let mut svc = CompressService::new(4096);
        let plain = compressible(512);
        let out = run(&mut svc, Dir::ToTarget, data_out(0, plain.clone())).data;
        assert_eq!(&out[..], &plain[..]);
        let out = run(&mut svc, Dir::ToTarget, data_out(1024, compressible(4096))).data;
        assert_eq!(out.len(), 4096);
        assert_eq!(svc.stats.compressed_extents, 0);
    }

    #[test]
    fn disarmed_service_forwards_the_same_op() {
        let mut svc = CompressService::disarmed(4096);
        let op = data_out(0, compressible(4096));
        let out = run(&mut svc, Dir::ToTarget, op.clone());
        assert_eq!(out, op);
        assert_eq!(svc.stats, CompressStats::default());
    }
}
