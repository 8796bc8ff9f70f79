//! Incremental PDU framing over a TCP byte stream.

use std::collections::VecDeque;

use bytes::Bytes;

use crate::pdu::{data_segment_length, padded, Pdu, PduError, BHS_LEN};

/// One reassembled PDU together with its original wire image.
///
/// `wire` holds the exact received bytes of the PDU (header, data, pad) as
/// refcounted chunks in order — usually a single chunk once adjacent TCP
/// segments re-join. An active relay forwarding the PDU verbatim pushes
/// these chunks straight into its send queue instead of re-encoding.
#[derive(Debug, Clone)]
pub struct PduWire {
    /// The decoded PDU.
    pub pdu: Pdu,
    /// The 48-byte basic header segment as received.
    pub bhs: [u8; BHS_LEN],
    /// The data segment view (shares wire storage when contiguous).
    pub data: Bytes,
    /// The PDU's wire bytes as received, in order.
    pub wire: Vec<Bytes>,
}

/// The reassembly buffer under [`PduStream`] and `storm_nvmeq`'s
/// `FrameStream`: a deque of refcounted [`Bytes`] chunks, never one flat
/// buffer. Adjacent chunks that continue the same backing storage re-join
/// for free ([`Bytes::try_join`]), so a message cut into TCP segments on
/// the sender side comes back out as zero-copy slices of the sender's
/// original allocation. The protocol streams on top keep only their
/// header and unit parsing.
#[derive(Debug, Default)]
pub struct ChunkDeque {
    chunks: VecDeque<Bytes>,
    len: usize,
}

impl ChunkDeque {
    /// Bytes buffered.
    pub fn buffered(&self) -> usize {
        self.len
    }

    /// Appends a received chunk by reference.
    pub fn push_chunk(&mut self, bytes: Bytes) {
        self.len += bytes.len();
        if let Some(last) = self.chunks.back_mut() {
            if let Some(joined) = last.try_join(&bytes) {
                *last = joined;
                return;
            }
        }
        self.chunks.push_back(bytes);
    }

    /// Copies the first `dst.len()` buffered bytes into `dst` without
    /// consuming (the fixed-size header peek; the caller checks
    /// [`buffered`](Self::buffered) first).
    pub fn peek_into(&self, dst: &mut [u8]) {
        let mut off = 0;
        for c in &self.chunks {
            if off == dst.len() {
                break;
            }
            let take = (dst.len() - off).min(c.len());
            // storm-lint: allow(no-hot-path-copy): the fixed-size header
            // decode copy, permitted by design and counted separately.
            dst[off..off + take].copy_from_slice(&c.chunk()[..take]);
            off += take;
        }
        debug_assert_eq!(off, dst.len());
    }

    /// Pops the next `total` bytes as wire chunks. `None` if the chunk
    /// list runs dry first — `len` accounting no longer matches the
    /// buffered chunks. The caller checks [`buffered`](Self::buffered)
    /// first, so this only fires on an internal bookkeeping bug;
    /// reporting it as the protocol's `Desync` error (instead of
    /// panicking) lets a relay drop the one poisoned connection and keep
    /// serving the rest.
    pub fn take_wire(&mut self, mut total: usize) -> Option<Vec<Bytes>> {
        // storm-lint: allow(no-alloc-on-datapath): the wire image owns
        // its chunk list by contract — one exact-sized Vec per completed
        // message, not per byte; payload Bytes stay refcounted.
        let mut wire = Vec::with_capacity(1);
        while total > 0 {
            let front = self.chunks.front_mut()?;
            if front.len() <= total {
                total -= front.len();
                self.len -= front.len();
                wire.push(self.chunks.pop_front()?);
            } else {
                let head = front.slice(..total);
                *front = front.slice(total..);
                self.len -= total;
                wire.push(head);
                total = 0;
            }
        }
        Some(wire)
    }

    /// Extracts `[start, start+len)` of a wire image as one `Bytes`: a
    /// zero-copy slice when the range sits inside a single chunk, an
    /// assembled copy (added to `copied`) otherwise.
    pub fn extract(wire: &[Bytes], start: usize, len: usize, copied: &mut u64) -> Bytes {
        if len == 0 {
            return Bytes::new();
        }
        let mut off = 0;
        for c in wire {
            if start >= off && start + len <= off + c.len() {
                return c.slice(start - off..start - off + len);
            }
            off += c.len();
        }
        // Straddles chunk boundaries: assemble (the counted slow path).
        *copied += len as u64;
        // storm-lint: allow(no-alloc-on-datapath): counted slow path for
        // ranges straddling a chunk boundary; the fast path above returns
        // a refcounted slice without allocating.
        let mut buf = Vec::with_capacity(len);
        let mut off = 0;
        for c in wire {
            let c_start = start.max(off);
            let c_end = (start + len).min(off + c.len());
            if c_start < c_end {
                // storm-lint: allow(no-hot-path-copy): counted slow path
                // (`copied` above); zero on the relay fast path.
                buf.extend_from_slice(&c.chunk()[c_start - off..c_end - off]);
            }
            off += c.len();
        }
        Bytes::from(buf)
    }
}

/// Reassembles PDUs from arbitrarily fragmented stream bytes.
///
/// This is the parsing core of StorM's middle-box API: pseudo-server and
/// pseudo-client processes feed received TCP bytes in and get whole PDUs
/// out, regardless of how the network segmented them.
///
/// Buffering is a [`ChunkDeque`]. The only unconditional copy is the
/// 48-byte header (read into a stack array for decoding); data-segment
/// bytes are copied *only* when a segment genuinely straddles two
/// allocations, and [`bytes_copied`] counts every such byte so fast paths
/// can prove themselves copy-free.
///
/// [`bytes_copied`]: PduStream::bytes_copied
#[derive(Debug, Default)]
pub struct PduStream {
    buf: ChunkDeque,
    pdus_out: u64,
    bytes_copied: u64,
    header_bytes_copied: u64,
}

impl PduStream {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends stream bytes and returns every PDU completed by them
    /// (copying convenience wrapper over [`PduStream::feed_bytes`]).
    ///
    /// # Errors
    ///
    /// Propagates [`PduError`] for undecodable headers; the stream is
    /// unusable afterwards (callers drop the connection, as a real
    /// initiator/target would).
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Vec<Pdu>, PduError> {
        // storm-lint: allow(no-hot-path-copy): documented copying
        // convenience wrapper; hot callers use feed_bytes.
        let out = self.feed_bytes(Bytes::copy_from_slice(bytes))?;
        Ok(out.into_iter().map(|p| p.pdu).collect())
    }

    /// Appends a received chunk *by reference* and returns every PDU
    /// completed by it, each with its original wire image.
    ///
    /// # Errors
    ///
    /// Propagates [`PduError`] for undecodable headers.
    pub fn feed_bytes(&mut self, bytes: Bytes) -> Result<Vec<PduWire>, PduError> {
        if !bytes.is_empty() {
            self.buf.push_chunk(bytes);
        }
        let mut out = Vec::new();
        while let Some(pw) = self.next_pdu()? {
            out.push(pw);
        }
        Ok(out)
    }

    /// Bytes buffered awaiting a complete PDU.
    pub fn pending_bytes(&self) -> usize {
        self.buf.buffered()
    }

    /// Total PDUs produced.
    pub fn pdus_out(&self) -> u64 {
        self.pdus_out
    }

    /// Data-segment bytes that had to be memcpy'd during reassembly
    /// (segments straddling two receive allocations). Zero on the relay
    /// fast path.
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied
    }

    /// Header bytes copied to the decode scratch buffer (48 per PDU —
    /// the allowed fixed-size copy).
    pub fn header_bytes_copied(&self) -> u64 {
        self.header_bytes_copied
    }

    fn next_pdu(&mut self) -> Result<Option<PduWire>, PduError> {
        if self.buf.buffered() < BHS_LEN {
            return Ok(None);
        }
        let mut bhs = [0u8; BHS_LEN];
        self.buf.peek_into(&mut bhs);
        self.header_bytes_copied += BHS_LEN as u64;
        let dsl = data_segment_length(&bhs)?;
        let total = BHS_LEN + padded(dsl);
        if self.buf.buffered() < total {
            return Ok(None);
        }
        let wire = self.buf.take_wire(total).ok_or(PduError::Desync)?;
        let data = ChunkDeque::extract(&wire, BHS_LEN, dsl, &mut self.bytes_copied);
        let pdu = Pdu::decode(&bhs, data.clone())?;
        self.pdus_out += 1;
        Ok(Some(PduWire {
            pdu,
            bhs,
            data,
            wire,
        }))
    }
}

/// Data segments at least this long are enqueued as shared [`Bytes`]
/// chunks instead of being copied into the scratch buffer. Control PDUs
/// (login, text, sense data) stay below it and coalesce into a single
/// allocation; sector-sized payloads ride above it copy-free.
pub const SHARE_THRESHOLD: usize = 512;

/// Chunked wire-output builder for PDU senders.
///
/// The legacy path appended every encoded PDU to one flat `Vec<u8>`,
/// memcpy'ing each data segment on the way out. `WireBuf` instead
/// accumulates an ordered chunk list: headers, pads, and small data
/// segments batch into a scratch allocation, while large data segments
/// are pushed as refcounted [`Bytes`] views of the caller's buffer.
/// [`bytes_copied`](WireBuf::bytes_copied) counts every data-segment
/// byte that went through the scratch copy.
#[derive(Debug, Default)]
pub struct WireBuf {
    scratch: Vec<u8>,
    chunks: Vec<Bytes>,
    len: usize,
    bytes_copied: u64,
}

impl WireBuf {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Data-segment bytes that were memcpy'd into the scratch buffer
    /// (small segments below [`SHARE_THRESHOLD`]).
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied
    }

    fn flush_scratch(&mut self) {
        if !self.scratch.is_empty() {
            let batch = std::mem::take(&mut self.scratch);
            self.chunks.push(Bytes::from(batch));
        }
    }

    /// Appends raw bytes by copy (headers, handshake payloads).
    pub fn push_slice(&mut self, bytes: &[u8]) {
        self.len += bytes.len();
        // storm-lint: allow(no-hot-path-copy): header/pad scratch batch;
        // data segments above SHARE_THRESHOLD never take this path, and
        // push_pdu counts every data byte that does.
        self.scratch.extend_from_slice(bytes);
    }

    /// Appends a shared chunk without copying.
    pub fn push_bytes(&mut self, bytes: Bytes) {
        if bytes.is_empty() {
            return;
        }
        self.len += bytes.len();
        self.flush_scratch();
        if let Some(last) = self.chunks.last_mut() {
            if let Some(joined) = last.try_join(&bytes) {
                *last = joined;
                return;
            }
        }
        self.chunks.push(bytes);
    }

    /// Encodes a PDU into the buffer: header and pad go to scratch; the
    /// data segment is shared when large, copied (and counted) when
    /// below [`SHARE_THRESHOLD`].
    pub fn push_pdu(&mut self, pdu: &Pdu) {
        let w = pdu.wire_chunks();
        self.push_slice(&w.header);
        if w.data.len() >= SHARE_THRESHOLD {
            self.push_bytes(w.data);
        } else {
            self.bytes_copied += w.data.len() as u64;
            self.push_slice(&w.data);
        }
        self.push_slice(w.pad);
    }

    /// Drains the queued wire image as ordered chunks.
    pub fn take_chunks(&mut self) -> Vec<Bytes> {
        self.flush_scratch();
        self.len = 0;
        std::mem::take(&mut self.chunks)
    }

    /// Drains the queued wire image as one flat vector (copying
    /// compatibility path for tests and non-hot callers).
    pub fn take_output(&mut self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for c in self.take_chunks() {
            // storm-lint: allow(no-hot-path-copy): flattening
            // compatibility path for tests and non-hot callers.
            out.extend_from_slice(&c);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdu::{NopOut, TextRequest};

    fn nop(data: &'static [u8]) -> Pdu {
        Pdu::NopOut(NopOut {
            itt: 1,
            ttt: 0xFFFF_FFFF,
            cmd_sn: 1,
            exp_stat_sn: 1,
            data: Bytes::from_static(data),
        })
    }

    #[test]
    fn whole_pdus_parse() {
        let mut s = PduStream::new();
        let wire = nop(b"hello").encode();
        let got = s.feed(&wire).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], nop(b"hello"));
        assert_eq!(s.pending_bytes(), 0);
        assert_eq!(s.pdus_out(), 1);
    }

    #[test]
    fn byte_at_a_time_parse() {
        let mut s = PduStream::new();
        let wire = nop(b"fragmented!").encode();
        let mut got = Vec::new();
        for b in &wire {
            got.extend(s.feed(std::slice::from_ref(b)).unwrap());
        }
        assert_eq!(got, vec![nop(b"fragmented!")]);
    }

    #[test]
    fn multiple_pdus_in_one_chunk() {
        let mut s = PduStream::new();
        let mut wire = nop(b"one").encode();
        wire.extend(nop(b"two").encode());
        wire.extend(
            Pdu::TextRequest(TextRequest {
                final_pdu: true,
                itt: 2,
                ttt: 0xFFFF_FFFF,
                cmd_sn: 2,
                exp_stat_sn: 1,
                data: Bytes::from_static(b"k=v\0"),
            })
            .encode(),
        );
        let got = s.feed(&wire).unwrap();
        assert_eq!(got.len(), 3);
        assert!(matches!(got[2], Pdu::TextRequest(_)));
    }

    #[test]
    fn partial_then_rest() {
        let mut s = PduStream::new();
        let wire = nop(b"partial-data-segment").encode();
        let (a, b) = wire.split_at(BHS_LEN + 3);
        assert!(s.feed(a).unwrap().is_empty());
        assert_eq!(s.pending_bytes(), a.len());
        let got = s.feed(b).unwrap();
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn garbage_header_errors() {
        let mut s = PduStream::new();
        let mut junk = [0u8; BHS_LEN];
        junk[0] = 0x3F;
        assert!(s.feed(&junk).is_err());
    }

    #[test]
    fn feed_bytes_keeps_wire_and_skips_copies() {
        // One allocation holding a whole PDU: the data view and the wire
        // image must share it, with zero data-segment copies.
        let pdu = nop(b"zero-copy-path!!");
        let whole = Bytes::from(pdu.encode());
        let mut s = PduStream::new();
        let got = s.feed_bytes(whole.clone()).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].pdu, pdu);
        assert_eq!(got[0].wire.len(), 1);
        assert!(got[0].wire[0].same_storage(&whole));
        assert!(got[0]
            .data
            .same_storage(&whole.slice(BHS_LEN..BHS_LEN + 16)));
        assert_eq!(s.bytes_copied(), 0);
        assert_eq!(s.header_bytes_copied(), BHS_LEN as u64);
    }

    #[test]
    fn split_segments_of_one_allocation_rejoin() {
        // Simulate sender-side TCP segmentation: slices of one allocation
        // arrive one by one and must re-join into a zero-copy data view.
        let pdu = nop(b"travels in many segments, one allocation");
        let whole = Bytes::from(pdu.encode());
        let mut s = PduStream::new();
        let mut got = Vec::new();
        let mut off = 0;
        while off < whole.len() {
            let end = (off + 7).min(whole.len());
            got.extend(s.feed_bytes(whole.slice(off..end)).unwrap());
            off = end;
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].pdu, pdu);
        assert_eq!(got[0].wire.len(), 1, "adjacent slices re-join");
        assert_eq!(s.bytes_copied(), 0, "no data-segment copies");
    }

    #[test]
    fn wirebuf_shares_large_segments_and_batches_small() {
        let big = Bytes::from(vec![0xAB; SHARE_THRESHOLD]);
        let big_pdu = Pdu::NopOut(NopOut {
            itt: 7,
            ttt: 0xFFFF_FFFF,
            cmd_sn: 3,
            exp_stat_sn: 1,
            data: big.clone(),
        });
        let small_pdu = nop(b"small");
        let mut w = WireBuf::new();
        w.push_pdu(&small_pdu);
        w.push_pdu(&big_pdu);
        assert_eq!(w.len(), small_pdu.wire_len() + big_pdu.wire_len());
        let chunks = w.take_chunks();
        // scratch batch (small pdu + big header), shared data, (no pad: aligned)
        assert_eq!(chunks.len(), 2);
        assert!(chunks[1].same_storage(&big));
        assert_eq!(w.bytes_copied(), 5, "only the small data segment copies");
        assert!(w.is_empty());

        // Flattened output must equal the legacy encoding.
        let mut w2 = WireBuf::new();
        w2.push_pdu(&small_pdu);
        w2.push_pdu(&big_pdu);
        let mut legacy = small_pdu.encode();
        legacy.extend(big_pdu.encode());
        assert_eq!(w2.take_output(), legacy);
    }

    #[test]
    fn foreign_chunks_count_copies() {
        // Two separate allocations carrying one PDU: the data segment
        // straddles them, so reassembly must copy and count it.
        let pdu = nop(b"straddles allocations");
        let wire = pdu.encode();
        let cut = BHS_LEN + 4;
        let mut s = PduStream::new();
        assert!(s
            .feed_bytes(Bytes::copy_from_slice(&wire[..cut]))
            .unwrap()
            .is_empty());
        let got = s.feed_bytes(Bytes::copy_from_slice(&wire[cut..])).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].pdu, pdu);
        assert_eq!(s.bytes_copied(), pdu.data().len() as u64);
    }
}
