//! Wire plumbing every protocol stream shares: the chunked reassembly
//! buffer under its decoder and the chunked output builder under its
//! encoder.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use std::collections::VecDeque;

use bytes::Bytes;

/// The reassembly buffer under `storm_iscsi::PduStream` and
/// `storm_nvmeq::FrameStream`: a deque of refcounted [`Bytes`] chunks,
/// never one flat buffer. Adjacent chunks that continue the same backing
/// storage re-join for free ([`Bytes::try_join`]), so a message cut into
/// TCP segments on the sender side comes back out as zero-copy slices of
/// the sender's original allocation. The protocol streams on top keep
/// only their header and unit parsing.
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
            #[expect(
                clippy::disallowed_methods,
                reason = "the fixed-size header decode copy, permitted by design and counted separately."
            )]
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
        // The wire image owns its chunk list by contract: one exact-sized
        // Vec per completed message, not per byte; payload Bytes stay
        // refcounted.
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
        // The one allocation is here, on the counted slow path for ranges
        // straddling a chunk boundary; the fast path above returns a
        // refcounted slice without allocating.
        let mut buf = Vec::with_capacity(len);
        let mut off = 0;
        for c in wire {
            let c_start = start.max(off);
            let c_end = (start + len).min(off + c.len());
            if c_start < c_end {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "counted slow path (`copied` above); zero on the relay fast path."
                )]
                buf.extend_from_slice(&c.chunk()[c_start - off..c_end - off]);
            }
            off += c.len();
        }
        Bytes::from(buf)
    }
}

/// Data segments at least this long are enqueued as shared [`Bytes`]
/// chunks instead of being copied into the scratch buffer. Control PDUs
/// (login, text, sense data) stay below it and coalesce into a single
/// allocation; sector-sized payloads ride above it copy-free.
pub const SHARE_THRESHOLD: usize = 512;

/// Chunked wire-output builder for protocol senders.
///
/// Instead of appending every encoded message to one flat `Vec<u8>`,
/// memcpy'ing each data segment on the way out, `WireBuf` accumulates an
/// ordered chunk list: headers, pads, and small data segments batch into
/// a scratch allocation, while large data segments are pushed as
/// refcounted [`Bytes`] views of the caller's buffer
/// ([`push_data`](WireBuf::push_data)).
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
        #[expect(
            clippy::disallowed_methods,
            reason = "header/pad scratch batch; data segments above SHARE_THRESHOLD never take this path, and push_data counts every data byte that does."
        )]
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

    /// Appends a data segment: shared when at least [`SHARE_THRESHOLD`]
    /// long, copied into the scratch batch (and counted) when shorter.
    pub fn push_data(&mut self, data: Bytes) {
        if data.len() >= SHARE_THRESHOLD {
            self.push_bytes(data);
        } else {
            self.bytes_copied += data.len() as u64;
            self.push_slice(&data);
        }
    }

    /// Drains the queued wire image as ordered chunks.
    pub fn take_chunks(&mut self) -> Vec<Bytes> {
        self.flush_scratch();
        self.len = 0;
        std::mem::take(&mut self.chunks)
    }
}
