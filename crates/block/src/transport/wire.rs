//! The one chunk queue every wire path shares: under each protocol
//! stream's decoder (reassembly), behind each encoder (output) and in
//! front of each socket (the bytes TCP has not accepted yet).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use std::collections::VecDeque;

use bytes::Bytes;

/// Data segments at least this long are enqueued as shared [`Bytes`]
/// chunks instead of being copied into the scratch buffer. Control PDUs
/// (login, text, sense data) stay below it and coalesce into a single
/// allocation; sector-sized payloads ride above it copy-free.
pub const SHARE_THRESHOLD: usize = 512;

/// An ordered queue of refcounted [`Bytes`] chunks with a byte count,
/// never one flat buffer.
///
/// An encoder appends headers, pads and small data segments to a scratch
/// batch and large data segments as views of the caller's buffer
/// ([`push_data`](WireBuf::push_data), the one share-or-copy rule), and
/// the hosting app drains the queue into its socket with
/// [`send`](WireBuf::send): bytes TCP does not accept stay queued, in
/// order. A decoder (`storm_iscsi::PduStream`, `storm_nvmeq::FrameStream`)
/// appends received chunks, peeks fixed-size headers
/// ([`peek_into`](WireBuf::peek_into)) and pops whole messages
/// ([`take_wire`](WireBuf::take_wire)). Adjacent chunks that continue the
/// same backing storage re-join as they land ([`Bytes::try_join`]), so a
/// message cut into TCP segments comes back out as slices of the sender's
/// allocation. [`bytes_copied`](WireBuf::bytes_copied) counts every
/// data-segment byte that went through the scratch copy.
#[derive(Debug, Default)]
pub struct WireBuf {
    /// Copied bytes queued after every chunk in `chunks`.
    scratch: Vec<u8>,
    chunks: VecDeque<Bytes>,
    len: usize,
    bytes_copied: u64,
}

impl WireBuf {
    /// Creates an empty queue.
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
            self.chunks.push_back(Bytes::from(batch));
        }
    }

    /// Appends raw bytes by copy (headers, pads, handshake payloads).
    pub fn push_slice(&mut self, bytes: &[u8]) {
        self.len += bytes.len();
        #[expect(
            clippy::disallowed_methods,
            reason = "header/pad scratch batch; data segments above SHARE_THRESHOLD never take this path, and push_data counts every data byte that does."
        )]
        self.scratch.extend_from_slice(bytes);
    }

    /// Appends a shared chunk without copying; one that continues the
    /// last chunk's storage re-joins it.
    pub fn push_bytes(&mut self, bytes: Bytes) {
        if bytes.is_empty() {
            return;
        }
        self.len += bytes.len();
        self.flush_scratch();
        if let Some(last) = self.chunks.back_mut() {
            if let Some(joined) = last.try_join(&bytes) {
                *last = joined;
                return;
            }
        }
        self.chunks.push_back(bytes);
    }

    /// Appends a whole batch of shared chunks — a received wire image
    /// re-emitted as is — without copying any of them.
    pub fn push_all<I: IntoIterator<Item = Bytes>>(&mut self, chunks: I) {
        for c in chunks {
            self.push_bytes(c);
        }
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

    /// Hands every queued chunk, in order, to `sink` — a socket's batch
    /// enqueue such as `|c| cx.send_chunks(sock, c)` — which pops what it
    /// accepts off the front and returns how many bytes that was. What it
    /// leaves stays queued ahead of anything pushed later.
    pub fn send(&mut self, sink: impl FnOnce(&mut VecDeque<Bytes>) -> usize) -> usize {
        self.flush_scratch();
        let n = sink(&mut self.chunks);
        self.len -= n;
        n
    }

    /// Copies the first `dst.len()` queued bytes into `dst` without
    /// consuming (the fixed-size header peek; the caller checks
    /// [`len`](Self::len) first). Only decoders peek, and they only
    /// [`push_bytes`](Self::push_bytes), so the scratch batch is empty.
    pub fn peek_into(&self, dst: &mut [u8]) {
        debug_assert!(self.scratch.is_empty());
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
    /// queued chunks. The caller checks [`len`](Self::len) first, so this
    /// only fires on an internal bookkeeping bug; reporting it as the
    /// protocol's `Desync` error (instead of panicking) lets a relay drop
    /// the one poisoned connection and keep serving the rest.
    pub fn take_wire(&mut self, mut total: usize) -> Option<Vec<Bytes>> {
        self.flush_scratch();
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
                wire.push(front.split_to(total));
                self.len -= total;
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A socket taking up to `cap` bytes into `got`, cutting a chunk if
    /// it must (as `TcpStack::send_chunks_into` does).
    fn drain(cap: usize, got: &mut Vec<Bytes>) -> impl FnOnce(&mut VecDeque<Bytes>) -> usize + '_ {
        move |chunks| {
            let mut n = 0;
            while let Some(front) = chunks.front_mut().filter(|_| n < cap) {
                let head = front.split_to(front.len().min(cap - n));
                if front.is_empty() {
                    chunks.pop_front();
                }
                n += head.len();
                got.push(head);
            }
            n
        }
    }

    #[test]
    fn len_tracks_pushes() {
        let mut q = WireBuf::new();
        q.push_slice(&[1, 2, 3]);
        q.push_slice(&[4]);
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn push_all_batches_without_copying() {
        let whole = Bytes::from(vec![9u8; 32]);
        let mut q = WireBuf::new();
        q.push_all([whole.slice(..16), whole.slice(16..)]);
        assert_eq!((q.len(), q.chunks.len()), (32, 1), "frame chunks re-join");
        assert!(q.chunks[0].same_storage(&whole));
    }

    #[test]
    fn push_bytes_joins_adjacent_views() {
        let whole = Bytes::from(vec![1u8, 2, 3, 4, 5, 6]);
        let mut q = WireBuf::new();
        q.push_bytes(whole.slice(..3));
        q.push_bytes(whole.slice(3..));
        assert_eq!((q.len(), q.chunks.len()), (6, 1), "adjacent slices re-join");
        assert!(q.chunks[0].same_storage(&whole));
    }

    /// Bytes the socket refuses stay queued in order, ahead of what is
    /// pushed afterwards, and `len` counts exactly what is left.
    #[test]
    fn a_short_drain_leaves_the_rest_in_order() {
        let data = Bytes::from((0..40u8).collect::<Vec<_>>());
        let mut q = WireBuf::new();
        q.push_bytes(data.slice(..20));
        q.push_slice(&[0xEE; 4]);
        q.push_bytes(data.slice(20..));
        let mut got = Vec::new();
        assert_eq!((q.send(drain(25, &mut got)), q.len()), (25, 19));
        q.push_slice(&[0xFF]);
        assert_eq!((q.send(drain(usize::MAX, &mut got)), q.len()), (20, 0));
        let want = [&data[..20], &[0xEE; 4], &data[20..], &[0xFF]].concat();
        assert_eq!(got.concat(), want);
    }

    /// Headers batched by copy reach the drain ahead of the shared chunk
    /// pushed after them, which stays a view.
    #[test]
    fn scratch_bytes_drain_ahead_of_a_later_shared_chunk() {
        let data = Bytes::from(vec![0x5A; SHARE_THRESHOLD]);
        let mut q = WireBuf::new();
        q.push_slice(&[1, 2]);
        q.push_data(Bytes::from_static(&[3]));
        q.push_data(data.clone());
        assert_eq!(q.bytes_copied(), 1, "only the short segment is copied");
        let mut got = Vec::new();
        q.send(drain(usize::MAX, &mut got));
        assert_eq!(&got[0][..], [1, 2, 3]);
        assert!(got[1].same_storage(&data));
    }

    /// A message popped across a chunk boundary comes out as both pieces;
    /// a range inside one piece is a view, one across both a counted copy.
    #[test]
    fn take_wire_and_extract_cross_a_chunk_boundary() {
        let (a, b) = (Bytes::from(vec![1u8; 10]), Bytes::from(vec![2u8; 10]));
        let mut q = WireBuf::new();
        q.push_all([a.clone(), b.clone()]);
        let wire = q.take_wire(15).expect("15 bytes queued");
        assert!(wire[0].same_storage(&a) && wire[1].same_storage(&b.slice(..5)));
        let mut peek = [0u8; 5];
        q.peek_into(&mut peek);
        assert_eq!((q.len(), peek), (5, [2; 5]));
        let mut copied = 0;
        let inside = WireBuf::extract(&wire, 11, 3, &mut copied);
        assert!(inside.same_storage(&b.slice(1..4)) && copied == 0);
        let across = WireBuf::extract(&wire, 8, 4, &mut copied);
        assert_eq!((&across[..], copied), (&[1, 1, 2, 2][..], 4));
        assert!(q.take_wire(6).is_none(), "more than is queued");
    }
}
