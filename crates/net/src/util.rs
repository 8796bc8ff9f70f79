//! Small helpers shared by applications.

use std::collections::VecDeque;

use bytes::Bytes;

use crate::engine::Cx;
use crate::tcp::SockId;

/// An application-side send queue.
///
/// TCP send buffers are finite; protocol engines (iSCSI targets pushing
/// multi-megabyte Data-In trains, relays) queue their output here and
/// drain it as the socket accepts bytes (continuing from
/// [`crate::App::on_writable`]).
///
/// The queue holds refcounted [`Bytes`] chunks rather than flat bytes:
/// [`push_bytes`](SendQueue::push_bytes) enqueues a shared view without
/// copying, and [`pump`](SendQueue::pump) hands chunks to TCP via
/// [`Cx::send_bytes`], so a relay forwarding received wire bytes never
/// duplicates the payload. [`push`](SendQueue::push) remains the copying
/// path for plain slices.
#[derive(Debug, Default)]
pub struct SendQueue {
    chunks: VecDeque<Bytes>,
    len: usize,
}

impl SendQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends bytes to the queue by copy (does not transmit).
    pub fn push(&mut self, bytes: &[u8]) {
        if !bytes.is_empty() {
            self.push_bytes(Bytes::copy_from_slice(bytes));
        }
    }

    /// Appends a refcounted chunk to the queue without copying (does not
    /// transmit). Chunks that continue the previous chunk's backing
    /// storage re-join for free.
    pub fn push_bytes(&mut self, bytes: Bytes) {
        if bytes.is_empty() {
            return;
        }
        self.len += bytes.len();
        if let Some(last) = self.chunks.back_mut() {
            if let Some(joined) = last.try_join(&bytes) {
                *last = joined;
                return;
            }
        }
        self.chunks.push_back(bytes);
    }

    /// Sends as much queued data as the socket accepts; returns the number
    /// of bytes handed to TCP. All queued chunks are enqueued in one batch
    /// before TCP cuts segments, so a PDU's header and data chunks share
    /// full-MSS frames instead of flushing one packet per chunk.
    pub fn pump(&mut self, cx: &mut Cx<'_>, sock: SockId) -> usize {
        let n = cx.send_chunks(sock, &mut self.chunks);
        self.len -= n;
        n
    }

    /// Appends a whole batch of shared chunks — a multi-chunk frame or a
    /// received wire image re-emitted verbatim — without copying any of
    /// them. Adjacent views of one allocation re-join as they land.
    pub fn push_all<I: IntoIterator<Item = Bytes>>(&mut self, chunks: I) {
        for c in chunks {
            self.push_bytes(c);
        }
    }

    /// Bytes still queued (not yet accepted by TCP).
    pub fn backlog(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_tracks_pushes() {
        let mut q = SendQueue::new();
        assert_eq!(q.backlog(), 0);
        q.push(&[1, 2, 3]);
        q.push(&[4]);
        assert_eq!(q.backlog(), 4);
    }

    #[test]
    fn push_all_batches_without_copying() {
        let whole = Bytes::from(vec![9u8; 32]);
        let mut q = SendQueue::new();
        q.push_all([whole.slice(..16), whole.slice(16..)]);
        assert_eq!(q.backlog(), 32);
        assert_eq!(q.chunks.len(), 1, "frame chunks re-join");
        assert!(q.chunks[0].same_storage(&whole));
    }

    #[test]
    fn push_bytes_joins_adjacent_views() {
        let whole = Bytes::from(vec![1u8, 2, 3, 4, 5, 6]);
        let mut q = SendQueue::new();
        q.push_bytes(whole.slice(..3));
        q.push_bytes(whole.slice(3..));
        assert_eq!(q.backlog(), 6);
        assert_eq!(q.chunks.len(), 1, "adjacent slices re-join");
        assert!(q.chunks[0].same_storage(&whole));
    }
}
