//! Protocol-agnostic block transport traits.
//!
//! StorM's interception API claims to be wire-protocol agnostic; this
//! module makes that claim structural. [`Transport`] is the guest-side
//! face of a block session (login, tagged reads/writes/flushes, sans-io
//! bytes in/out) and [`TargetTransport`] the storage-server side. The
//! iSCSI stack implements both here ([`Transport`] on [`Initiator`],
//! [`TargetTransport`] on [`TargetConn`]);
//! `storm-nvmeq` implements them for the NVMe-oF-style multi-queue
//! protocol. The guest client, the cloud target host and the benches
//! select a protocol with [`TransportKind`] and never touch wire formats
//! again.
//!
//! Both traits stay sans-io: no clocks, no sockets. The one concession
//! to time is the completion-coalescing hook on [`TargetTransport`] —
//! interrupt moderation needs deadlines, so the hosting app passes the
//! current simulation time as plain nanoseconds and arms its own timer
//! for [`TargetTransport::cq_deadline_ns`].

use bytes::Bytes;

use crate::cdb::ScsiStatus;
use crate::initiator::{Initiator, IoTag};
use crate::target::{TargetConn, TargetEvent};

/// Which wire protocol a session speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// RFC 7143 iSCSI over TCP (the paper's deployment).
    #[default]
    Iscsi,
    /// The NVMe-oF-style paired submission/completion queue protocol
    /// (`storm-nvmeq`): 64-byte SQEs, batched doorbell frames, coalesced
    /// completions.
    Nvmeq,
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportKind::Iscsi => write!(f, "iscsi"),
            TransportKind::Nvmeq => write!(f, "nvmeq"),
        }
    }
}

/// Events a [`Transport`] surfaces to the guest client.
///
/// One-to-one with the I/O lifecycle the guest cares about; protocol
/// details (login phases, R2T rounds, ring doorbells) stay inside the
/// transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportEvent {
    /// The session is ready for I/O.
    Ready,
    /// The target refused the session.
    ConnectFailed {
        /// Protocol-specific status class.
        class: u8,
        /// Detail within the class.
        detail: u8,
    },
    /// A read finished.
    ReadDone {
        /// The I/O's tag.
        tag: IoTag,
        /// Completion status.
        status: ScsiStatus,
        /// The data (empty on error).
        data: Bytes,
    },
    /// A write finished.
    WriteDone {
        /// The I/O's tag.
        tag: IoTag,
        /// Completion status.
        status: ScsiStatus,
    },
    /// A flush finished.
    FlushDone {
        /// The I/O's tag.
        tag: IoTag,
        /// Completion status.
        status: ScsiStatus,
    },
    /// The session shut down cleanly.
    Closed,
    /// The peer violated the protocol; drop the connection.
    ProtocolError(String),
}

/// Guest-side block transport: a sans-io session state machine.
///
/// Bytes from the socket go into [`feed_bytes`](Transport::feed_bytes),
/// completed events come out; queued wire bytes drain through
/// [`take_wire`](Transport::take_wire) as refcounted chunks so payloads
/// travel by reference. Commands are tagged with [`IoTag`]s that the
/// transport guarantees unique among in-flight I/O, which is what lets a
/// client keep `queue_depth` commands outstanding concurrently.
pub trait Transport: std::fmt::Debug {
    /// The protocol this session speaks.
    fn kind(&self) -> TransportKind;

    /// Begins session establishment (login / queue connect).
    fn start(&mut self);

    /// Whether the session is ready for I/O.
    fn is_ready(&self) -> bool;

    /// Issues a tagged read of `sectors` sectors at `lba`.
    fn read(&mut self, lba: u64, sectors: u32) -> IoTag;

    /// Issues a tagged write of whole sectors at `lba`.
    fn write(&mut self, lba: u64, data: Bytes) -> IoTag;

    /// Issues a tagged flush/barrier.
    fn flush(&mut self) -> IoTag;

    /// Begins a clean shutdown.
    fn shutdown(&mut self);

    /// Commands issued but not yet completed.
    fn in_flight(&self) -> usize;

    /// Feeds received bytes; returns completed events.
    fn feed_bytes(&mut self, bytes: Bytes) -> Vec<TransportEvent>;

    /// Drains queued wire bytes as refcounted chunks.
    fn take_wire(&mut self) -> Vec<Bytes>;

    /// Payload bytes memcpy'd by this endpoint (encode + reassembly).
    fn bytes_copied(&self) -> u64;

    /// High-water mark of commands simultaneously in the submission
    /// ring. `0` for protocols without rings.
    fn sq_peak(&self) -> usize {
        0
    }

    /// `(doorbell frames sent, SQEs they carried)` — batching efficiency
    /// of the submission path. `(0, 0)` for protocols without doorbells.
    fn doorbell_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// `(completion frames received, CQEs they carried)` — coalescing
    /// efficiency of the completion path. `(0, 0)` for protocols without
    /// completion queues.
    fn cq_stats(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Storage-server-side transport: one accepted connection.
///
/// The hosting app feeds received bytes, serves the surfaced
/// [`TargetEvent`]s against its disk model, and answers with the
/// `complete_*` calls. `now_ns` is the current simulation time in
/// nanoseconds; protocols with completion coalescing (nvmeq) use it to
/// run the interrupt-moderation clock, iSCSI ignores it.
pub trait TargetTransport: std::fmt::Debug {
    /// The protocol this connection speaks.
    fn kind(&self) -> TransportKind;

    /// Feeds received bytes; returns events for the hosting app.
    fn feed_bytes(&mut self, bytes: Bytes) -> Vec<TargetEvent>;

    /// Completes a read surfaced by [`TargetEvent::ReadReady`].
    fn complete_read(&mut self, now_ns: u64, itt: u32, data: Bytes, status: ScsiStatus);

    /// Completes a write surfaced by [`TargetEvent::WriteReady`].
    fn complete_write(&mut self, now_ns: u64, itt: u32, status: ScsiStatus);

    /// Completes a flush surfaced by [`TargetEvent::FlushReady`].
    fn complete_flush(&mut self, now_ns: u64, itt: u32, status: ScsiStatus);

    /// Drains queued wire bytes as refcounted chunks.
    fn take_wire(&mut self) -> Vec<Bytes>;

    /// Whether session establishment completed.
    fn is_logged_in(&self) -> bool;

    /// Payload bytes memcpy'd on the encode path.
    fn bytes_copied(&self) -> u64;

    /// When the interrupt-moderation timer should next fire, if
    /// completions are being held for coalescing. The hosting app arms a
    /// timer for this instant and calls [`flush_cq`](Self::flush_cq)
    /// when it fires. `None` for protocols without coalescing.
    fn cq_deadline_ns(&self) -> Option<u64> {
        None
    }

    /// Flushes held completions to the wire (interrupt-moderation timer
    /// fired). No-op for protocols without coalescing.
    fn flush_cq(&mut self, _now_ns: u64) {}

    /// Commands accepted but not yet completed (queue occupancy).
    fn in_flight(&self) -> usize;

    /// High-water mark of [`in_flight`](Self::in_flight) over the
    /// connection's lifetime.
    fn occupancy_peak(&self) -> usize;
}

impl Transport for Initiator {
    fn kind(&self) -> TransportKind {
        TransportKind::Iscsi
    }

    fn start(&mut self) {
        self.start_login();
    }

    fn is_ready(&self) -> bool {
        self.is_logged_in()
    }

    fn read(&mut self, lba: u64, sectors: u32) -> IoTag {
        Initiator::read(self, lba, sectors)
    }

    fn write(&mut self, lba: u64, data: Bytes) -> IoTag {
        Initiator::write(self, lba, data)
    }

    fn flush(&mut self) -> IoTag {
        Initiator::flush(self)
    }

    fn shutdown(&mut self) {
        self.logout();
    }

    fn in_flight(&self) -> usize {
        Initiator::in_flight(self)
    }

    fn feed_bytes(&mut self, bytes: Bytes) -> Vec<TransportEvent> {
        Initiator::feed_bytes(self, bytes)
    }

    fn take_wire(&mut self) -> Vec<Bytes> {
        Initiator::take_wire(self)
    }

    fn bytes_copied(&self) -> u64 {
        Initiator::bytes_copied(self)
    }
}

impl TargetTransport for TargetConn {
    fn kind(&self) -> TransportKind {
        TransportKind::Iscsi
    }

    fn feed_bytes(&mut self, bytes: Bytes) -> Vec<TargetEvent> {
        TargetConn::feed_bytes(self, bytes)
    }

    fn complete_read(&mut self, _now_ns: u64, itt: u32, data: Bytes, status: ScsiStatus) {
        TargetConn::complete_read(self, itt, data, status);
    }

    fn complete_write(&mut self, _now_ns: u64, itt: u32, status: ScsiStatus) {
        TargetConn::complete_write(self, itt, status);
    }

    fn complete_flush(&mut self, _now_ns: u64, itt: u32, status: ScsiStatus) {
        TargetConn::complete_flush(self, itt, status);
    }

    fn take_wire(&mut self) -> Vec<Bytes> {
        TargetConn::take_wire(self)
    }

    fn is_logged_in(&self) -> bool {
        TargetConn::is_logged_in(self)
    }

    fn bytes_copied(&self) -> u64 {
        TargetConn::bytes_copied(self)
    }

    fn in_flight(&self) -> usize {
        TargetConn::in_flight(self)
    }

    fn occupancy_peak(&self) -> usize {
        TargetConn::occupancy_peak(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initiator::InitiatorConfig;
    use crate::target::TargetConfig;

    /// The full write/read cycle from the crate example, driven purely
    /// through the trait objects — no iSCSI types leak through.
    #[test]
    fn iscsi_session_through_trait_objects() {
        let mut ini: Box<dyn Transport> = Box::new(Initiator::new(InitiatorConfig::example()));
        let mut tgt: Box<dyn TargetTransport> =
            Box::new(TargetConn::new(TargetConfig::example(2048)));
        assert_eq!(ini.kind(), TransportKind::Iscsi);
        assert_eq!(tgt.kind(), TransportKind::Iscsi);

        ini.start();
        let mut ready = false;
        for _ in 0..8 {
            for c in ini.take_wire() {
                let _ = tgt.feed_bytes(c);
            }
            for c in tgt.take_wire() {
                ready |= ini
                    .feed_bytes(c)
                    .iter()
                    .any(|e| matches!(e, TransportEvent::Ready));
            }
        }
        assert!(ready && ini.is_ready() && tgt.is_logged_in());
        assert_eq!(tgt.cq_deadline_ns(), None, "iscsi never coalesces");

        let wtag = ini.write(0, Bytes::from(vec![0xAA; 4096]));
        let mut done = false;
        for _ in 0..8 {
            for c in ini.take_wire() {
                for ev in tgt.feed_bytes(c) {
                    if let TargetEvent::WriteReady { itt, lba, data } = ev {
                        assert_eq!((lba, data.len()), (0, 4096));
                        tgt.complete_write(0, itt, ScsiStatus::Good);
                    }
                }
            }
            for c in tgt.take_wire() {
                for ev in ini.feed_bytes(c) {
                    if let TransportEvent::WriteDone { tag, status } = ev {
                        assert_eq!((tag, status), (wtag, ScsiStatus::Good));
                        done = true;
                    }
                }
            }
        }
        assert!(done);
        assert_eq!(ini.in_flight(), 0);
        assert_eq!(tgt.in_flight(), 0);
        assert!(tgt.occupancy_peak() >= 1);
    }
}
