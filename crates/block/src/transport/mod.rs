//! The protocol-neutral block transport layer: what every wire protocol
//! shares, naming none of them. [`Transport`] is the guest side of a block
//! session and [`TargetTransport`] the storage-server side; `storm-iscsi`
//! and `storm-nvmeq` implement both, and the guest client, the cloud
//! target host and the benches pick one with [`TransportKind`]. Beside
//! them: the block half of the exchange model ([`BlockCmd`], [`Transfer`],
//! [`Step`], [`Staging`]), the handshake text both protocols' connects
//! carry ([`encode_text`], [`scan_text`]) and the one chunk queue under
//! every stream and in front of every socket ([`WireBuf`]).
//!
//! Both traits stay sans-io: no clocks, no sockets.

use std::fmt;

use bytes::Bytes;

mod exchange;
mod iqn;
mod wire;

pub use exchange::{
    BlockCmd, BlockOp, CmdReject, Overrun, Staged, Staging, Step, Transfer, MAX_TRANSFER,
};
pub use iqn::{encode_text, scan_text, Iqn};
pub use wire::{WireBuf, SHARE_THRESHOLD};

/// Which wire protocol a session speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// RFC 7143 iSCSI over TCP (the paper's deployment).
    #[default]
    Iscsi,
    /// The NVMe-oF-style paired submission/completion queue protocol
    /// (`storm-nvmeq`): 64-byte SQEs, one doorbell frame per command and
    /// one completion frame per CQE.
    Nvmeq,
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportKind::Iscsi => write!(f, "iscsi"),
            TransportKind::Nvmeq => write!(f, "nvmeq"),
        }
    }
}

/// SCSI command completion status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScsiStatus {
    /// Command completed successfully.
    Good,
    /// Check condition (sense data would describe the error).
    CheckCondition,
    /// Device busy.
    Busy,
}

impl ScsiStatus {
    /// Wire encoding (SAM-5 status codes).
    pub fn to_byte(self) -> u8 {
        match self {
            ScsiStatus::Good => 0x00,
            ScsiStatus::CheckCondition => 0x02,
            ScsiStatus::Busy => 0x08,
        }
    }

    /// Decodes a status byte (unknown codes map to `CheckCondition`).
    pub fn from_byte(b: u8) -> ScsiStatus {
        match b {
            0x00 => ScsiStatus::Good,
            0x08 => ScsiStatus::Busy,
            _ => ScsiStatus::CheckCondition,
        }
    }
}

impl fmt::Display for ScsiStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScsiStatus::Good => write!(f, "GOOD"),
            ScsiStatus::CheckCondition => write!(f, "CHECK CONDITION"),
            ScsiStatus::Busy => write!(f, "BUSY"),
        }
    }
}

/// Identifies an outstanding I/O issued through a [`Transport`].
///
/// The tag becomes the command's tag on the wire (iSCSI ITT, nvmeq CID),
/// visible to every hop that parses it. Telemetry leans on this: a
/// request token is the initiator's TCP source port combined with this
/// tag, so the guest, the middle-box and the target stamp trace spans for
/// the same request without any side channel (`storm_sim::req_token`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IoTag(pub u32);

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
    /// The peer violated the protocol; drop the connection.
    ProtocolError(String),
}

/// Events a [`TargetTransport`] surfaces to the application hosting it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetEvent {
    /// Login completed; the connection is in full-feature phase.
    LoggedIn {
        /// The initiator's IQN (connection attribution reads this).
        initiator_name: String,
    },
    /// A read command wants `sectors` sectors at `lba`; answer with
    /// [`TargetTransport::complete_read`].
    ReadReady {
        /// Task tag to echo back.
        itt: u32,
        /// First sector.
        lba: u64,
        /// Sector count.
        sectors: u32,
    },
    /// A write command's data is fully assembled; answer with
    /// [`TargetTransport::complete_write`].
    WriteReady {
        /// Task tag to echo back.
        itt: u32,
        /// First sector.
        lba: u64,
        /// The complete write payload.
        data: Bytes,
    },
    /// A flush command arrived; answer with [`TargetTransport::complete_flush`].
    FlushReady {
        /// Task tag to echo back.
        itt: u32,
    },
    /// Protocol violation; drop the connection.
    ProtocolError(String),
}

/// Guest-side block transport: a sans-io session state machine.
///
/// Bytes from the socket go into [`feed_bytes`](Transport::feed_bytes),
/// completed events come out; the hosting app drains the outbound
/// [`wire`](Transport::wire) into its socket, payloads by reference.
/// Commands are tagged with [`IoTag`]s that the transport guarantees
/// unique among in-flight I/O, which is what lets a client keep
/// `queue_depth` commands outstanding concurrently.
pub trait Transport: fmt::Debug {
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

    /// Commands issued but not yet completed.
    fn in_flight(&self) -> usize;

    /// Feeds received bytes; returns completed events.
    fn feed_bytes(&mut self, bytes: Bytes) -> Vec<TransportEvent>;

    /// The outbound chunk queue, drained with [`WireBuf::send`].
    fn wire(&mut self) -> &mut WireBuf;

    /// High-water mark of commands simultaneously in the submission
    /// ring. `0` for protocols without rings.
    fn sq_peak(&self) -> usize {
        0
    }

    /// `(doorbell frames sent, SQEs they carried)`; a frame carries one
    /// SQE. `(0, 0)` for protocols without doorbells.
    fn doorbell_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// `(completion frames received, CQEs they carried)`; a frame carries
    /// one CQE. `(0, 0)` for protocols without completion queues.
    fn cq_stats(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Storage-server-side transport: one accepted connection.
///
/// The hosting app feeds received bytes, serves the surfaced
/// [`TargetEvent`]s against its disk model, and answers with the
/// `complete_*` calls, which queue the answer at once. `now_ns` is the
/// current simulation time in nanoseconds; no protocol reads it.
pub trait TargetTransport: fmt::Debug {
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

    /// The outbound chunk queue, drained with [`WireBuf::send`].
    fn wire(&mut self) -> &mut WireBuf;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_round_trip() {
        for s in [
            ScsiStatus::Good,
            ScsiStatus::CheckCondition,
            ScsiStatus::Busy,
        ] {
            assert_eq!(ScsiStatus::from_byte(s.to_byte()), s);
        }
        assert_eq!(ScsiStatus::from_byte(0x42), ScsiStatus::CheckCondition);
        assert_eq!(ScsiStatus::Good.to_string(), "GOOD");
    }
}
