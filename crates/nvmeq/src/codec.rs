//! Wire codec: frame headers, submission queue entries, completion
//! queue entries.
//!
//! Layouts (all integers big-endian):
//!
//! ```text
//! frame header (16 B): [0] magic 0xB5   [1] frame type   [2..4]  count
//!                      [4..8] payload_len                [8..16] reserved (zero)
//! SQE (64 B):          [0] opcode       [4..8] cid       [8..16] lba
//!                      [16..20] sectors [20..24] data_len  rest reserved
//! CQE (16 B):          [0..4] cid       [4] status       [5] opcode echo
//!                      [8..12] data_len                  rest reserved
//! ```

use std::fmt;

use storm_block::transport::ScsiStatus;

/// First byte of every frame; iSCSI's first login byte is `0x43`, so one
/// peek at a new connection's first byte identifies the protocol.
pub const MAGIC: u8 = 0xB5;
/// Frame header length.
pub const FRAME_HDR_LEN: usize = 16;
/// Submission queue entry length (NVMe's command size).
pub const SQE_LEN: usize = 64;
/// Completion queue entry length (NVMe's CQE size).
pub const CQE_LEN: usize = 16;
/// Upper bound on a frame's payload; anything larger is a desynced or
/// hostile stream, rejected before the reassembler buffers it.
pub const MAX_PAYLOAD: u32 = 16 << 20;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Host → target: bind the connection to a volume (`count` = 0,
    /// payload = handshake text naming the host and the volume).
    Connect,
    /// Target → host: connect verdict (16-byte payload: status byte,
    /// volume size in sectors).
    ConnectAck,
    /// Host → target: a doorbell write carrying one SQE plus its
    /// in-capsule write data (`count` = 1).
    Doorbell,
    /// Target → host: one CQE plus its read payload (`count` = 1).
    Completion,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Connect => 1,
            FrameKind::ConnectAck => 2,
            FrameKind::Doorbell => 3,
            FrameKind::Completion => 4,
        }
    }

    /// The size of the one entry this kind of frame carries (zero for
    /// handshake frames, which carry none).
    pub fn entry_len(self) -> usize {
        match self {
            FrameKind::Doorbell => SQE_LEN,
            FrameKind::Completion => CQE_LEN,
            _ => 0,
        }
    }

    fn from_byte(b: u8) -> Result<FrameKind, NvmeqError> {
        Ok(match b {
            1 => FrameKind::Connect,
            2 => FrameKind::ConnectAck,
            3 => FrameKind::Doorbell,
            4 => FrameKind::Completion,
            other => return Err(NvmeqError::UnknownFrameType(other)),
        })
    }
}

/// Codec failure. Any of these means the stream is unusable and the
/// connection must drop — same contract as the iSCSI stream's `PduError`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvmeqError {
    /// First byte of a frame wasn't [`MAGIC`].
    BadMagic(u8),
    /// Unassigned frame-type byte.
    UnknownFrameType(u8),
    /// Unassigned SQE opcode byte.
    UnknownOpcode(u8),
    /// An entry or payload was shorter than its header promised.
    Truncated,
    /// Declared payload exceeds [`MAX_PAYLOAD`] or can't hold the
    /// frame's entry.
    Oversized {
        /// The declared payload length.
        payload_len: u32,
    },
    /// A doorbell or completion frame whose `count` is not 1, or a
    /// handshake frame whose `count` is not 0: a frame carries one
    /// command or none.
    BadCount {
        /// The frame's kind.
        kind: FrameKind,
        /// The declared entry count.
        count: u16,
    },
    /// Internal bookkeeping no longer matches buffered bytes.
    Desync,
}

impl fmt::Display for NvmeqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NvmeqError::BadMagic(b) => write!(f, "bad frame magic {b:#04x}"),
            NvmeqError::UnknownFrameType(b) => write!(f, "unknown frame type {b}"),
            NvmeqError::UnknownOpcode(b) => write!(f, "unknown SQE opcode {b}"),
            NvmeqError::Truncated => write!(f, "truncated entry"),
            NvmeqError::Oversized { payload_len } => {
                write!(f, "implausible payload length {payload_len}")
            }
            NvmeqError::BadCount { kind, count } => {
                write!(f, "{kind:?} frame declares {count} entries")
            }
            NvmeqError::Desync => write!(f, "stream desync"),
        }
    }
}

impl std::error::Error for NvmeqError {}

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Number of fixed-size entries in the payload: one SQE or CQE, zero
    /// for handshake frames.
    pub count: u16,
    /// Payload bytes following the header.
    pub payload_len: u32,
}

impl FrameHeader {
    /// The header of a doorbell or completion frame carrying its one
    /// entry and `data_len` data bytes.
    pub fn unit(kind: FrameKind, data_len: usize) -> FrameHeader {
        FrameHeader {
            kind,
            count: 1,
            payload_len: (kind.entry_len() + data_len) as u32,
        }
    }

    /// Serializes the header.
    pub fn encode(&self) -> [u8; FRAME_HDR_LEN] {
        let mut b = [0u8; FRAME_HDR_LEN];
        b[0] = MAGIC;
        b[1] = self.kind.to_byte();
        b[2..4].copy_from_slice(&self.count.to_be_bytes());
        b[4..8].copy_from_slice(&self.payload_len.to_be_bytes());
        b
    }

    /// Decodes and sanity-checks a header.
    ///
    /// # Errors
    ///
    /// [`NvmeqError::BadMagic`], [`NvmeqError::UnknownFrameType`],
    /// [`NvmeqError::BadCount`] for a `count` other than the kind's one
    /// entry (or none), or [`NvmeqError::Oversized`] when the declared
    /// payload exceeds [`MAX_PAYLOAD`] or is too small for the entry.
    pub fn decode(b: &[u8; FRAME_HDR_LEN]) -> Result<FrameHeader, NvmeqError> {
        if b[0] != MAGIC {
            return Err(NvmeqError::BadMagic(b[0]));
        }
        let kind = FrameKind::from_byte(b[1])?;
        let count = u16::from_be_bytes([b[2], b[3]]);
        let payload_len = u32::from_be_bytes([b[4], b[5], b[6], b[7]]);
        if count != u16::from(kind.entry_len() > 0) {
            return Err(NvmeqError::BadCount { kind, count });
        }
        if payload_len > MAX_PAYLOAD || kind.entry_len() > payload_len as usize {
            return Err(NvmeqError::Oversized { payload_len });
        }
        Ok(FrameHeader {
            kind,
            count,
            payload_len,
        })
    }
}

/// SQE opcode: the protocol-neutral block operation, so a command crosses
/// the transports without a mapping table.
pub use storm_block::transport::BlockOp as SqeOp;

fn op_to_byte(op: SqeOp) -> u8 {
    match op {
        SqeOp::Read => 1,
        SqeOp::Write => 2,
        SqeOp::Flush => 3,
    }
}

fn op_from_byte(b: u8) -> Result<SqeOp, NvmeqError> {
    Ok(match b {
        1 => SqeOp::Read,
        2 => SqeOp::Write,
        3 => SqeOp::Flush,
        other => return Err(NvmeqError::UnknownOpcode(other)),
    })
}

/// A 64-byte submission queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sqe {
    /// The command.
    pub op: SqeOp,
    /// Command identifier, echoed in the CQE; unique among in-flight
    /// commands on this queue.
    pub cid: u32,
    /// First sector.
    pub lba: u64,
    /// Sector count (reads; zero for flush).
    pub sectors: u32,
    /// In-capsule data bytes following this doorbell's SQE block
    /// (writes; zero otherwise).
    pub data_len: u32,
}

impl Sqe {
    /// Serializes the entry.
    pub fn encode(&self) -> [u8; SQE_LEN] {
        let mut b = [0u8; SQE_LEN];
        b[0] = op_to_byte(self.op);
        b[4..8].copy_from_slice(&self.cid.to_be_bytes());
        b[8..16].copy_from_slice(&self.lba.to_be_bytes());
        b[16..20].copy_from_slice(&self.sectors.to_be_bytes());
        b[20..24].copy_from_slice(&self.data_len.to_be_bytes());
        b
    }

    /// Decodes one entry from the front of `b`.
    ///
    /// # Errors
    ///
    /// [`NvmeqError::Truncated`] below [`SQE_LEN`] bytes,
    /// [`NvmeqError::UnknownOpcode`] for an unassigned opcode.
    pub fn decode(b: &[u8]) -> Result<Sqe, NvmeqError> {
        if b.len() < SQE_LEN {
            return Err(NvmeqError::Truncated);
        }
        Ok(Sqe {
            op: op_from_byte(b[0])?,
            cid: u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
            lba: u64::from_be_bytes([b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15]]),
            sectors: u32::from_be_bytes([b[16], b[17], b[18], b[19]]),
            data_len: u32::from_be_bytes([b[20], b[21], b[22], b[23]]),
        })
    }
}

/// A 16-byte completion queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cqe {
    /// The completed command's identifier.
    pub cid: u32,
    /// Completion status.
    pub status: ScsiStatus,
    /// The completed command's opcode (echoed so the host needn't look
    /// the command up to route the event).
    pub op: SqeOp,
    /// Read payload bytes following this completion frame's CQE block
    /// (reads; zero otherwise).
    pub data_len: u32,
}

impl Cqe {
    /// Serializes the entry.
    pub fn encode(&self) -> [u8; CQE_LEN] {
        let mut b = [0u8; CQE_LEN];
        b[0..4].copy_from_slice(&self.cid.to_be_bytes());
        b[4] = self.status.to_byte();
        b[5] = op_to_byte(self.op);
        b[8..12].copy_from_slice(&self.data_len.to_be_bytes());
        b
    }

    /// Decodes one entry from the front of `b`.
    ///
    /// # Errors
    ///
    /// [`NvmeqError::Truncated`] below [`CQE_LEN`] bytes,
    /// [`NvmeqError::UnknownOpcode`] for an unassigned opcode echo.
    pub fn decode(b: &[u8]) -> Result<Cqe, NvmeqError> {
        if b.len() < CQE_LEN {
            return Err(NvmeqError::Truncated);
        }
        Ok(Cqe {
            cid: u32::from_be_bytes([b[0], b[1], b[2], b[3]]),
            status: ScsiStatus::from_byte(b[4]),
            op: op_from_byte(b[5])?,
            data_len: u32::from_be_bytes([b[8], b[9], b[10], b[11]]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_header_round_trip() {
        let h = FrameHeader::unit(FrameKind::Doorbell, 65536);
        assert_eq!(h.payload_len, SQE_LEN as u32 + 65536);
        assert_eq!(FrameHeader::decode(&h.encode()), Ok(h));
        for kind in [
            FrameKind::Connect,
            FrameKind::ConnectAck,
            FrameKind::Completion,
        ] {
            let h = FrameHeader {
                kind,
                count: u16::from(kind == FrameKind::Completion),
                payload_len: 64,
            };
            assert_eq!(FrameHeader::decode(&h.encode()), Ok(h));
        }
    }

    #[test]
    fn frame_header_rejects_nonsense() {
        let mut b = FrameHeader {
            kind: FrameKind::Doorbell,
            count: 1,
            payload_len: SQE_LEN as u32,
        }
        .encode();
        b[0] = 0x43; // iSCSI login, not nvmeq
        assert_eq!(FrameHeader::decode(&b), Err(NvmeqError::BadMagic(0x43)));
        b[0] = MAGIC;
        // Every type but the four handshake and unit kinds is refused.
        for kind in [99, 0, 5, 6] {
            b[1] = kind;
            assert_eq!(
                FrameHeader::decode(&b),
                Err(NvmeqError::UnknownFrameType(kind))
            );
        }
        // Payload too small to hold the frame's entry.
        let h = FrameHeader {
            payload_len: CQE_LEN as u32 - 1,
            ..FrameHeader::unit(FrameKind::Completion, 0)
        };
        assert!(matches!(
            FrameHeader::decode(&h.encode()),
            Err(NvmeqError::Oversized { .. })
        ));
        // Payload beyond the global bound.
        let h = FrameHeader {
            payload_len: MAX_PAYLOAD + 1,
            ..FrameHeader::unit(FrameKind::Doorbell, 0)
        };
        assert!(matches!(
            FrameHeader::decode(&h.encode()),
            Err(NvmeqError::Oversized { .. })
        ));
    }

    #[test]
    fn sqe_round_trip() {
        for sqe in [
            Sqe {
                op: SqeOp::Read,
                cid: 7,
                lba: 1 << 40,
                sectors: 128,
                data_len: 0,
            },
            Sqe {
                op: SqeOp::Write,
                cid: u32::MAX,
                lba: 0,
                sectors: 8,
                data_len: 4096,
            },
            Sqe {
                op: SqeOp::Flush,
                cid: 0,
                lba: 0,
                sectors: 0,
                data_len: 0,
            },
        ] {
            assert_eq!(Sqe::decode(&sqe.encode()), Ok(sqe));
        }
        assert_eq!(Sqe::decode(&[0u8; 10]), Err(NvmeqError::Truncated));
        let mut b = [0u8; SQE_LEN];
        b[0] = 9;
        assert_eq!(Sqe::decode(&b), Err(NvmeqError::UnknownOpcode(9)));
    }

    #[test]
    fn cqe_round_trip() {
        for cqe in [
            Cqe {
                cid: 42,
                status: ScsiStatus::Good,
                op: SqeOp::Read,
                data_len: 65536,
            },
            Cqe {
                cid: 1,
                status: ScsiStatus::CheckCondition,
                op: SqeOp::Write,
                data_len: 0,
            },
            Cqe {
                cid: 2,
                status: ScsiStatus::Busy,
                op: SqeOp::Flush,
                data_len: 0,
            },
        ] {
            assert_eq!(Cqe::decode(&cqe.encode()), Ok(cqe));
        }
        assert_eq!(Cqe::decode(&[0u8; 3]), Err(NvmeqError::Truncated));
    }
}
