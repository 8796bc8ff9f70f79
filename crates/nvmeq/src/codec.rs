//! Wire codec: frame headers, submission queue entries, completion
//! queue entries.
//!
//! Layouts (all integers big-endian):
//!
//! ```text
//! frame header (16 B): [0] magic 0xB5   [1] frame type   [2..4]  count
//!                      [4..8] payload_len                [8..10] queue_depth
//!                      [10..16] reserved (zero)
//! SQE (64 B):          [0] opcode       [4..8] cid       [8..16] lba
//!                      [16..20] sectors [20..24] data_len  rest reserved
//! CQE (16 B):          [0..4] cid       [4] status       [5] opcode echo
//!                      [8..12] data_len                  rest reserved
//! ```

use std::fmt;

use storm_iscsi::ScsiStatus;

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
    /// payload = `key=value\0` text; `queue_depth` advertises the ring
    /// size).
    Connect,
    /// Target → host: connect verdict (16-byte payload: status byte,
    /// volume size in sectors).
    ConnectAck,
    /// Host → target: a doorbell write flushing `count` SQEs plus their
    /// in-capsule write data, in order.
    Doorbell,
    /// Target → host: `count` coalesced CQEs plus read payloads, in
    /// order.
    Completion,
    /// Host → target: clean shutdown request.
    Disconnect,
    /// Target → host: shutdown acknowledged.
    DisconnectAck,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Connect => 1,
            FrameKind::ConnectAck => 2,
            FrameKind::Doorbell => 3,
            FrameKind::Completion => 4,
            FrameKind::Disconnect => 5,
            FrameKind::DisconnectAck => 6,
        }
    }

    fn from_byte(b: u8) -> Result<FrameKind, NvmeqError> {
        Ok(match b {
            1 => FrameKind::Connect,
            2 => FrameKind::ConnectAck,
            3 => FrameKind::Doorbell,
            4 => FrameKind::Completion,
            5 => FrameKind::Disconnect,
            6 => FrameKind::DisconnectAck,
            other => return Err(NvmeqError::UnknownFrameType(other)),
        })
    }
}

/// Codec failure. Any of these means the stream is unusable and the
/// connection must drop — same contract as `storm_iscsi::PduError`.
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
    /// Declared payload exceeds [`MAX_PAYLOAD`] or can't hold `count`
    /// entries.
    Oversized {
        /// The declared payload length.
        payload_len: u32,
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
    /// Number of fixed-size entries in the payload (SQEs or CQEs; zero
    /// for handshake frames).
    pub count: u16,
    /// Payload bytes following the header.
    pub payload_len: u32,
    /// On `Connect`/`ConnectAck`: the ring size each side offers. Zero
    /// elsewhere.
    pub queue_depth: u16,
}

impl FrameHeader {
    /// Serializes the header.
    pub fn encode(&self) -> [u8; FRAME_HDR_LEN] {
        let mut b = [0u8; FRAME_HDR_LEN];
        b[0] = MAGIC;
        b[1] = self.kind.to_byte();
        b[2..4].copy_from_slice(&self.count.to_be_bytes());
        b[4..8].copy_from_slice(&self.payload_len.to_be_bytes());
        b[8..10].copy_from_slice(&self.queue_depth.to_be_bytes());
        b
    }

    /// Decodes and sanity-checks a header.
    ///
    /// # Errors
    ///
    /// [`NvmeqError::BadMagic`], [`NvmeqError::UnknownFrameType`], or
    /// [`NvmeqError::Oversized`] when the declared payload exceeds
    /// [`MAX_PAYLOAD`] or is too small for `count` entries of the frame's
    /// entry size.
    pub fn decode(b: &[u8; FRAME_HDR_LEN]) -> Result<FrameHeader, NvmeqError> {
        if b[0] != MAGIC {
            return Err(NvmeqError::BadMagic(b[0]));
        }
        let kind = FrameKind::from_byte(b[1])?;
        let count = u16::from_be_bytes([b[2], b[3]]);
        let payload_len = u32::from_be_bytes([b[4], b[5], b[6], b[7]]);
        let queue_depth = u16::from_be_bytes([b[8], b[9]]);
        if payload_len > MAX_PAYLOAD {
            return Err(NvmeqError::Oversized { payload_len });
        }
        let entry_len = match kind {
            FrameKind::Doorbell => SQE_LEN,
            FrameKind::Completion => CQE_LEN,
            _ => 0,
        };
        if (count as usize) * entry_len > payload_len as usize {
            return Err(NvmeqError::Oversized { payload_len });
        }
        Ok(FrameHeader {
            kind,
            count,
            payload_len,
            queue_depth,
        })
    }
}

/// SQE opcode: the protocol-neutral block operation, so a command crosses
/// the transports without a mapping table.
pub use storm_iscsi::exchange::BlockOp as SqeOp;

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

/// Encodes the `Connect` payload (the iSCSI login text idiom, so the
/// cloud's connection-attribution scanner reads both protocols).
pub fn encode_connect_payload(initiator_name: &str, target_name: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(initiator_name.len() + target_name.len() + 32);
    out.extend_from_slice(b"InitiatorName=");
    out.extend_from_slice(initiator_name.as_bytes());
    out.push(0);
    out.extend_from_slice(b"TargetName=");
    out.extend_from_slice(target_name.as_bytes());
    out.push(0);
    out
}

/// Extracts `key`'s value from a `Connect` payload.
pub fn scan_connect_payload(payload: &[u8], key: &str) -> Option<String> {
    for kv in payload.split(|&b| b == 0) {
        // Non-text segments (e.g. a frame header ahead of the payload
        // when a sniffer scans raw connection bytes) are skipped.
        let Ok(kv) = std::str::from_utf8(kv) else {
            continue;
        };
        if let Some((k, v)) = kv.split_once('=') {
            if k == key {
                return Some(v.to_string());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_header_round_trip() {
        let h = FrameHeader {
            kind: FrameKind::Doorbell,
            count: 3,
            payload_len: 3 * SQE_LEN as u32 + 65536,
            queue_depth: 0,
        };
        assert_eq!(FrameHeader::decode(&h.encode()), Ok(h));
        for kind in [
            FrameKind::Connect,
            FrameKind::ConnectAck,
            FrameKind::Completion,
            FrameKind::Disconnect,
            FrameKind::DisconnectAck,
        ] {
            let h = FrameHeader {
                kind,
                count: if kind == FrameKind::Completion { 2 } else { 0 },
                payload_len: 64,
                queue_depth: 32,
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
            queue_depth: 0,
        }
        .encode();
        b[0] = 0x43; // iSCSI login, not nvmeq
        assert_eq!(FrameHeader::decode(&b), Err(NvmeqError::BadMagic(0x43)));
        b[0] = MAGIC;
        b[1] = 99;
        assert_eq!(
            FrameHeader::decode(&b),
            Err(NvmeqError::UnknownFrameType(99))
        );
        // Payload too small to hold the declared entry count.
        let h = FrameHeader {
            kind: FrameKind::Completion,
            count: 5,
            payload_len: CQE_LEN as u32, // room for one
            queue_depth: 0,
        };
        assert!(matches!(
            FrameHeader::decode(&h.encode()),
            Err(NvmeqError::Oversized { .. })
        ));
        // Payload beyond the global bound.
        let h = FrameHeader {
            kind: FrameKind::Doorbell,
            count: 0,
            payload_len: MAX_PAYLOAD + 1,
            queue_depth: 0,
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

    #[test]
    fn connect_payload_scans() {
        let p = encode_connect_payload("iqn.2026-01.io.storm:guest0", "iqn.2026-01.io.storm:vol0");
        assert_eq!(
            scan_connect_payload(&p, "InitiatorName").as_deref(),
            Some("iqn.2026-01.io.storm:guest0")
        );
        assert_eq!(
            scan_connect_payload(&p, "TargetName").as_deref(),
            Some("iqn.2026-01.io.storm:vol0")
        );
        assert_eq!(scan_connect_payload(&p, "Missing"), None);
        assert_eq!(scan_connect_payload(b"\xff\xfe", "X"), None);
    }
}
