//! Incremental frame reassembly over a TCP byte stream, and the one
//! doorbell/completion frame encoder ([`push_unit`]) the initiator, the
//! target and the relay's edge share.
//!
//! Both directions run on [`WireBuf`], the chunk queue under the iSCSI
//! `PduStream` too (chunks of one allocation re-join for free, fixed-size
//! headers are peeked into stack arrays, payload bytes are copied *only*
//! when a segment genuinely straddles two receive allocations, and every
//! such byte is counted), so the relay fast path can prove itself
//! copy-free on this transport too. What lives here is the frame header
//! and command-unit parsing.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use bytes::Bytes;
use storm_block::transport::WireBuf;

use crate::codec::{Cqe, FrameHeader, FrameKind, NvmeqError, Sqe, FRAME_HDR_LEN, SQE_LEN};

/// The decoded entry of one command unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnitEntry {
    /// A submission (doorbell frames).
    Sqe(Sqe),
    /// A completion (completion frames).
    Cqe(Cqe),
}

/// The command unit of a doorbell or completion frame: the decoded
/// entry, its wire image, and its data segment — both views sharing the
/// receive allocation whenever the frame arrived contiguously, so a
/// relay can re-emit the unit verbatim without touching payload bytes.
#[derive(Debug, Clone)]
pub struct UnitWire {
    /// The decoded entry.
    pub entry: UnitEntry,
    /// The entry's wire bytes (64 B for SQEs, 16 B for CQEs).
    pub entry_wire: Bytes,
    /// The unit's data segment (in-capsule write data / read payload;
    /// empty otherwise).
    pub data: Bytes,
}

/// One reassembled frame together with its original wire image.
#[derive(Debug, Clone)]
pub struct FrameWire {
    /// The decoded header.
    pub header: FrameHeader,
    /// The frame's one command unit (doorbell/completion frames only).
    pub unit: Option<UnitWire>,
    /// The raw payload (handshake frames only; empty for
    /// doorbell/completion, whose payload is the `unit`).
    pub payload: Bytes,
    /// The frame's wire bytes as received, in order.
    pub wire: Vec<Bytes>,
}

/// Reassembles frames from arbitrarily fragmented stream bytes.
#[derive(Debug, Default)]
pub struct FrameStream {
    buf: WireBuf,
    bytes_copied: u64,
    header_bytes_copied: u64,
}

impl FrameStream {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a received chunk *by reference* and returns every frame
    /// completed by it, each with its original wire image.
    ///
    /// # Errors
    ///
    /// Propagates [`NvmeqError`] for undecodable headers or payloads
    /// inconsistent with their header; the stream is unusable afterwards
    /// (callers drop the connection).
    pub fn feed_bytes(&mut self, bytes: Bytes) -> Result<Vec<FrameWire>, NvmeqError> {
        self.buf.push_bytes(bytes);
        let mut out = Vec::new();
        while let Some(fw) = self.next_frame()? {
            out.push(fw);
        }
        Ok(out)
    }

    /// Bytes buffered awaiting a complete frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Data-segment bytes memcpy'd during reassembly (segments straddling
    /// two receive allocations). Zero on the relay fast path.
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied
    }

    /// Protocol-metadata bytes copied to decode scratch (16 per frame
    /// header, plus any entry that straddled allocations — the
    /// allowed fixed-size copies).
    pub fn header_bytes_copied(&self) -> u64 {
        self.header_bytes_copied
    }

    fn next_frame(&mut self) -> Result<Option<FrameWire>, NvmeqError> {
        if self.buf.len() < FRAME_HDR_LEN {
            return Ok(None);
        }
        let mut hdr = [0u8; FRAME_HDR_LEN];
        self.buf.peek_into(&mut hdr);
        self.header_bytes_copied += FRAME_HDR_LEN as u64;
        let header = FrameHeader::decode(&hdr)?;
        let total = FRAME_HDR_LEN + header.payload_len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let wire = self.buf.take_wire(total).ok_or(NvmeqError::Desync)?;
        let (unit, payload) = match header.kind.entry_len() {
            0 => {
                let len = header.payload_len as usize;
                let payload = WireBuf::extract(&wire, FRAME_HDR_LEN, len, &mut self.bytes_copied);
                (None, payload)
            }
            entry_len => (Some(self.unit(&wire, &header, entry_len)?), Bytes::new()),
        };
        Ok(Some(FrameWire {
            header,
            unit,
            payload,
            wire,
        }))
    }

    /// Splits a doorbell/completion payload into its command unit: the
    /// entry of `entry_len`, then its data segment, whose `data_len` must
    /// fill the rest of the payload exactly.
    fn unit(
        &mut self,
        wire: &[Bytes],
        header: &FrameHeader,
        entry_len: usize,
    ) -> Result<UnitWire, NvmeqError> {
        let hdr_copies = &mut self.header_bytes_copied;
        let entry_wire = WireBuf::extract(wire, FRAME_HDR_LEN, entry_len, hdr_copies);
        let (entry, data_len) = if entry_len == SQE_LEN {
            let sqe = Sqe::decode(&entry_wire)?;
            (UnitEntry::Sqe(sqe), sqe.data_len as usize)
        } else {
            let cqe = Cqe::decode(&entry_wire)?;
            (UnitEntry::Cqe(cqe), cqe.data_len as usize)
        };
        if entry_len + data_len != header.payload_len as usize {
            // Too short for its data, or trailing bytes nothing claims:
            // the stream is desynced.
            return Err(NvmeqError::Truncated);
        }
        let data_off = FRAME_HDR_LEN + entry_len;
        let data = WireBuf::extract(wire, data_off, data_len, &mut self.bytes_copied);
        Ok(UnitWire {
            entry,
            entry_wire,
            data,
        })
    }
}

/// Queues one doorbell or completion frame: a fresh header and `entry`
/// (an encoded SQE or CQE) by copy, then `data` by
/// [`WireBuf::push_data`] (shared when large, copied and counted when
/// small).
pub fn push_unit(out: &mut WireBuf, kind: FrameKind, entry: &[u8], data: Bytes) {
    out.push_slice(&FrameHeader::unit(kind, data.len()).encode());
    out.push_slice(entry);
    out.push_data(data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{FrameKind, SqeOp, CQE_LEN};
    use storm_block::transport::ScsiStatus;

    /// Encodes a doorbell frame with the given write payloads; more than
    /// one makes a frame the stream must refuse.
    fn doorbell(cmds: &[(Sqe, &[u8])]) -> Vec<u8> {
        let data: usize = cmds.iter().map(|(_, d)| d.len()).sum();
        let h = FrameHeader {
            kind: FrameKind::Doorbell,
            count: cmds.len() as u16,
            payload_len: (cmds.len() * SQE_LEN + data) as u32,
        };
        let mut out = h.encode().to_vec();
        for (sqe, _) in cmds {
            out.extend_from_slice(&sqe.encode());
        }
        for (_, d) in cmds {
            out.extend_from_slice(d);
        }
        out
    }

    fn wsqe(cid: u32, data_len: u32) -> Sqe {
        Sqe {
            op: SqeOp::Write,
            cid,
            lba: cid as u64 * 8,
            sectors: data_len / 512,
            data_len,
        }
    }

    #[test]
    fn whole_frame_parses_zero_copy() {
        let payload = vec![0xEE; 4096];
        let whole = Bytes::from(doorbell(&[(wsqe(1, 4096), &payload)]));
        let mut s = FrameStream::new();
        let got = s.feed_bytes(whole.clone()).unwrap();
        assert_eq!(got.len(), 1);
        let fw = &got[0];
        assert_eq!(fw.header.kind, FrameKind::Doorbell);
        let unit = fw.unit.as_ref().expect("a doorbell carries its SQE");
        assert_eq!(unit.entry, UnitEntry::Sqe(wsqe(1, 4096)));
        let data_off = FRAME_HDR_LEN + SQE_LEN;
        assert!(
            unit.data
                .same_storage(&whole.slice(data_off..data_off + 4096)),
            "payload is a view"
        );
        assert_eq!(fw.wire.len(), 1);
        assert!(fw.wire[0].same_storage(&whole));
        assert_eq!(s.bytes_copied(), 0);
        assert_eq!(s.pending_bytes(), 0);
    }

    #[test]
    fn segments_of_one_allocation_rejoin() {
        let payload = vec![0x5A; 2048];
        let whole = Bytes::from(doorbell(&[(wsqe(3, 2048), &payload)]));
        let mut s = FrameStream::new();
        let mut got = Vec::new();
        let mut off = 0;
        while off < whole.len() {
            let end = (off + 100).min(whole.len());
            got.extend(s.feed_bytes(whole.slice(off..end)).unwrap());
            off = end;
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].wire.len(), 1, "adjacent slices re-join");
        assert_eq!(s.bytes_copied(), 0, "no data-segment copies");
    }

    #[test]
    fn foreign_chunks_count_copies() {
        let payload = vec![0x11; 1024];
        let whole = doorbell(&[(wsqe(9, 1024), &payload)]);
        let cut = FRAME_HDR_LEN + SQE_LEN + 100; // mid-data
        let mut s = FrameStream::new();
        assert!(s
            .feed_bytes(Bytes::copy_from_slice(&whole[..cut]))
            .unwrap()
            .is_empty());
        let got = s.feed_bytes(Bytes::copy_from_slice(&whole[cut..])).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(s.bytes_copied(), 1024, "straddling data copy is counted");
    }

    /// A frame carries one command or none: a two-SQE doorbell, a
    /// two-CQE completion and a connect claiming an entry are refused
    /// with the typed error as soon as their header arrives.
    #[test]
    fn a_frame_carries_one_command_or_none() {
        let refused = |wire: Vec<u8>, kind, count| {
            let mut s = FrameStream::new();
            let got = s.feed_bytes(Bytes::copy_from_slice(&wire[..FRAME_HDR_LEN]));
            assert_eq!(got.unwrap_err(), NvmeqError::BadCount { kind, count });
        };
        let two_sqes = doorbell(&[(wsqe(1, 512), &[0xAA; 512]), (wsqe(2, 512), &[0xBB; 512])]);
        refused(two_sqes, FrameKind::Doorbell, 2);
        let two_cqes = FrameHeader {
            count: 2,
            payload_len: 2 * CQE_LEN as u32,
            ..FrameHeader::unit(FrameKind::Completion, 0)
        };
        refused(two_cqes.encode().to_vec(), FrameKind::Completion, 2);
        let connect = FrameHeader {
            kind: FrameKind::Connect,
            count: 1,
            payload_len: 64,
        };
        refused(connect.encode().to_vec(), FrameKind::Connect, 1);
        // A doorbell with no SQE is refused too.
        let empty = FrameHeader {
            count: 0,
            ..FrameHeader::unit(FrameKind::Doorbell, 0)
        };
        refused(empty.encode().to_vec(), FrameKind::Doorbell, 0);
    }

    #[test]
    fn completion_frame_parses() {
        let data = vec![0xCD; 512];
        let cqe = Cqe {
            cid: 7,
            status: ScsiStatus::Good,
            op: SqeOp::Read,
            data_len: 512,
        };
        let mut wire = FrameHeader::unit(FrameKind::Completion, 512)
            .encode()
            .to_vec();
        wire.extend_from_slice(&cqe.encode());
        wire.extend_from_slice(&data);
        let mut s = FrameStream::new();
        let got = s.feed_bytes(Bytes::from(wire)).unwrap();
        let unit = got[0].unit.as_ref().expect("a completion carries its CQE");
        assert_eq!(unit.entry, UnitEntry::Cqe(cqe));
        assert_eq!(unit.data.len(), 512);
    }

    #[test]
    fn data_lengths_must_tile_payload() {
        // Entry claims more data than the payload holds.
        let mut short = doorbell(&[(wsqe(1, 512), &[0u8; 512])]);
        short[4..8].copy_from_slice(&((SQE_LEN + 256) as u32).to_be_bytes());
        short.truncate(FRAME_HDR_LEN + SQE_LEN + 256);
        let mut s = FrameStream::new();
        assert!(matches!(
            s.feed_bytes(Bytes::from(short)),
            Err(NvmeqError::Truncated)
        ));
        // Payload holds bytes no entry claims.
        let mut loose = doorbell(&[(wsqe(1, 512), &[0u8; 512])]);
        loose[4..8].copy_from_slice(&((SQE_LEN + 512 + 64) as u32).to_be_bytes());
        loose.extend_from_slice(&[0u8; 64]);
        let mut s = FrameStream::new();
        assert!(matches!(
            s.feed_bytes(Bytes::from(loose)),
            Err(NvmeqError::Truncated)
        ));
    }

    #[test]
    fn bad_magic_rejected_immediately() {
        let mut s = FrameStream::new();
        let junk = [0x43u8; FRAME_HDR_LEN]; // iSCSI login opcode byte
        assert!(matches!(
            s.feed_bytes(Bytes::copy_from_slice(&junk)),
            Err(NvmeqError::BadMagic(0x43))
        ));
    }
}
