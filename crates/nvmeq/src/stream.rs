//! Incremental frame reassembly over a TCP byte stream.
//!
//! Buffers in the same [`ChunkDeque`] as `storm_iscsi::PduStream` (chunks
//! of one allocation re-join for free, fixed-size headers are peeked into
//! stack arrays, payload bytes are copied *only* when a segment genuinely
//! straddles two receive allocations, and every such byte is counted), so
//! the relay fast path can prove itself copy-free on this transport too.
//! What lives here is the frame header and command-unit parsing.

use bytes::Bytes;
use storm_iscsi::ChunkDeque;

use crate::codec::{Cqe, FrameHeader, FrameKind, NvmeqError, Sqe, CQE_LEN, FRAME_HDR_LEN, SQE_LEN};

/// The decoded entry of one command unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnitEntry {
    /// A submission (doorbell frames).
    Sqe(Sqe),
    /// A completion (completion frames).
    Cqe(Cqe),
}

/// One command unit of a doorbell or completion frame: the decoded
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
    /// Command units, in entry order (doorbell/completion frames only).
    pub units: Vec<UnitWire>,
    /// The raw payload (handshake frames only; empty for
    /// doorbell/completion, whose payload is split into `units`).
    pub payload: Bytes,
    /// The frame's wire bytes as received, in order.
    pub wire: Vec<Bytes>,
}

/// Reassembles frames from arbitrarily fragmented stream bytes.
#[derive(Debug, Default)]
pub struct FrameStream {
    buf: ChunkDeque,
    frames_out: u64,
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
        if !bytes.is_empty() {
            self.buf.push_chunk(bytes);
        }
        let mut out = Vec::new();
        while let Some(fw) = self.next_frame()? {
            out.push(fw);
        }
        Ok(out)
    }

    /// Bytes buffered awaiting a complete frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.buffered()
    }

    /// Total frames produced.
    pub fn frames_out(&self) -> u64 {
        self.frames_out
    }

    /// Data-segment bytes memcpy'd during reassembly (segments straddling
    /// two receive allocations). Zero on the relay fast path.
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied
    }

    /// Protocol-metadata bytes copied to decode scratch (16 per frame
    /// header, plus any entry block that straddled allocations — the
    /// allowed fixed-size copies).
    pub fn header_bytes_copied(&self) -> u64 {
        self.header_bytes_copied
    }

    fn next_frame(&mut self) -> Result<Option<FrameWire>, NvmeqError> {
        if self.buf.buffered() < FRAME_HDR_LEN {
            return Ok(None);
        }
        let mut hdr = [0u8; FRAME_HDR_LEN];
        self.buf.peek_into(&mut hdr);
        self.header_bytes_copied += FRAME_HDR_LEN as u64;
        let header = FrameHeader::decode(&hdr)?;
        let total = FRAME_HDR_LEN + header.payload_len as usize;
        if self.buf.buffered() < total {
            return Ok(None);
        }
        let wire = self.buf.take_wire(total).ok_or(NvmeqError::Desync)?;
        let (units, payload) = match header.kind {
            FrameKind::Doorbell => (self.split_units(&wire, &header, SQE_LEN)?, Bytes::new()),
            FrameKind::Completion => (self.split_units(&wire, &header, CQE_LEN)?, Bytes::new()),
            _ => {
                let payload = ChunkDeque::extract(
                    &wire,
                    FRAME_HDR_LEN,
                    header.payload_len as usize,
                    &mut self.bytes_copied,
                );
                (Vec::new(), payload)
            }
        };
        self.frames_out += 1;
        Ok(Some(FrameWire {
            header,
            units,
            payload,
            wire,
        }))
    }

    /// Splits a doorbell/completion payload into command units: `count`
    /// entries of `entry_len`, then each unit's data segment in entry
    /// order. The per-entry `data_len` fields must tile the remaining
    /// payload exactly.
    fn split_units(
        &mut self,
        wire: &[Bytes],
        header: &FrameHeader,
        entry_len: usize,
    ) -> Result<Vec<UnitWire>, NvmeqError> {
        let count = header.count as usize;
        let total = FRAME_HDR_LEN + header.payload_len as usize;
        let mut units = Vec::with_capacity(count);
        let mut data_off = FRAME_HDR_LEN + count * entry_len;
        for i in 0..count {
            let entry_wire = ChunkDeque::extract(
                wire,
                FRAME_HDR_LEN + i * entry_len,
                entry_len,
                &mut self.header_bytes_copied,
            );
            let (entry, data_len) = if entry_len == SQE_LEN {
                let sqe = Sqe::decode(&entry_wire)?;
                (UnitEntry::Sqe(sqe), sqe.data_len as usize)
            } else {
                let cqe = Cqe::decode(&entry_wire)?;
                (UnitEntry::Cqe(cqe), cqe.data_len as usize)
            };
            if data_off + data_len > total {
                return Err(NvmeqError::Truncated);
            }
            let data = ChunkDeque::extract(wire, data_off, data_len, &mut self.bytes_copied);
            data_off += data_len;
            units.push(UnitWire {
                entry,
                entry_wire,
                data,
            });
        }
        if data_off != total {
            // Trailing payload no entry claims: the stream is desynced.
            return Err(NvmeqError::Truncated);
        }
        Ok(units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::SqeOp;
    use storm_iscsi::ScsiStatus;

    /// Encodes a doorbell frame with the given write payloads.
    fn doorbell(cmds: &[(Sqe, &[u8])]) -> Vec<u8> {
        let data: usize = cmds.iter().map(|(_, d)| d.len()).sum();
        let h = FrameHeader {
            kind: FrameKind::Doorbell,
            count: cmds.len() as u16,
            payload_len: (cmds.len() * SQE_LEN + data) as u32,
            queue_depth: 0,
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
        assert_eq!(fw.units.len(), 1);
        assert_eq!(fw.units[0].entry, UnitEntry::Sqe(wsqe(1, 4096)));
        assert_eq!(fw.units[0].data.len(), 4096);
        let data_off = FRAME_HDR_LEN + SQE_LEN;
        assert!(
            fw.units[0]
                .data
                .same_storage(&whole.slice(data_off..data_off + 4096)),
            "payload is a view"
        );
        assert_eq!(fw.wire.len(), 1);
        assert!(fw.wire[0].same_storage(&whole));
        assert_eq!(s.bytes_copied(), 0);
        assert_eq!(s.pending_bytes(), 0);
        assert_eq!(s.frames_out(), 1);
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

    #[test]
    fn multi_unit_doorbell_splits_in_order() {
        let a = vec![0xAA; 512];
        let b = vec![0xBB; 1024];
        let whole = Bytes::from(doorbell(&[
            (wsqe(1, 512), &a),
            (
                Sqe {
                    op: SqeOp::Read,
                    cid: 2,
                    lba: 64,
                    sectors: 16,
                    data_len: 0,
                },
                &[],
            ),
            (wsqe(3, 1024), &b),
        ]));
        let mut s = FrameStream::new();
        let got = s.feed_bytes(whole).unwrap();
        assert_eq!(got[0].units.len(), 3);
        assert_eq!(got[0].units[0].data.as_ref(), &a[..]);
        assert!(got[0].units[1].data.is_empty());
        assert_eq!(got[0].units[2].data.as_ref(), &b[..]);
        assert_eq!(s.bytes_copied(), 0);
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
        let h = FrameHeader {
            kind: FrameKind::Completion,
            count: 1,
            payload_len: (CQE_LEN + 512) as u32,
            queue_depth: 0,
        };
        let mut wire = h.encode().to_vec();
        wire.extend_from_slice(&cqe.encode());
        wire.extend_from_slice(&data);
        let mut s = FrameStream::new();
        let got = s.feed_bytes(Bytes::from(wire)).unwrap();
        assert_eq!(got[0].units[0].entry, UnitEntry::Cqe(cqe));
        assert_eq!(got[0].units[0].data.len(), 512);
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
