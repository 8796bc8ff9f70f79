//! Incremental PDU framing over a TCP byte stream, and the one PDU
//! encoder ([`push_pdu`]) the endpoints and the relay's edge share. Both
//! directions run on [`WireBuf`], the chunk queue every wire path shares.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use bytes::Bytes;
use storm_block::transport::WireBuf;

use crate::pdu::{data_segment_length, padded, Pdu, PduError, BHS_LEN};

/// One reassembled PDU together with its original wire image.
///
/// `wire` holds the exact received bytes of the PDU (header, data, pad) as
/// refcounted chunks in order — usually a single chunk once adjacent TCP
/// segments re-join. An active relay forwarding the PDU verbatim pushes
/// these chunks straight into its outbound [`WireBuf`] instead of
/// re-encoding.
#[derive(Debug, Clone)]
pub struct PduWire {
    /// The decoded PDU; its data segment view shares wire storage when
    /// the PDU arrived contiguously.
    pub pdu: Pdu,
    /// The PDU's wire bytes as received, in order.
    pub wire: Vec<Bytes>,
}

/// Reassembles PDUs from arbitrarily fragmented stream bytes.
///
/// This is the parsing core of StorM's middle-box API: pseudo-server and
/// pseudo-client processes feed received TCP bytes in and get whole PDUs
/// out, regardless of how the network segmented them.
///
/// Buffering is a [`WireBuf`]. The only unconditional copy is the
/// 48-byte header (read into a stack array for decoding); data-segment
/// bytes are copied *only* when a segment genuinely straddles two
/// allocations, and [`bytes_copied`] counts every such byte so fast paths
/// can prove themselves copy-free.
///
/// [`bytes_copied`]: PduStream::bytes_copied
#[derive(Debug, Default)]
pub struct PduStream {
    buf: WireBuf,
    pdus_out: u64,
    bytes_copied: u64,
    header_bytes_copied: u64,
}

impl PduStream {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a received chunk *by reference* and returns every PDU
    /// completed by it, each with its original wire image.
    ///
    /// # Errors
    ///
    /// Propagates [`PduError`] for undecodable headers.
    pub fn feed_bytes(&mut self, bytes: Bytes) -> Result<Vec<PduWire>, PduError> {
        self.buf.push_bytes(bytes);
        let mut out = Vec::new();
        while let Some(pw) = self.next_pdu()? {
            out.push(pw);
        }
        Ok(out)
    }

    /// Bytes buffered awaiting a complete PDU.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
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
        if self.buf.len() < BHS_LEN {
            return Ok(None);
        }
        let mut bhs = [0u8; BHS_LEN];
        self.buf.peek_into(&mut bhs);
        self.header_bytes_copied += BHS_LEN as u64;
        let dsl = data_segment_length(&bhs)?;
        let total = BHS_LEN + padded(dsl);
        if self.buf.len() < total {
            return Ok(None);
        }
        let wire = self.buf.take_wire(total).ok_or(PduError::Desync)?;
        let data = WireBuf::extract(&wire, BHS_LEN, dsl, &mut self.bytes_copied);
        let pdu = Pdu::decode(&bhs, data)?;
        self.pdus_out += 1;
        Ok(Some(PduWire { pdu, wire }))
    }
}

/// Encodes a PDU into `out`: header and pad go to its scratch batch, the
/// data segment by [`WireBuf::push_data`] (shared when large, copied and
/// counted when small).
pub fn push_pdu(out: &mut WireBuf, pdu: &Pdu) {
    let w = pdu.wire_chunks();
    out.push_slice(&w.header);
    out.push_data(w.data);
    out.push_slice(w.pad);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdu::{DataOut, LoginRequest};
    use storm_block::transport::SHARE_THRESHOLD;

    /// Feeds a copy of `bytes`, returning the PDUs it completed.
    fn feed(s: &mut PduStream, bytes: &[u8]) -> Result<Vec<Pdu>, PduError> {
        let got = s.feed_bytes(Bytes::copy_from_slice(bytes))?;
        Ok(got.into_iter().map(|p| p.pdu).collect())
    }

    /// A Data-Out carrying `data`.
    fn data_out(data: &'static [u8]) -> Pdu {
        Pdu::DataOut(DataOut {
            final_pdu: true,
            lun: 0,
            itt: 1,
            ttt: 0xFFFF_FFFF,
            exp_stat_sn: 1,
            data_sn: 0,
            buffer_offset: 0,
            data: Bytes::from_static(data),
        })
    }

    #[test]
    fn whole_pdus_parse() {
        let mut s = PduStream::new();
        let wire = data_out(b"hello").encode();
        let got = feed(&mut s, &wire).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], data_out(b"hello"));
        assert_eq!(s.pending_bytes(), 0);
        assert_eq!(s.pdus_out(), 1);
    }

    #[test]
    fn byte_at_a_time_parse() {
        let mut s = PduStream::new();
        let wire = data_out(b"fragmented!").encode();
        let mut got = Vec::new();
        for b in &wire {
            got.extend(feed(&mut s, std::slice::from_ref(b)).unwrap());
        }
        assert_eq!(got, vec![data_out(b"fragmented!")]);
    }

    #[test]
    fn multiple_pdus_in_one_chunk() {
        let mut s = PduStream::new();
        let mut wire = data_out(b"one").encode();
        wire.extend(data_out(b"two").encode());
        wire.extend(
            Pdu::LoginRequest(LoginRequest {
                transit: true,
                csg: 1,
                nsg: 3,
                isid: [0; 6],
                tsih: 0,
                itt: 2,
                cid: 0,
                cmd_sn: 2,
                exp_stat_sn: 1,
                data: Bytes::from_static(b"k=v\0"),
            })
            .encode(),
        );
        let got = feed(&mut s, &wire).unwrap();
        assert_eq!(got.len(), 3);
        assert!(matches!(got[2], Pdu::LoginRequest(_)));
    }

    #[test]
    fn partial_then_rest() {
        let mut s = PduStream::new();
        let wire = data_out(b"partial-data-segment").encode();
        let (a, b) = wire.split_at(BHS_LEN + 3);
        assert!(feed(&mut s, a).unwrap().is_empty());
        assert_eq!(s.pending_bytes(), a.len());
        let got = feed(&mut s, b).unwrap();
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn garbage_header_errors() {
        let mut s = PduStream::new();
        let mut junk = [0u8; BHS_LEN];
        junk[0] = 0x3F;
        assert!(feed(&mut s, &junk).is_err());
    }

    #[test]
    fn feed_bytes_keeps_wire_and_skips_copies() {
        // One allocation holding a whole PDU: the data view and the wire
        // image must share it, with zero data-segment copies.
        let pdu = data_out(b"zero-copy-path!!");
        let whole = Bytes::from(pdu.encode());
        let mut s = PduStream::new();
        let got = s.feed_bytes(whole.clone()).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].pdu, pdu);
        assert_eq!(got[0].wire.len(), 1);
        assert!(got[0].wire[0].same_storage(&whole));
        assert!(got[0]
            .pdu
            .data()
            .same_storage(&whole.slice(BHS_LEN..BHS_LEN + 16)));
        assert_eq!(s.bytes_copied(), 0);
        assert_eq!(s.header_bytes_copied(), BHS_LEN as u64);
    }

    #[test]
    fn split_segments_of_one_allocation_rejoin() {
        // Simulate sender-side TCP segmentation: slices of one allocation
        // arrive one by one and must re-join into a zero-copy data view.
        let pdu = data_out(b"travels in many segments, one allocation");
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
        let big_pdu = data_out(&[0xAB; SHARE_THRESHOLD]);
        let big = big_pdu.data().clone();
        let small_pdu = data_out(b"small");
        let mut w = WireBuf::new();
        push_pdu(&mut w, &small_pdu);
        push_pdu(&mut w, &big_pdu);
        assert_eq!(w.len(), small_pdu.wire_len() + big_pdu.wire_len());
        let chunks = w.take_wire(w.len()).unwrap();
        // scratch batch (small pdu + big header), shared data, (no pad: aligned)
        assert_eq!(chunks.len(), 2);
        assert!(chunks[1].same_storage(&big));
        assert_eq!(w.bytes_copied(), 5, "only the small data segment copies");
        assert!(w.is_empty());
        // Flattened output must equal the legacy encoding.
        let mut legacy = small_pdu.encode();
        legacy.extend(big_pdu.encode());
        assert_eq!(chunks.concat(), legacy);
    }

    #[test]
    fn foreign_chunks_count_copies() {
        // Two separate allocations carrying one PDU: the data segment
        // straddles them, so reassembly must copy and count it.
        let pdu = data_out(b"straddles allocations");
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
