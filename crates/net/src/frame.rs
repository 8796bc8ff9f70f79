//! Ethernet/IP/TCP frames carrying real payload bytes.

use std::net::Ipv4Addr;

use bytes::Bytes;

use crate::addr::{FourTuple, MacAddr, SockAddr};

/// TCP header flags (only the ones the simulation uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// Synchronize: connection setup.
    pub syn: bool,
    /// Acknowledgement field is valid.
    pub ack: bool,
    /// Graceful close.
    pub fin: bool,
    /// Abortive close.
    pub rst: bool,
}

impl TcpFlags {
    /// A plain data/ack segment.
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
    };
    /// Connection request.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
    };
    /// Connection accept.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
    };
    /// Graceful close.
    pub const FIN_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: true,
        rst: false,
    };
    /// Abort.
    pub const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
    };
}

/// Scatter-gather segment payload: an ordered list of refcounted chunks.
///
/// Real zero-copy stacks hand the NIC an iovec per frame; modelling the
/// same shape lets one full-MSS segment carry a PDU header chunk plus a
/// slice of a shared data segment without copying either. The receiver
/// sees each chunk with its original backing storage, so stream
/// reassembly can re-join slices of one allocation.
#[derive(Debug, Clone, Default)]
pub struct Payload {
    chunks: Vec<Bytes>,
    len: usize,
}

impl Payload {
    /// A payload with no bytes.
    pub const fn empty() -> Self {
        Payload {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Appends a chunk (empty chunks are dropped).
    pub fn push(&mut self, chunk: Bytes) {
        if !chunk.is_empty() {
            self.len += chunk.len();
            self.chunks.push(chunk);
        }
    }

    /// Total payload bytes across chunks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the payload carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The chunks, in wire order.
    pub fn chunks(&self) -> &[Bytes] {
        &self.chunks
    }

    /// Consumes the payload into its chunks.
    pub fn into_chunks(self) -> Vec<Bytes> {
        self.chunks
    }

    /// The payload with the first `n` bytes dropped (chunks stay views).
    /// Trims in place: `skip(0)`, the in-order receive case, is a move.
    pub fn skip(mut self, n: usize) -> Payload {
        let mut n = n.min(self.len);
        self.len -= n;
        let mut whole = 0;
        for c in &mut self.chunks {
            if n < c.len() {
                c.advance(n);
                break;
            }
            n -= c.len();
            whole += 1;
        }
        self.chunks.drain(..whole);
        self
    }

    /// Flattens to contiguous bytes — zero-copy for a single chunk, a
    /// copy otherwise (passive taps that parse in place use this).
    pub fn to_bytes(&self) -> Bytes {
        match self.chunks.len() {
            0 => Bytes::new(),
            1 => self.chunks[0].clone(),
            _ => {
                let mut flat = Vec::with_capacity(self.len);
                for c in &self.chunks {
                    // storm-lint: allow(no-hot-path-copy): documented
                    // flatten for passive taps that parse in place; the
                    // forwarding path moves chunks without flattening.
                    flat.extend_from_slice(c);
                }
                Bytes::from(flat)
            }
        }
    }
}

impl From<Bytes> for Payload {
    fn from(chunk: Bytes) -> Self {
        let mut p = Payload::empty();
        p.push(chunk);
        p
    }
}

/// Logical-bytes equality: chunk boundaries don't affect what's on the
/// wire.
impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let mut a = self.chunks.iter().flat_map(|c| c.iter());
        let mut b = other.chunks.iter().flat_map(|c| c.iter());
        loop {
            match (a.next(), b.next()) {
                (None, None) => return true,
                (x, y) if x == y => {}
                _ => return false,
            }
        }
    }
}

impl Eq for Payload {}

/// A TCP segment with byte-granularity sequence numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: u64,
    /// Cumulative acknowledgement (next expected byte), valid when
    /// `flags.ack`.
    pub ack: u64,
    /// Header flags.
    pub flags: TcpFlags,
    /// Advertised receive window in bytes.
    pub wnd: u32,
    /// Payload bytes (scatter-gather).
    pub payload: Payload,
}

/// An Ethernet frame wrapping an IPv4/TCP packet.
///
/// The simulation is TCP-only (iSCSI rides TCP), so the encapsulation is
/// flattened into a single struct for efficiency; header sizes are still
/// accounted for in [`Frame::wire_len`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Source MAC.
    pub src_mac: MacAddr,
    /// Destination MAC (rewritten by `mod_dst_mac` flow actions).
    pub dst_mac: MacAddr,
    /// IPv4 source address.
    pub src_ip: Ipv4Addr,
    /// IPv4 destination address.
    pub dst_ip: Ipv4Addr,
    /// The TCP segment.
    pub tcp: TcpSegment,
    /// Hops traversed so far; frames are dropped at [`Frame::MAX_HOPS`].
    pub hops: u8,
}

impl Frame {
    /// Hop budget; exceeding it drops the frame (forwarding-loop guard).
    pub const MAX_HOPS: u8 = 32;

    /// Ethernet + IPv4 + TCP header bytes per frame.
    pub const HEADER_BYTES: usize = 14 + 20 + 20;

    /// Total bytes occupied on the wire.
    pub fn wire_len(&self) -> usize {
        Self::HEADER_BYTES + self.tcp.payload.len()
    }

    /// The connection 4-tuple in the frame's direction of travel.
    pub fn tuple(&self) -> FourTuple {
        FourTuple::new(
            SockAddr::new(self.src_ip, self.tcp.src_port),
            SockAddr::new(self.dst_ip, self.tcp.dst_port),
        )
    }

    /// Applies a 4-tuple rewrite (NAT) to the IP and TCP headers.
    pub fn set_tuple(&mut self, t: FourTuple) {
        self.src_ip = t.src.ip;
        self.tcp.src_port = t.src.port;
        self.dst_ip = t.dst.ip;
        self.tcp.dst_port = t.dst.port;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Frame {
        Frame {
            src_mac: MacAddr::nth(1),
            dst_mac: MacAddr::nth(2),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            tcp: TcpSegment {
                src_port: 40000,
                dst_port: 3260,
                seq: 0,
                ack: 0,
                flags: TcpFlags::ACK,
                wnd: 65535,
                payload: Bytes::from_static(b"hello").into(),
            },
            hops: 0,
        }
    }

    #[test]
    fn wire_len_counts_headers() {
        assert_eq!(frame().wire_len(), 54 + 5);
    }

    #[test]
    fn skip_trims_whole_and_partial_chunks() {
        let chunk = |b: &'static [u8]| Bytes::from_static(b);
        let mut p = Payload::from(chunk(b"abc"));
        p.push(chunk(b"defg"));
        let whole = p.chunks()[0].clone();
        let kept = p.clone().skip(0);
        assert!(kept.chunks()[0].same_storage(&whole));
        assert_eq!(kept.len(), 7);
        for n in 0..=8 {
            let got = p.clone().skip(n);
            assert_eq!(got.to_bytes(), b"abcdefg"[n.min(7)..], "skip {n}");
            assert_eq!(got.len(), 7 - n.min(7));
            assert!(got.chunks().iter().all(|c| !c.is_empty()));
        }
    }

    #[test]
    fn tuple_round_trip() {
        let mut f = frame();
        let t = f.tuple();
        assert_eq!(t.src.port, 40000);
        assert_eq!(t.dst.port, 3260);
        let r = t.reversed();
        f.set_tuple(r);
        assert_eq!(f.src_ip, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(f.tcp.src_port, 3260);
        assert_eq!(f.tcp.dst_port, 40000);
    }

    #[test]
    fn flag_constants() {
        #[allow(clippy::assertions_on_constants)]
        {
            assert!(TcpFlags::SYN.syn && !TcpFlags::SYN.ack);
            assert!(TcpFlags::SYN_ACK.syn && TcpFlags::SYN_ACK.ack);
            assert!(TcpFlags::FIN_ACK.fin);
            assert!(TcpFlags::RST.rst);
        }
    }
}
