//! Addressing primitives: MAC addresses, socket addresses, 4-tuples.

use std::fmt;
use std::net::Ipv4Addr;

/// A 48-bit Ethernet MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

/// Ordered as one big-endian integer: the same order as comparing the six
/// bytes lexicographically, in one compare instead of a byte loop (every
/// switch hop does two FDB lookups keyed by MAC).
impl Ord for MacAddr {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.to_u64().cmp(&other.to_u64())
    }
}

impl PartialOrd for MacAddr {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl MacAddr {
    fn to_u64(self) -> u64 {
        let b = self.0;
        u64::from_be_bytes([0, 0, b[0], b[1], b[2], b[3], b[4], b[5]])
    }

    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);

    /// Deterministically derives the `n`-th locally administered MAC.
    pub fn nth(n: u64) -> MacAddr {
        let b = n.to_be_bytes();
        // 0x02 prefix = locally administered, unicast.
        MacAddr([0x02, b[3], b[4], b[5], b[6], b[7]])
    }

    /// Whether this is the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// An IPv4 endpoint: address plus TCP port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SockAddr {
    /// IPv4 address.
    pub ip: Ipv4Addr,
    /// TCP port.
    pub port: u16,
}

impl SockAddr {
    /// Creates a socket address.
    pub fn new(ip: Ipv4Addr, port: u16) -> Self {
        SockAddr { ip, port }
    }
}

impl fmt::Display for SockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

/// A TCP connection 4-tuple as seen from one side: (src, dst).
///
/// Connection attribution — mapping each iSCSI TCP connection back to the
/// VM that owns it — keys on this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FourTuple {
    /// Source endpoint.
    pub src: SockAddr,
    /// Destination endpoint.
    pub dst: SockAddr,
}

impl FourTuple {
    /// Creates a 4-tuple.
    pub fn new(src: SockAddr, dst: SockAddr) -> Self {
        FourTuple { src, dst }
    }

    /// The same connection seen from the other side.
    pub fn reversed(self) -> FourTuple {
        FourTuple {
            src: self.dst,
            dst: self.src,
        }
    }
}

impl fmt::Display for FourTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.src, self.dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_nth_is_unique_and_local() {
        let a = MacAddr::nth(1);
        let b = MacAddr::nth(2);
        assert_ne!(a, b);
        assert_eq!(a.0[0], 0x02);
        assert!(!a.is_broadcast());
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert_eq!(a.to_string(), "02:00:00:00:00:01");
    }

    #[test]
    fn four_tuple_reverses() {
        let t = FourTuple::new(
            SockAddr::new(Ipv4Addr::new(10, 0, 0, 1), 4000),
            SockAddr::new(Ipv4Addr::new(10, 0, 0, 2), 3260),
        );
        let r = t.reversed();
        assert_eq!(r.src.port, 3260);
        assert_eq!(r.dst.port, 4000);
        assert_eq!(r.reversed(), t);
        assert_eq!(t.to_string(), "10.0.0.1:4000 -> 10.0.0.2:3260");
    }
}
