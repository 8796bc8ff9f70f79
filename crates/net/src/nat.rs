//! iptables-style NAT with connection tracking.
//!
//! StorM's network splicing redirects storage flows through gateway pairs
//! by installing DNAT rules (destination rewrite towards the ingress
//! gateway / egress target) and SNAT masquerading (so storage-network
//! addresses never appear inside the instance network). Connection
//! tracking makes reply packets traverse the inverse transformation
//! automatically — exactly netfilter's behaviour, which the paper's
//! prototype relies on.

use std::net::Ipv4Addr;

use storm_sim::IdMap;

use crate::addr::{FourTuple, SockAddr};

/// A destination-NAT rule (PREROUTING): rewrite where a flow is going.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnatRule {
    /// Match: original destination IP.
    pub match_dst_ip: Ipv4Addr,
    /// Match: original destination port (`None` = any).
    pub match_dst_port: Option<u16>,
    /// Match: source IP (`None` = any).
    pub match_src_ip: Option<Ipv4Addr>,
    /// New destination address.
    pub to: SockAddr,
}

impl DnatRule {
    fn matches(&self, t: &FourTuple) -> bool {
        t.dst.ip == self.match_dst_ip
            && self.match_dst_port.is_none_or(|p| p == t.dst.port)
            && self.match_src_ip.is_none_or(|ip| ip == t.src.ip)
    }
}

/// A source-NAT rule (POSTROUTING): rewrite where a flow appears to come
/// from. `to_ip` with port `None` preserves the source port when it can
/// (IP masquerading); a port that would collide with another tracked
/// flow's translated tuple is reallocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnatRule {
    /// Match: destination IP after DNAT (`None` = any).
    pub match_dst_ip: Option<Ipv4Addr>,
    /// Match: destination port after DNAT (`None` = any).
    pub match_dst_port: Option<u16>,
    /// New source IP.
    pub to_ip: Ipv4Addr,
    /// New source port (`None` keeps the original port).
    pub to_port: Option<u16>,
}

impl SnatRule {
    fn matches(&self, t: &FourTuple) -> bool {
        self.match_dst_ip.is_none_or(|ip| ip == t.dst.ip)
            && self.match_dst_port.is_none_or(|p| p == t.dst.port)
    }
}

#[derive(Debug, Clone, Copy)]
struct NatEntry {
    orig: FourTuple,
    xlat: FourTuple,
}

/// Per-host NAT state: rule lists plus the conntrack table.
#[derive(Debug, Default)]
pub struct Nat {
    dnat: Vec<DnatRule>,
    snat: Vec<SnatRule>,
    // Keyed by both the original tuple (forward direction) and the reversed
    // translated tuple (reply direction). Point lookups only, so a
    // fixed-hasher map; a conntrack sweep would have to sort first (the
    // no-hash-iter lint flags iteration).
    forward: IdMap<FourTuple, NatEntry>,
    reply: IdMap<FourTuple, NatEntry>,
}

impl Nat {
    /// Creates an empty NAT table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a DNAT rule.
    pub fn add_dnat(&mut self, rule: DnatRule) {
        self.dnat.push(rule);
    }

    /// Installs an SNAT rule.
    pub fn add_snat(&mut self, rule: SnatRule) {
        self.snat.push(rule);
    }

    /// Number of live conntrack entries.
    pub fn conntrack_len(&self) -> usize {
        self.forward.len()
    }

    /// Number of installed rules `(dnat, snat)`.
    pub fn rule_counts(&self) -> (usize, usize) {
        (self.dnat.len(), self.snat.len())
    }

    /// Translates a packet tuple, consulting conntrack first and falling
    /// back to rule evaluation for new flows. Returns the tuple the packet
    /// should carry after NAT.
    ///
    /// `is_syn` marks connection-opening packets: only those may create new
    /// conntrack entries, so mid-flow packets of unknown connections pass
    /// untranslated (as in netfilter, where conntrack is keyed on the SYN).
    pub fn translate(&mut self, tuple: FourTuple, is_syn: bool) -> FourTuple {
        // Established flow, forward direction.
        if let Some(e) = self.forward.get(&tuple) {
            return e.xlat;
        }
        // Established flow, reply direction.
        if let Some(e) = self.reply.get(&tuple) {
            return e.orig.reversed();
        }
        if !is_syn {
            return tuple;
        }
        let mut out = tuple;
        for r in &self.dnat {
            if r.matches(&tuple) {
                out.dst = r.to;
                break;
            }
        }
        for r in &self.snat {
            if r.matches(&out) {
                out.src.ip = r.to_ip;
                if let Some(p) = r.to_port {
                    out.src.port = p;
                }
                break;
            }
        }
        if out != tuple {
            // Unique-tuple enforcement, as netfilter's MASQUERADE does: two
            // initiators behind one masquerade can pick the same ephemeral
            // port, and preserving it would collapse their flows into one
            // translated tuple — replies would then un-NAT to whichever
            // flow registered first. Allocate the next free source port.
            while self.reply.contains_key(&out.reversed()) {
                out.src.port = out.src.port.wrapping_add(1).max(1024);
            }
            let entry = NatEntry {
                orig: tuple,
                xlat: out,
            };
            self.forward.insert(tuple, entry);
            self.reply.insert(out.reversed(), entry);
        }
        out
    }

    /// Conntrack-only translation for locally generated packets (the
    /// OUTPUT path): replies of redirected flows are rewritten, but
    /// PREROUTING rules are never evaluated — a middle-box's own upstream
    /// connections must not hit its REDIRECT rule.
    pub fn translate_output(&mut self, tuple: FourTuple) -> FourTuple {
        if let Some(e) = self.forward.get(&tuple) {
            return e.xlat;
        }
        if let Some(e) = self.reply.get(&tuple) {
            return e.orig.reversed();
        }
        tuple
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sa(a: u8, p: u16) -> SockAddr {
        SockAddr::new(Ipv4Addr::new(10, 0, 0, a), p)
    }

    #[test]
    fn dnat_then_reply_inverse() {
        let mut nat = Nat::new();
        nat.add_dnat(DnatRule {
            match_dst_ip: Ipv4Addr::new(10, 0, 0, 9),
            match_dst_port: Some(3260),
            match_src_ip: None,
            to: sa(7, 3260),
        });
        let orig = FourTuple::new(sa(1, 40000), sa(9, 3260));
        let fwd = nat.translate(orig, true);
        assert_eq!(fwd.dst, sa(7, 3260));
        assert_eq!(fwd.src, orig.src);
        // Reply from the new destination maps back to the original.
        let reply = nat.translate(fwd.reversed(), false);
        assert_eq!(reply, orig.reversed());
        assert_eq!(nat.conntrack_len(), 1);
    }

    #[test]
    fn masquerade_rewrites_source() {
        let mut nat = Nat::new();
        nat.add_dnat(DnatRule {
            match_dst_ip: Ipv4Addr::new(10, 0, 0, 9),
            match_dst_port: Some(3260),
            match_src_ip: None,
            to: sa(7, 3260),
        });
        nat.add_snat(SnatRule {
            match_dst_ip: Some(Ipv4Addr::new(10, 0, 0, 7)),
            match_dst_port: Some(3260),
            to_ip: Ipv4Addr::new(10, 0, 0, 5),
            to_port: None,
        });
        let orig = FourTuple::new(sa(1, 40000), sa(9, 3260));
        let fwd = nat.translate(orig, true);
        // Both rewrites applied: src masqueraded (port kept), dst redirected.
        assert_eq!(fwd, FourTuple::new(sa(5, 40000), sa(7, 3260)));
        // Round trip through the reply direction restores everything.
        let back = nat.translate(fwd.reversed(), false);
        assert_eq!(back, orig.reversed());
    }

    #[test]
    fn masquerade_collision_allocates_fresh_port() {
        let mut nat = Nat::new();
        nat.add_dnat(DnatRule {
            match_dst_ip: Ipv4Addr::new(10, 0, 0, 9),
            match_dst_port: Some(3260),
            match_src_ip: None,
            to: sa(7, 3260),
        });
        nat.add_snat(SnatRule {
            match_dst_ip: Some(Ipv4Addr::new(10, 0, 0, 7)),
            match_dst_port: Some(3260),
            to_ip: Ipv4Addr::new(10, 0, 0, 5),
            to_port: None,
        });
        // Two initiators on different hosts, same ephemeral port.
        let a = FourTuple::new(sa(1, 40000), sa(9, 3260));
        let b = FourTuple::new(sa(2, 40000), sa(9, 3260));
        let fwd_a = nat.translate(a, true);
        let fwd_b = nat.translate(b, true);
        assert_eq!(fwd_a, FourTuple::new(sa(5, 40000), sa(7, 3260)));
        assert_ne!(
            fwd_a, fwd_b,
            "colliding masqueraded flows must get distinct tuples"
        );
        assert_eq!(fwd_b.src.ip, Ipv4Addr::new(10, 0, 0, 5));
        // Replies on each translated tuple un-NAT to their own flow.
        assert_eq!(nat.translate(fwd_a.reversed(), false), a.reversed());
        assert_eq!(nat.translate(fwd_b.reversed(), false), b.reversed());
        assert_eq!(nat.conntrack_len(), 2);
    }

    #[test]
    fn established_flows_keep_their_translation() {
        let mut nat = Nat::new();
        nat.add_dnat(DnatRule {
            match_dst_ip: Ipv4Addr::new(10, 0, 0, 9),
            match_dst_port: None,
            match_src_ip: None,
            to: sa(7, 3260),
        });
        let orig = FourTuple::new(sa(1, 40000), sa(9, 3260));
        let fwd = nat.translate(orig, true);
        assert_eq!(nat.rule_counts(), (1, 0));
        // Established flow still translated via conntrack.
        assert_eq!(nat.translate(orig, false), fwd);
        assert_eq!(nat.conntrack_len(), 1);
    }

    #[test]
    fn non_syn_unknown_flows_pass_untranslated() {
        let mut nat = Nat::new();
        nat.add_dnat(DnatRule {
            match_dst_ip: Ipv4Addr::new(10, 0, 0, 9),
            match_dst_port: None,
            match_src_ip: None,
            to: sa(7, 1),
        });
        let t = FourTuple::new(sa(1, 2), sa(9, 3));
        assert_eq!(nat.translate(t, false), t);
        assert_eq!(nat.conntrack_len(), 0);
    }

    #[test]
    fn src_ip_scoped_dnat() {
        let mut nat = Nat::new();
        nat.add_dnat(DnatRule {
            match_dst_ip: Ipv4Addr::new(10, 0, 0, 9),
            match_dst_port: Some(3260),
            match_src_ip: Some(Ipv4Addr::new(10, 0, 0, 1)),
            to: sa(7, 3260),
        });
        let hit = FourTuple::new(sa(1, 1000), sa(9, 3260));
        let miss = FourTuple::new(sa(2, 1000), sa(9, 3260));
        assert_eq!(nat.translate(hit, true).dst, sa(7, 3260));
        assert_eq!(nat.translate(miss, true), miss);
    }
}
