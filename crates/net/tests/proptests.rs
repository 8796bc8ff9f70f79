//! Property-based tests for NAT, flow tables, the virtual switch and the
//! TCP stack.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use proptest::prelude::*;
use storm_net::tcp::{TcpConfig, TcpStack};
use storm_net::{
    AppId, DnatRule, FlowMatch, FlowRule, FlowTable, FourTuple, Frame, MacAddr, Nat, Payload,
    PortNo, SnatRule, SockAddr, TcpFlags, TcpSegment, VirtualSwitch,
};

fn sockaddr() -> impl Strategy<Value = SockAddr> {
    (any::<u8>(), any::<u8>(), 1u16..u16::MAX)
        .prop_map(|(a, b, p)| SockAddr::new(Ipv4Addr::new(10, a, b, 1), p))
}

/// The switch forwarding procedure as it stood before the in-place core:
/// by-value frame, one frame clone per egress port. Kept as the oracle
/// `VirtualSwitch::forward_in_place` is tested against.
struct ReferenceSwitch {
    ports: u16,
    fdb: BTreeMap<MacAddr, PortNo>,
    flows: FlowTable,
    tenant_tags: BTreeMap<PortNo, u32>,
    dropped: u64,
}

impl ReferenceSwitch {
    fn process(&mut self, mut frame: Frame, in_port: PortNo) -> Vec<(PortNo, Frame)> {
        if frame.hops >= Frame::MAX_HOPS {
            self.dropped += 1;
            return Vec::new();
        }
        frame.hops += 1;
        self.fdb.insert(frame.src_mac, in_port);
        if let Some(rule) = self.flows.lookup(&frame, in_port) {
            frame.dst_mac = rule.next_mac;
        }
        let mut outputs = Vec::new();
        match self.fdb.get(&frame.dst_mac) {
            Some(&p) if p != in_port => outputs.push(p),
            Some(_) => {}
            None => outputs.extend((0..self.ports).map(PortNo).filter(|&p| p != in_port)),
        }
        let in_tenant = self.tenant_tags.get(&in_port).copied();
        let before = outputs.len();
        outputs.retain(|p| match (in_tenant, self.tenant_tags.get(p)) {
            (Some(a), Some(b)) => a == *b,
            _ => true,
        });
        self.dropped += (before - outputs.len()) as u64;
        outputs.into_iter().map(|p| (p, frame.clone())).collect()
    }
}

/// Switch scenarios draw from small pools so rules, the FDB and frames
/// collide: MACs `nth(0..6)` (some never learned: floods), 5 ports.
const SWITCH_PORTS: u16 = 5;

fn mac() -> impl Strategy<Value = MacAddr> {
    (0u64..6).prop_map(MacAddr::nth)
}

fn port() -> impl Strategy<Value = PortNo> {
    (0..SWITCH_PORTS).prop_map(PortNo)
}

/// `None` (a wildcard) half the time.
fn maybe<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), s).prop_map(|(on, v)| on.then_some(v))
}

/// A steering rule as the SDN controller installs them: optional source
/// and destination MACs, optionally iSCSI only, and the next hop's MAC.
fn flow_rule() -> impl Strategy<Value = FlowRule> {
    (0u16..4, maybe(mac()), maybe(mac()), any::<bool>(), mac()).prop_map(
        |(priority, src, dst, iscsi_only, next_mac)| {
            let mut matching = FlowMatch::any();
            if let Some(m) = src {
                matching = matching.src_mac(m);
            }
            if let Some(m) = dst {
                matching = matching.dst_mac(m);
            }
            if iscsi_only {
                matching = matching.dst_port(3260);
            }
            FlowRule {
                priority,
                matching,
                next_mac,
            }
        },
    )
}

fn switch_frame(src: MacAddr, dst: MacAddr, dst_port: u16, hops: u8) -> Frame {
    Frame {
        src_mac: src,
        dst_mac: dst,
        src_ip: Ipv4Addr::new(10, 0, 0, 1),
        dst_ip: Ipv4Addr::new(10, 0, 0, 2),
        tcp: TcpSegment {
            src_port: 40_000,
            dst_port,
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            wnd: 0,
            payload: Payload::empty(),
        },
        hops,
    }
}

proptest! {
    /// The in-place switch core and the by-value procedure it replaced
    /// agree on every frame of any sequence, over any table: egress ports
    /// in order, rewritten headers and hop count, the drop counter and
    /// every rule's hit counter.
    #[test]
    fn switch_in_place_matches_by_value_reference(
        rules in prop::collection::vec(flow_rule(), 0..6),
        learned in prop::collection::vec((mac(), port()), 0..4),
        tags in prop::collection::vec((port(), 1u32..3), 0..4),
        frames in prop::collection::vec(
            (mac(), mac(), port(), any::<bool>(), 0u8..8), 1..40),
    ) {
        let mut core = VirtualSwitch::new("core", SWITCH_PORTS as usize);
        let mut reference = ReferenceSwitch {
            ports: SWITCH_PORTS,
            fdb: BTreeMap::new(),
            flows: FlowTable::new(),
            tenant_tags: BTreeMap::new(),
            dropped: 0,
        };
        for rule in &rules {
            core.flows_mut().install(rule.clone());
            reference.flows.install(rule.clone());
        }
        for &(m, p) in &learned {
            core.learn(m, p);
            reference.fdb.insert(m, p);
        }
        for &(p, tenant) in &tags {
            core.set_tenant(p, tenant);
            reference.tenant_tags.insert(p, tenant);
        }
        // Scratch with stale content: the core must clear it.
        let mut ports = vec![PortNo(99)];
        for (src, dst, in_port, iscsi, limit) in frames {
            // One frame in eight arrives with its hop budget spent.
            let hops = if limit == 0 { Frame::MAX_HOPS } else { limit };
            let frame = switch_frame(src, dst, if iscsi { 3260 } else { 80 }, hops);
            let expect = reference.process(frame.clone(), in_port);
            let mut in_place = frame;
            core.forward_in_place(&mut in_place, in_port, &mut ports);
            let expect_ports: Vec<PortNo> = expect.iter().map(|(p, _)| *p).collect();
            prop_assert_eq!(&ports, &expect_ports);
            for (_, out) in &expect {
                prop_assert_eq!(out, &in_place);
            }
            prop_assert_eq!(core.dropped(), reference.dropped);
            let hits = |t: &FlowTable| t.iter().map(|(_, h)| h).collect::<Vec<u64>>();
            prop_assert_eq!(hits(core.flows()), hits(&reference.flows));
        }
    }

    /// `MacAddr` orders as one big-endian integer — the same order as
    /// comparing the six bytes, so every MAC-keyed `BTreeMap` iterates
    /// as it did under the derived `Ord`.
    #[test]
    fn mac_order_is_bytewise(a in any::<u64>(), b in any::<u64>(), shared in 0usize..7) {
        let (a, mut b) = (a.to_le_bytes(), b.to_le_bytes());
        // Random pairs differ in the first byte; share a prefix so the
        // later bytes decide too.
        b[..shared].copy_from_slice(&a[..shared]);
        let (x, y) = (
            MacAddr([a[0], a[1], a[2], a[3], a[4], a[5]]),
            MacAddr([b[0], b[1], b[2], b[3], b[4], b[5]]),
        );
        prop_assert_eq!(x.cmp(&y), x.0.cmp(&y.0));
        prop_assert_eq!(x.partial_cmp(&y), x.0.partial_cmp(&y.0));
        prop_assert_eq!(x == y, x.0 == y.0);
    }

    /// NAT: for any translated flow, the reply direction applies the exact
    /// inverse (conntrack correctness) — the property StorM's masquerading
    /// chain depends on end-to-end.
    #[test]
    fn nat_reply_is_inverse(src in sockaddr(), dst in sockaddr(),
                            to in sockaddr(), masq in sockaddr()) {
        prop_assume!(src != dst && dst != to);
        let mut nat = Nat::new();
        nat.add_dnat(DnatRule {
            match_dst_ip: dst.ip,
            match_dst_port: Some(dst.port),
            match_src_ip: None,
            to,
        });
        nat.add_snat(SnatRule {
            match_dst_ip: Some(to.ip),
            match_dst_port: Some(to.port),
            to_ip: masq.ip,
            to_port: None,
        });
        let orig = FourTuple::new(src, dst);
        let fwd = nat.translate(orig, true);
        // Forward direction consistently repeats.
        prop_assert_eq!(nat.translate(orig, false), fwd);
        // Reply direction inverts exactly.
        let reply = nat.translate(fwd.reversed(), false);
        prop_assert_eq!(reply, orig.reversed());
        // And the reply's reply is the forward translation again.
        prop_assert_eq!(nat.translate(reply.reversed(), false), fwd);
    }

    /// FourTuple reversal is an involution.
    #[test]
    fn tuple_reversal_involution(a in sockaddr(), b in sockaddr()) {
        let t = FourTuple::new(a, b);
        prop_assert_eq!(t.reversed().reversed(), t);
    }

    /// Wildcarded flow matches are monotonic: adding a constraint never
    /// matches more frames.
    #[test]
    fn flow_match_monotonic(port in 1u16..u16::MAX, other in 1u16..u16::MAX) {
        let mut frame = switch_frame(MacAddr::nth(1), MacAddr::nth(2), 3260, 0);
        frame.tcp.src_port = port;
        let base = FlowMatch::any().dst_port(3260);
        let constrained = base.src_port(other);
        if constrained.matches(&frame) {
            prop_assert!(base.matches(&frame));
        }
        prop_assert_eq!(constrained.matches(&frame), other == port);
    }

    /// TCP: any sequence of sends from A arrives at B intact and in order,
    /// under any interleaving of the shuttle (windows force multiple
    /// exchange rounds).
    #[test]
    fn tcp_stream_integrity(chunks in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 1..5000), 1..8)) {
        let config = TcpConfig { mss: 1448, rcv_wnd: 16 * 1024, snd_buf: 64 * 1024 };
        let mut a = TcpStack::new(config);
        let mut b = TcpStack::new(config);
        b.listen(AppId(0), 3260);
        let (sock, syn) = a.connect(AppId(0), Ipv4Addr::new(10, 0, 0, 1),
            SockAddr::new(Ipv4Addr::new(10, 0, 0, 2), 3260));
        // Complete the handshake.
        let mut from_a = vec![syn];
        let mut from_b: Vec<storm_net::tcp::OutSeg> = Vec::new();
        let mut received: Vec<u8> = Vec::new();
        let mut to_send: Vec<u8> = chunks.concat();
        let total = to_send.len();
        let mut offered = 0usize;
        for _round in 0..10_000 {
            // Offer more data whenever the buffer has room.
            if offered < total {
                let n = a.send(sock, &to_send[..], &mut from_a);
                offered += n;
                to_send.drain(..n);
            }
            if from_a.is_empty() && from_b.is_empty() && offered >= total
                && received.len() >= total {
                break;
            }
            let mut next_a = Vec::new();
            let mut next_b = Vec::new();
            let mut evs = Vec::new();
            for s in from_a.drain(..) {
                b.input_into(s.tuple, s.seg, &mut next_b, &mut evs);
            }
            for (_, e) in evs.drain(..) {
                if let storm_net::tcp::TcpEvent::Data { data, .. } = e {
                    received.extend_from_slice(&data);
                }
            }
            for s in from_b.drain(..) {
                a.input_into(s.tuple, s.seg, &mut next_a, &mut evs);
            }
            evs.clear();
            from_a = next_a;
            from_b = next_b;
        }
        let expect: Vec<u8> = chunks.concat();
        prop_assert_eq!(received.len(), expect.len());
        prop_assert_eq!(received, expect);
        prop_assert_eq!(a.unacked(sock), 0);
    }
}
