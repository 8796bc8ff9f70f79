//! Virtual switches: flow-table steering with an L2 learning fallback.
//!
//! A switch never owns a frame. [`VirtualSwitch::forward_in_place`]
//! rewrites the caller's frame where it lies and reports the egress ports
//! through a caller-owned buffer; whether the frame is then moved (one
//! port) or cloned (a flood) is the fabric's decision, so a unicast hop
//! allocates nothing.

use std::collections::BTreeMap;
use std::fmt;

use crate::addr::MacAddr;
use crate::flow::{FlowAction, FlowRule, FlowTable};
use crate::frame::Frame;

/// Index of a switch within the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwitchId(pub u32);

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sw{}", self.0)
    }
}

/// A port number on a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortNo(pub u16);

impl fmt::Display for PortNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// An Open vSwitch-like virtual switch.
///
/// Frames are first matched against the SDN [`FlowTable`]; the `Normal`
/// action (or an empty table) falls through to ordinary L2 forwarding with
/// MAC learning. Ports may carry a tenant tag: frames are only forwarded
/// between ports of the same tenant (or untagged infrastructure ports),
/// modelling Neutron's tenant isolation.
#[derive(Debug)]
pub struct VirtualSwitch {
    name: String,
    ports: usize,
    // BTreeMaps so port sweeps and any future FDB iteration are in
    // address order, never hasher order (no-hash-iter invariant).
    fdb: BTreeMap<MacAddr, PortNo>,
    flows: FlowTable,
    tenant_tags: BTreeMap<PortNo, u32>,
    dropped: u64,
}

impl VirtualSwitch {
    /// Creates a switch with `ports` ports.
    pub fn new(name: impl Into<String>, ports: usize) -> Self {
        VirtualSwitch {
            name: name.into(),
            ports,
            fdb: BTreeMap::new(),
            flows: FlowTable::new(),
            tenant_tags: BTreeMap::new(),
            dropped: 0,
        }
    }

    /// Switch name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports
    }

    /// The SDN flow table (install/remove rules through this).
    pub fn flows_mut(&mut self) -> &mut FlowTable {
        &mut self.flows
    }

    /// Read access to the flow table.
    pub fn flows(&self) -> &FlowTable {
        &self.flows
    }

    /// Statically binds a MAC to a port (used at topology build instead of
    /// relying purely on learning).
    pub fn learn(&mut self, mac: MacAddr, port: PortNo) {
        self.fdb.insert(mac, port);
    }

    /// Tags `port` as belonging to tenant `tenant`; frames never cross
    /// between different tenant tags.
    pub fn set_tenant(&mut self, port: PortNo, tenant: u32) {
        self.tenant_tags.insert(port, tenant);
    }

    /// Frames dropped by policy, loop guard or unknown destination.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Forwards a frame arriving on `in_port`, in place: bumps its hop
    /// count, learns the sender's port, applies the matching flow rule's
    /// rewrites to `frame` itself and leaves the egress ports in `out`
    /// (cleared first; several on a flood, none on a drop). Nothing is
    /// allocated once `out` has grown to the switch's port count — the
    /// caller moves or clones the frame per port as it sees fit.
    pub fn forward_in_place(&mut self, frame: &mut Frame, in_port: PortNo, out: &mut Vec<PortNo>) {
        out.clear();
        if frame.hops >= Frame::MAX_HOPS {
            self.dropped += 1;
            return;
        }
        frame.hops += 1;
        // Learn the sender's location. The table changes at topology
        // build and on a move, not per frame: a read is all most frames pay.
        if self.fdb.get(&frame.src_mac) != Some(&in_port) {
            self.fdb.insert(frame.src_mac, in_port);
        }

        let mut normal = true;
        if let Some(rule) = self.flows.lookup(frame, in_port) {
            normal = false;
            for action in &rule.actions {
                match *action {
                    FlowAction::SetDstMac(m) => frame.dst_mac = m,
                    FlowAction::SetSrcMac(m) => frame.src_mac = m,
                    FlowAction::Output(p) => out.push(p),
                    FlowAction::Normal => normal = true,
                    FlowAction::Drop => {
                        self.dropped += 1;
                        out.clear();
                        return;
                    }
                }
            }
        }
        if normal {
            match self.fdb.get(&frame.dst_mac) {
                Some(&p) if p != in_port => out.push(p),
                Some(_) => {
                    // Destination is behind the ingress port: nothing to do.
                }
                None => {
                    // Unknown destination: flood.
                    out.extend((0..self.ports as u16).map(PortNo).filter(|&p| p != in_port));
                }
            }
        }
        // Tenant isolation: only emit to ports compatible with the ingress
        // tenant tag (untagged ports are infrastructure and always allowed).
        if let Some(in_tenant) = self.tenant_tags.get(&in_port) {
            let before = out.len();
            out.retain(|p| self.tenant_tags.get(p).is_none_or(|t| t == in_tenant));
            self.dropped += (before - out.len()) as u64;
        }
    }

    /// [`forward_in_place`](Self::forward_in_place) for callers that want
    /// owned `(out_port, frame)` pairs: one clone of the frame per port.
    pub fn process(&mut self, mut frame: Frame, in_port: PortNo) -> Vec<(PortNo, Frame)> {
        let mut ports = Vec::new();
        self.forward_in_place(&mut frame, in_port, &mut ports);
        ports.into_iter().map(|p| (p, frame.clone())).collect()
    }
}

/// Installs a Figure-3 style steering rule: frames matching `matching` get
/// their destination MAC rewritten to `next_mac` and are then L2-forwarded.
pub fn steering_rule(
    priority: u16,
    matching: crate::flow::FlowMatch,
    next_mac: MacAddr,
) -> FlowRule {
    FlowRule {
        priority,
        matching,
        actions: vec![FlowAction::SetDstMac(next_mac), FlowAction::Normal],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowMatch;
    use crate::frame::{TcpFlags, TcpSegment};
    use bytes::Bytes;
    use std::net::Ipv4Addr;

    fn frame(src: MacAddr, dst: MacAddr) -> Frame {
        Frame {
            src_mac: src,
            dst_mac: dst,
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            tcp: TcpSegment {
                src_port: 1,
                dst_port: 3260,
                seq: 0,
                ack: 0,
                flags: TcpFlags::ACK,
                wnd: 0,
                payload: Bytes::new().into(),
            },
            hops: 0,
        }
    }

    #[test]
    fn learning_then_unicast() {
        let mut sw = VirtualSwitch::new("sw", 4);
        let a = MacAddr::nth(1);
        let b = MacAddr::nth(2);
        // Unknown destination: flood to all but ingress.
        let out = sw.process(frame(a, b), PortNo(0));
        assert_eq!(out.len(), 3);
        // B replies from port 2; A is now known on port 0.
        let out = sw.process(frame(b, a), PortNo(2));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, PortNo(0));
        // Now A -> B is unicast to port 2.
        let out = sw.process(frame(a, b), PortNo(0));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, PortNo(2));
        // B moves to port 3: its next frame re-learns it.
        sw.process(frame(b, a), PortNo(3));
        let out = sw.process(frame(a, b), PortNo(0));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, PortNo(3));
    }

    #[test]
    fn steering_rule_rewrites_dst_mac() {
        let mut sw = VirtualSwitch::new("ovs1", 4);
        let vm = MacAddr::nth(1);
        let gw = MacAddr::nth(2);
        let mb = MacAddr::nth(3);
        sw.learn(mb, PortNo(3));
        sw.flows_mut().install(steering_rule(
            10,
            FlowMatch::any().src_mac(vm).dst_mac(gw).dst_port(3260),
            mb,
        ));
        let out = sw.process(frame(vm, gw), PortNo(0));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, PortNo(3));
        assert_eq!(out[0].1.dst_mac, mb);
    }

    #[test]
    fn hop_guard_drops_loops() {
        let mut sw = VirtualSwitch::new("sw", 2);
        let mut f = frame(MacAddr::nth(1), MacAddr::nth(2));
        f.hops = Frame::MAX_HOPS;
        assert!(sw.process(f, PortNo(0)).is_empty());
        assert_eq!(sw.dropped(), 1);
    }

    #[test]
    fn tenant_isolation_blocks_cross_tenant() {
        let mut sw = VirtualSwitch::new("sw", 4);
        sw.set_tenant(PortNo(0), 1);
        sw.set_tenant(PortNo(1), 2);
        sw.set_tenant(PortNo(2), 1);
        // Flood from tenant 1: reaches port 2 (tenant 1) and port 3
        // (untagged infra), never port 1 (tenant 2).
        let out = sw.process(frame(MacAddr::nth(1), MacAddr::nth(9)), PortNo(0));
        let ports: Vec<u16> = out.iter().map(|(p, _)| p.0).collect();
        assert_eq!(ports, vec![2, 3]);
        assert!(sw.dropped() >= 1);
    }

    #[test]
    fn drop_action_drops() {
        let mut sw = VirtualSwitch::new("sw", 2);
        sw.flows_mut().install(FlowRule {
            priority: 10,
            matching: FlowMatch::any().dst_port(3260),
            actions: vec![FlowAction::Drop],
        });
        assert!(sw
            .process(frame(MacAddr::nth(1), MacAddr::nth(2)), PortNo(0))
            .is_empty());
        assert_eq!(sw.dropped(), 1);
    }
}
