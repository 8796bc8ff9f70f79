//! Hosts: interfaces, routing (including StorM's flow steering routes),
//! NAT, a TCP stack and application slots.

use std::fmt;
use std::net::Ipv4Addr;

use storm_sim::{CpuModel, IdMap, SimDuration};

use crate::addr::{FourTuple, MacAddr};
use crate::fabric::LinkId;
use crate::nat::Nat;
use crate::tcp::{TcpConfig, TcpStack};

/// Index of a host within the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// Index of an interface within a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IfaceId(pub u32);

/// Index of an application within a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId(pub u32);

/// Why a connection ended (re-exported TCP close kind).
pub type CloseReason = crate::tcp::CloseKind;

/// A network interface.
#[derive(Debug, Clone)]
pub struct Iface {
    /// MAC address (unique fabric-wide).
    pub mac: MacAddr,
    /// IPv4 address.
    pub ip: Ipv4Addr,
    /// Subnet prefix length (for on-link routing decisions).
    pub prefix_len: u8,
    /// The wired link, if connected.
    pub link: Option<LinkId>,
}

/// A static route entry.
#[derive(Debug, Clone, Copy)]
pub struct Route {
    /// Destination network.
    pub dst: Ipv4Addr,
    /// Prefix length (0 = default route).
    pub prefix_len: u8,
    /// Next-hop IP; `None` means on-link.
    pub via: Option<Ipv4Addr>,
    /// Egress interface.
    pub iface: IfaceId,
}

/// A StorM steering route: matches flows by destination (and optionally
/// source port) and diverts them to a gateway next-hop.
///
/// This implements the paper's host-side flow redirection. Because all VMs
/// on a host share the initiator's IP, only 3 of the connection's 4 tuple
/// fields are known before login; StorM therefore installs the steering
/// rule only for the duration of an (atomic) volume attach, and relies on
/// per-flow pinning — established flows keep following their pinned
/// next-hop after the rule is removed, exactly like conntrack-backed NAT
/// ("the removal of NAT rules does not impact established flows").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SteerRule {
    /// Destination IP to match.
    pub match_dst_ip: Ipv4Addr,
    /// Destination port to match (`None` = any).
    pub match_dst_port: Option<u16>,
    /// Source port to match (`None` = any); known only post-login.
    pub match_src_port: Option<u16>,
    /// Gateway next-hop.
    pub via: Ipv4Addr,
    /// Egress interface.
    pub iface: IfaceId,
}

impl SteerRule {
    fn matches(&self, t: &FourTuple) -> bool {
        t.dst.ip == self.match_dst_ip
            && self.match_dst_port.is_none_or(|p| p == t.dst.port)
            && self.match_src_port.is_none_or(|p| p == t.src.port)
    }
}

/// Configuration of a passive-relay interception tap on a forwarding host.
#[derive(Debug, Clone, Copy)]
pub struct TapConfig {
    /// The app whose [`crate::App::on_tap`] is invoked per forwarded packet.
    pub app: AppId,
    /// Per-packet kernel-to-user copy cost (one syscall per packet — the
    /// overhead the paper attributes to the passive-relay approach).
    pub per_packet: SimDuration,
}

/// A simulated machine: network state, CPU and applications.
pub struct Host {
    /// Host name (diagnostics).
    pub name: String,
    /// Interfaces, indexed by [`IfaceId`].
    pub ifaces: Vec<Iface>,
    /// Static routes.
    pub routes: Vec<Route>,
    /// StorM steering routes (evaluated before static routes for locally
    /// originated flows).
    pub steer_rules: Vec<SteerRule>,
    /// Pinned per-flow next-hops created by steering-rule hits on SYNs.
    pub flow_pins: IdMap<FourTuple, (Ipv4Addr, IfaceId)>,
    /// NAT rules and conntrack.
    pub nat: Nat,
    /// TCP stack.
    pub tcp: TcpStack,
    /// CPU model (per-label accounting feeds Figure 10).
    pub cpu: CpuModel,
    /// Whether the host forwards IP traffic (gateways, middle-boxes).
    pub ip_forward: bool,
    /// Per-packet CPU cost of kernel forwarding.
    pub forward_cost: SimDuration,
    /// Optional passive-relay tap.
    pub tap: Option<TapConfig>,
    /// The tap's single userspace process: packets serialize through it.
    pub tap_queue: storm_sim::SerialResource,
    /// Frames dropped for lack of a route / ARP entry.
    pub dropped_no_route: u64,
    pub(crate) apps: Vec<Option<Box<dyn crate::engine::App>>>,
}

impl fmt::Debug for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Host")
            .field("name", &self.name)
            .field("ifaces", &self.ifaces.len())
            .field("apps", &self.apps.len())
            .field("ip_forward", &self.ip_forward)
            .finish_non_exhaustive()
    }
}

fn in_subnet(ip: Ipv4Addr, net: Ipv4Addr, prefix_len: u8) -> bool {
    if prefix_len == 0 {
        return true;
    }
    let mask = u32::MAX << (32 - prefix_len as u32);
    (u32::from(ip) & mask) == (u32::from(net) & mask)
}

impl Host {
    pub(crate) fn new(name: String, cores: usize, tcp_config: TcpConfig) -> Self {
        Host {
            name,
            ifaces: Vec::new(),
            routes: Vec::new(),
            steer_rules: Vec::new(),
            flow_pins: IdMap::default(),
            nat: Nat::new(),
            tcp: TcpStack::new(tcp_config),
            cpu: CpuModel::new(cores),
            ip_forward: false,
            forward_cost: SimDuration::from_nanos(800),
            tap: None,
            tap_queue: storm_sim::SerialResource::new(),
            dropped_no_route: 0,
            apps: Vec::new(),
        }
    }

    /// Whether `ip` is assigned to one of this host's interfaces.
    pub fn has_ip(&self, ip: Ipv4Addr) -> bool {
        self.ifaces.iter().any(|i| i.ip == ip)
    }

    /// Picks the egress interface and next hop for `dst`, honouring (in
    /// order) pinned flows, steering rules (SYN-only pinning is handled by
    /// the caller), connected subnets and static routes.
    pub fn route_for(&self, dst: Ipv4Addr) -> Option<(IfaceId, Ipv4Addr)> {
        // Connected subnets first (longest prefix wins).
        let mut best: Option<(u8, IfaceId, Ipv4Addr)> = None;
        for (idx, iface) in self.ifaces.iter().enumerate() {
            if in_subnet(dst, iface.ip, iface.prefix_len)
                && best.is_none_or(|(p, _, _)| iface.prefix_len > p)
            {
                best = Some((iface.prefix_len, IfaceId(idx as u32), dst));
            }
        }
        for r in &self.routes {
            if in_subnet(dst, r.dst, r.prefix_len) && best.is_none_or(|(p, _, _)| r.prefix_len > p)
            {
                best = Some((r.prefix_len, r.iface, r.via.unwrap_or(dst)));
            }
        }
        best.map(|(_, iface, via)| (iface, via))
    }

    /// Resolves the route for a locally originated flow, applying steering
    /// rules and flow pins. `is_syn` flows that hit a steering rule get
    /// pinned so they keep their path after the rule is removed.
    pub fn route_for_flow(
        &mut self,
        tuple: &FourTuple,
        is_syn: bool,
    ) -> Option<(IfaceId, Ipv4Addr)> {
        if let Some(&(via, iface)) = self.flow_pins.get(tuple) {
            return Some((iface, via));
        }
        if is_syn {
            if let Some(rule) = self.steer_rules.iter().find(|r| r.matches(tuple)) {
                let pin = (rule.via, rule.iface);
                self.flow_pins.insert(*tuple, pin);
                return Some((pin.1, pin.0));
            }
        }
        self.route_for(tuple.dst.ip)
    }

    /// Installs a steering rule.
    pub fn add_steer_rule(&mut self, rule: SteerRule) {
        self.steer_rules.push(rule);
    }

    /// Removes steering rules equal to `rule`; pinned flows are unaffected.
    pub fn remove_steer_rule(&mut self, rule: &SteerRule) {
        self.steer_rules.retain(|r| r != rule);
    }

    /// Number of pinned flows (diagnostics).
    pub fn pinned_flows(&self) -> usize {
        self.flow_pins.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::SockAddr;

    fn host() -> Host {
        let mut h = Host::new("h".into(), 4, TcpConfig::default());
        h.ifaces.push(Iface {
            mac: MacAddr::nth(1),
            ip: Ipv4Addr::new(192, 168, 1, 10),
            prefix_len: 24,
            link: None,
        });
        h.ifaces.push(Iface {
            mac: MacAddr::nth(2),
            ip: Ipv4Addr::new(10, 0, 0, 10),
            prefix_len: 24,
            link: None,
        });
        h
    }

    #[test]
    fn connected_subnet_routing() {
        let h = host();
        let (iface, via) = h.route_for(Ipv4Addr::new(10, 0, 0, 99)).unwrap();
        assert_eq!(iface, IfaceId(1));
        assert_eq!(via, Ipv4Addr::new(10, 0, 0, 99));
        assert!(h.route_for(Ipv4Addr::new(172, 16, 0, 1)).is_none());
        assert!(h.has_ip(Ipv4Addr::new(10, 0, 0, 10)));
        assert!(!h.has_ip(Ipv4Addr::new(10, 0, 0, 11)));
    }

    #[test]
    fn static_route_with_gateway() {
        let mut h = host();
        h.routes.push(Route {
            dst: Ipv4Addr::new(172, 16, 0, 0),
            prefix_len: 16,
            via: Some(Ipv4Addr::new(10, 0, 0, 1)),
            iface: IfaceId(1),
        });
        let (iface, via) = h.route_for(Ipv4Addr::new(172, 16, 5, 5)).unwrap();
        assert_eq!(iface, IfaceId(1));
        assert_eq!(via, Ipv4Addr::new(10, 0, 0, 1));
    }

    #[test]
    fn steering_rule_pins_flows_on_syn() {
        let mut h = host();
        let target = Ipv4Addr::new(10, 0, 0, 99);
        let gw = Ipv4Addr::new(10, 0, 0, 50);
        let rule = SteerRule {
            match_dst_ip: target,
            match_dst_port: Some(3260),
            match_src_port: None,
            via: gw,
            iface: IfaceId(1),
        };
        h.add_steer_rule(rule);
        let flow = FourTuple::new(
            SockAddr::new(Ipv4Addr::new(10, 0, 0, 10), 40001),
            SockAddr::new(target, 3260),
        );
        // SYN hits the rule and pins the flow.
        assert_eq!(h.route_for_flow(&flow, true), Some((IfaceId(1), gw)));
        assert_eq!(h.pinned_flows(), 1);
        // Rule removal leaves the pinned flow steered...
        h.remove_steer_rule(&rule);
        assert_eq!(h.route_for_flow(&flow, false), Some((IfaceId(1), gw)));
        // ...but new flows go direct (the atomic-attach property).
        let fresh = FourTuple::new(
            SockAddr::new(Ipv4Addr::new(10, 0, 0, 10), 40002),
            SockAddr::new(target, 3260),
        );
        assert_eq!(h.route_for_flow(&fresh, true), Some((IfaceId(1), target)));
    }

    #[test]
    fn non_syn_flows_do_not_pin() {
        let mut h = host();
        let target = Ipv4Addr::new(10, 0, 0, 99);
        h.add_steer_rule(SteerRule {
            match_dst_ip: target,
            match_dst_port: None,
            match_src_port: None,
            via: Ipv4Addr::new(10, 0, 0, 50),
            iface: IfaceId(1),
        });
        let flow = FourTuple::new(
            SockAddr::new(Ipv4Addr::new(10, 0, 0, 10), 40001),
            SockAddr::new(target, 3260),
        );
        // Mid-flow packets of unknown flows follow normal routing.
        assert_eq!(h.route_for_flow(&flow, false), Some((IfaceId(1), target)));
        assert_eq!(h.pinned_flows(), 0);
    }

    #[test]
    fn src_port_scoped_steering() {
        let mut h = host();
        let target = Ipv4Addr::new(10, 0, 0, 99);
        let gw = Ipv4Addr::new(10, 0, 0, 50);
        h.add_steer_rule(SteerRule {
            match_dst_ip: target,
            match_dst_port: Some(3260),
            match_src_port: Some(40001),
            via: gw,
            iface: IfaceId(1),
        });
        let hit = FourTuple::new(
            SockAddr::new(Ipv4Addr::new(10, 0, 0, 10), 40001),
            SockAddr::new(target, 3260),
        );
        let miss = FourTuple::new(
            SockAddr::new(Ipv4Addr::new(10, 0, 0, 10), 40002),
            SockAddr::new(target, 3260),
        );
        assert_eq!(h.route_for_flow(&hit, true).unwrap().1, gw);
        assert_eq!(h.route_for_flow(&miss, true).unwrap().1, target);
    }
}
