//! Links, endpoints and the physical wiring graph.
//!
//! A [`Link`] connects two [`Endpoint`]s (host interfaces or switch ports)
//! and models three costs per direction:
//!
//! * propagation latency,
//! * serialization at the link's bandwidth (frames queue FIFO), and
//! * a fixed per-packet overhead.
//!
//! The per-packet overhead is how virtio vifs are modelled: the paper notes
//! the hypervisor "uses a single thread per VM's virtual interface", so a
//! VM-facing link with a few microseconds of per-packet cost reproduces the
//! observation that intra-host packet transfer dominates routing overhead.
//!
//! # Frame ownership
//!
//! A frame in flight is one heap object (`Box<Frame>`), allocated where a
//! host emits it. [`Fabric::transmit`] and [`Fabric::switch_forward`]
//! take the box and hand it on inside the [`Delivery`]: a link or switch
//! hop moves a pointer and allocates nothing. The one exception is a
//! flood, which clones the frame for every egress port but the last.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use storm_sim::{FaultAction, FaultHook, FaultSite, SerialResource, SimDuration, SimTime};

use crate::addr::MacAddr;
use crate::frame::Frame;
use crate::host::{HostId, IfaceId};
use crate::switch::{PortNo, SwitchId, VirtualSwitch};

/// Index of a link within the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// One end of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A host NIC / vif.
    Host {
        /// Host owning the interface.
        host: HostId,
        /// Interface on that host.
        iface: IfaceId,
    },
    /// A switch port.
    Switch {
        /// The switch.
        sw: SwitchId,
        /// Port on that switch.
        port: PortNo,
    },
}

/// Performance parameters of a link (applied per direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Bandwidth in bits per second; `0` means unlimited.
    pub bandwidth_bps: u64,
    /// Fixed per-packet processing cost (serialized with transmission).
    pub per_packet: SimDuration,
    /// Both directions share one queue (a virtio vif's single vhost
    /// worker thread copies rx and tx packets alike, so acks contend with
    /// data — the root of the paper's "intra-host packet transfer
    /// contributes more to the routing overhead" observation).
    pub half_duplex: bool,
}

impl LinkSpec {
    /// A 1 GbE physical link: 5 µs propagation (NIC + switch port), 1 Gbps.
    pub fn gigabit() -> Self {
        LinkSpec {
            latency: SimDuration::from_nanos(500), // cut-through ToR switch
            bandwidth_bps: 1_000_000_000,
            per_packet: SimDuration::from_nanos(300),
            half_duplex: false,
        }
    }

    /// A virtio vif: short latency, memory-speed copy, but a heavy
    /// single-threaded per-packet copy cost — the paper: "the
    /// virtualization driver, for copying network packets, is less
    /// efficient — it uses a single thread per VM's virtual interface and
    /// usually causes high CPU utilization".
    pub fn virtio() -> Self {
        LinkSpec {
            latency: SimDuration::from_nanos(500),
            bandwidth_bps: 8_000_000_000,
            per_packet: SimDuration::from_micros(7),
            half_duplex: true,
        }
    }

    /// An ideal link for unit tests: zero cost everywhere.
    pub fn instant() -> Self {
        LinkSpec {
            latency: SimDuration::ZERO,
            bandwidth_bps: 0,
            per_packet: SimDuration::ZERO,
            half_duplex: false,
        }
    }

    /// An inter-rack (cross-partition) uplink: 10 Gbps with spine-hop
    /// propagation. Sharded fleet runs partition the topology at links
    /// like this one, so its latency doubles as the sharding lookahead.
    pub fn inter_rack() -> Self {
        LinkSpec {
            latency: SimDuration::from_micros(5), // ToR → spine → ToR
            bandwidth_bps: 10_000_000_000,
            per_packet: SimDuration::from_nanos(100),
            half_duplex: false,
        }
    }

    /// The conservative-sync lookahead this link affords a sharded
    /// executor: nothing sent across it can take effect on the far side
    /// sooner than its one-way propagation latency. Zero-latency links
    /// afford none and must stay inside one shard.
    pub fn lookahead(&self) -> SimDuration {
        self.latency
    }
}

/// A bidirectional link with independent per-direction queues (full duplex).
#[derive(Debug)]
pub struct Link {
    ends: [Endpoint; 2],
    spec: LinkSpec,
    queues: [SerialResource; 2],
    up: bool,
    frames: u64,
    bytes: u64,
}

impl Link {
    /// Total frames carried.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Total payload+header bytes carried.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether the link is up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// The link's endpoints.
    pub fn ends(&self) -> [Endpoint; 2] {
        self.ends
    }
}

/// A frame in flight: where and when it will arrive.
#[derive(Debug)]
pub struct Delivery {
    /// Arrival instant.
    pub at: SimTime,
    /// Receiving endpoint.
    pub to: Endpoint,
    /// The frame.
    pub frame: Box<Frame>,
}

/// The wiring graph: switches, links and the (static) ARP map.
#[derive(Debug, Default)]
pub struct Fabric {
    switches: Vec<VirtualSwitch>,
    links: Vec<Link>,
    /// The link wired to each switch port: `[switch][port]`.
    port_links: Vec<Vec<Option<LinkId>>>,
    arp: BTreeMap<Ipv4Addr, MacAddr>,
    dropped: u64,
    fault: FaultHook,
    /// Scratch for one switch hop's egress ports, reused across hops so
    /// forwarding allocates nothing. `switch_forward` takes it and puts
    /// it back; nothing it calls comes back into the fabric.
    egress_ports: Vec<PortNo>,
}

impl Fabric {
    /// Creates an empty fabric.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a switch, returning its id.
    pub fn add_switch(&mut self, sw: VirtualSwitch) -> SwitchId {
        self.port_links.push(vec![None; sw.port_count()]);
        self.switches.push(sw);
        SwitchId(self.switches.len() as u32 - 1)
    }

    /// Access a switch.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn switch_mut(&mut self, id: SwitchId) -> &mut VirtualSwitch {
        &mut self.switches[id.0 as usize]
    }

    /// Read access to a switch.
    pub fn switch(&self, id: SwitchId) -> &VirtualSwitch {
        &self.switches[id.0 as usize]
    }

    /// Wires two endpoints together.
    ///
    /// # Panics
    ///
    /// Panics if a switch port is already wired.
    pub fn add_link(&mut self, a: Endpoint, b: Endpoint, spec: LinkSpec) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        for end in [a, b] {
            if let Endpoint::Switch { sw, port } = end {
                let ports = &mut self.port_links[sw.0 as usize];
                if ports.len() <= port.0 as usize {
                    ports.resize(port.0 as usize + 1, None);
                }
                let prev = ports[port.0 as usize].replace(id);
                assert!(prev.is_none(), "switch port {sw}:{port} wired twice");
            }
        }
        self.links.push(Link {
            ends: [a, b],
            spec,
            queues: [SerialResource::new(), SerialResource::new()],
            up: true,
            frames: 0,
            bytes: 0,
        });
        id
    }

    /// Registers a static ARP binding (built automatically as interfaces
    /// are added).
    pub fn set_arp(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        self.arp.insert(ip, mac);
    }

    /// Resolves an IP to a MAC.
    pub fn arp(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        self.arp.get(&ip).copied()
    }

    /// Takes a link down (fault injection); in-flight frames still arrive,
    /// new sends are dropped.
    pub fn set_link_up(&mut self, id: LinkId, up: bool) {
        self.links[id.0 as usize].up = up;
    }

    /// Read access to a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Number of links in the fabric (link ids are `0..count`).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The smallest [`LinkSpec::lookahead`] over every link, or `None`
    /// for an empty fabric. A sharded executor that may cut the topology
    /// at *any* link must bound its rounds by this; partitioning only at
    /// high-latency inter-rack links (the intended cut) lets it use those
    /// links' larger lookahead instead.
    pub fn min_link_lookahead(&self) -> Option<SimDuration> {
        self.links.iter().map(|l| l.spec.lookahead()).min()
    }

    /// The link wired to a switch port, if any.
    pub fn link_at(&self, sw: SwitchId, port: PortNo) -> Option<LinkId> {
        *self.port_links.get(sw.0 as usize)?.get(port.0 as usize)?
    }

    /// Arms (or, with an unarmed hook, clears) the fabric's fault hook.
    pub fn set_fault_hook(&mut self, hook: FaultHook) {
        self.fault = hook;
    }

    /// Frames dropped by the fabric (down links, unwired ports).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Transmits `frame` from endpoint `from` over link `id`, returning the
    /// resulting delivery, or `None` if the frame is dropped.
    pub fn transmit(
        &mut self,
        id: LinkId,
        from: Endpoint,
        frame: Box<Frame>,
        now: SimTime,
    ) -> Option<Delivery> {
        // Fault injection: an armed plan may drop or delay the frame.
        let extra_latency = match self
            .fault
            .decide(now, FaultSite::LinkTransmit { link: id.0 })
        {
            FaultAction::Proceed => SimDuration::ZERO,
            FaultAction::Drop | FaultAction::Fail => {
                self.dropped += 1;
                return None;
            }
            FaultAction::Delay(d) => d,
        };
        let link = &mut self.links[id.0 as usize];
        if !link.up {
            self.dropped += 1;
            return None;
        }
        let dir = if link.ends[0] == from {
            0
        } else if link.ends[1] == from {
            1
        } else {
            self.dropped += 1;
            return None;
        };
        let to = link.ends[1 - dir];
        // Control frames (bare acks) copy far less than full data packets.
        let per_packet = if frame.tcp.payload.is_empty() {
            link.spec.per_packet / 4
        } else {
            link.spec.per_packet
        };
        let occupancy =
            per_packet + SimDuration::transmission(frame.wire_len(), link.spec.bandwidth_bps);
        let queue = if link.spec.half_duplex { 0 } else { dir };
        let done = link.queues[queue].serve(now, occupancy);
        link.frames += 1;
        link.bytes += frame.wire_len() as u64;
        Some(Delivery {
            at: done + link.spec.latency + extra_latency,
            to,
            frame,
        })
    }

    /// Runs switch forwarding for a frame arriving at `sw` on `port` and
    /// transmits the results, handing every onward delivery to `sink`.
    ///
    /// The switch rewrites the frame in place; the frame itself moves to
    /// the last egress port and is cloned only for the others (a flood).
    pub fn switch_forward(
        &mut self,
        sw: SwitchId,
        port: PortNo,
        mut frame: Box<Frame>,
        now: SimTime,
        mut sink: impl FnMut(Delivery),
    ) {
        let mut ports = std::mem::take(&mut self.egress_ports);
        self.switches[sw.0 as usize].forward_in_place(&mut frame, port, &mut ports);
        if let Some((&last, rest)) = ports.split_last() {
            for &out_port in rest {
                self.switch_output(sw, out_port, frame.clone(), now, &mut sink);
            }
            self.switch_output(sw, last, frame, now, &mut sink);
        }
        self.egress_ports = ports;
    }

    fn switch_output(
        &mut self,
        sw: SwitchId,
        port: PortNo,
        frame: Box<Frame>,
        now: SimTime,
        sink: &mut impl FnMut(Delivery),
    ) {
        let Some(link) = self.link_at(sw, port) else {
            self.dropped += 1;
            return;
        };
        if let Some(d) = self.transmit(link, Endpoint::Switch { sw, port }, frame, now) {
            sink(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{TcpFlags, TcpSegment};
    use bytes::Bytes;

    fn frame(bytes: usize) -> Box<Frame> {
        Box::new(Frame {
            src_mac: MacAddr::nth(1),
            dst_mac: MacAddr::nth(2),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            tcp: TcpSegment {
                src_port: 1,
                dst_port: 2,
                seq: 0,
                ack: 0,
                flags: TcpFlags::ACK,
                wnd: 0,
                payload: Bytes::from(vec![0u8; bytes]).into(),
            },
            hops: 0,
        })
    }

    fn host_end(h: u32, i: u32) -> Endpoint {
        Endpoint::Host {
            host: HostId(h),
            iface: IfaceId(i),
        }
    }

    #[test]
    fn transmit_accounts_latency_and_serialization() {
        let mut f = Fabric::new();
        let spec = LinkSpec {
            latency: SimDuration::from_micros(100),
            bandwidth_bps: 1_000_000_000,
            per_packet: SimDuration::ZERO,
            half_duplex: false,
        };
        let l = f.add_link(host_end(0, 0), host_end(1, 0), spec);
        // 1446-byte payload + 54 header = 1500 bytes = 12 us at 1 Gbps.
        let d = f
            .transmit(l, host_end(0, 0), frame(1446), SimTime::ZERO)
            .unwrap();
        assert_eq!(d.at.as_micros(), 112);
        assert_eq!(d.to, host_end(1, 0));
        // Second frame queues behind the first (FIFO serialization).
        let d2 = f
            .transmit(l, host_end(0, 0), frame(1446), SimTime::ZERO)
            .unwrap();
        assert_eq!(d2.at.as_micros(), 124);
        // Reverse direction has its own queue (full duplex).
        let d3 = f
            .transmit(l, host_end(1, 0), frame(1446), SimTime::ZERO)
            .unwrap();
        assert_eq!(d3.at.as_micros(), 112);
        assert_eq!(f.link(l).frames(), 3);
        assert_eq!(f.link(l).bytes(), 3 * 1500);
    }

    #[test]
    fn lookahead_tracks_the_slowest_safe_cut() {
        let mut f = Fabric::new();
        assert_eq!(f.min_link_lookahead(), None);
        f.add_link(host_end(0, 0), host_end(1, 0), LinkSpec::inter_rack());
        assert_eq!(
            f.min_link_lookahead(),
            Some(SimDuration::from_micros(5)),
            "inter-rack propagation is the lookahead"
        );
        // A fast intra-rack link tightens the bound for arbitrary cuts.
        f.add_link(host_end(1, 0), host_end(2, 0), LinkSpec::gigabit());
        assert_eq!(f.min_link_lookahead(), Some(SimDuration::from_nanos(500)));
        assert_eq!(
            LinkSpec::inter_rack().lookahead(),
            LinkSpec::inter_rack().latency
        );
    }

    #[test]
    fn down_link_drops() {
        let mut f = Fabric::new();
        let l = f.add_link(host_end(0, 0), host_end(1, 0), LinkSpec::instant());
        f.set_link_up(l, false);
        assert!(!f.link(l).is_up());
        assert!(f
            .transmit(l, host_end(0, 0), frame(10), SimTime::ZERO)
            .is_none());
        assert_eq!(f.dropped(), 1);
        f.set_link_up(l, true);
        assert!(f
            .transmit(l, host_end(0, 0), frame(10), SimTime::ZERO)
            .is_some());
    }

    #[test]
    fn switch_forward_moves_the_frame_to_the_learned_port() {
        let mut f = Fabric::new();
        let sw = f.add_switch(VirtualSwitch::new("sw", 4));
        let la = f.add_link(
            host_end(0, 0),
            Endpoint::Switch {
                sw,
                port: PortNo(0),
            },
            LinkSpec::instant(),
        );
        let _lb = f.add_link(
            host_end(1, 0),
            Endpoint::Switch {
                sw,
                port: PortNo(1),
            },
            LinkSpec::instant(),
        );
        assert_eq!(f.link_at(sw, PortNo(0)), Some(la));
        f.switch_mut(sw).learn(MacAddr::nth(2), PortNo(1));
        let frame = frame(100);
        let sent: *const Frame = &*frame;
        let mut deliveries = Vec::new();
        f.switch_forward(sw, PortNo(0), frame, SimTime::ZERO, |d| deliveries.push(d));
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].to, host_end(1, 0));
        // A unicast hop moves the frame: same heap object, rewritten in place.
        assert!(std::ptr::eq(&*deliveries[0].frame, sent));
        assert_eq!(deliveries[0].frame.hops, 1);
    }

    #[test]
    fn flood_clones_share_payload_storage() {
        let mut f = Fabric::new();
        let sw = f.add_switch(VirtualSwitch::new("sw", 4));
        for p in 0..4 {
            let port = PortNo(p as u16);
            f.add_link(
                host_end(p, 0),
                Endpoint::Switch { sw, port },
                LinkSpec::instant(),
            );
        }
        // Unknown destination: one frame per other port, in port order,
        // the sender's own box last.
        let frame = frame(100);
        let sent: *const Frame = &*frame;
        let storage = frame.tcp.payload.chunks()[0].clone();
        let mut deliveries = Vec::new();
        f.switch_forward(sw, PortNo(0), frame, SimTime::ZERO, |d| deliveries.push(d));
        let to: Vec<Endpoint> = deliveries.iter().map(|d| d.to).collect();
        assert_eq!(to, [host_end(1, 0), host_end(2, 0), host_end(3, 0)]);
        for d in &deliveries {
            assert!(d.frame.tcp.payload.chunks()[0].same_storage(&storage));
            assert_eq!(d.frame.hops, 1);
        }
        assert!(std::ptr::eq(&*deliveries[2].frame, sent));
        assert!(!std::ptr::eq(&*deliveries[0].frame, sent));
    }

    #[test]
    fn unwired_flood_ports_count_drops() {
        let mut f = Fabric::new();
        let sw = f.add_switch(VirtualSwitch::new("sw", 3));
        f.add_link(
            host_end(0, 0),
            Endpoint::Switch {
                sw,
                port: PortNo(0),
            },
            LinkSpec::instant(),
        );
        // Unknown destination floods to ports 1 and 2, neither wired.
        let mut deliveries = 0;
        f.switch_forward(sw, PortNo(0), frame(10), SimTime::ZERO, |_| deliveries += 1);
        assert_eq!(deliveries, 0);
        assert_eq!(f.dropped(), 2);
    }

    #[test]
    fn arp_registry() {
        let mut f = Fabric::new();
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        assert_eq!(f.arp(ip), None);
        f.set_arp(ip, MacAddr::nth(5));
        assert_eq!(f.arp(ip), Some(MacAddr::nth(5)));
    }
}
