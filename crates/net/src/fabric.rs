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
//! host emits it. [`Fabric::transmit`] takes the box and hands it on
//! inside the [`Delivery`]: a link or switch hop moves a pointer and
//! allocates nothing. The one exception is a flood, which clones the
//! frame for every egress port but the last.
//!
//! # Early services
//!
//! The engine may serve a link queue before the instant the request would
//! have reached it (DESIGN §3.1). Each link queue keeps who has asked it
//! for service ([`Claim`]) and the instant of its latest early service,
//! and the fabric journals the services done ahead of their instant
//! ([`Early`]), so that a conflicting request can undo them.

use std::collections::VecDeque;
use std::net::Ipv4Addr;

use storm_sim::{CancelToken, IdMap, SerialResource, SimDuration, SimTime};

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

    /// An inter-rack uplink: 10 Gbps with spine-hop propagation. The
    /// fleet model's cross-rack messages cross links like this one, so
    /// its latency doubles as the lookahead of the fleet's rounds.
    pub fn inter_rack() -> Self {
        LinkSpec {
            latency: SimDuration::from_micros(5), // ToR → spine → ToR
            bandwidth_bps: 10_000_000_000,
            per_packet: SimDuration::from_nanos(100),
            half_duplex: false,
        }
    }

    /// The conservative-sync lookahead this link affords: nothing sent
    /// across it can take effect on the far side sooner than its one-way
    /// propagation latency.
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
    /// Who has requested each queue so far.
    claims: [Claim; 2],
    /// Per queue, the instant of its latest early service.
    early_until: [SimTime; 2],
    /// Per end, the instant of the latest frame event queued towards it:
    /// an arrival at a switch port, an egress of a host interface.
    queued_until: [Option<SimTime>; 2],
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

/// One end of one link, as a number: a switch port or host interface
/// names itself by the link wired to it. A frame sent from an end leaves
/// in that end's direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct End(u32);

impl End {
    fn new(link: LinkId, end: usize) -> End {
        End(link.0 << 1 | end as u32)
    }

    pub(crate) fn link(self) -> LinkId {
        LinkId(self.0 >> 1)
    }

    /// The other end of the link.
    pub(crate) fn far(self) -> End {
        End(self.0 ^ 1)
    }

    fn index(self) -> usize {
        (self.0 & 1) as usize
    }
}

/// Who has requested a link queue so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Claim {
    /// Nobody yet.
    #[default]
    Free,
    /// One requester: the switch ingress port or host interface the
    /// frames came through.
    One(End),
    /// A second requester came (an ordinary request that found early
    /// services ahead of it undid them); no service is done early here
    /// again.
    Shared,
}

/// Names an [`Early`] entry by its place in the fabric's journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EarlyRef(u64);

/// A link-queue service done ahead of its instant, and what undoing it
/// takes. The hops of one chain are journaled one after another, so an
/// entry without a `queued` event handed its frame to the next entry
/// ([`Fabric::child_of`], [`Fabric::parent_of`]; [`Fabric::record`]
/// checks it).
#[derive(Debug)]
pub(crate) struct Early {
    /// When the request would have reached the queue.
    pub(crate) at: SimTime,
    /// The end that sent the frame: the queue served is its direction's.
    pub(crate) from: End,
    /// The requester, where the frame was at `at`: a switch ingress port
    /// (queued again as an `Ev::Arrive` if the service is undone) or a
    /// forwarding host's interface (an `Ev::Egress`).
    pub(crate) ingress: End,
    /// The queue before the service.
    pub(crate) before: SerialResource,
    /// The frame's addressing and hop count before the hop.
    pub(crate) src_mac: MacAddr,
    pub(crate) dst_mac: MacAddr,
    pub(crate) hops: u8,
    /// The flow rule the switch hop hit.
    pub(crate) rule: Option<u32>,
    /// The `Ev::Arrive` the chain ended in, if it ended here.
    pub(crate) queued: Option<CancelToken>,
    /// Whether the service has been undone.
    pub(crate) undone: bool,
}

/// The wiring graph: switches, links and the (static) ARP map.
#[derive(Debug, Default)]
pub struct Fabric {
    switches: Vec<VirtualSwitch>,
    links: Vec<Link>,
    /// The link end wired to each switch port: `[switch][port]`.
    port_ends: Vec<Vec<Option<End>>>,
    arp: IdMap<Ipv4Addr, MacAddr>,
    pub(crate) dropped: u64,
    /// Scratch for one switch hop's egress ports, reused across hops so
    /// forwarding allocates nothing. The engine's switch hop takes it and
    /// puts it back; an early hop inside it uses a scratch of its own.
    pub(crate) egress_ports: Vec<PortNo>,
    /// Early services not yet known to be settled, in the order they were
    /// done (DESIGN §3.1).
    journal: VecDeque<Early>,
    /// Entries dropped from the journal's front so far: entry `i` is
    /// `journal[i - settled]`.
    settled: u64,
}

impl Fabric {
    /// Creates an empty fabric.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a switch, returning its id.
    pub fn add_switch(&mut self, sw: VirtualSwitch) -> SwitchId {
        self.port_ends.push(vec![None; sw.port_count()]);
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
        for (i, end) in [a, b].into_iter().enumerate() {
            if let Endpoint::Switch { sw, port } = end {
                let ports = &mut self.port_ends[sw.0 as usize];
                if ports.len() <= port.0 as usize {
                    ports.resize(port.0 as usize + 1, None);
                }
                let prev = ports[port.0 as usize].replace(End::new(id, i));
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
            claims: [Claim::Free; 2],
            early_until: [SimTime::ZERO; 2],
            queued_until: [None; 2],
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

    /// The link wired to a switch port, if any.
    pub fn link_at(&self, sw: SwitchId, port: PortNo) -> Option<LinkId> {
        self.port_end(sw, port).map(End::link)
    }

    /// The link end wired to a switch port, if any.
    pub(crate) fn port_end(&self, sw: SwitchId, port: PortNo) -> Option<End> {
        *self.port_ends.get(sw.0 as usize)?.get(port.0 as usize)?
    }

    /// Frames dropped by the fabric (down links, unwired ports).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Transmits `frame` from link end `from` over its link, returning the
    /// resulting delivery, or `None` if the link is down.
    pub(crate) fn transmit(
        &mut self,
        from: End,
        frame: Box<Frame>,
        now: SimTime,
    ) -> Option<Delivery> {
        let queue = self.queue_of(from);
        let link = &mut self.links[from.link().0 as usize];
        if !link.up {
            self.dropped += 1;
            return None;
        }
        let to = link.ends[from.far().index()];
        // Control frames (bare acks) copy far less than full data packets.
        let per_packet = if frame.tcp.payload.is_empty() {
            link.spec.per_packet / 4
        } else {
            link.spec.per_packet
        };
        let occupancy =
            per_packet + SimDuration::transmission(frame.wire_len(), link.spec.bandwidth_bps);
        let done = link.queues[queue].serve(now, occupancy);
        link.frames += 1;
        link.bytes += frame.wire_len() as u64;
        Some(Delivery {
            at: done + link.spec.latency,
            to,
            frame,
        })
    }

    /// The end of link `id` that `endpoint` is, if it is one.
    pub(crate) fn end_of(&self, id: LinkId, endpoint: Endpoint) -> Option<End> {
        let i = self.links[id.0 as usize]
            .ends
            .iter()
            .position(|&e| e == endpoint)?;
        Some(End::new(id, i))
    }

    /// The endpoint at an end.
    pub(crate) fn endpoint(&self, end: End) -> Endpoint {
        self.links[end.link().0 as usize].ends[end.index()]
    }

    /// The queue frames sent from `from` use: its direction's, or the one
    /// both directions of a half-duplex link share.
    fn queue_of(&self, from: End) -> usize {
        if self.links[from.link().0 as usize].spec.half_duplex {
            0
        } else {
            from.index()
        }
    }

    /// The link and queue frames sent from `from` use.
    fn queue_key(&self, from: End) -> (LinkId, usize) {
        (from.link(), self.queue_of(from))
    }

    /// Notes a frame event queued towards `end` for instant `at`.
    pub(crate) fn mark_queued(&mut self, end: End, at: SimTime) {
        let until = &mut self.links[end.link().0 as usize].queued_until[end.index()];
        *until = (*until).max(Some(at));
    }

    /// Rule (b) of §3.1: whether a frame event queued towards `end` may not
    /// have been delivered by `now`. Events towards one end are due in the
    /// order they were queued, so only the latest counts; one due exactly
    /// at `now` counts as pending.
    pub(crate) fn has_queued(&self, end: End, now: SimTime) -> bool {
        self.links[end.link().0 as usize].queued_until[end.index()].is_some_and(|t| t >= now)
    }

    /// Registers an ordinary request by `by` on the queue `from` sends on,
    /// at `now`: rule (d)'s bookkeeping. Returns whether early services
    /// after `now` are outstanding there; the caller undoes them before it
    /// is served, and the queue is shared from then on.
    pub(crate) fn claim(&mut self, from: End, by: End, now: SimTime) -> bool {
        let queue = self.queue_of(from);
        let link = &mut self.links[from.link().0 as usize];
        let conflict = link.early_until[queue] > now;
        let claim = &mut link.claims[queue];
        *claim = match *claim {
            Claim::Free if !conflict => Claim::One(by),
            Claim::One(owner) if owner == by && !conflict => Claim::One(owner),
            _ => Claim::Shared,
        };
        conflict
    }

    /// Whether `by` may be served early at `at` on the queue `from` sends
    /// on: the link is up, nobody else has requested the queue (rule (d)),
    /// and nothing served there early is due later, so FIFO order holds.
    pub(crate) fn may_serve_early(&self, from: End, by: End, at: SimTime) -> bool {
        let queue = self.queue_of(from);
        let link = &self.links[from.link().0 as usize];
        link.up
            && (link.claims[queue] == Claim::Free || link.claims[queue] == Claim::One(by))
            && link.early_until[queue] <= at
    }

    /// Whether a link's directions share one queue.
    pub(crate) fn is_half_duplex(&self, id: LinkId) -> bool {
        self.links[id.0 as usize].spec.half_duplex
    }

    /// The state of the queue `from` sends on, kept by a journal entry
    /// before an early service.
    pub(crate) fn queue_state(&self, from: End) -> SerialResource {
        self.links[from.link().0 as usize].queues[self.queue_of(from)].clone()
    }

    /// Journals an early service just done and claims its queue for the
    /// requester. `chained`: the entry journaled just before handed the
    /// frame over, and it holds no queued event yet; any other entry
    /// starts a chain, so every entry before it holds one. Settled entries
    /// (due by `now`) leave the journal's front on the way.
    pub(crate) fn record(&mut self, e: Early, now: SimTime, chained: bool) {
        debug_assert_eq!(
            chained,
            self.journal.back().is_some_and(|b| b.queued.is_none()),
            "a chain's hops are journaled one after another"
        );
        while self.journal.front().is_some_and(|e| e.at <= now) {
            self.journal.pop_front();
            self.settled += 1;
        }
        let queue = self.queue_of(e.from);
        let link = &mut self.links[e.from.link().0 as usize];
        if link.claims[queue] == Claim::Free {
            link.claims[queue] = Claim::One(e.ingress);
        }
        link.early_until[queue] = e.at;
        self.journal.push_back(e);
    }

    /// Ends the chain just journaled: its frame is queued as `token`.
    pub(crate) fn end_chain(&mut self, token: CancelToken) {
        if let Some(e) = self.journal.back_mut() {
            e.queued = Some(token);
        }
    }

    /// Where a journal entry sits in the journal, unless it has settled.
    fn slot(&self, r: EarlyRef) -> Option<usize> {
        usize::try_from(r.0.checked_sub(self.settled)?).ok()
    }

    fn early(&self, r: EarlyRef) -> Option<&Early> {
        self.journal.get(self.slot(r)?)
    }

    /// A journal entry, unless it has settled.
    pub(crate) fn early_mut(&mut self, r: EarlyRef) -> Option<&mut Early> {
        let i = self.slot(r)?;
        self.journal.get_mut(i)
    }

    /// The live journal entries, newest first.
    fn live(&self) -> impl Iterator<Item = (EarlyRef, &Early)> {
        let settled = self.settled;
        (self.journal.iter().enumerate().rev())
            .filter(|(_, e)| !e.undone)
            .map(move |(i, e)| (EarlyRef(settled + i as u64), e))
    }

    /// The newest early service still to be undone on the queue `from`
    /// sends on, if it is due after `now`.
    pub(crate) fn newest_after(&self, from: End, now: SimTime) -> Option<EarlyRef> {
        let key = self.queue_key(from);
        let (r, e) = self.live().find(|(_, e)| self.queue_key(e.from) == key)?;
        (e.at > now).then_some(r)
    }

    /// The oldest early hop at switch `sw` that is due after `now`.
    pub(crate) fn oldest_hop_at(&self, sw: SwitchId, now: SimTime) -> Option<EarlyRef> {
        let at_sw = |e: &Early| matches!(self.endpoint(e.ingress), Endpoint::Switch { sw: s, .. } if s == sw);
        self.live()
            .filter(|(_, e)| e.at > now && at_sw(e))
            .last()
            .map(|(r, _)| r)
    }

    /// The early hop `r`'s frame went on to, if it did: the entry
    /// journaled right after it, when `r` holds no queued event.
    pub(crate) fn child_of(&self, r: EarlyRef) -> Option<EarlyRef> {
        let e = self.early(r)?;
        (!e.undone && e.queued.is_none()).then_some(EarlyRef(r.0 + 1))
    }

    /// The early hop that handed `r`'s frame over, if it is journaled: the
    /// entry journaled right before it, when that one holds no queued
    /// event.
    pub(crate) fn parent_of(&mut self, r: EarlyRef) -> Option<&mut Early> {
        let p = self.early_mut(EarlyRef(r.0.checked_sub(1)?))?;
        (!p.undone && p.queued.is_none()).then_some(p)
    }

    /// Takes an early service back, the newest on its queue: the queue
    /// state and the link's counters return to what they were before it.
    pub(crate) fn unserve(&mut self, r: EarlyRef, wire_len: usize) -> Option<&Early> {
        let e = self.early_mut(r)?;
        e.undone = true;
        let (from, before) = (e.from, e.before.clone());
        let key = self.queue_key(from);
        let until = self.live().find(|(_, e)| self.queue_key(e.from) == key);
        let until = until.map_or(SimTime::ZERO, |(_, e)| e.at);
        let (id, queue) = key;
        let link = &mut self.links[id.0 as usize];
        link.queues[queue] = before;
        link.early_until[queue] = until;
        link.frames -= 1;
        link.bytes -= wire_len as u64;
        self.early_mut(r).map(|e| &*e)
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

    /// Transmits from host endpoint `from` over link `l`.
    fn send(f: &mut Fabric, l: LinkId, from: Endpoint, frame: Box<Frame>) -> Option<Delivery> {
        let end = f.end_of(l, from).unwrap();
        f.transmit(end, frame, SimTime::ZERO)
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
        let d = send(&mut f, l, host_end(0, 0), frame(1446)).unwrap();
        assert_eq!(d.at.as_micros(), 112);
        assert_eq!(d.to, host_end(1, 0));
        // Second frame queues behind the first (FIFO serialization).
        let d2 = send(&mut f, l, host_end(0, 0), frame(1446)).unwrap();
        assert_eq!(d2.at.as_micros(), 124);
        // Reverse direction has its own queue (full duplex).
        let d3 = send(&mut f, l, host_end(1, 0), frame(1446)).unwrap();
        assert_eq!(d3.at.as_micros(), 112);
        assert_eq!(f.link(l).frames(), 3);
        assert_eq!(f.link(l).bytes(), 3 * 1500);
    }

    #[test]
    fn down_link_drops() {
        let mut f = Fabric::new();
        let l = f.add_link(host_end(0, 0), host_end(1, 0), LinkSpec::instant());
        f.set_link_up(l, false);
        assert!(send(&mut f, l, host_end(0, 0), frame(10)).is_none());
        assert_eq!(f.dropped(), 1);
        f.set_link_up(l, true);
        assert!(send(&mut f, l, host_end(0, 0), frame(10)).is_some());
        assert_eq!(f.dropped(), 1, "an up link drops nothing");
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
