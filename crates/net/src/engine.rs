//! The network event engine: hosts + fabric + applications.
//!
//! [`Network`] owns the topology and the event queue; [`App`]s are state
//! machines attached to hosts that react to socket events, timers and
//! hypervisor-bus messages through a [`Cx`] handle. The engine implements
//! the host datapath: NAT translation, IP forwarding (with per-packet CPU
//! cost and the optional passive-relay tap), local TCP delivery, and
//! transmission over the fabric.

use std::any::Any;
use std::collections::VecDeque;

use bytes::Bytes;

use storm_sim::trace::{flow_token, Hop, TraceEvent, TraceHook};
use storm_sim::{EventQueue, SimDuration, SimRng, SimTime};

use crate::addr::{FourTuple, SockAddr};
use crate::fabric::{Delivery, Early, EarlyRef, End, Endpoint, Fabric, LinkId, LinkSpec};
use crate::frame::Frame;
use crate::host::{AppId, CloseReason, Host, HostId, Iface, IfaceId, Route, SteerRule, TapConfig};
use crate::nat::{DnatRule, SnatRule};
use crate::switch::{PortNo, SwitchId, VirtualSwitch};
use crate::tcp::{OutSeg, SockId, TcpConfig, TcpEvent, TcpStack};

/// An opaque message on the hypervisor bus (virtio-blk requests, control
/// signals). Receivers downcast to their expected concrete type.
pub struct BusMsg(pub Box<dyn Any>);

impl std::fmt::Debug for BusMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("BusMsg").finish()
    }
}

impl BusMsg {
    /// Wraps a payload.
    pub fn new<T: Any>(payload: T) -> Self {
        BusMsg(Box::new(payload))
    }

    /// Attempts to take the payload as `T`.
    pub fn downcast<T: Any>(self) -> Result<T, BusMsg> {
        match self.0.downcast::<T>() {
            Ok(b) => Ok(*b),
            Err(b) => Err(BusMsg(b)),
        }
    }
}

/// Verdict of a passive-relay tap on a forwarded packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TapVerdict {
    /// Forward the (possibly modified) frame.
    #[default]
    Forward,
    /// Forward after an additional processing delay (per-byte service
    /// costs on the passive path).
    ForwardAfter(SimDuration),
    /// Drop the frame.
    Drop,
}

/// A simulation event.
///
/// A frame is queued only as an [`Arrive`](Ev::Arrive) or an
/// [`Egress`](Ev::Egress); switch hops and gateway egresses that the engine
/// resolves early (DESIGN §3.1) are not events. No app addresses its own
/// host, so there is no loopback path.
#[derive(Debug)]
pub enum Ev {
    /// Application start-up hook.
    Start {
        /// Hosting machine.
        host: HostId,
        /// The app.
        app: AppId,
    },
    /// A frame arrives at an endpoint after traversing a link.
    Arrive {
        /// Receiving endpoint.
        to: Endpoint,
        /// The frame.
        frame: Box<Frame>,
    },
    /// A forwarded frame leaves a host after its forwarding/tap delay.
    Egress {
        /// Forwarding host.
        host: HostId,
        /// Egress interface.
        iface: IfaceId,
        /// The frame.
        frame: Box<Frame>,
    },
    /// An application timer fired.
    Timer {
        /// Hosting machine.
        host: HostId,
        /// The app.
        app: AppId,
        /// App-chosen token.
        token: u64,
    },
    /// A hypervisor-bus message.
    Bus {
        /// Destination host.
        host: HostId,
        /// Destination app.
        app: AppId,
        /// Originating host.
        from: HostId,
        /// Payload.
        msg: BusMsg,
    },
    /// Deferred socket resume (so buffered data is delivered outside the
    /// caller's stack frame).
    Resume {
        /// The host.
        host: HostId,
        /// The socket.
        sock: SockId,
    },
}

// The queue moves events by value: DESIGN §3.1 keeps them at 32 bytes.
const _: () = assert!(std::mem::size_of::<Ev>() == 32);

/// An application running on a host.
///
/// All methods have no-op defaults; implement the ones the app cares
/// about. Apps are driven entirely by the engine — they never block.
///
/// `App: Any` so harnesses can downcast via [`downcast_mut`] to read
/// results (operation counts, latency recorders) out of an app after a run.
///
/// [`downcast_mut`]: trait@App#method.downcast_mut
#[allow(unused_variables)]
pub trait App: Any {
    /// Called once when the simulation starts (or when the app is added).
    fn on_start(&mut self, cx: &mut Cx<'_>) {}
    /// A timer set via [`Cx::set_timer`] or [`Cx::compute`] fired.
    fn on_timer(&mut self, cx: &mut Cx<'_>, token: u64) {}
    /// A bus message arrived.
    fn on_bus(&mut self, cx: &mut Cx<'_>, from: HostId, msg: BusMsg) {}
    /// An active open completed.
    fn on_connected(&mut self, cx: &mut Cx<'_>, sock: SockId) {}
    /// An active open failed.
    fn on_connect_failed(&mut self, cx: &mut Cx<'_>, sock: SockId) {}
    /// A listener accepted a connection.
    fn on_accepted(&mut self, cx: &mut Cx<'_>, port: u16, sock: SockId) {}
    /// Ordered payload bytes arrived.
    fn on_data(&mut self, cx: &mut Cx<'_>, sock: SockId, data: Bytes) {}
    /// Send-buffer space became available after a short write.
    fn on_writable(&mut self, cx: &mut Cx<'_>, sock: SockId) {}
    /// The connection ended.
    fn on_closed(&mut self, cx: &mut Cx<'_>, sock: SockId, reason: CloseReason) {}
    /// Passive-relay tap: inspect/modify a frame being forwarded through
    /// this host. Only invoked if a [`TapConfig`] is installed.
    fn on_tap(&mut self, cx: &mut Cx<'_>, frame: &mut Frame) -> TapVerdict {
        TapVerdict::Forward
    }
}

/// The simulated network: fabric, hosts, applications and the event loop.
pub struct Network {
    /// The switching fabric (public for SDN controllers to program).
    pub fabric: Fabric,
    hosts: Vec<Host>,
    q: EventQueue<Ev>,
    now: SimTime,
    rng: SimRng,
    mac_counter: u64,
    default_tcp: TcpConfig,
    trace: TraceHook,
    /// Scratch the TCP stack appends outgoing segments to. Every user
    /// takes it, drains it into `host_output` and puts it back before any
    /// app callback runs, so it is never taken twice.
    seg_buf: Vec<OutSeg>,
    /// Scratch the TCP stack appends app upcalls to. Held across the
    /// dispatch loop of `local_input` / `Ev::Resume`; callbacks only send
    /// (through `seg_buf`) and schedule events, they never re-enter either.
    tcp_events: Vec<(AppId, TcpEvent)>,
    /// The `end` of the `run_until` in progress: hops due by then may be
    /// resolved early. `None` outside one, so a bare `step_until` resolves
    /// nothing early (its callers act between steps).
    horizon: Option<SimTime>,
    /// Scratch for an early hop's egress ports (the ordinary hop around it
    /// may hold `Fabric::egress_ports`).
    early_ports: Vec<PortNo>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("hosts", &self.hosts.len())
            .field("now", &self.now)
            .field("queued", &self.q.len())
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Creates an empty network seeded for reproducibility.
    pub fn new(seed: u64) -> Self {
        Network {
            fabric: Fabric::new(),
            hosts: Vec::new(),
            q: EventQueue::new(),
            now: SimTime::ZERO,
            rng: SimRng::seed_from_u64(seed),
            mac_counter: 1,
            default_tcp: TcpConfig::default(),
            trace: TraceHook::none(),
            seg_buf: Vec::new(),
            tcp_events: Vec::new(),
            horizon: None,
            early_ports: Vec::new(),
        }
    }

    /// Arms the network's trace hook: every IP-forwarding hop (gateways,
    /// MB-FWD middle-boxes) reports its per-packet cost as a flow-scoped
    /// [`Hop::Forward`] stage. Unarmed, forwarding pays one branch.
    pub fn set_trace_hook(&mut self, hook: TraceHook) {
        self.trace = hook;
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Adds a host with `cores` CPU cores.
    pub fn add_host(&mut self, name: impl Into<String>, cores: usize) -> HostId {
        self.hosts
            .push(Host::new(name.into(), cores, self.default_tcp));
        HostId(self.hosts.len() as u32 - 1)
    }

    /// Adds an interface with an auto-assigned MAC in a /24 subnet.
    pub fn add_iface(&mut self, host: HostId, ip: std::net::Ipv4Addr) -> IfaceId {
        self.add_iface_with(host, ip, 24)
    }

    /// Adds an interface with an explicit prefix length.
    pub fn add_iface_with(
        &mut self,
        host: HostId,
        ip: std::net::Ipv4Addr,
        prefix_len: u8,
    ) -> IfaceId {
        let mac = crate::addr::MacAddr::nth(self.mac_counter);
        self.mac_counter += 1;
        self.fabric.set_arp(ip, mac);
        let h = &mut self.hosts[host.0 as usize];
        h.ifaces.push(Iface {
            mac,
            ip,
            prefix_len,
            link: None,
        });
        IfaceId(h.ifaces.len() as u32 - 1)
    }

    /// Adds a switch to the fabric.
    pub fn add_switch(&mut self, name: impl Into<String>, ports: usize) -> SwitchId {
        self.fabric.add_switch(VirtualSwitch::new(name, ports))
    }

    /// Finds the first unwired port on `sw`.
    ///
    /// # Panics
    ///
    /// Panics if the switch is full.
    pub fn free_port(&self, sw: SwitchId) -> PortNo {
        let count = self.fabric.switch(sw).port_count();
        for p in 0..count as u16 {
            if self.fabric.link_at(sw, PortNo(p)).is_none() {
                return PortNo(p);
            }
        }
        panic!("switch {sw} has no free ports");
    }

    /// Wires a host interface to the next free port of a switch, also
    /// seeding the switch's MAC table. Returns the link.
    pub fn link_host_switch(
        &mut self,
        host: HostId,
        iface: IfaceId,
        sw: SwitchId,
        spec: LinkSpec,
    ) -> LinkId {
        let port = self.free_port(sw);
        let mac = self.hosts[host.0 as usize].ifaces[iface.0 as usize].mac;
        let link = self.fabric.add_link(
            Endpoint::Host { host, iface },
            Endpoint::Switch { sw, port },
            spec,
        );
        self.fabric.switch_mut(sw).learn(mac, port);
        self.hosts[host.0 as usize].ifaces[iface.0 as usize].link = Some(link);
        link
    }

    /// Wires two switches together (trunk), returning `(link, port_a,
    /// port_b)`.
    pub fn link_switches(
        &mut self,
        a: SwitchId,
        b: SwitchId,
        spec: LinkSpec,
    ) -> (LinkId, PortNo, PortNo) {
        let pa = self.free_port(a);
        // Temporarily reserve port pa by wiring after computing pb.
        let pb = {
            // free_port(b) cannot collide with pa since they are different
            // switches.
            self.free_port(b)
        };
        let link = self.fabric.add_link(
            Endpoint::Switch { sw: a, port: pa },
            Endpoint::Switch { sw: b, port: pb },
            spec,
        );
        (link, pa, pb)
    }

    /// Attaches an application to a host; its `on_start` runs at the
    /// current simulation time.
    pub fn add_app(&mut self, host: HostId, app: Box<dyn App>) -> AppId {
        let h = &mut self.hosts[host.0 as usize];
        h.apps.push(Some(app));
        let id = AppId(h.apps.len() as u32 - 1);
        self.q.push(self.now, Ev::Start { host, app: id });
        id
    }

    /// Shared access to a host.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.0 as usize]
    }

    /// Number of hosts in the network (host ids are `0..count`).
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Mutable access to a host (for topology/NAT/steering setup).
    pub fn host_mut(&mut self, id: HostId) -> &mut Host {
        &mut self.hosts[id.0 as usize]
    }

    /// Mutable access to an app (to inspect results after a run or
    /// configure it before one). Returns `None` if the app is currently
    /// being dispatched.
    pub fn app_mut(&mut self, host: HostId, app: AppId) -> Option<&mut Box<dyn App>> {
        self.hosts[host.0 as usize].apps[app.0 as usize].as_mut()
    }

    /// Adds a static route.
    pub fn add_route(
        &mut self,
        host: HostId,
        dst: std::net::Ipv4Addr,
        prefix_len: u8,
        via: Option<std::net::Ipv4Addr>,
        iface: IfaceId,
    ) {
        self.hosts[host.0 as usize].routes.push(Route {
            dst,
            prefix_len,
            via,
            iface,
        });
    }

    /// Enables IP forwarding with the given per-packet cost.
    pub fn enable_forwarding(&mut self, host: HostId, per_packet: SimDuration) {
        let h = &mut self.hosts[host.0 as usize];
        h.ip_forward = true;
        h.forward_cost = per_packet;
    }

    /// Installs a passive-relay tap.
    pub fn set_tap(&mut self, host: HostId, tap: Option<TapConfig>) {
        self.hosts[host.0 as usize].tap = tap;
    }

    /// Enables TSO-style large segments on a host's TCP stack.
    pub fn set_tcp_mss(&mut self, host: HostId, mss: usize) {
        self.hosts[host.0 as usize].tcp.set_mss(mss);
    }

    /// Installs a DNAT rule on a host.
    pub fn add_dnat(&mut self, host: HostId, rule: DnatRule) {
        self.hosts[host.0 as usize].nat.add_dnat(rule);
    }

    /// Installs an SNAT rule on a host.
    pub fn add_snat(&mut self, host: HostId, rule: SnatRule) {
        self.hosts[host.0 as usize].nat.add_snat(rule);
    }

    /// Installs a steering rule on a host.
    pub fn add_steer_rule(&mut self, host: HostId, rule: SteerRule) {
        self.hosts[host.0 as usize].add_steer_rule(rule);
    }

    /// Schedules a bus message (hypervisor channel) for delivery after
    /// `delay`.
    pub fn bus_send(
        &mut self,
        from: HostId,
        to_host: HostId,
        to_app: AppId,
        delay: SimDuration,
        msg: BusMsg,
    ) {
        self.q.push(
            self.now + delay,
            Ev::Bus {
                host: to_host,
                app: to_app,
                from,
                msg,
            },
        );
    }

    /// Processes the single next event if it is due at or before `end`,
    /// advancing `now` to it. Returns `false` — with `now` untouched —
    /// when the queue is empty or the next event lies beyond `end`.
    ///
    /// This is the building block for condition-driven run loops ("run
    /// until the client is ready") that would otherwise poll in
    /// fixed-size `run_for` quanta, re-checking the condition thousands
    /// of times at fleet scale.
    ///
    /// Every hop is an event here: a caller may change the fabric between
    /// two steps, and a frame reaches a switch or leaves a gateway under
    /// the rules in force at that hop's instant.
    pub fn step_until(&mut self, end: SimTime) -> bool {
        let Some((t, ev)) = self.q.pop_if(|t| t <= end) else {
            return false;
        };
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        self.handle(ev);
        true
    }

    /// Runs until the queue drains or `end` is reached; time advances to
    /// `end` on return.
    ///
    /// Inside the call, a switch hop or gateway egress due by `end` may be
    /// resolved when its frame is handed over, not queued (DESIGN §3.1):
    /// nothing outside the engine can change the fabric before `end`, so
    /// the outcome is the queued one, except that the resolved hop's
    /// onward event is pushed earlier and may pop in another order among
    /// events due at the same instant. Which hops are resolved depends on
    /// `end`, so results repeat for a given seed and a given sequence of
    /// `run_until` / `step_until` calls; cutting the same run into other
    /// quanta may move that tie order, and with it sim output.
    pub fn run_until(&mut self, end: SimTime) {
        self.horizon = Some(end);
        while self.step_until(end) {}
        self.horizon = None;
        self.now = end;
    }

    /// Runs for a further `d` of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let end = self.now + d;
        self.run_until(end);
    }

    /// Total events delivered (diagnostics). A hop resolved early is not
    /// an event, so the count depends on how the run was cut into
    /// `run_until` and `step_until` calls, not only on what it did.
    pub fn events_delivered(&self) -> u64 {
        self.q.delivered()
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Start { host, app } => self.dispatch(host, app, Callback::Start),
            Ev::Arrive { to, frame } => match to {
                Endpoint::Switch { sw, port } => self.switch_hop(sw, port, frame),
                Endpoint::Host { host, iface } => self.host_input(host, iface, frame),
            },
            Ev::Egress { host, iface, frame } => self.emit(host, iface, frame),
            Ev::Timer { host, app, token } => self.dispatch(host, app, Callback::Timer(token)),
            Ev::Bus {
                host,
                app,
                from,
                msg,
            } => self.dispatch(host, app, Callback::Bus(from, msg)),
            Ev::Resume { host, sock } => {
                self.with_tcp(host, |tcp, outs, events| tcp.resume(sock, outs, events))
            }
        }
    }

    /// Runs `f` on `host`'s TCP stack with the engine's scratch buffers,
    /// then transmits the segments and dispatches the upcalls it appended
    /// (segments first, as the stack produced them).
    fn with_tcp(
        &mut self,
        host: HostId,
        f: impl FnOnce(&mut TcpStack, &mut Vec<OutSeg>, &mut Vec<(AppId, TcpEvent)>),
    ) {
        let mut outs = std::mem::take(&mut self.seg_buf);
        let mut events = std::mem::take(&mut self.tcp_events);
        f(&mut self.hosts[host.0 as usize].tcp, &mut outs, &mut events);
        self.flush_segments(host, outs);
        for (app, ev) in events.drain(..) {
            self.dispatch(host, app, Callback::Tcp(ev));
        }
        self.tcp_events = events;
    }

    /// Transmits the segments a TCP call appended to the taken `seg_buf`
    /// and puts the (now empty) buffer back.
    fn flush_segments(&mut self, host: HostId, mut outs: Vec<OutSeg>) {
        for seg in outs.drain(..) {
            self.host_output(host, seg);
        }
        self.seg_buf = outs;
    }

    /// A frame arrived at a host NIC.
    fn host_input(&mut self, host: HostId, iface: IfaceId, mut frame: Box<Frame>) {
        let local_mac = self.hosts[host.0 as usize].ifaces[iface.0 as usize].mac;
        if frame.dst_mac != local_mac && !frame.dst_mac.is_broadcast() {
            // Not for us (switch flooded); NICs are not promiscuous.
            return;
        }
        // PREROUTING: NAT translation (conntrack first, then rules on SYN).
        let is_syn = frame.tcp.flags.syn && !frame.tcp.flags.ack;
        let tuple = frame.tuple();
        let xlat = self.hosts[host.0 as usize].nat.translate(tuple, is_syn);
        if xlat != tuple {
            frame.set_tuple(xlat);
        }
        if self.hosts[host.0 as usize].has_ip(frame.dst_ip) {
            self.local_input(host, *frame);
        } else if self.hosts[host.0 as usize].ip_forward {
            self.forward(host, frame);
        }
        // else: not ours and not forwarding — drop silently.
    }

    /// IP forwarding with per-packet cost and the optional tap.
    fn forward(&mut self, host: HostId, mut frame: Box<Frame>) {
        // Tap (passive relay) first: it may modify or drop the frame.
        let mut tap_work = SimDuration::ZERO;
        let mut tap_pp = SimDuration::ZERO;
        if let Some(tap) = self.hosts[host.0 as usize].tap {
            tap_work = tap.per_packet;
            tap_pp = tap.per_packet;
            match self.dispatch_tap(host, tap.app, &mut frame) {
                TapVerdict::Forward => {}
                TapVerdict::ForwardAfter(d) => tap_work += d,
                TapVerdict::Drop => return,
            }
        }
        let h = &mut self.hosts[host.0 as usize];
        let Some((out_iface, next_hop)) = h.route_for(frame.dst_ip) else {
            h.dropped_no_route += 1;
            return;
        };
        // POSTROUTING happened in NAT translate already (rules evaluate
        // both chains); rewrite L2 addressing for the next hop.
        let Some(next_mac) = self.fabric.arp(next_hop) else {
            self.hosts[host.0 as usize].dropped_no_route += 1;
            return;
        };
        let h = &mut self.hosts[host.0 as usize];
        let src_mac = h.ifaces[out_iface.0 as usize].mac;
        frame.src_mac = src_mac;
        frame.dst_mac = next_mac;
        let done = h.cpu.run(self.now, h.forward_cost, "fwd");
        // Tap processing serializes through the single interception
        // process (one kernel→user copy per packet — the paper's
        // passive-relay overhead).
        let fwd_cost = h.forward_cost;
        let done = if tap_work > SimDuration::ZERO {
            let _ = h.cpu.run(self.now, tap_work, "tap");
            h.tap_queue.serve(done, tap_work)
        } else {
            done
        };
        if self.trace.is_armed() {
            // Attribution is flow-scoped: per-packet kernel work cannot be
            // pinned to one command, so the analyzer amortizes it over the
            // flow's requests. Ephemeral ports start at 40000, so the
            // higher port of the pair is the initiator side.
            let flow = flow_token(frame.tcp.src_port.max(frame.tcp.dst_port));
            self.trace.emit(
                self.now,
                TraceEvent::Stage {
                    req: flow,
                    hop: Hop::Forward,
                    id: host.0,
                    dur: fwd_cost,
                },
            );
            if tap_pp > SimDuration::ZERO {
                self.trace.emit(
                    self.now,
                    TraceEvent::Stage {
                        req: flow,
                        hop: Hop::Relay,
                        id: host.0,
                        dur: tap_pp,
                    },
                );
            }
        }
        if let Err(frame) = self.egress_early(host, out_iface, frame, done) {
            self.queue_egress(host, out_iface, frame, done);
        }
    }

    /// Emits a frame out of a host interface onto its link.
    fn emit(&mut self, host: HostId, iface: IfaceId, frame: Box<Frame>) {
        if let Some(from) = self.iface_end(host, iface) {
            self.send(from, from, frame);
        }
    }

    /// The link end a host interface is, if it is wired.
    fn iface_end(&self, host: HostId, iface: IfaceId) -> Option<End> {
        let link = self.hosts[host.0 as usize].ifaces[iface.0 as usize].link?;
        self.fabric.end_of(link, Endpoint::Host { host, iface })
    }

    /// An ordinary switch hop, at its instant: the switch forwards the
    /// frame in place and each egress port sends it on (a flood clones it
    /// for all ports but the last).
    fn switch_hop(&mut self, sw: SwitchId, port: PortNo, mut frame: Box<Frame>) {
        let mut ports = std::mem::take(&mut self.fabric.egress_ports);
        let switch = self.fabric.switch_mut(sw);
        let effects = switch.plan(&mut frame, port, &mut ports);
        if switch.apply(effects, port) {
            self.undo_hops_at(sw);
        }
        if let (Some((&last, rest)), Some(by)) =
            (ports.split_last(), self.fabric.port_end(sw, port))
        {
            for &out in rest {
                self.switch_send(sw, out, by, frame.clone());
            }
            self.switch_send(sw, last, by, frame);
        }
        self.fabric.egress_ports = ports;
    }

    fn switch_send(&mut self, sw: SwitchId, port: PortNo, by: End, frame: Box<Frame>) {
        match self.fabric.port_end(sw, port) {
            Some(from) => self.send(from, by, frame),
            None => self.fabric.dropped += 1,
        }
    }

    /// An ordinary request, at its instant: link end `from` sends `frame`
    /// for `by`, the switch ingress port the frame came through or the
    /// sending host interface itself. Early services it overtakes are
    /// undone first.
    fn send(&mut self, from: End, by: End, frame: Box<Frame>) {
        if self.fabric.claim(from, by, self.now) {
            while let Some(newest) = self.fabric.newest_after(from, self.now) {
                self.undo(newest);
            }
        }
        if let Some(d) = self.fabric.transmit(from, frame, self.now) {
            self.deliver(d, from.far(), false);
        }
    }

    /// Hands a frame just put on a link to its far end, `end`. Switch hops
    /// that qualify are resolved on the spot, one after another; the first
    /// that does not, or the host at the end, gets a queued `Ev::Arrive`.
    /// `chained`: an early service put the frame on the link.
    fn deliver(&mut self, d: Delivery, mut end: End, mut chained: bool) {
        let Delivery {
            mut at,
            mut to,
            mut frame,
        } = d;
        while let Endpoint::Switch { sw, port } = to {
            match self.hop_early(sw, port, end, frame, at, chained) {
                Ok((onward, from)) => {
                    (at, to, frame) = (onward.at, onward.to, onward.frame);
                    (end, chained) = (from.far(), true);
                }
                Err(back) => {
                    frame = back;
                    self.fabric.mark_queued(end, at);
                    break;
                }
            }
        }
        let token = self.q.push_cancelable(at, Ev::Arrive { to, frame });
        if chained {
            self.fabric.end_chain(token);
        }
    }

    /// Resolves the hop of a frame reaching switch `sw` on `port` (link end
    /// `ingress`) at `at` now, when (a) `at` is due within the running
    /// `run_until`, (b) no arrival is queued on the port, (c) forwarding
    /// only rewrites the frame and counts a rule hit (the sender is learned
    /// on the port, one egress port, nothing dropped), and (d) the port has
    /// been the egress queue's only requester. `chained`: the early service
    /// journaled last put the frame on the link. Returns the onward
    /// delivery and the egress port's link end, or the frame as it came.
    fn hop_early(
        &mut self,
        sw: SwitchId,
        port: PortNo,
        ingress: End,
        mut frame: Box<Frame>,
        at: SimTime,
        chained: bool,
    ) -> Result<(Delivery, End), Box<Frame>> {
        if !self.due_in_run(at) || self.fabric.has_queued(ingress, self.now) {
            return Err(frame);
        }
        let (src_mac, dst_mac, hops) = (frame.src_mac, frame.dst_mac, frame.hops);
        let mut ports = std::mem::take(&mut self.early_ports);
        let effects = self.fabric.switch(sw).plan(&mut frame, port, &mut ports);
        let from = match *ports {
            [out] if effects.only_counts_a_hit() => self.fabric.port_end(sw, out),
            _ => None,
        };
        self.early_ports = ports;
        let Some(from) = from.filter(|&from| self.fabric.may_serve_early(from, ingress, at)) else {
            (frame.src_mac, frame.dst_mac, frame.hops) = (src_mac, dst_mac, hops);
            return Err(frame);
        };
        self.fabric.switch_mut(sw).apply(effects, port);
        let early = Early {
            at,
            from,
            ingress,
            before: self.fabric.queue_state(from),
            src_mac,
            dst_mac,
            hops,
            rule: effects.rule,
            queued: None,
            undone: false,
        };
        Ok((self.serve_early(frame, early, chained), from))
    }

    /// Sends a forwarded frame out of `host` at `at` now, when the host
    /// runs no apps (so only forwarding uses the link), the link is full
    /// duplex (so nothing else queues there) and (a), (b) and (d) of
    /// [`hop_early`](Self::hop_early) hold for the interface.
    fn egress_early(
        &mut self,
        host: HostId,
        iface: IfaceId,
        frame: Box<Frame>,
        at: SimTime,
    ) -> Result<(), Box<Frame>> {
        let no_apps = self.hosts[host.0 as usize].apps.is_empty();
        let from = self.iface_end(host, iface).filter(|&from| {
            no_apps
                && self.due_in_run(at)
                && !self.fabric.is_half_duplex(from.link())
                && !self.fabric.has_queued(from, self.now)
                && self.fabric.may_serve_early(from, from, at)
        });
        let Some(from) = from else {
            return Err(frame);
        };
        let early = Early {
            at,
            from,
            ingress: from,
            before: self.fabric.queue_state(from),
            src_mac: frame.src_mac,
            dst_mac: frame.dst_mac,
            hops: frame.hops,
            rule: None,
            queued: None,
            undone: false,
        };
        let onward = self.serve_early(frame, early, false);
        self.deliver(onward, from.far(), true);
        Ok(())
    }

    /// Rule (a): `at` is due within the `run_until` in progress.
    fn due_in_run(&self, at: SimTime) -> bool {
        self.horizon.is_some_and(|end| at <= end)
    }

    /// Serves `frame` from `early.from` at its instant and journals the
    /// service (`chained` as for [`Fabric::record`]).
    fn serve_early(&mut self, frame: Box<Frame>, early: Early, chained: bool) -> Delivery {
        let onward = self
            .fabric
            .transmit(early.from, frame, early.at)
            .expect("the link is up");
        self.fabric.record(early, self.now, chained);
        onward
    }

    /// Undoes the early service `r` and, newest first, every later one on
    /// its queue: each frame is queued again as an ordinary event at the
    /// instant it reached the queue. A service whose frame went on to
    /// another early hop undoes that hop first.
    fn undo(&mut self, r: EarlyRef) {
        let Some(from) = self.fabric.early_mut(r).map(|e| e.from) else {
            return;
        };
        while let Some(newest) = self.fabric.newest_after(from, self.now).filter(|&n| n >= r) {
            if let Some(child) = self.fabric.child_of(newest) {
                // The next hop queues the frame again and hands this entry
                // the event.
                self.undo(child);
            }
            let Some(token) = self.fabric.early_mut(newest).and_then(|e| e.queued) else {
                unreachable!("an early hop's frame has moved on");
            };
            let Some(Ev::Arrive { mut frame, .. }) = self.q.cancel(token) else {
                unreachable!("an early hop's frame is queued as an arrival");
            };
            let e = self
                .fabric
                .unserve(newest, frame.wire_len())
                .expect("the entry is journaled");
            let (at, ingress, rule) = (e.at, e.ingress, e.rule);
            (frame.src_mac, frame.dst_mac, frame.hops) = (e.src_mac, e.dst_mac, e.hops);
            let ev = match self.fabric.endpoint(ingress) {
                to @ Endpoint::Switch { sw, .. } => {
                    if let Some(rule) = rule {
                        self.fabric
                            .switch_mut(sw)
                            .flows_mut()
                            .count_hit(rule, false);
                    }
                    Ev::Arrive { to, frame }
                }
                Endpoint::Host { host, iface } => Ev::Egress { host, iface, frame },
            };
            self.fabric.mark_queued(ingress, at);
            let token = self.q.push_cancelable(at, ev);
            if let Some(parent) = self.fabric.parent_of(newest) {
                parent.queued = Some(token);
            }
        }
    }

    /// A MAC moved to another port of `sw`. The early hops resolved there
    /// read the table before the move, so those still ahead are undone.
    fn undo_hops_at(&mut self, sw: SwitchId) {
        while let Some(r) = self.fabric.oldest_hop_at(sw, self.now) {
            self.undo(r);
        }
    }

    /// Queues a forwarding host's egress, noting it at the interface for
    /// rule (b).
    fn queue_egress(&mut self, host: HostId, iface: IfaceId, frame: Box<Frame>, at: SimTime) {
        if let Some(from) = self.iface_end(host, iface) {
            self.fabric.mark_queued(from, at);
        }
        self.q.push(at, Ev::Egress { host, iface, frame });
    }

    /// Delivers a frame to the local TCP stack and dispatches app events.
    /// This is where a frame's box is opened: the segment moves into the
    /// stack and the payload chunks on into the app.
    fn local_input(&mut self, host: HostId, frame: Frame) {
        let tuple = frame.tuple();
        self.with_tcp(host, |tcp, outs, events| {
            tcp.input_into(tuple, frame.tcp, outs, events)
        });
    }

    /// Sends a locally generated segment: OUTPUT NAT, routing (with flow
    /// steering), L2 resolution, transmission.
    fn host_output(&mut self, host: HostId, seg: OutSeg) {
        let is_syn = seg.seg.flags.syn && !seg.seg.flags.ack;
        let h = &mut self.hosts[host.0 as usize];
        // OUTPUT path: conntrack only (reply rewriting for redirected
        // flows); PREROUTING rules never apply to local output.
        let tuple = h.nat.translate_output(seg.tuple);
        let Some((out_iface, next_hop)) = h.route_for_flow(&tuple, is_syn) else {
            h.dropped_no_route += 1;
            return;
        };
        let src_mac = h.ifaces[out_iface.0 as usize].mac;
        let Some(dst_mac) = self.fabric.arp(next_hop) else {
            self.hosts[host.0 as usize].dropped_no_route += 1;
            return;
        };
        // The frame's one allocation: from here to the receiver's
        // `local_input` every hop moves this box.
        let mut frame = Box::new(Frame {
            src_mac,
            dst_mac,
            src_ip: tuple.src.ip,
            dst_ip: tuple.dst.ip,
            tcp: seg.seg,
            hops: 0,
        });
        frame.set_tuple(tuple);
        self.emit(host, out_iface, frame);
    }

    /// Runs `f` on `app` with its `Cx`. Only [`handle`](Self::handle)
    /// gets here (a tap through `forward`), and a callback's `Cx` calls
    /// queue events instead of handling them, so the app is always in its
    /// slot.
    fn with_app<R>(
        &mut self,
        host: HostId,
        app: AppId,
        f: impl FnOnce(&mut dyn App, &mut Cx<'_>) -> R,
    ) -> R {
        let mut a = self.hosts[host.0 as usize].apps[app.0 as usize]
            .take()
            .expect("app callbacks never nest");
        let mut cx = Cx {
            net: self,
            host,
            app,
        };
        let r = f(&mut *a, &mut cx);
        self.hosts[host.0 as usize].apps[app.0 as usize] = Some(a);
        r
    }

    fn dispatch_tap(&mut self, host: HostId, app: AppId, frame: &mut Frame) -> TapVerdict {
        self.with_app(host, app, |a, cx| a.on_tap(cx, frame))
    }

    /// Runs one callback of `app`.
    fn dispatch(&mut self, host: HostId, app: AppId, cb: Callback) {
        self.with_app(host, app, |a, cx| match cb {
            Callback::Start => a.on_start(cx),
            Callback::Timer(token) => a.on_timer(cx, token),
            Callback::Bus(from, msg) => a.on_bus(cx, from, msg),
            Callback::Tcp(ev) => match ev {
                TcpEvent::Connected(s) => a.on_connected(cx, s),
                TcpEvent::ConnectFailed(s) => a.on_connect_failed(cx, s),
                TcpEvent::Accepted { port, sock } => a.on_accepted(cx, port, sock),
                TcpEvent::Data { sock, data } => a.on_data(cx, sock, data),
                TcpEvent::Writable(s) => a.on_writable(cx, s),
                TcpEvent::Closed { sock, kind } => a.on_closed(cx, sock, kind),
            },
        });
    }
}

impl dyn App {
    /// Downcasts to a concrete app type.
    pub fn downcast_mut<T: App>(&mut self) -> Option<&mut T> {
        let any: &mut dyn Any = self;
        any.downcast_mut()
    }

    /// Downcasts to a concrete app type (shared).
    pub fn downcast_ref<T: App>(&self) -> Option<&T> {
        let any: &dyn Any = self;
        any.downcast_ref()
    }
}

enum Callback {
    Start,
    Timer(u64),
    Bus(HostId, BusMsg),
    Tcp(TcpEvent),
}

/// The capability handle given to [`App`] callbacks.
pub struct Cx<'a> {
    net: &'a mut Network,
    host: HostId,
    app: AppId,
}

impl<'a> Cx<'a> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.net.now
    }

    /// The simulation RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.net.rng
    }

    /// IP address of the host's interface `idx`.
    pub fn local_ip(&self, idx: u32) -> std::net::Ipv4Addr {
        self.net.hosts[self.host.0 as usize].ifaces[idx as usize].ip
    }

    /// Starts listening on `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port is already bound on this host.
    pub fn listen(&mut self, port: u16) {
        self.net.hosts[self.host.0 as usize]
            .tcp
            .listen(self.app, port);
    }

    /// Opens a connection to `remote`, choosing the local source IP from
    /// the route towards it.
    pub fn connect(&mut self, remote: SockAddr) -> SockId {
        self.connect_from(remote, None)
    }

    /// Opens a connection with an explicit source port (`None` =
    /// ephemeral); see [`crate::tcp::TcpStack::connect_from`].
    pub fn connect_from(&mut self, remote: SockAddr, src_port: Option<u16>) -> SockId {
        let host = &mut self.net.hosts[self.host.0 as usize];
        let local_ip = host
            .route_for(remote.ip)
            .map(|(iface, _)| host.ifaces[iface.0 as usize].ip)
            .unwrap_or_else(|| host.ifaces.first().map(|i| i.ip).unwrap_or(remote.ip));
        let (sock, syn) = host.tcp.connect_from(self.app, local_ip, remote, src_port);
        self.net.host_output(self.host, syn);
        sock
    }

    /// Queues bytes on a socket; returns how many were accepted (the rest
    /// should be retried from [`App::on_writable`]).
    pub fn send(&mut self, sock: SockId, data: &[u8]) -> usize {
        self.send_with(|tcp, outs| tcp.send(sock, data, outs))
    }

    /// Runs a TCP send call with the engine's segment scratch buffer and
    /// transmits what it appended.
    fn send_with(&mut self, f: impl FnOnce(&mut TcpStack, &mut Vec<OutSeg>) -> usize) -> usize {
        let mut outs = std::mem::take(&mut self.net.seg_buf);
        let n = f(&mut self.net.hosts[self.host.0 as usize].tcp, &mut outs);
        self.net.flush_segments(self.host, outs);
        n
    }

    /// Queues a refcounted chunk on a socket without copying its bytes;
    /// returns how many were accepted (see
    /// [`crate::tcp::TcpStack::send_bytes`]).
    pub fn send_bytes(&mut self, sock: SockId, data: Bytes) -> usize {
        self.send_with(|tcp, outs| tcp.send_bytes(sock, data, outs))
    }

    /// Queues chunks on a socket in one batch (single segmentation pass —
    /// see [`crate::tcp::TcpStack::send_chunks`]); drains accepted chunks
    /// from the front of `chunks` and returns how many bytes were
    /// accepted.
    pub fn send_chunks(&mut self, sock: SockId, chunks: &mut VecDeque<Bytes>) -> usize {
        self.send_with(|tcp, outs| tcp.send_chunks_into(sock, chunks, outs))
    }

    /// Free space in the socket's send buffer.
    pub fn send_capacity(&self, sock: SockId) -> usize {
        self.net.hosts[self.host.0 as usize].tcp.send_capacity(sock)
    }

    /// Bytes queued locally but not yet acknowledged by the peer.
    pub fn unacked(&self, sock: SockId) -> usize {
        self.net.hosts[self.host.0 as usize].tcp.unacked(sock)
    }

    /// The `(local, remote)` tuple of a socket.
    pub fn tuple_of(&self, sock: SockId) -> Option<FourTuple> {
        self.net.hosts[self.host.0 as usize].tcp.tuple_of(sock)
    }

    /// Stops delivering data on `sock`; the advertised window shrinks as
    /// bytes accumulate (active-relay backpressure).
    pub fn pause(&mut self, sock: SockId) {
        self.net.hosts[self.host.0 as usize].tcp.pause(sock);
    }

    /// Resumes delivery on `sock` (buffered data arrives via `on_data`
    /// immediately after this callback returns).
    pub fn resume(&mut self, sock: SockId) {
        self.net.q.push(
            self.net.now,
            Ev::Resume {
                host: self.host,
                sock,
            },
        );
    }

    /// Gracefully closes a socket.
    pub fn close(&mut self, sock: SockId) {
        let segs = self.net.hosts[self.host.0 as usize].tcp.close(sock);
        for seg in segs {
            self.net.host_output(self.host, seg);
        }
    }

    /// Abortively closes a socket (RST).
    pub fn abort(&mut self, sock: SockId) {
        let segs = self.net.hosts[self.host.0 as usize].tcp.abort(sock);
        for seg in segs {
            self.net.host_output(self.host, seg);
        }
    }

    /// Fires `on_timer(token)` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.net.q.push(
            self.net.now + delay,
            Ev::Timer {
                host: self.host,
                app: self.app,
                token,
            },
        );
    }

    /// Runs `cost` of CPU work attributed to `label`, firing
    /// `on_timer(token)` at completion (queueing behind other work on the
    /// host's cores).
    pub fn compute(&mut self, cost: SimDuration, label: &str, token: u64) {
        let done = self.net.hosts[self.host.0 as usize]
            .cpu
            .run(self.net.now, cost, label);
        self.net.q.push(
            done,
            Ev::Timer {
                host: self.host,
                app: self.app,
                token,
            },
        );
    }

    /// Accounts CPU time to `label` without scheduling a callback; returns
    /// the completion instant.
    pub fn charge(&mut self, cost: SimDuration, label: &str) -> SimTime {
        self.net.hosts[self.host.0 as usize]
            .cpu
            .run(self.net.now, cost, label)
    }

    /// Sends a hypervisor-bus message to `(to_host, to_app)` after `delay`.
    pub fn bus_send(&mut self, to_host: HostId, to_app: AppId, delay: SimDuration, msg: BusMsg) {
        self.net.bus_send(self.host, to_host, to_app, delay, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::MacAddr;
    use crate::flow::FlowMatch;
    use crate::frame::{TcpFlags, TcpSegment};
    use std::net::Ipv4Addr;

    /// Sink server: counts bytes, echoes nothing.
    #[derive(Default)]
    struct Sink {
        bytes: usize,
        accepted: u32,
    }
    impl App for Sink {
        fn on_start(&mut self, cx: &mut Cx<'_>) {
            cx.listen(3260);
        }
        fn on_accepted(&mut self, _cx: &mut Cx<'_>, _port: u16, _sock: SockId) {
            self.accepted += 1;
        }
        fn on_data(&mut self, _cx: &mut Cx<'_>, _sock: SockId, data: Bytes) {
            self.bytes += data.len();
        }
    }

    /// Client that sends `total` bytes as fast as the socket allows.
    struct Blaster {
        remote: SockAddr,
        total: usize,
        sent: usize,
        sock: Option<SockId>,
        connected_at: Option<SimTime>,
    }
    impl Blaster {
        fn new(remote: SockAddr, total: usize) -> Self {
            Blaster {
                remote,
                total,
                sent: 0,
                sock: None,
                connected_at: None,
            }
        }
        fn pump(&mut self, cx: &mut Cx<'_>, sock: SockId) {
            while self.sent < self.total {
                let chunk = (self.total - self.sent).min(16 * 1024);
                let n = cx.send(sock, &vec![0xA5u8; chunk]);
                self.sent += n;
                if n < chunk {
                    break;
                }
            }
        }
    }
    impl App for Blaster {
        fn on_start(&mut self, cx: &mut Cx<'_>) {
            self.sock = Some(cx.connect(self.remote));
        }
        fn on_connected(&mut self, cx: &mut Cx<'_>, sock: SockId) {
            self.connected_at = Some(cx.now());
            self.pump(cx, sock);
        }
        fn on_writable(&mut self, cx: &mut Cx<'_>, sock: SockId) {
            self.pump(cx, sock);
        }
    }

    fn two_host_net() -> (Network, HostId, HostId) {
        let mut net = Network::new(1);
        let a = net.add_host("a", 4);
        let b = net.add_host("b", 4);
        let ia = net.add_iface(a, Ipv4Addr::new(10, 0, 0, 1));
        let ib = net.add_iface(b, Ipv4Addr::new(10, 0, 0, 2));
        let sw = net.add_switch("sw", 4);
        net.link_host_switch(a, ia, sw, LinkSpec::gigabit());
        net.link_host_switch(b, ib, sw, LinkSpec::gigabit());
        (net, a, b)
    }

    #[test]
    fn bulk_transfer_completes() {
        let (mut net, a, b) = two_host_net();
        let total = 4 << 20; // 4 MiB
        let sink_id = net.add_app(b, Box::new(Sink::default()));
        net.add_app(
            a,
            Box::new(Blaster::new(
                SockAddr::new(Ipv4Addr::new(10, 0, 0, 2), 3260),
                total,
            )),
        );
        net.run_until(SimTime::from_nanos(2_000_000_000));
        let sink = net
            .app_mut(b, sink_id)
            .unwrap()
            .downcast_mut::<Sink>()
            .unwrap();
        assert_eq!(sink.bytes, total);
        assert_eq!(sink.accepted, 1);
        assert!(net.events_delivered() > 1000);
    }

    /// Transfer time should scale roughly with link bandwidth: 4 MiB over
    /// 1 Gbps is ~34 ms on the wire, so the whole run (with window stalls)
    /// must land between 30 ms and 200 ms.
    #[test]
    fn transfer_time_is_bandwidth_plausible() {
        let (mut net, a, b) = two_host_net();
        let total = 4 << 20;
        let sink_id = net.add_app(b, Box::new(Sink::default()));
        net.add_app(
            a,
            Box::new(Blaster::new(
                SockAddr::new(Ipv4Addr::new(10, 0, 0, 2), 3260),
                total,
            )),
        );
        // Run in small steps until the sink has everything, then read time.
        let mut done_at = None;
        for _ in 0..4000 {
            net.run_for(SimDuration::from_micros(100));
            let sink = net
                .app_mut(b, sink_id)
                .unwrap()
                .downcast_mut::<Sink>()
                .unwrap();
            if sink.bytes == total {
                done_at = Some(net.now());
                break;
            }
        }
        let t = done_at.expect("transfer finished").as_millis();
        assert!((30..200).contains(&t), "took {t} ms");
    }

    fn mac(net: &Network, host: HostId) -> MacAddr {
        net.host(host).ifaces[0].mac
    }

    /// A frame of `payload` bytes (`payload + 54` on the wire) to an
    /// address no host owns, so delivering it changes nothing.
    fn frame(src: MacAddr, dst: MacAddr, payload: usize) -> Box<Frame> {
        Box::new(Frame {
            src_mac: src,
            dst_mac: dst,
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 9, 9),
            tcp: TcpSegment {
                src_port: 40000,
                dst_port: 3260,
                seq: 0,
                ack: 0,
                flags: TcpFlags::ACK,
                wnd: 0,
                payload: Bytes::from(vec![0u8; payload]).into(),
            },
            hops: 0,
        })
    }

    /// `from` emits a 1446-byte frame to `to`'s MAC as an app would
    /// inside `run_until(end)`.
    fn emit_in_run(net: &mut Network, end: u64, from: HostId, to: HostId) {
        let f = frame(mac(net, from), mac(net, to), 1446);
        emit_frame_in_run(net, end, from, f);
    }

    fn emit_frame_in_run(net: &mut Network, end: u64, from: HostId, frame: Box<Frame>) {
        net.horizon = Some(SimTime::from_nanos(end));
        net.emit(from, IfaceId(0), frame);
        net.horizon = None;
    }

    /// Delivers every event due by `end` as `step_until` does (or as
    /// `run_until` does, with `resolve`), except that frames reaching a
    /// host are taken off instead: `(instant, host)` per frame.
    fn step_recording(net: &mut Network, end: u64, resolve: bool) -> Vec<(u64, HostId)> {
        let end = SimTime::from_nanos(end);
        net.horizon = resolve.then_some(end);
        let mut seen = Vec::new();
        while let Some((t, ev)) = net.q.pop_if(|t| t <= end) {
            net.now = t;
            match ev {
                Ev::Arrive {
                    to: Endpoint::Host { host, .. },
                    ..
                } => seen.push((t.as_nanos(), host)),
                ev => net.handle(ev),
            }
        }
        net.horizon = None;
        seen
    }

    /// `a — sw1 — sw2 — b` on gigabit links, each switch knowing both
    /// hosts' ports; `c` hangs off `sw2` too. Returns the hosts and
    /// switches.
    fn line() -> (Network, [HostId; 3], [SwitchId; 2]) {
        let mut net = Network::new(3);
        let hosts = ["a", "b", "c"].map(|name| net.add_host(name, 1));
        for (i, &h) in hosts.iter().enumerate() {
            net.add_iface(h, Ipv4Addr::new(10, 0, 0, 1 + i as u8));
        }
        let sw = ["sw1", "sw2"].map(|name| net.add_switch(name, 4));
        net.link_host_switch(hosts[0], IfaceId(0), sw[0], LinkSpec::gigabit());
        let (_, p1, p2) = net.link_switches(sw[0], sw[1], LinkSpec::gigabit());
        for &h in &hosts[1..] {
            net.link_host_switch(h, IfaceId(0), sw[1], LinkSpec::gigabit());
            let m = mac(&net, h);
            net.fabric.switch_mut(sw[0]).learn(m, p1);
        }
        let m = mac(&net, hosts[0]);
        net.fabric.switch_mut(sw[1]).learn(m, p2);
        (net, hosts, sw)
    }

    /// 1446 payload bytes are 1500 on the wire: 12 µs at 1 Gbps, plus the
    /// gigabit link's 300 ns per packet and 500 ns of latency per hop, so
    /// the frame reaches sw1 at 12.8 µs, sw2 at 25.6 µs and b at 38.4 µs.
    #[test]
    fn resolved_path_arrives_when_the_queued_one_does() {
        let (mut net, [a, b, _], _) = line();
        let f = frame(mac(&net, a), mac(&net, b), 1446);
        net.emit(a, IfaceId(0), f);
        let queued = net.q.len();
        assert_eq!(step_recording(&mut net, 100_000, false), [(38_400, b)]);
        assert_eq!((queued, net.events_delivered()), (1, 3), "sw1, sw2, b");

        let (mut net, [a, b, _], _) = line();
        emit_in_run(&mut net, 100_000, a, b);
        assert_eq!(step_recording(&mut net, 100_000, true), [(38_400, b)]);
        assert_eq!(net.events_delivered(), 1, "both switch hops resolved");
    }

    /// `a`, `b` and `c` on one switch; `a`'s link is slow (100 µs, no
    /// per-packet cost), the others gigabit. Also returns the link to `c`.
    fn star() -> (Network, [HostId; 3], LinkId) {
        let mut net = Network::new(4);
        let hosts = ["a", "b", "c"].map(|name| net.add_host(name, 1));
        for (i, &h) in hosts.iter().enumerate() {
            net.add_iface(h, Ipv4Addr::new(10, 0, 0, 1 + i as u8));
        }
        let sw = net.add_switch("sw", 4);
        let slow = LinkSpec {
            latency: SimDuration::from_micros(100),
            per_packet: SimDuration::ZERO,
            ..LinkSpec::gigabit()
        };
        net.link_host_switch(hosts[0], IfaceId(0), sw, slow);
        net.link_host_switch(hosts[1], IfaceId(0), sw, LinkSpec::gigabit());
        let to_c = net.link_host_switch(hosts[2], IfaceId(0), sw, LinkSpec::gigabit());
        (net, hosts, to_c)
    }

    /// `a`'s slow link (100 µs, no per-packet cost) brings its frames to
    /// the switch at 112 and 124 µs; both hops are resolved when `a`
    /// emits, so the queue to `c` is served early for them. `b`'s frame,
    /// emitted after, reaches the switch at 12.8 µs: it is the queue's
    /// second requester, so its hop is queued, and when it is served it
    /// finds the two early services still ahead of their instants. They
    /// are undone, `b` is served first (c at 25.6 µs), and `a`'s frames
    /// follow at their own instants (c at 124.8 and 137.1 µs).
    #[test]
    fn a_second_requester_undoes_the_early_services_it_overtakes() {
        let (mut net, [a, b, c], to_c) = star();
        let end = 1_000_000;
        for _ in 0..2 {
            emit_in_run(&mut net, end, a, c);
        }
        let next = |net: &mut Network| net.q.peek_time().map(SimTime::as_nanos);
        assert_eq!(next(&mut net), Some(124_800), "both hops resolved");
        emit_in_run(&mut net, end, b, c);
        assert_eq!(
            step_recording(&mut net, end, true),
            [(25_600, c), (124_800, c), (137_100, c)]
        );
        assert_eq!(net.fabric.link(to_c).frames(), 3);
        assert_eq!(
            net.events_delivered(),
            6,
            "three switch hops, three arrivals"
        );
        // The queue to `c` is shared now: `a`'s next hop is an event again.
        let start = net.now().as_nanos();
        emit_in_run(&mut net, start + end, a, c);
        assert_eq!(next(&mut net), Some(start + 112_000), "the hop is queued");
        let seen = step_recording(&mut net, start + end, true);
        assert_eq!(seen, [(start + 124_800, c)]);
        assert_eq!(net.events_delivered(), 8);
    }

    /// `a`'s frame to `b` is resolved when `a` emits it, to reach the
    /// switch at 112 µs. Meanwhile a 100-byte frame from `c` with `b`'s
    /// MAC as its source (154 bytes, 1.232 µs on the wire) reaches the
    /// switch at 2.032 µs and moves `b` to `c`'s port. The move undoes the
    /// early hop, so at 112 µs the switch sends `a`'s frame where `b` now
    /// is: `c`, at 124.8 µs. `c`'s frame reaches `a` at 103.264 µs.
    #[test]
    fn a_mac_move_undoes_the_early_hops_that_read_the_old_port() {
        let (mut net, [a, b, c], _) = star();
        let end = 1_000_000;
        emit_in_run(&mut net, end, a, b);
        let moved = frame(mac(&net, b), mac(&net, a), 100);
        emit_frame_in_run(&mut net, end, c, moved);
        assert_eq!(
            step_recording(&mut net, end, true),
            [(103_264, a), (124_800, c)]
        );
    }

    /// Two frames from `a` are emitted before sw1's steering rule is
    /// removed, between two `step_until` calls, and both reach sw1's far
    /// side after the removal. The first was emitted inside `run_until`
    /// and crossed sw1 (12.8 µs) by the run's end, so it stays steered to
    /// `c`. The second was emitted outside a run: its hop at sw1 (25.6 µs)
    /// is an event, so the removal reaches it and it goes to `b`, behind
    /// the first on the trunk (51.2 µs).
    #[test]
    fn a_removed_steering_rule_still_steered_the_frames_that_crossed_it() {
        let (mut net, [a, b, c], [sw1, _]) = line();
        let steer = FlowMatch::any().dst_mac(mac(&net, b));
        let rule = crate::switch::steering_rule(10, steer, mac(&net, c));
        net.fabric.switch_mut(sw1).flows_mut().install(rule);
        emit_in_run(&mut net, 12_800, a, b);
        net.run_until(SimTime::from_nanos(12_800));
        net.emit(a, IfaceId(0), frame(mac(&net, a), mac(&net, b), 1446));
        assert!(
            net.step_until(SimTime::from_nanos(25_600)),
            "the first frame's hop at sw2"
        );
        assert_eq!(net.fabric.switch_mut(sw1).flows_mut().remove(&steer), 1);
        assert_eq!(
            step_recording(&mut net, 100_000, false),
            [(38_400, c), (51_200, b)]
        );
    }

    #[test]
    fn a_switch_hop_moves_the_frame_to_the_learned_port() {
        let mut net = Network::new(5);
        let hosts = ["a", "b"].map(|name| net.add_host(name, 1));
        let sw = net.add_switch("sw", 4);
        let mut links = Vec::new();
        for (i, &h) in hosts.iter().enumerate() {
            net.add_iface(h, Ipv4Addr::new(10, 0, 0, 1 + i as u8));
            links.push(net.link_host_switch(h, IfaceId(0), sw, LinkSpec::instant()));
        }
        // Each switch port maps back to its link, and the link's far end
        // from the port is the host's interface.
        for (p, (&h, &link)) in hosts.iter().zip(&links).enumerate() {
            let port = PortNo(p as u16);
            assert_eq!(net.fabric.link_at(sw, port), Some(link));
            let far = net.fabric.port_end(sw, port).map(End::far);
            assert_eq!(far, net.iface_end(h, IfaceId(0)));
        }
        let f = frame(mac(&net, hosts[0]), mac(&net, hosts[1]), 100);
        let sent: *const Frame = &*f;
        net.switch_hop(sw, PortNo(0), f);
        let Some((_, Ev::Arrive { to, frame })) = net.q.pop() else {
            panic!("one arrival queued");
        };
        assert_eq!(
            to,
            Endpoint::Host {
                host: hosts[1],
                iface: IfaceId(0)
            }
        );
        // A unicast hop moves the frame: same heap object, rewritten in place.
        assert!(std::ptr::eq(&*frame, sent));
        assert_eq!(frame.hops, 1);
        assert!(net.q.is_empty());
    }

    #[test]
    fn flood_clones_share_payload_storage() {
        let mut net = Network::new(6);
        let hosts = ["a", "b", "c", "d"].map(|name| net.add_host(name, 1));
        let sw = net.add_switch("sw", 4);
        for (i, &h) in hosts.iter().enumerate() {
            net.add_iface(h, Ipv4Addr::new(10, 0, 0, 1 + i as u8));
            net.link_host_switch(h, IfaceId(0), sw, LinkSpec::instant());
        }
        // Unknown destination: one frame per other port, in port order,
        // the sender's own box last.
        let f = frame(mac(&net, hosts[0]), MacAddr::nth(99), 100);
        let sent: *const Frame = &*f;
        let storage = f.tcp.payload.chunks()[0].clone();
        net.switch_hop(sw, PortNo(0), f);
        let deliveries: Vec<(Endpoint, Box<Frame>)> = std::iter::from_fn(|| net.q.pop())
            .map(|(_, ev)| match ev {
                Ev::Arrive { to, frame } => (to, frame),
                ev => panic!("unexpected {ev:?}"),
            })
            .collect();
        let to: Vec<Endpoint> = deliveries.iter().map(|d| d.0).collect();
        let host_end = |h: HostId| Endpoint::Host {
            host: h,
            iface: IfaceId(0),
        };
        assert_eq!(
            to,
            hosts[1..].iter().map(|&h| host_end(h)).collect::<Vec<_>>()
        );
        for (_, f) in &deliveries {
            assert!(f.tcp.payload.chunks()[0].same_storage(&storage));
            assert_eq!(f.hops, 1);
        }
        assert!(std::ptr::eq(&*deliveries[2].1, sent));
        assert!(!std::ptr::eq(&*deliveries[0].1, sent));
    }

    #[test]
    fn unwired_flood_ports_count_drops() {
        let mut net = Network::new(7);
        let a = net.add_host("a", 1);
        net.add_iface(a, Ipv4Addr::new(10, 0, 0, 1));
        let sw = net.add_switch("sw", 3);
        net.link_host_switch(a, IfaceId(0), sw, LinkSpec::instant());
        // Unknown destination floods to ports 1 and 2, neither wired.
        net.switch_hop(sw, PortNo(0), frame(mac(&net, a), MacAddr::nth(99), 10));
        assert!(net.q.is_empty());
        assert_eq!(net.fabric.dropped(), 2);
    }

    /// Two hosts with no switch path cannot talk; no panic, no delivery.
    #[test]
    fn unreachable_host_drops() {
        let mut net = Network::new(2);
        let a = net.add_host("a", 1);
        let b = net.add_host("b", 1);
        net.add_iface(a, Ipv4Addr::new(10, 0, 0, 1));
        net.add_iface(b, Ipv4Addr::new(10, 0, 1, 2)); // different /24
        let sink_id = net.add_app(b, Box::new(Sink::default()));
        net.add_app(
            a,
            Box::new(Blaster::new(
                SockAddr::new(Ipv4Addr::new(10, 0, 1, 2), 3260),
                100,
            )),
        );
        net.run_until(SimTime::from_nanos(100_000_000));
        let sink = net
            .app_mut(b, sink_id)
            .unwrap()
            .downcast_mut::<Sink>()
            .unwrap();
        assert_eq!(sink.bytes, 0);
        assert!(net.host(a).dropped_no_route > 0);
    }
}
