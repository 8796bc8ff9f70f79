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
use crate::fabric::{Delivery, Endpoint, Fabric, LinkId, LinkSpec};
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
    /// Loopback / local delivery.
    Local {
        /// The host.
        host: HostId,
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
        }
    }

    /// Arms the network's trace hook: every IP-forwarding hop (gateways,
    /// MB-FWD middle-boxes) reports its per-packet cost as a flow-scoped
    /// [`Hop::Forward`] stage. Unarmed, forwarding pays one branch.
    pub fn set_trace_hook(&mut self, hook: TraceHook) {
        self.trace = hook;
    }

    /// Sets the TCP configuration used by hosts added afterwards.
    pub fn set_default_tcp(&mut self, config: TcpConfig) {
        self.default_tcp = config;
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
    pub fn run_until(&mut self, end: SimTime) {
        while self.step_until(end) {}
        self.now = end;
    }

    /// Runs for a further `d` of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let end = self.now + d;
        self.run_until(end);
    }

    /// Total events delivered (diagnostics).
    pub fn events_delivered(&self) -> u64 {
        self.q.delivered()
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Start { host, app } => self.dispatch(host, app, Callback::Start),
            Ev::Arrive { to, frame } => match to {
                Endpoint::Switch { sw, port } => {
                    let q = &mut self.q;
                    self.fabric
                        .switch_forward(sw, port, frame, self.now, |d| push_delivery(q, d));
                }
                Endpoint::Host { host, iface } => self.host_input(host, iface, frame),
            },
            Ev::Egress { host, iface, frame } => self.emit(host, iface, frame),
            Ev::Local { host, frame } => self.local_input(host, *frame),
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
        self.q.push(
            done,
            Ev::Egress {
                host,
                iface: out_iface,
                frame,
            },
        );
    }

    /// Emits a frame out of a host interface onto its link.
    fn emit(&mut self, host: HostId, iface: IfaceId, frame: Box<Frame>) {
        let h = &self.hosts[host.0 as usize];
        let Some(link) = h.ifaces[iface.0 as usize].link else {
            return;
        };
        let from = Endpoint::Host { host, iface };
        if let Some(d) = self.fabric.transmit(link, from, frame, self.now) {
            push_delivery(&mut self.q, d);
        }
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
        // Loopback delivery for local destinations.
        if h.has_ip(tuple.dst.ip) {
            let mut frame = Box::new(Frame {
                src_mac: crate::addr::MacAddr::nth(0),
                dst_mac: crate::addr::MacAddr::nth(0),
                src_ip: tuple.src.ip,
                dst_ip: tuple.dst.ip,
                tcp: seg.seg,
                hops: 0,
            });
            frame.set_tuple(tuple);
            self.q.push(
                self.now + SimDuration::from_micros(1),
                Ev::Local { host, frame },
            );
            return;
        }
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

    fn dispatch_tap(&mut self, host: HostId, app: AppId, frame: &mut Frame) -> TapVerdict {
        let Some(mut a) = self.hosts[host.0 as usize].apps[app.0 as usize].take() else {
            return TapVerdict::Forward;
        };
        let mut cx = Cx {
            net: self,
            host,
            app,
        };
        let verdict = a.on_tap(&mut cx, frame);
        self.hosts[host.0 as usize].apps[app.0 as usize] = Some(a);
        verdict
    }

    fn dispatch(&mut self, host: HostId, app: AppId, cb: Callback) {
        let Some(mut a) = self.hosts[host.0 as usize].apps[app.0 as usize].take() else {
            // App is already on the stack (re-entrant event): requeue just
            // after now to preserve ordering without recursion.
            self.q.push(self.now, cb.requeue(host, app));
            return;
        };
        {
            let mut cx = Cx {
                net: self,
                host,
                app,
            };
            match cb {
                Callback::Start => a.on_start(&mut cx),
                Callback::Timer(token) => a.on_timer(&mut cx, token),
                Callback::Bus(from, msg) => a.on_bus(&mut cx, from, msg),
                Callback::Tcp(ev) => match ev {
                    TcpEvent::Connected(s) => a.on_connected(&mut cx, s),
                    TcpEvent::ConnectFailed(s) => a.on_connect_failed(&mut cx, s),
                    TcpEvent::Accepted { port, sock } => a.on_accepted(&mut cx, port, sock),
                    TcpEvent::Data { sock, data } => a.on_data(&mut cx, sock, data),
                    TcpEvent::Writable(s) => a.on_writable(&mut cx, s),
                    TcpEvent::Closed { sock, kind } => a.on_closed(&mut cx, sock, kind),
                },
            }
        }
        self.hosts[host.0 as usize].apps[app.0 as usize] = Some(a);
    }
}

fn push_delivery(q: &mut EventQueue<Ev>, d: Delivery) {
    q.push(
        d.at,
        Ev::Arrive {
            to: d.to,
            frame: d.frame,
        },
    );
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

impl Callback {
    fn requeue(self, host: HostId, app: AppId) -> Ev {
        match self {
            Callback::Start => Ev::Start { host, app },
            Callback::Timer(token) => Ev::Timer { host, app, token },
            Callback::Bus(from, msg) => Ev::Bus {
                host,
                app,
                from,
                msg,
            },
            Callback::Tcp(_) => {
                // TCP events cannot be requeued without re-entering the
                // stack; in practice apps never trigger same-app TCP events
                // synchronously (resume is deferred via Ev::Resume).
                unreachable!("re-entrant TCP dispatch")
            }
        }
    }
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

    /// The host this app runs on.
    pub fn host_id(&self) -> HostId {
        self.host
    }

    /// This app's id.
    pub fn app_id(&self) -> AppId {
        self.app
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
