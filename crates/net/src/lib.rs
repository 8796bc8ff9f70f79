//! The simulated network fabric under the StorM cloud.
//!
//! This crate models everything the paper's prototype got from the Linux
//! networking stack and Open vSwitch:
//!
//! * [`Frame`] — Ethernet/IP/TCP frames carrying real payload bytes.
//! * [`VirtualSwitch`] — OVS-like switches with priority [`FlowTable`]s
//!   (match on MACs and TCP ports, then one `mod_dst_mac` rewrite before
//!   L2 forwarding), the paper's Figure 3 forwarding plane.
//! * [`Nat`] — iptables-style DNAT/SNAT with connection tracking, used for
//!   the storage-gateway redirection and IP masquerading.
//! * [`Fabric`] — links with latency, bandwidth serialization and per-packet
//!   overhead (the virtio single-thread copy cost is a per-packet link
//!   cost, which is how the paper's "intra-host transfer dominates"
//!   observation is reproduced).
//! * [`tcp`] — a simplified TCP with handshake, cumulative acks and a
//!   finite receive window. Active-relay is split TCP, so ack semantics are
//!   load-bearing for the evaluation.
//! * [`Network`] — the event loop tying hosts, apps and the fabric
//!   together on top of `storm-sim`.
//!
//! # Example: two hosts exchanging bytes through a switch
//!
//! ```
//! use storm_net::{App, Cx, LinkSpec, Network, SockAddr, SockId};
//! use storm_sim::SimTime;
//! use bytes::Bytes;
//!
//! #[derive(Default)]
//! struct Echo;
//! impl App for Echo {
//!     fn on_start(&mut self, cx: &mut Cx<'_>) {
//!         cx.listen(9000);
//!     }
//!     fn on_data(&mut self, cx: &mut Cx<'_>, sock: SockId, data: Bytes) {
//!         cx.send(sock, &data);
//!     }
//! }
//!
//! #[derive(Default)]
//! struct Client { got: usize }
//! impl App for Client {
//!     fn on_start(&mut self, cx: &mut Cx<'_>) {
//!         let sock = cx.connect(SockAddr::new([10, 0, 0, 2].into(), 9000));
//!         let _ = sock;
//!     }
//!     fn on_connected(&mut self, cx: &mut Cx<'_>, sock: SockId) {
//!         cx.send(sock, b"ping");
//!     }
//!     fn on_data(&mut self, _cx: &mut Cx<'_>, _sock: SockId, data: Bytes) {
//!         self.got += data.len();
//!     }
//! }
//!
//! let mut net = Network::new(7);
//! let a = net.add_host("a", 4);
//! let b = net.add_host("b", 4);
//! let ia = net.add_iface(a, [10, 0, 0, 1].into());
//! let ib = net.add_iface(b, [10, 0, 0, 2].into());
//! let sw = net.add_switch("sw", 8);
//! net.link_host_switch(a, ia, sw, LinkSpec::gigabit());
//! net.link_host_switch(b, ib, sw, LinkSpec::gigabit());
//! net.add_app(b, Box::new(Echo));
//! net.add_app(a, Box::new(Client::default()));
//! net.run_until(SimTime::from_nanos(1_000_000_000));
//! ```

#![warn(missing_docs)]

mod addr;
mod engine;
mod fabric;
mod flow;
mod frame;
mod host;
mod nat;
mod switch;
pub mod tcp;

pub use addr::{FourTuple, MacAddr, SockAddr};
pub use engine::{App, BusMsg, Cx, Ev, Network, TapVerdict};
pub use fabric::{Endpoint, Fabric, LinkId, LinkSpec};
pub use flow::{FlowMatch, FlowRule, FlowTable};
pub use frame::{Frame, Payload, TcpFlags, TcpSegment};
pub use host::{AppId, CloseReason, Host, HostId, Iface, IfaceId, Route, SteerRule, TapConfig};
pub use nat::{DnatRule, Nat, SnatRule};
pub use switch::{steering_rule, PortNo, SwitchId, VirtualSwitch};
pub use tcp::SockId;
