//! A frame carries one command: a guest that rings a doorbell holding two
//! SQEs has broken the wire protocol, wherever the frame lands.
//!
//! A guest connects over nvmeq and, once the connect is acknowledged,
//! sends one doorbell frame declaring two SQEs. Straight to the storage
//! host, the target aborts the connection; through an active relay, the
//! relay drops the flow on both sides before the target sees the frame.
//! Nothing panics, and nothing of the frame reaches the volume.

use bytes::Bytes;

use storm::block::transport::{Iqn, Transport, TransportEvent};
use storm::block::{BlockDevice, SharedVolume, VolumeGroup};
use storm::cloud::{TargetHostApp, TargetHostConfig};
use storm::core::{ActiveRelayConfig, ActiveRelayMb};
use storm::iscsi::ISCSI_PORT;
use storm::net::{App, AppId, CloseReason, Cx, HostId, LinkSpec, Network, SockAddr, SockId};
use storm::nvmeq::{FrameHeader, FrameKind, NvmeqConfig, NvmeqInitiator, Sqe, SqeOp, SQE_LEN};
use storm::sim::SimTime;

/// A two-SQE doorbell: two 512-byte writes at sectors 0 and 1.
fn two_sqe_doorbell() -> Vec<u8> {
    let header = FrameHeader {
        kind: FrameKind::Doorbell,
        count: 2,
        payload_len: (2 * (SQE_LEN + 512)) as u32,
    };
    let sqe = |cid: u32| Sqe {
        op: SqeOp::Write,
        cid,
        lba: u64::from(cid),
        sectors: 1,
        data_len: 512,
    };
    let mut wire = header.encode().to_vec();
    wire.extend_from_slice(&sqe(0).encode());
    wire.extend_from_slice(&sqe(1).encode());
    wire.extend_from_slice(&[0xEE; 1024]);
    wire
}

/// Connects through the real nvmeq initiator, then rings the bad
/// doorbell as soon as the connect is acknowledged.
struct Guest {
    to: SockAddr,
    ini: NvmeqInitiator,
    events: Vec<TransportEvent>,
    closed: Option<CloseReason>,
}

impl App for Guest {
    fn on_start(&mut self, cx: &mut Cx<'_>) {
        cx.connect(self.to);
    }
    fn on_connected(&mut self, cx: &mut Cx<'_>, sock: SockId) {
        self.ini.start();
        for chunk in self.ini.take_wire() {
            cx.send_bytes(sock, chunk);
        }
    }
    fn on_data(&mut self, cx: &mut Cx<'_>, sock: SockId, data: Bytes) {
        for ev in self.ini.feed_bytes(data) {
            if matches!(ev, TransportEvent::Ready) {
                cx.send(sock, &two_sqe_doorbell());
            }
            self.events.push(ev);
        }
    }
    fn on_closed(&mut self, _cx: &mut Cx<'_>, _sock: SockId, reason: CloseReason) {
        self.closed = Some(reason);
    }
}

/// What a run left behind.
struct Outcome {
    net: Network,
    hosts: Vec<HostId>,
    guest: AppId,
    target: AppId,
    volume: SharedVolume,
}

impl Outcome {
    fn guest(&mut self) -> &Guest {
        let app = self.net.app_mut(self.hosts[0], self.guest).unwrap();
        app.downcast_ref::<Guest>().unwrap()
    }

    fn target(&mut self) -> &TargetHostApp {
        let app = self.net.app_mut(self.hosts[2], self.target).unwrap();
        app.downcast_ref::<TargetHostApp>().unwrap()
    }
}

/// Guest on 10.0.0.1, an optional active relay on 10.0.0.2, the storage
/// host on 10.0.0.3; the guest dials `relay`'s listener when there is one.
fn run(relay: Option<ActiveRelayMb>) -> (Outcome, Option<AppId>) {
    let mut net = Network::new(7);
    let sw = net.add_switch("sw", 8);
    let hosts: Vec<_> = (1..=3u8)
        .map(|i| {
            let h = net.add_host(format!("h{i}"), 4);
            let iface = net.add_iface(h, [10, 0, 0, i].into());
            net.link_host_switch(h, iface, sw, LinkSpec::gigabit());
            h
        })
        .collect();
    let mut app = TargetHostApp::new(TargetHostConfig::default());
    let volume = SharedVolume::new(VolumeGroup::new(8 << 20).create_volume(4 << 20).unwrap());
    app.register_volume(Iqn::for_volume(1), volume.clone());
    let target = net.add_app(hosts[2], Box::new(app));
    let (to, mb) = match relay {
        Some(relay) => {
            let mb = net.add_app(hosts[1], Box::new(relay));
            (SockAddr::new([10, 0, 0, 2].into(), 13260), Some(mb))
        }
        None => (SockAddr::new([10, 0, 0, 3].into(), ISCSI_PORT), None),
    };
    let guest = Guest {
        to,
        ini: NvmeqInitiator::new(NvmeqConfig::example(8)),
        events: Vec::new(),
        closed: None,
    };
    let guest = net.add_app(hosts[0], Box::new(guest));
    net.run_until(SimTime::from_millis(50));
    let outcome = Outcome {
        net,
        hosts,
        guest,
        target,
        volume,
    };
    (outcome, mb)
}

fn assert_refused(out: &mut Outcome) {
    let guest = out.guest();
    let ready = matches!(guest.events[..], [TransportEvent::Ready]);
    assert!(
        ready,
        "only the connect may be answered: {:?}",
        guest.events
    );
    assert_eq!(
        guest.closed,
        Some(CloseReason::Reset),
        "connection not dropped"
    );
    assert_eq!(out.target().session_count(), 0);
    assert_eq!(
        out.target().dispatch_stats(),
        (0, 0, 0),
        "a command was admitted"
    );
    let mut sector = [0u8; 512];
    out.volume.read(0, &mut sector).unwrap();
    assert_eq!(sector, [0u8; 512], "the frame's data reached the volume");
}

#[test]
fn a_two_sqe_doorbell_makes_the_target_abort_the_connection() {
    let (mut out, _) = run(None);
    assert_refused(&mut out);
}

#[test]
fn a_two_sqe_doorbell_makes_the_relay_drop_the_flow() {
    let upstream = SockAddr::new([10, 0, 0, 3].into(), ISCSI_PORT);
    let relay = ActiveRelayMb::new(ActiveRelayConfig::new(upstream), Vec::new());
    let (mut out, mb) = run(Some(relay));
    assert_refused(&mut out);
    let relay = out.net.app_mut(out.hosts[1], mb.unwrap()).unwrap();
    let relay = relay.downcast_ref::<ActiveRelayMb>().unwrap();
    // The connect and its ack crossed; the doorbell did not.
    assert_eq!(relay.pdus_forwarded(), 2);
    assert_eq!(relay.open_commands(), 0);
}
