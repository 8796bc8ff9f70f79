//! Layer probes: host time of direct calls into each layer's public
//! functions on workload-shaped synthetic input. Each probe runs for a
//! fixed slice of wall clock under its own `probe.<metric>` span and
//! reports a cost per unit of that layer's work, which the layer budget
//! multiplies by the counts of the traced rep.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};

use storm_block::{BlockDevice, MemDisk, VolumeGroup};
use storm_core::{Dir, FsOp, Reconstructor, StorageService, SvcAction, SvcCtx};
use storm_crypto::{AesXts, ChaCha20};
use storm_extfs::ExtFs;
use storm_iscsi::{
    DataIn, Initiator, InitiatorConfig, Pdu, PduStream, ScsiStatus, TargetConfig, TargetConn,
    TargetEvent, Transport,
};
use storm_net::tcp::{OutSeg, TcpConfig, TcpStack};
use storm_net::{
    steering_rule, App, AppId, Cx, DnatRule, FlowMatch, FlowTable, FourTuple, Frame, LinkSpec,
    MacAddr, Nat, Network, PortNo, SnatRule, SockAddr, SockId, TcpFlags, TcpSegment,
};
use storm_nvmeq::{
    Cqe, FrameStream, NvmeqConfig, NvmeqInitiator, NvmeqTargetConfig, NvmeqTargetConn, Sqe, SqeOp,
};
use storm_services::{
    CompressService, DedupService, EncryptionService, MonitorConfig, MonitorService,
};
use storm_sim::{EventQueue, SimDuration, SimRng, SimTime};
use storm_workloads::postmark::{self, PostmarkConfig};

use crate::spans::Spans;
use crate::workloads::compressible_block;

/// Ethernet MSS the full-stack scenarios' guests cut segments at.
const MSS: usize = 1448;
const MB: f64 = 1e6;

/// Runs `body` until `budget` is spent; `body` returns the units of work
/// it did. Returns nanoseconds per unit.
fn ns_per_unit(budget: Duration, mut body: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut units = 0u64;
    loop {
        units += body();
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return elapsed.as_nanos() as f64 / units.max(1) as f64;
        }
    }
}

/// Like [`ns_per_unit`], with an untimed `setup` before every timed batch
/// (for state that a batch wears out, such as a growing index).
fn ns_per_unit_batched<S>(
    budget: Duration,
    mut setup: impl FnMut() -> S,
    mut body: impl FnMut(&mut S) -> u64,
) -> f64 {
    let mut timed = Duration::ZERO;
    let mut units = 0u64;
    // Set-up is bounded too, or an expensive one could outrun the budget.
    let wall = Instant::now();
    while timed < budget && wall.elapsed() < budget * 4 {
        let mut state = setup();
        let t = Instant::now();
        units += body(&mut state);
        timed += t.elapsed();
    }
    timed.as_nanos() as f64 / units.max(1) as f64
}

fn seeded_bytes(seed: u64, len: usize) -> Bytes {
    let mut v = vec![0u8; len];
    SimRng::seed_from_u64(seed).fill(&mut v);
    Bytes::from(v)
}

// ---------------------------------------------------------------- iscsi

/// A logged-in sans-io initiator/target pair with a reassembler sniffing
/// each direction: the source of workload-shaped PDU trains, and of the
/// PDUs-per-op count (the crate keeps no PDU counter of its own).
pub struct IscsiPair {
    ini: Initiator,
    tgt: TargetConn,
    sniff_to_target: PduStream,
    sniff_to_initiator: PduStream,
}

/// One command's traffic, both as PDUs and as the sender's wire chunks.
#[derive(Default)]
pub struct Exchange {
    pub to_target: Vec<Pdu>,
    pub to_initiator: Vec<Pdu>,
    pub to_initiator_wire: Vec<Bytes>,
}

impl Exchange {
    pub fn pdus(&self) -> u64 {
        (self.to_target.len() + self.to_initiator.len()) as u64
    }
}

impl IscsiPair {
    pub fn new() -> Self {
        let mut pair = IscsiPair {
            ini: Initiator::new(InitiatorConfig::example()),
            tgt: TargetConn::new(TargetConfig::example(1 << 24)),
            sniff_to_target: PduStream::new(),
            sniff_to_initiator: PduStream::new(),
        };
        pair.ini.start_login();
        pair.pump(&Bytes::new());
        assert!(pair.ini.is_logged_in(), "sans-io login completes");
        pair
    }

    /// Moves bytes both ways until the pair is quiet. Reads are served
    /// from the front of `read_fill`, writes are acknowledged.
    fn pump(&mut self, read_fill: &Bytes) -> Exchange {
        let mut ex = Exchange::default();
        loop {
            let mut moved = false;
            for chunk in self.ini.take_wire() {
                moved = true;
                let sniffed = self.sniff_to_target.feed_bytes(chunk.clone());
                ex.to_target.extend(
                    sniffed
                        .expect("own wire decodes")
                        .into_iter()
                        .map(|p| p.pdu),
                );
                for ev in self.tgt.feed_bytes(chunk) {
                    match ev {
                        TargetEvent::ReadReady { itt, sectors, .. } => self.tgt.complete_read(
                            itt,
                            read_fill.slice(..sectors as usize * 512),
                            ScsiStatus::Good,
                        ),
                        TargetEvent::WriteReady { itt, .. } => {
                            self.tgt.complete_write(itt, ScsiStatus::Good)
                        }
                        TargetEvent::ProtocolError(e) => panic!("target rejected own wire: {e}"),
                        _ => {}
                    }
                }
            }
            for chunk in self.tgt.take_wire() {
                moved = true;
                let sniffed = self.sniff_to_initiator.feed_bytes(chunk.clone());
                ex.to_initiator.extend(
                    sniffed
                        .expect("own wire decodes")
                        .into_iter()
                        .map(|p| p.pdu),
                );
                ex.to_initiator_wire.push(chunk.clone());
                self.ini.feed_bytes(chunk);
            }
            if !moved {
                return ex;
            }
        }
    }

    pub fn write(&mut self, lba: u64, data: Bytes) -> Exchange {
        self.ini.write(lba, data);
        self.pump(&Bytes::new())
    }

    pub fn read(&mut self, lba: u64, fill: &Bytes) -> Exchange {
        self.ini.read(lba, (fill.len() / 512) as u32);
        self.pump(fill)
    }
}

/// PDUs one read and one write of `block_bytes` put on the wire, counted
/// by the crate's own reassembler.
pub fn iscsi_pdus_per_read_write(block_bytes: usize) -> (u64, u64) {
    let mut pair = IscsiPair::new();
    let fill = seeded_bytes(1, block_bytes);
    (
        pair.read(0, &fill).pdus(),
        pair.write(0, fill.clone()).pdus(),
    )
}

/// Flattens wire chunks and re-cuts them at the MSS, as TCP delivers them.
fn mss_slices(wire: &[Bytes]) -> Vec<Bytes> {
    let mut flat = BytesMut::new();
    for c in wire {
        flat.extend_from_slice(c);
    }
    let flat = flat.freeze();
    (0..flat.len())
        .step_by(MSS)
        .map(|at| flat.slice(at..(at + MSS).min(flat.len())))
        .collect()
}

fn iscsi_encode_into(budget: Duration) -> f64 {
    let mut pair = IscsiPair::new();
    let ex = pair.write(0, seeded_bytes(2, 16 * 1024));
    // The SCSI command (8 KiB immediate data) and the Data-Out after it.
    let pdus: Vec<Pdu> = ex.to_target.into_iter().take(2).collect();
    ns_per_unit(budget, || {
        for _ in 0..64 {
            for p in &pdus {
                // A fresh buffer per PDU, as the senders in the crate do.
                let mut out = BytesMut::with_capacity(p.wire_len());
                p.encode_into(&mut out);
                black_box(out.freeze());
            }
        }
        64 * pdus.len() as u64
    })
}

/// `(ns per PDU, data bytes copied per PDU)` reassembling an MSS-sliced
/// 64 KiB Data-In train.
fn iscsi_stream_feed(budget: Duration) -> (f64, f64) {
    let mut pair = IscsiPair::new();
    let ex = pair.read(0, &seeded_bytes(3, 64 * 1024));
    let slices = mss_slices(&ex.to_initiator_wire);
    let mut stream = PduStream::new();
    let ns = ns_per_unit(budget, || {
        let mut pdus = 0u64;
        for s in &slices {
            pdus += stream
                .feed_bytes(s.clone())
                .expect("own wire decodes")
                .len() as u64;
        }
        pdus
    });
    let copied = stream.bytes_copied() as f64 / stream.pdus_out().max(1) as f64;
    (ns, copied)
}

// ---------------------------------------------------------------- nvmeq

fn nvmeq_codec(budget: Duration) -> f64 {
    let sqe = Sqe {
        op: SqeOp::Write,
        cid: 7,
        lba: 123_456,
        sectors: 128,
        data_len: 65_536,
    };
    let cqe = Cqe {
        cid: 7,
        status: ScsiStatus::Good,
        op: SqeOp::Write,
        data_len: 0,
    };
    ns_per_unit(budget, || {
        for i in 0..256u32 {
            let s = Sqe { cid: i, ..sqe }.encode();
            black_box(Sqe::decode(black_box(&s)).expect("own sqe decodes"));
            let c = Cqe { cid: i, ..cqe }.encode();
            black_box(Cqe::decode(black_box(&c)).expect("own cqe decodes"));
        }
        256
    })
}

/// ns per frame reassembling an MSS-sliced doorbell carrying one 64 KiB
/// write and the completion carrying one 64 KiB read.
fn nvmeq_stream_feed(budget: Duration) -> f64 {
    let mut ini = NvmeqInitiator::new(NvmeqConfig::example(32));
    let mut tgt = NvmeqTargetConn::new(NvmeqTargetConfig::example(1 << 24));
    ini.start();
    let fill = seeded_bytes(4, 64 * 1024);
    let mut doorbell = Vec::new();
    let mut completion = Vec::new();
    // Connect, then one write and one read; keep the two data frames.
    for step in 0..3 {
        match step {
            1 => {
                ini.write(0, fill.clone());
            }
            2 => {
                ini.read(0, 128);
            }
            _ => {}
        }
        for chunk in ini.take_wire() {
            if step == 1 {
                doorbell.push(chunk.clone());
            }
            for ev in tgt.feed_bytes(chunk) {
                match ev {
                    TargetEvent::ReadReady { itt, .. } => {
                        tgt.complete_read(0, itt, fill.clone(), ScsiStatus::Good)
                    }
                    TargetEvent::WriteReady { itt, .. } => {
                        tgt.complete_write(0, itt, ScsiStatus::Good)
                    }
                    _ => {}
                }
            }
        }
        tgt.flush_cq(0);
        for chunk in tgt.take_wire() {
            if step == 2 {
                completion.push(chunk.clone());
            }
            ini.feed_bytes(chunk);
        }
    }
    assert!(ini.is_ready(), "sans-io nvmeq connect completes");
    let trains = [mss_slices(&doorbell), mss_slices(&completion)];
    let mut streams = [FrameStream::new(), FrameStream::new()];
    ns_per_unit(budget, || {
        let mut frames = 0u64;
        for (slices, stream) in trains.iter().zip(streams.iter_mut()) {
            for s in slices {
                frames += stream
                    .feed_bytes(s.clone())
                    .expect("own wire decodes")
                    .len() as u64;
            }
        }
        frames
    })
}

// ------------------------------------------------------------------ sim

/// Deltas between 100 ns and 10 ms: the spread of link, CPU and disk
/// delays the engine schedules.
const DELTAS_NS: [u64; 8] = [
    100, 700, 2_500, 12_000, 40_000, 400_000, 800_000, 10_000_000,
];
const RESIDENT_EVENTS: u64 = 4096;

fn resident_queue() -> (EventQueue<u64>, SimTime) {
    let mut q = EventQueue::new();
    for i in 0..RESIDENT_EVENTS {
        q.push(
            SimTime::from_nanos(DELTAS_NS[i as usize % DELTAS_NS.len()] * (1 + i / 8)),
            i,
        );
    }
    (q, SimTime::ZERO)
}

fn event_queue_push_pop(budget: Duration) -> f64 {
    let (mut q, mut now) = resident_queue();
    let mut i = 0usize;
    ns_per_unit(budget, || {
        for _ in 0..1024 {
            let (t, e) = q.pop().expect("queue stays resident");
            now = t;
            i = (i + 1) % DELTAS_NS.len();
            q.push(now + SimDuration::from_nanos(DELTAS_NS[i]), e);
        }
        1024
    })
}

fn event_queue_cancel(budget: Duration) -> f64 {
    let (mut q, now) = resident_queue();
    let mut i = 0usize;
    ns_per_unit(budget, || {
        for _ in 0..1024 {
            i = (i + 1) % DELTAS_NS.len();
            let token = q.push_cancelable(now + SimDuration::from_nanos(DELTAS_NS[i]), 0);
            black_box(q.cancel(token));
        }
        1024
    })
}

// ------------------------------------------------------------------ net

/// ns per segment through two `TcpStack`s: 64 KiB `send_chunks` on one,
/// `input` on the other, acknowledgements back.
fn tcp_segment(budget: Duration) -> f64 {
    let (ip_a, ip_b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let mut a = TcpStack::new(TcpConfig::default());
    let mut b = TcpStack::new(TcpConfig::default());
    b.listen(AppId(0), 3260);
    let (sock, syn) = a.connect(AppId(0), ip_a, SockAddr::new(ip_b, 3260));
    // Segments in flight: (towards b?, segment).
    let mut wire: VecDeque<(bool, OutSeg)> = VecDeque::from([(true, syn)]);
    let settle = |a: &mut TcpStack, b: &mut TcpStack, wire: &mut VecDeque<(bool, OutSeg)>| {
        let mut segs = 0u64;
        while let Some((to_b, seg)) = wire.pop_front() {
            segs += 1;
            let stack = if to_b { &mut *b } else { &mut *a };
            let (out, events) = stack.input(seg.tuple, seg.seg);
            black_box(events);
            wire.extend(out.into_iter().map(|s| (!to_b, s)));
        }
        segs
    };
    settle(&mut a, &mut b, &mut wire);
    let payload = seeded_bytes(5, 64 * 1024);
    ns_per_unit(budget, || {
        let mut chunks = VecDeque::from([payload.clone()]);
        let (accepted, out) = a.send_chunks(sock, &mut chunks);
        debug_assert_eq!(accepted, payload.len());
        wire.extend(out.into_iter().map(|s| (true, s)));
        settle(&mut a, &mut b, &mut wire)
    })
}

fn probe_frame() -> Frame {
    Frame {
        src_mac: MacAddr::nth(63),
        dst_mac: MacAddr::nth(1063),
        src_ip: Ipv4Addr::new(10, 0, 0, 1),
        dst_ip: Ipv4Addr::new(10, 0, 0, 2),
        tcp: TcpSegment {
            src_port: 40_001,
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

fn flow_lookup(budget: Duration) -> f64 {
    let mut table = FlowTable::new();
    for i in 0..64u64 {
        table.install(steering_rule(
            10,
            FlowMatch::any()
                .src_mac(MacAddr::nth(i))
                .dst_mac(MacAddr::nth(1000 + i))
                .dst_port(3260),
            MacAddr::nth(2000 + i),
        ));
    }
    let frame = probe_frame();
    ns_per_unit(budget, || {
        for _ in 0..256 {
            black_box(table.lookup(black_box(&frame), PortNo(0)).is_some());
        }
        256
    })
}

/// ns per translation of an established flow, forward then reply, on a
/// gateway-shaped table (one DNAT, one masquerading SNAT, 32 flows).
fn nat_translate(budget: Duration) -> f64 {
    let portal = SockAddr::new(Ipv4Addr::new(10, 1, 1, 10), 3260);
    let inside = SockAddr::new(Ipv4Addr::new(192, 168, 1, 12), 3260);
    let mut nat = Nat::new();
    nat.add_dnat(DnatRule {
        match_dst_ip: portal.ip,
        match_dst_port: Some(portal.port),
        match_src_ip: None,
        to: inside,
    });
    nat.add_snat(SnatRule {
        match_dst_ip: Some(inside.ip),
        match_dst_port: None,
        to_ip: Ipv4Addr::new(192, 168, 1, 11),
        to_port: None,
    });
    let flows: Vec<(FourTuple, FourTuple)> = (0..32u16)
        .map(|i| {
            let orig = FourTuple::new(
                SockAddr::new(Ipv4Addr::new(10, 1, 0, 10), 40_000 + i),
                portal,
            );
            let xlat = nat.translate(orig, true);
            (orig, xlat.reversed())
        })
        .collect();
    ns_per_unit(budget, || {
        for (orig, reply) in &flows {
            black_box(nat.translate(black_box(*orig), false));
            black_box(nat.translate(black_box(*reply), false));
        }
        2 * flows.len() as u64
    })
}

/// Echo server: returns every byte it receives.
struct Echo;

impl App for Echo {
    fn on_start(&mut self, cx: &mut Cx<'_>) {
        cx.listen(3260);
    }

    fn on_data(&mut self, cx: &mut Cx<'_>, sock: SockId, data: Bytes) {
        cx.send_bytes(sock, data);
    }
}

/// Echo client: keeps one 4 KiB message in flight.
struct Pinger {
    remote: SockAddr,
    message: Bytes,
    awaiting: usize,
}

impl App for Pinger {
    fn on_start(&mut self, cx: &mut Cx<'_>) {
        cx.connect(self.remote);
    }

    fn on_connected(&mut self, cx: &mut Cx<'_>, sock: SockId) {
        self.awaiting = self.message.len();
        cx.send_bytes(sock, self.message.clone());
    }

    fn on_data(&mut self, cx: &mut Cx<'_>, sock: SockId, data: Bytes) {
        self.awaiting = self.awaiting.saturating_sub(data.len());
        if self.awaiting == 0 {
            self.awaiting = self.message.len();
            cx.send_bytes(sock, self.message.clone());
        }
    }
}

/// ns per delivered event of the engine: two hosts echoing 4 KiB across
/// one switch (event queue, TCP, fabric and app dispatch together).
fn engine_event(budget: Duration) -> f64 {
    let mut net = Network::new(6);
    let a = net.add_host("a", 2);
    let b = net.add_host("b", 2);
    let ia = net.add_iface(a, Ipv4Addr::new(10, 0, 0, 1));
    let ib = net.add_iface(b, Ipv4Addr::new(10, 0, 0, 2));
    let sw = net.add_switch("sw", 8);
    net.link_host_switch(a, ia, sw, LinkSpec::gigabit());
    net.link_host_switch(b, ib, sw, LinkSpec::gigabit());
    net.add_app(b, Box::new(Echo));
    net.add_app(
        a,
        Box::new(Pinger {
            remote: SockAddr::new(Ipv4Addr::new(10, 0, 0, 2), 3260),
            message: seeded_bytes(6, 4096),
            awaiting: 0,
        }),
    );
    ns_per_unit(budget, || {
        let before = net.events_delivered();
        net.run_for(SimDuration::from_millis(20));
        net.events_delivered() - before
    })
}

// ------------------------------------------------------------- services

/// Drives `svc` with one exchange, both directions, and returns what it
/// forwarded towards the target.
fn drive(svc: &mut dyn StorageService, ex: &Exchange) -> Vec<Pdu> {
    let mut forwarded = Vec::new();
    for (dir, pdus) in [
        (Dir::ToTarget, &ex.to_target),
        (Dir::ToInitiator, &ex.to_initiator),
    ] {
        for pdu in pdus {
            let mut cx = SvcCtx::new(SimTime::ZERO);
            svc.on_pdu(&mut cx, dir, pdu.clone());
            for action in cx.take_actions() {
                if let (Dir::ToTarget, SvcAction::Forward(p)) = (dir, action) {
                    forwarded.push(p);
                }
            }
        }
    }
    forwarded
}

/// MB/s of payload through `svc` for a repeating set of exchanges.
fn service_mb_per_s(
    budget: Duration,
    svc: &mut dyn StorageService,
    exchanges: &[Exchange],
    payload_bytes: u64,
) -> f64 {
    let ns_per_byte = ns_per_unit(budget, || {
        for ex in exchanges {
            black_box(drive(svc, ex));
        }
        payload_bytes
    });
    1e9 / ns_per_byte / MB
}

fn chacha20_on_pdu(budget: Duration) -> f64 {
    let mut pair = IscsiPair::new();
    let block = seeded_bytes(7, 64 * 1024);
    let exchanges = [pair.write(0, block.clone()), pair.read(128, &block)];
    let mut svc = EncryptionService::stream_cipher(&[9u8; 32], &[4u8; 12]);
    service_mb_per_s(budget, &mut svc, &exchanges, 2 * block.len() as u64)
}

fn aes_xts_on_pdu(budget: Duration) -> f64 {
    let mut pair = IscsiPair::new();
    let block = seeded_bytes(8, 16 * 1024);
    let exchanges = [pair.write(0, block.clone()), pair.read(32, &block)];
    let mut svc = EncryptionService::aes_xts(&[0x5C; 64]);
    service_mb_per_s(budget, &mut svc, &exchanges, 2 * block.len() as u64)
}

/// 64 distinct 16 KiB writes, each sent twice into a fresh index: half
/// the chunks are new, half duplicate, as on `chain_write_16k`.
fn dedup_on_pdu(budget: Duration) -> f64 {
    let mut pair = IscsiPair::new();
    let writes: Vec<Exchange> = (0..64)
        .map(|i| pair.write(i * 32, seeded_bytes(100 + i, 16 * 1024)))
        .collect();
    let bytes = 2 * 64 * 16 * 1024u64;
    let ns_per_byte = ns_per_unit_batched(
        budget,
        || DedupService::new(9, 12),
        |svc| {
            for _ in 0..2 {
                for ex in &writes {
                    black_box(drive(svc, ex));
                }
            }
            bytes
        },
    );
    1e9 / ns_per_byte / MB
}

/// Writes of one compressible and one random 16 KiB block, and the reads
/// that bring the stored (framed) extents back through the decoder.
fn compress_on_pdu(budget: Duration) -> f64 {
    let mut pair = IscsiPair::new();
    let blocks = [
        Bytes::from(compressible_block(
            &mut SimRng::seed_from_u64(10),
            16 * 1024,
        )),
        seeded_bytes(11, 16 * 1024),
    ];
    let mut svc = CompressService::new(4096);
    let mut exchanges = Vec::new();
    for (i, block) in blocks.iter().enumerate() {
        let write = pair.write(i as u64 * 32, block.clone());
        // What the service stores is what a later read returns.
        let mut stored = BytesMut::new();
        for pdu in drive(&mut svc, &write) {
            match pdu {
                Pdu::ScsiCommand(c) => stored.extend_from_slice(&c.data),
                Pdu::DataOut(d) => stored.extend_from_slice(&d.data),
                _ => {}
            }
        }
        let mut read = pair.read(i as u64 * 32, &stored.freeze());
        read.to_initiator_wire.clear();
        exchanges.push(write);
        exchanges.push(read);
    }
    let check = drive_back(&mut svc, &exchanges[1]);
    assert_eq!(check, blocks[0], "compress probe round-trips its block");
    service_mb_per_s(budget, &mut svc, &exchanges, 4 * 16 * 1024)
}

/// The read payload `svc` hands back to the initiator for `ex`.
fn drive_back(svc: &mut dyn StorageService, ex: &Exchange) -> Bytes {
    let mut out = BytesMut::new();
    for pdu in &ex.to_initiator {
        let mut cx = SvcCtx::new(SimTime::ZERO);
        svc.on_pdu(&mut cx, Dir::ToInitiator, pdu.clone());
        for action in cx.take_actions() {
            if let SvcAction::Forward(Pdu::DataIn(DataIn { data, .. })) = action {
                out.extend_from_slice(&data);
            }
        }
    }
    out.freeze()
}

/// A small PostMark image and the block accesses of its transactions.
struct MailTrace {
    image: MemDisk,
    accesses: Vec<storm_block::AccessRecord>,
}

fn mail_trace() -> MailTrace {
    let (image, groups) = postmark::prepare(&PostmarkConfig {
        initial_files: 100,
        transactions: 200,
        seed: 12,
        volume_bytes: 32 << 20,
        ..PostmarkConfig::default()
    });
    MailTrace {
        image,
        accesses: groups.into_iter().flat_map(|g| g.accesses).collect(),
    }
}

fn monitor_on_pdu(budget: Duration, trace: &MailTrace) -> f64 {
    let mut pair = IscsiPair::new();
    let exchanges: Vec<Exchange> = trace
        .accesses
        .iter()
        .map(|rec| match rec.kind {
            storm_block::AccessKind::Write => pair.write(rec.lba, Bytes::from(rec.data.clone())),
            storm_block::AccessKind::Read => {
                pair.read(rec.lba, &Bytes::from(vec![0u8; rec.len_bytes()]))
            }
        })
        .collect();
    let pdus: u64 = exchanges.iter().map(Exchange::pdus).sum();
    ns_per_unit_batched(
        budget,
        || {
            let recon = Reconstructor::from_device(&mut trace.image.clone(), "/mnt/box")
                .expect("prepared image mounts");
            MonitorService::new(MonitorConfig::default(), recon)
        },
        |svc| {
            for ex in &exchanges {
                black_box(drive(svc, ex));
            }
            pdus
        },
    )
}

fn semantics_observe(budget: Duration, trace: &MailTrace) -> f64 {
    let writes: Vec<&storm_block::AccessRecord> = trace
        .accesses
        .iter()
        .filter(|r| r.kind == storm_block::AccessKind::Write)
        .collect();
    ns_per_unit_batched(
        budget,
        || {
            Reconstructor::from_device(&mut trace.image.clone(), "/mnt/box")
                .expect("prepared image mounts")
        },
        |recon| {
            for rec in &writes {
                black_box(recon.observe(FsOp::Write, rec.lba, rec.len_bytes(), Some(&rec.data)));
            }
            writes.len() as u64
        },
    )
}

// ------------------------------------------------- crypto, block, extfs

fn crypto_mb_per_s(budget: Duration, mut run: impl FnMut(&mut [u8])) -> f64 {
    let mut buf = vec![0u8; 4096];
    let ns_per_byte = ns_per_unit(budget, || {
        for _ in 0..16 {
            run(black_box(&mut buf));
        }
        16 * 4096
    });
    1e9 / ns_per_byte / MB
}

/// `(write ns, read ns)` per 4 KiB on a volume carved from a volume group.
fn volume_4k(budget: Duration) -> (f64, f64) {
    const BLOCKS: u64 = 16 * 1024; // 64 MiB
    let mut vg = VolumeGroup::new(256 << 20);
    let mut vol = vg
        .create_volume(BLOCKS * 4096)
        .expect("volume fits its group");
    let block = seeded_bytes(13, 4096);
    let mut at = 0u64;
    let step = |at: &mut u64| {
        // A stride coprime with the block count visits every block.
        *at = (*at + 7919) % BLOCKS;
        *at * 8
    };
    let write = ns_per_unit(budget / 2, || {
        for _ in 0..256 {
            vol.write(step(&mut at), &block).expect("in range");
        }
        256
    });
    let mut buf = vec![0u8; 4096];
    let read = ns_per_unit(budget / 2, || {
        for _ in 0..256 {
            vol.read(step(&mut at), &mut buf).expect("in range");
        }
        black_box(&buf);
        256
    });
    (write, read)
}

fn extfs_create_write(budget: Duration) -> f64 {
    const FILES_PER_FS: u64 = 512;
    ns_per_unit_batched(
        budget,
        || ExtFs::mkfs(MemDisk::with_capacity_bytes(64 << 20)).expect("mkfs"),
        |fs| {
            for i in 0..FILES_PER_FS {
                let path = format!("/f{i}");
                fs.create(&path).expect("create");
                fs.write_file(&path, 0, &[0xAB; 4096]).expect("write");
            }
            FILES_PER_FS
        },
    )
}

// ----------------------------------------------------------------- all

/// Runs every probe for `each` of wall clock and returns metric → value.
pub fn run_all(each: Duration, spans: &mut Spans) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    macro_rules! probe {
        ($metric:literal, $value:expr) => {{
            spans.enter(concat!("probe.", $metric));
            let v = $value;
            spans.exit();
            out.insert($metric, v);
        }};
    }
    probe!("sim.event_queue.push_pop_ns", event_queue_push_pop(each));
    probe!("sim.event_queue.cancel_ns", event_queue_cancel(each));
    probe!("net.tcp.ns_per_seg", tcp_segment(each));
    probe!("net.flow.lookup_ns", flow_lookup(each));
    probe!("net.nat.translate_ns", nat_translate(each));
    probe!("net.engine.ns_per_event", engine_event(each));
    probe!("iscsi.encode_into_ns", iscsi_encode_into(each));
    spans.enter("probe.iscsi.stream.feed_ns_per_pdu");
    let (feed_ns, copied) = iscsi_stream_feed(each);
    spans.exit();
    out.insert("iscsi.stream.feed_ns_per_pdu", feed_ns);
    out.insert("iscsi.stream.bytes_copied_per_pdu", copied);
    probe!("nvmeq.codec.sqe_cqe_ns", nvmeq_codec(each));
    probe!("nvmeq.stream.feed_ns_per_frame", nvmeq_stream_feed(each));
    let trace = mail_trace();
    probe!(
        "core.semantics.observe_ns_per_write",
        semantics_observe(each, &trace)
    );
    probe!("services.chacha20.on_pdu_mb_per_s", chacha20_on_pdu(each));
    probe!("services.aes_xts.on_pdu_mb_per_s", aes_xts_on_pdu(each));
    probe!("services.dedup.on_pdu_mb_per_s", dedup_on_pdu(each));
    probe!("services.compress.on_pdu_mb_per_s", compress_on_pdu(each));
    probe!("services.monitor.on_pdu_ns", monitor_on_pdu(each, &trace));
    let xts = AesXts::from_master_key(&[7u8; 64]);
    probe!(
        "crypto.aes_xts.mb_per_s",
        crypto_mb_per_s(each, |buf| xts.encrypt_run(42, 512, buf))
    );
    let chacha = ChaCha20::new(&[9u8; 32], &[1u8; 12]);
    probe!(
        "crypto.chacha20.mb_per_s",
        crypto_mb_per_s(each, |buf| chacha.apply_keystream_at(0, buf))
    );
    spans.enter("probe.block.volume.write_ns_per_4k");
    let (write_ns, read_ns) = volume_4k(each);
    spans.exit();
    out.insert("block.volume.write_ns_per_4k", write_ns);
    out.insert("block.volume.read_ns_per_4k", read_ns);
    probe!("extfs.create_write_4k_ns", extfs_create_write(each));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixty_four_k_takes_nine_pdus_each_way() {
        // cmd + 8 Data-In (status rides the last); cmd with 8 KiB
        // immediate + 7 Data-Out + response.
        assert_eq!(iscsi_pdus_per_read_write(64 * 1024), (9, 9));
        assert_eq!(iscsi_pdus_per_read_write(4096), (2, 2));
    }

    #[test]
    fn mss_slices_keep_every_byte() {
        let wire = [seeded_bytes(1, 3000), seeded_bytes(2, 100)];
        let slices = mss_slices(&wire);
        assert_eq!(
            slices.iter().map(Bytes::len).collect::<Vec<_>>(),
            [1448, 1448, 204]
        );
        let flat: Vec<u8> = slices.iter().flat_map(|s| s.iter().copied()).collect();
        assert_eq!(&flat[..3000], wire[0].as_ref());
        assert_eq!(&flat[3000..], wire[1].as_ref());
    }

    #[test]
    fn every_probe_reports_a_positive_number() {
        let mut spans = Spans::new();
        spans.enter("test");
        let out = run_all(Duration::from_millis(5), &mut spans);
        spans.exit();
        assert_eq!(out.len(), 22);
        for (name, v) in &out {
            if *name != "iscsi.stream.bytes_copied_per_pdu" {
                assert!(v.is_finite() && *v > 0.0, "{name} = {v}");
            }
            assert!(
                crate::registry::PER_LAYER.iter().any(|m| m.name == *name),
                "{name} is not a registered per-layer metric"
            );
        }
    }
}
