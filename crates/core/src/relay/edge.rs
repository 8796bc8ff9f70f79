//! The per-flow edge codec: where a relayed flow's wire protocol ends.
//!
//! The service chain speaks iSCSI [`Pdu`]s and the relay loop in
//! `active.rs` speaks *batches*; everything that knows whether a flow is
//! classic iSCSI or multi-queue nvmeq lives in this file, behind three
//! jobs of one [`Edge`] per flow:
//!
//! 1. [`Edge::feed`] — reassemble received bytes into [`Batch`]es. An
//!    iSCSI PDU is a batch of one unit; a doorbell/completion frame is a
//!    batch of *n* units, each mapped to the synthetic PDU the chain
//!    processes (SQE write → `ScsiCommand` with in-capsule data, CQE read
//!    → phase-collapsed `DataIn`, ...); a handshake frame is a batch of
//!    no units, which bypasses the chain. Batches and their units are
//!    converted as the loop pulls them ([`Batches`], [`Units`]), so the
//!    codec allocates nothing the reassemblers did not.
//! 2. [`Edge::rebuild`] — turn one unit's chain output into outbound
//!    units, detecting the unit the chain passed through untouched (same
//!    header bytes, same data storage) so its received wire views are
//!    re-emitted instead of re-encoded; a batch of untouched units is the
//!    received wire image, forwarded whole.
//! 3. [`Edge::queue`] — encode units onto a send queue. Forwards, chain
//!    replies and side actions (service timers, replica completions) all
//!    leave through here, so a flow only ever emits its own protocol.
//!    Re-encodes are bounded fixed-size metadata copies (counted); data
//!    segments travel as refcounted views — the zero-copy invariant holds
//!    on both transports.

use bytes::Bytes;

use storm_iscsi::exchange::{data_in_final, status_response, BlockCmd, Exchange, Step};
use storm_iscsi::{Pdu, PduStream, PduWire, BHS_LEN, SHARE_THRESHOLD};
use storm_net::SendQueue;
use storm_nvmeq::{
    Cqe, FrameHeader, FrameKind, FrameStream, FrameWire, Sqe, SqeOp, UnitEntry, UnitWire, CQE_LEN,
    FRAME_HDR_LEN, MAGIC, SQE_LEN,
};

use super::active::RelayCopyStats;
use crate::service::Dir;

/// One reassembler per leg, keyed by the direction its bytes travel.
#[derive(Debug, Default)]
pub(crate) struct Legs<S> {
    to_target: S,
    to_initiator: S,
}

impl<S> Legs<S> {
    fn get(&mut self, dir: Dir) -> &mut S {
        match dir {
            Dir::ToTarget => &mut self.to_target,
            Dir::ToInitiator => &mut self.to_initiator,
        }
    }

    /// A counter summed over both legs.
    fn sum(&self, counter: impl Fn(&S) -> u64) -> u64 {
        counter(&self.to_target) + counter(&self.to_initiator)
    }
}

/// A relayed flow's wire protocol, decided by the first byte it carries
/// (nvmeq's frame magic `0xB5` vs iSCSI's login opcode), exactly like the
/// storage target's portal sniffing — so one relay and one steering rule
/// serve both transports.
#[derive(Debug)]
pub(crate) enum Edge {
    /// No bytes seen yet.
    Undecided,
    /// Classic one-command-conversation iSCSI.
    Iscsi {
        /// The two PDU reassemblers.
        legs: Legs<PduStream>,
    },
    /// Multi-queue doorbell/completion frames.
    Nvmeq(NvqEdge),
}

/// nvmeq per-flow state: the frame reassemblers plus the in-flight command
/// table (cid → command) that lets completions produced by services (which
/// only know the SCSI shape) re-encode with the correct opcode echo. It
/// stays until `StorageService` speaks block operations instead of PDUs.
#[derive(Debug, Default)]
pub(crate) struct NvqEdge {
    legs: Legs<FrameStream>,
    inflight: Exchange,
}

/// The batches one [`Edge::feed`] completed, converted as the relay loop
/// pulls them (no per-feed allocation beyond the reassembler's own).
#[derive(Debug)]
pub(crate) enum Batches {
    Iscsi(std::vec::IntoIter<PduWire>),
    Nvmeq(std::vec::IntoIter<FrameWire>),
}

/// One reassembled message: the unit of fault verdicts, QoS admission,
/// CPU accounting and store-and-forward release.
#[derive(Debug)]
pub(crate) struct Batch {
    /// Chain inputs in wire order; none for a chain-bypass batch.
    pub units: Units,
    /// The first unit's task tag / command id (zero without units).
    pub tag: u32,
    /// The batch's wire bytes as received, in order.
    pub wire: Vec<Bytes>,
    /// Length of `wire` in bytes (persistence-buffer and QoS accounting).
    pub wire_len: usize,
}

/// A batch's chain inputs: the one PDU of an iSCSI batch, or an nvmeq
/// frame's command units, each mapped to its synthetic PDU when pulled.
#[derive(Debug)]
pub(crate) enum Units {
    Pdu(Option<Unit>),
    Frame(std::vec::IntoIter<UnitWire>),
}

/// One chain input and what it looked like on the wire.
#[derive(Debug)]
pub(crate) struct Unit {
    /// The PDU the service chain processes.
    pub pdu: Pdu,
    /// The received image [`Edge::rebuild`] compares the chain output to.
    pub src: UnitSrc,
}

/// The received image of one unit.
#[derive(Debug)]
pub(crate) struct UnitSrc {
    /// Header bytes of the chain input (as received on iSCSI, the
    /// synthetic PDU's encoding on nvmeq).
    bhs: [u8; BHS_LEN],
    /// The received data segment view.
    data: Bytes,
    /// nvmeq: the entry's wire bytes (64 B SQE / 16 B CQE).
    entry_wire: Option<Bytes>,
}

/// One unit headed for a send queue.
#[derive(Debug)]
pub(crate) enum UnitOut {
    /// The chain forwarded an nvmeq unit untouched: its received entry
    /// and data views, re-framed with zero payload copies. (An untouched
    /// iSCSI PDU is a whole verbatim batch, never a unit of a rebuilt one.)
    Verbatim {
        /// The received entry bytes (64 B SQE / 16 B CQE).
        entry_wire: Bytes,
        /// The received data segment view.
        data: Bytes,
    },
    /// A PDU the chain produced or modified, encoded on the way out.
    Pdu(Pdu),
}

/// The entry of one outbound frame unit.
enum Entry {
    Wire(Bytes),
    Sqe(Sqe),
    Cqe(Cqe),
}

impl Iterator for Batches {
    type Item = Batch;

    fn next(&mut self) -> Option<Batch> {
        match self {
            Batches::Iscsi(pdus) => pdus.next().map(|pw| Batch {
                tag: pw.pdu.itt(),
                wire_len: pw.pdu.wire_len(),
                units: Units::Pdu(Some(Unit {
                    pdu: pw.pdu,
                    src: UnitSrc {
                        bhs: pw.bhs,
                        data: pw.data,
                        entry_wire: None,
                    },
                })),
                wire: pw.wire,
            }),
            // Handshake frames carry no units: the relay forwards the
            // connect/disconnect exchange as received, like splicing does
            // for iSCSI login on the passive path.
            Batches::Nvmeq(frames) => frames.next().map(|fw| Batch {
                tag: fw.units.first().map_or(0, |u| match &u.entry {
                    UnitEntry::Sqe(sqe) => sqe.cid,
                    UnitEntry::Cqe(cqe) => cqe.cid,
                }),
                wire_len: FRAME_HDR_LEN + fw.header.payload_len as usize,
                units: Units::Frame(fw.units.into_iter()),
                wire: fw.wire,
            }),
        }
    }
}

impl Units {
    /// Units not yet pulled.
    pub fn len(&self) -> usize {
        match self {
            Units::Pdu(unit) => usize::from(unit.is_some()),
            Units::Frame(units) => units.len(),
        }
    }
}

impl Iterator for Units {
    type Item = Unit;

    fn next(&mut self) -> Option<Unit> {
        match self {
            Units::Pdu(unit) => unit.take(),
            Units::Frame(units) => units.next().map(unit_of),
        }
    }
}

impl Edge {
    /// Appends received bytes travelling `dir` and returns every batch
    /// they complete. `Err` means the stream is undecodable and the flow
    /// must be dropped.
    pub fn feed(&mut self, dir: Dir, data: Bytes) -> Result<Batches, ()> {
        if let Edge::Undecided = self {
            *self = match data.first() {
                Some(&MAGIC) => Edge::Nvmeq(NvqEdge::default()),
                Some(_) => Edge::Iscsi {
                    legs: Legs::default(),
                },
                None => Edge::Undecided,
            };
        }
        Ok(match self {
            Edge::Undecided => Batches::Iscsi(Vec::new().into_iter()),
            Edge::Iscsi { legs } => {
                Batches::Iscsi(legs.get(dir).feed_bytes(data).map_err(drop)?.into_iter())
            }
            Edge::Nvmeq(nvq) => Batches::Nvmeq(
                nvq.legs
                    .get(dir)
                    .feed_bytes(data)
                    .map_err(drop)?
                    .into_iter(),
            ),
        })
    }

    /// Bytes of a partial tenant-side message awaiting the rest of it.
    pub fn pending_bytes(&self) -> usize {
        match self {
            Edge::Undecided => 0,
            Edge::Iscsi { legs } => legs.to_target.pending_bytes(),
            Edge::Nvmeq(nvq) => nvq.legs.to_target.pending_bytes(),
        }
    }

    /// Adds both reassemblers' memcpy counters to `s`.
    pub fn add_stream_copies(&self, s: &mut RelayCopyStats) {
        let (data, header) = match self {
            Edge::Undecided => (0, 0),
            Edge::Iscsi { legs } => (
                legs.sum(PduStream::bytes_copied),
                legs.sum(PduStream::header_bytes_copied),
            ),
            Edge::Nvmeq(nvq) => (
                nvq.legs.sum(FrameStream::bytes_copied),
                nvq.legs.sum(FrameStream::header_bytes_copied),
            ),
        };
        s.data_bytes_copied += data;
        s.header_bytes_copied += header;
    }

    /// Turns the chain's `forwards` for the unit received as `src` into
    /// outbound units. Returns whether the chain emitted exactly the PDU
    /// it was given (same header bytes, same data storage), in which case
    /// the received views are re-emitted. The storage-identity check makes
    /// this O(header): a service that rewrote the payload necessarily
    /// produced new storage.
    pub fn rebuild(&mut self, src: UnitSrc, forwards: Vec<Pdu>, out: &mut Vec<UnitOut>) -> bool {
        let untouched = matches!(&forwards[..],
            [f] if f.encode_bhs() == src.bhs && f.data().same_storage(&src.data));
        if !untouched {
            out.extend(forwards.into_iter().map(UnitOut::Pdu));
        } else if let (Edge::Nvmeq(nvq), Some(entry_wire), [pdu]) =
            (self, src.entry_wire, &forwards[..])
        {
            // The fast path never reaches `entry_of`; keep the in-flight
            // table current here.
            nvq.inflight.observe(pdu);
            out.push(UnitOut::Verbatim {
                entry_wire,
                data: src.data,
            });
        }
        untouched
    }

    /// Encodes `units` travelling `dir` onto `q` in this flow's protocol
    /// and returns how many were queued. iSCSI queues one PDU per unit;
    /// nvmeq coalesces the units into one frame and drops PDU shapes with
    /// no multi-queue equivalent (R2T, NOPs, text — no chain service emits
    /// them on the relay datapath). An undecided flow queues iSCSI.
    pub fn queue(
        &mut self,
        dir: Dir,
        units: impl IntoIterator<Item = UnitOut>,
        q: &mut SendQueue,
        copy: &mut RelayCopyStats,
    ) -> u64 {
        if let Edge::Nvmeq(nvq) = self {
            return nvq.queue_frame(dir, units, q, copy);
        }
        let mut queued = 0;
        for u in units {
            if let UnitOut::Pdu(pdu) = u {
                queue_pdu(q, &pdu, copy);
                queued += 1;
            }
        }
        queued
    }
}

/// Encodes a PDU onto a send queue as chunks: the header by copy, the
/// data segment by [`push_data`], then the pad.
fn queue_pdu(q: &mut SendQueue, pdu: &Pdu, copy: &mut RelayCopyStats) {
    let w = pdu.wire_chunks();
    q.push(&w.header);
    push_data(q, w.data, copy);
    q.push(w.pad);
}

/// Queues a chain-produced data segment: a large one as a shared view of
/// the service's buffer, a small one batched by copy (counted).
fn push_data(q: &mut SendQueue, data: Bytes, copy: &mut RelayCopyStats) {
    if data.len() >= SHARE_THRESHOLD {
        q.push_bytes(data);
    } else {
        copy.data_bytes_copied += data.len() as u64;
        q.push(&data);
    }
}

impl NvqEdge {
    /// Maps a chain-produced PDU to a frame entry plus data segment,
    /// keeping the in-flight table current ([`Edge::rebuild`] does the same
    /// for the units that leave as received).
    fn entry_of(&mut self, dir: Dir, pdu: Pdu) -> Option<(Entry, Bytes)> {
        match (dir, self.inflight.observe(&pdu), pdu) {
            (Dir::ToTarget, Step::Command(cmd), Pdu::ScsiCommand(c)) => {
                let data = match cmd.op {
                    SqeOp::Write => c.data,
                    _ => Bytes::new(),
                };
                let sqe = Sqe {
                    op: cmd.op,
                    cid: c.itt,
                    lba: cmd.lba,
                    sectors: cmd.sectors,
                    data_len: data.len() as u32,
                };
                Some((Entry::Sqe(sqe), data))
            }
            (Dir::ToInitiator, _, Pdu::DataIn(d)) if d.final_pdu && d.status_present => {
                let cqe = Cqe {
                    cid: d.itt,
                    status: d.status,
                    op: SqeOp::Read,
                    data_len: d.data.len() as u32,
                };
                Some((Entry::Cqe(cqe), d.data))
            }
            (Dir::ToInitiator, Step::Status(cmd), Pdu::ScsiResponse(r)) => {
                let cqe = Cqe {
                    cid: r.itt,
                    status: r.status,
                    op: cmd.map_or(SqeOp::Write, |c| c.op),
                    data_len: 0,
                };
                Some((Entry::Cqe(cqe), Bytes::new()))
            }
            _ => None,
        }
    }

    /// Assembles one outbound frame — fresh header, entry block, then data
    /// segments in entry order — onto a send queue; no units, no frame.
    /// Fixed-size metadata (header plus re-encoded entries) is copied and
    /// counted as header bytes; untouched entries and their data travel as
    /// the received views, chain-produced data by [`push_data`].
    fn queue_frame(
        &mut self,
        dir: Dir,
        units: impl IntoIterator<Item = UnitOut>,
        q: &mut SendQueue,
        copy: &mut RelayCopyStats,
    ) -> u64 {
        let units: Vec<(Entry, Bytes)> = units
            .into_iter()
            .filter_map(|u| match u {
                UnitOut::Verbatim { entry_wire, data } => Some((Entry::Wire(entry_wire), data)),
                UnitOut::Pdu(pdu) => self.entry_of(dir, pdu),
            })
            .collect();
        if units.is_empty() {
            return 0;
        }
        let entry_len = |e: &Entry| match e {
            Entry::Wire(w) => w.len(),
            Entry::Sqe(_) => SQE_LEN,
            Entry::Cqe(_) => CQE_LEN,
        };
        let payload_len: usize = units.iter().map(|(e, d)| entry_len(e) + d.len()).sum();
        let header = FrameHeader {
            kind: match dir {
                Dir::ToTarget => FrameKind::Doorbell,
                Dir::ToInitiator => FrameKind::Completion,
            },
            count: units.len() as u16,
            payload_len: payload_len as u32,
            queue_depth: 0,
        };
        copy.header_bytes_copied += FRAME_HDR_LEN as u64;
        q.push(&header.encode());
        for (entry, _) in &units {
            match entry {
                Entry::Wire(w) => q.push_bytes(w.clone()),
                Entry::Sqe(sqe) => {
                    copy.header_bytes_copied += SQE_LEN as u64;
                    q.push(&sqe.encode());
                }
                Entry::Cqe(cqe) => {
                    copy.header_bytes_copied += CQE_LEN as u64;
                    q.push(&cqe.encode());
                }
            }
        }
        let queued = units.len() as u64;
        for (entry, data) in units {
            match entry {
                Entry::Wire(_) => q.push_bytes(data),
                _ => push_data(q, data, copy),
            }
        }
        queued
    }
}

/// Maps one received command unit to the synthetic PDU the service chain
/// processes. Doorbell SQEs become `ScsiCommand`s (writes carry their
/// in-capsule data, the immediate-data idiom); completion CQEs become a
/// phase-collapsed `DataIn` (reads) or a `ScsiResponse` (writes/flushes).
/// An SQE is mapped as received, unchecked: one whose fields fail
/// [`BlockCmd::parse`] encodes as a command that services and the edge's
/// own table refuse to track, and reaches the target — which rejects it —
/// verbatim.
fn unit_of(unit: UnitWire) -> Unit {
    let data = unit.data.clone();
    let pdu = match unit.entry {
        UnitEntry::Sqe(sqe) => BlockCmd {
            op: sqe.op,
            lba: sqe.lba,
            sectors: sqe.sectors,
        }
        .command(sqe.cid, sqe.cid, 0, data),
        UnitEntry::Cqe(cqe) if cqe.op == SqeOp::Read => data_in_final(cqe.cid, data, cqe.status),
        UnitEntry::Cqe(cqe) => status_response(cqe.cid, cqe.status),
    };
    Unit {
        src: UnitSrc {
            bhs: pdu.encode_bhs(),
            data: unit.data,
            entry_wire: Some(unit.entry_wire),
        },
        pdu,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_iscsi::ScsiStatus;

    fn unit(entry: UnitEntry, data: &[u8]) -> UnitWire {
        let entry_wire = match &entry {
            UnitEntry::Sqe(s) => Bytes::copy_from_slice(&s.encode()),
            UnitEntry::Cqe(c) => Bytes::copy_from_slice(&c.encode()),
        };
        UnitWire {
            entry,
            entry_wire,
            data: Bytes::copy_from_slice(data),
        }
    }

    fn write_sqe(cid: u32, data_len: u32) -> Sqe {
        Sqe {
            op: SqeOp::Write,
            cid,
            lba: 64,
            sectors: data_len / 512,
            data_len,
        }
    }

    #[test]
    fn sqe_maps_to_scsi_command_and_back() {
        let mut nvq = NvqEdge::default();
        let sqe = write_sqe(9, 4096);
        let u = unit_of(unit(UnitEntry::Sqe(sqe), &[0xAB; 4096]));
        let Pdu::ScsiCommand(ref c) = u.pdu else {
            panic!("write SQE must map to a SCSI command");
        };
        assert!(c.write && !c.read);
        assert_eq!((c.itt, c.data.len()), (9, 4096));
        let cmd = BlockCmd::parse(c, u64::MAX).expect("a valid write");
        assert_eq!((cmd.op, cmd.lba, cmd.sectors), (SqeOp::Write, 64, 8));
        match nvq.entry_of(Dir::ToTarget, u.pdu) {
            Some((Entry::Sqe(s), data)) => {
                assert_eq!(s, sqe);
                assert_eq!(data.as_ptr(), u.src.data.as_ptr(), "payload stays a view");
            }
            _ => panic!("expected an SQE out"),
        }
        assert_eq!(nvq.inflight.len(), 1);
    }

    #[test]
    fn read_cqe_maps_to_data_in_and_back() {
        let cqe = Cqe {
            cid: 3,
            status: ScsiStatus::Good,
            op: SqeOp::Read,
            data_len: 512,
        };
        let u = unit_of(unit(UnitEntry::Cqe(cqe), &[0x5C; 512]));
        let Pdu::DataIn(ref d) = u.pdu else {
            panic!("read CQE must map to DataIn");
        };
        assert!(d.status_present && d.final_pdu);
        match NvqEdge::default().entry_of(Dir::ToInitiator, u.pdu) {
            Some((Entry::Cqe(c), data)) => {
                assert_eq!(c, cqe);
                assert_eq!(data.as_ptr(), u.src.data.as_ptr());
            }
            _ => panic!("expected a CQE out"),
        }
    }

    #[test]
    fn flush_completion_recovers_opcode_from_inflight_table() {
        let mut nvq = NvqEdge::default();
        let flush = unit_of(unit(
            UnitEntry::Sqe(Sqe {
                op: SqeOp::Flush,
                cid: 7,
                lba: 0,
                sectors: 0,
                data_len: 0,
            }),
            &[],
        ));
        nvq.inflight.observe(&flush.pdu);
        let resp = || status_response(7, ScsiStatus::Good);
        let op_of = |out: Option<(Entry, Bytes)>| match out {
            Some((Entry::Cqe(cqe), _)) => cqe.op,
            _ => panic!("expected a CQE"),
        };
        assert_eq!(op_of(nvq.entry_of(Dir::ToInitiator, resp())), SqeOp::Flush);
        // Table entry consumed; an unknown cid falls back to Write.
        assert_eq!(op_of(nvq.entry_of(Dir::ToInitiator, resp())), SqeOp::Write);
    }

    #[test]
    fn frame_reencodes_metadata_only() {
        let mut edge = Edge::Nvmeq(NvqEdge::default());
        let (mut q, mut copy) = (SendQueue::new(), RelayCopyStats::default());
        let len = SHARE_THRESHOLD as u32;
        let big = unit_of(unit(
            UnitEntry::Sqe(write_sqe(1, len)),
            &[0x77; SHARE_THRESHOLD],
        ));
        // A NOP has no multi-queue shape: dropped, not counted.
        let odd = Pdu::decode(&[0u8; BHS_LEN], Bytes::new()).expect("NOP-Out");
        let units = [UnitOut::Pdu(big.pdu), UnitOut::Pdu(odd)];
        assert_eq!(edge.queue(Dir::ToTarget, units, &mut q, &mut copy), 1);
        assert_eq!(copy.data_bytes_copied, 0, "large data travels as a view");
        assert_eq!(copy.header_bytes_copied, (FRAME_HDR_LEN + SQE_LEN) as u64);
        assert_eq!(q.backlog(), FRAME_HDR_LEN + SQE_LEN + SHARE_THRESHOLD);
        // Nothing to say, nothing on the wire.
        assert_eq!(edge.queue(Dir::ToTarget, [], &mut q, &mut copy), 0);
        assert_eq!(q.backlog(), FRAME_HDR_LEN + SQE_LEN + SHARE_THRESHOLD);
    }

    #[test]
    fn untouched_units_copy_nothing_but_the_frame_header() {
        let mut edge = Edge::Nvmeq(NvqEdge::default());
        let (mut q, mut copy) = (SendQueue::new(), RelayCopyStats::default());
        let u = unit_of(unit(UnitEntry::Sqe(write_sqe(2, 512)), &[0x11; 512]));
        let mut out = Vec::new();
        assert!(edge.rebuild(u.src, vec![u.pdu], &mut out));
        assert_eq!(edge.queue(Dir::ToTarget, out, &mut q, &mut copy), 1);
        assert_eq!(copy.data_bytes_copied, 0);
        assert_eq!(copy.header_bytes_copied, FRAME_HDR_LEN as u64);
        let Edge::Nvmeq(nvq) = edge else {
            unreachable!()
        };
        assert_eq!(nvq.inflight.len(), 1, "fast path notes it");
    }

    fn frame(kind: FrameKind, entry: &[u8], data: &[u8]) -> Bytes {
        let header = FrameHeader {
            kind,
            count: 1,
            payload_len: (entry.len() + data.len()) as u32,
            queue_depth: 0,
        };
        Bytes::from([&header.encode()[..], entry, data].concat())
    }

    /// What a chain service does with a unit: observe it, forward it.
    fn relay(edge: &mut Edge, svc: &mut Exchange, dir: Dir, wire: Bytes) -> Vec<UnitOut> {
        let mut out = Vec::new();
        for batch in edge.feed(dir, wire).expect("decodes") {
            for Unit { pdu, src } in batch.units {
                svc.observe(&pdu);
                assert!(edge.rebuild(src, vec![pdu], &mut out));
            }
        }
        out
    }

    /// A read completes with status on its Data-In — over nvmeq, the read
    /// CQE — and no SCSI Response: a service's command table and the
    /// edge's own must both retire it there.
    #[test]
    fn read_sqe_then_read_cqe_leaves_no_table_entry() {
        let (mut edge, mut svc) = (Edge::Undecided, Exchange::default());
        let sqe = Sqe {
            op: SqeOp::Read,
            cid: 5,
            lba: 8,
            sectors: 1,
            data_len: 0,
        };
        let doorbell = frame(FrameKind::Doorbell, &sqe.encode(), &[]);
        assert_eq!(relay(&mut edge, &mut svc, Dir::ToTarget, doorbell).len(), 1);
        assert_eq!(svc.len(), 1);
        let cqe = Cqe {
            cid: 5,
            status: ScsiStatus::Good,
            op: SqeOp::Read,
            data_len: 512,
        };
        let completion = frame(FrameKind::Completion, &cqe.encode(), &[0x3C; 512]);
        assert_eq!(
            relay(&mut edge, &mut svc, Dir::ToInitiator, completion).len(),
            1
        );
        assert_eq!(svc.len(), 0, "service table leaked the read");
        let Edge::Nvmeq(nvq) = edge else {
            unreachable!()
        };
        assert_eq!(nvq.inflight.len(), 0, "edge table leaked the read");
    }

    /// `sectors * 512` of a tenant SQE used to be computed unchecked.
    #[test]
    fn oversize_sqe_maps_to_a_command_nothing_tracks() {
        let (mut edge, mut svc) = (Edge::Undecided, Exchange::default());
        for (cid, sectors) in [(1, 0x0080_0000), (2, u32::MAX)] {
            let sqe = Sqe {
                op: SqeOp::Read,
                cid,
                lba: 0,
                sectors,
                data_len: 0,
            };
            let doorbell = frame(FrameKind::Doorbell, &sqe.encode(), &[]);
            // Forwarded as received, for the target to reject.
            let out = relay(&mut edge, &mut svc, Dir::ToTarget, doorbell);
            assert!(matches!(out[..], [UnitOut::Verbatim { .. }]));
        }
        assert!(svc.is_empty());
        let Edge::Nvmeq(nvq) = edge else {
            unreachable!()
        };
        assert!(nvq.inflight.is_empty());
    }

    #[test]
    fn iscsi_pdu_is_a_batch_of_one_and_a_swallowed_pdu_is_detected() {
        let mut edge = Edge::Undecided;
        let nop = Pdu::decode(&[0u8; BHS_LEN], Bytes::new()).expect("NOP-Out");
        let wire = Bytes::from(nop.encode());
        let mut out = Vec::new();
        for (forwards, untouched) in [(vec![nop], true), (Vec::new(), false)] {
            let mut batches = edge.feed(Dir::ToTarget, wire.clone()).expect("decodes");
            assert!(matches!(edge, Edge::Iscsi { .. }));
            let batch = batches.next().expect("one PDU");
            assert_eq!((batch.units.len(), batch.wire_len), (1, wire.len()));
            let unit = { batch.units }.next().expect("one unit");
            assert_eq!(edge.rebuild(unit.src, forwards, &mut out), untouched);
        }
        // Untouched, the whole batch forwards verbatim; swallowed, it
        // rebuilds as nothing.
        assert!(out.is_empty());
    }
}
