//! The per-flow edge: where a relayed flow's wire protocol ends.
//!
//! The service chain speaks block [`Op`]s and the relay loop in
//! `active.rs` speaks *batches*; one [`Edge`] per flow stands between.
//! [`Edge::feed`] reassembles received bytes into [`Batch`]es: an iSCSI
//! PDU and a doorbell/completion frame are each a batch of one unit, a
//! handshake frame a batch of none, which bypasses the chain.
//! [`Edge::lift`] raises the unit to an op (`wire.rs`);
//! [`Edge::untouched`] says whether the chain passed it through as it
//! came (the batch is then forwarded as received); [`Edge::queue`]
//! lowers ops in the flow's own protocol — forwards, chain replies and
//! side actions alike, one PDU or frame each — onto the leg's
//! [`WireBuf`], through the encoders the endpoints use
//! ([`storm_iscsi::push_pdu`], [`storm_nvmeq::push_unit`]). Re-encodes
//! are bounded metadata copies (counted); data travels as refcounted
//! views, so the zero-copy invariant holds on both transports.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use bytes::Bytes;

use storm_block::transport::WireBuf;
use storm_iscsi::exchange::Exchange;
use storm_iscsi::{push_pdu, Pdu, PduStream, PduWire, BHS_LEN};
use storm_nvmeq::{
    push_unit, FrameHeader, FrameKind, FrameStream, FrameWire, UnitEntry, UnitWire, CQE_LEN,
    FRAME_HDR_LEN, MAGIC, SQE_LEN,
};

use super::active::RelayCopyStats;
use super::wire::{lift_entry, lift_pdu, lower_entry, lower_pdus, Entry};
use crate::service::{Dir, Op};

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
#[derive(Debug, Default)]
enum Proto {
    /// No bytes seen yet.
    #[default]
    Undecided,
    /// Classic iSCSI: the two PDU reassemblers.
    Iscsi(Legs<PduStream>),
    /// Multi-queue doorbell/completion frames: the two frame reassemblers.
    Nvmeq(Legs<FrameStream>),
}

/// One relayed flow's edge: its protocol and the commands open on it.
#[derive(Debug, Default)]
pub(crate) struct Edge {
    proto: Proto,
    open: Exchange,
    /// Units lifted so far (the last one's number is what
    /// [`Edge::untouched`] looks for).
    lifted: u64,
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
    /// The chain's input; none for a chain-bypass batch.
    pub unit: Option<Unit>,
    /// The unit's task tag / command id (zero without a unit).
    pub tag: u32,
    /// The batch's wire bytes as received, in order.
    pub wire: Vec<Bytes>,
    /// Length of `wire` in bytes (persistence-buffer and QoS accounting).
    pub wire_len: usize,
}

/// A batch's received unit, for [`Edge::lift`]: an iSCSI PDU, or an
/// nvmeq frame's SQE or CQE.
#[derive(Debug)]
pub(crate) enum Unit {
    Pdu(Pdu),
    Entry(UnitWire),
}

impl Iterator for Batches {
    type Item = Batch;

    fn next(&mut self) -> Option<Batch> {
        match self {
            Batches::Iscsi(pdus) => pdus.next().map(|pw| Batch {
                tag: pw.pdu.itt(),
                wire_len: pw.pdu.wire_len(),
                unit: Some(Unit::Pdu(pw.pdu)),
                wire: pw.wire,
            }),
            // Handshake frames carry no unit: the relay forwards the
            // connect/disconnect exchange as received, like splicing does
            // for iSCSI login on the passive path.
            Batches::Nvmeq(frames) => frames.next().map(|fw| Batch {
                tag: fw.unit.as_ref().map_or(0, |u| match &u.entry {
                    UnitEntry::Sqe(sqe) => sqe.cid,
                    UnitEntry::Cqe(cqe) => cqe.cid,
                }),
                wire_len: FRAME_HDR_LEN + fw.header.payload_len as usize,
                unit: fw.unit.map(Unit::Entry),
                wire: fw.wire,
            }),
        }
    }
}

impl Edge {
    /// Commands open on the flow: received, and not yet answered by the
    /// target or by a service.
    pub fn open_commands(&self) -> usize {
        self.open.len()
    }

    /// Appends received bytes travelling `dir` and returns every batch
    /// they complete. `Err` means the stream is undecodable and the flow
    /// must be dropped.
    pub fn feed(&mut self, dir: Dir, data: Bytes) -> Result<Batches, ()> {
        if let Proto::Undecided = self.proto {
            self.proto = match data.first() {
                Some(&MAGIC) => Proto::Nvmeq(Legs::default()),
                Some(_) => Proto::Iscsi(Legs::default()),
                None => Proto::Undecided,
            };
        }
        Ok(match &mut self.proto {
            Proto::Undecided => Batches::Iscsi(Vec::new().into_iter()),
            Proto::Iscsi(legs) => {
                Batches::Iscsi(legs.get(dir).feed_bytes(data).map_err(drop)?.into_iter())
            }
            Proto::Nvmeq(legs) => {
                Batches::Nvmeq(legs.get(dir).feed_bytes(data).map_err(drop)?.into_iter())
            }
        })
    }

    /// Bytes of a partial tenant-side message awaiting the rest of it.
    pub fn pending_bytes(&self) -> usize {
        match &self.proto {
            Proto::Undecided => 0,
            Proto::Iscsi(legs) => legs.to_target.pending_bytes(),
            Proto::Nvmeq(legs) => legs.to_target.pending_bytes(),
        }
    }

    /// Adds both reassemblers' memcpy counters to `s`.
    pub fn add_stream_copies(&self, s: &mut RelayCopyStats) {
        let (data, header) = match &self.proto {
            Proto::Undecided => (0, 0),
            Proto::Iscsi(legs) => (
                legs.sum(PduStream::bytes_copied),
                legs.sum(PduStream::header_bytes_copied),
            ),
            Proto::Nvmeq(legs) => (
                legs.sum(FrameStream::bytes_copied),
                legs.sum(FrameStream::header_bytes_copied),
            ),
        };
        s.data_bytes_copied += data;
        s.header_bytes_copied += header;
    }

    /// Raises a batch's unit to the op the chain processes.
    pub fn lift(&mut self, unit: Unit) -> Op {
        self.lifted += 1;
        match unit {
            Unit::Pdu(pdu) => lift_pdu(&mut self.open, pdu, self.lifted),
            Unit::Entry(u) => lift_entry(&mut self.open, u, self.lifted),
        }
    }

    /// Whether the chain's `forwards` for the op lifted last are exactly
    /// that op, data storage unchanged (a service that rewrote the
    /// payload made new storage): its batch then leaves as received.
    pub fn untouched(&self, forwards: &[Op]) -> bool {
        matches!(forwards,
            [op] if op.wire.as_ref().is_some_and(|w| w.is(self.lifted, &op.data)))
    }

    /// Lowers `ops` travelling `dir` onto `q` in this flow's protocol and
    /// returns how many wire units were queued: iSCSI PDUs or nvmeq
    /// frames. An undecided flow queues iSCSI. Each PDU's 48-byte header
    /// is copied and counted as header bytes; small data segments are
    /// copied by `q`, which counts them.
    pub fn queue(
        &mut self,
        dir: Dir,
        ops: impl IntoIterator<Item = Op>,
        q: &mut WireBuf,
        copy: &mut RelayCopyStats,
    ) -> u64 {
        if let Proto::Nvmeq(_) = self.proto {
            return self.queue_frames(dir, ops, q, copy);
        }
        let mut queued = 0;
        for op in ops {
            lower_pdus(&mut self.open, op, |pdu| {
                push_pdu(q, &pdu);
                queued += 1;
            });
        }
        copy.header_bytes_copied += queued * BHS_LEN as u64;
        queued
    }

    /// Lowers each op to one outbound frame — fresh header, entry, then
    /// data segment. Fixed-size metadata (header plus a re-encoded entry)
    /// is copied and counted as header bytes; an untouched entry and its
    /// data travel as the received views, chain-produced data by
    /// [`push_unit`].
    fn queue_frames(
        &mut self,
        dir: Dir,
        ops: impl IntoIterator<Item = Op>,
        q: &mut WireBuf,
        copy: &mut RelayCopyStats,
    ) -> u64 {
        let kind = match dir {
            Dir::ToTarget => FrameKind::Doorbell,
            Dir::ToInitiator => FrameKind::Completion,
        };
        let mut queued = 0;
        for op in ops {
            let Some((entry, data)) = lower_entry(&mut self.open, op) else {
                continue;
            };
            copy.header_bytes_copied += FRAME_HDR_LEN as u64;
            match entry {
                Entry::Wire(w) => {
                    q.push_slice(&FrameHeader::unit(kind, data.len()).encode());
                    q.push_bytes(w);
                    q.push_bytes(data);
                }
                Entry::Sqe(sqe) => {
                    copy.header_bytes_copied += SQE_LEN as u64;
                    push_unit(q, kind, &sqe.encode(), data);
                }
                Entry::Cqe(cqe) => {
                    copy.header_bytes_copied += CQE_LEN as u64;
                    push_unit(q, kind, &cqe.encode(), data);
                }
            }
            queued += 1;
        }
        queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_block::transport::{BlockCmd, ScsiStatus, Step, SHARE_THRESHOLD};
    use storm_nvmeq::{Cqe, Sqe, SqeOp};

    fn sqe(op: SqeOp, cid: u32, sectors: u32, data_len: u32) -> Sqe {
        let lba = 8;
        Sqe {
            op,
            cid,
            lba,
            sectors,
            data_len,
        }
    }

    /// Lifts one nvmeq unit on an nvmeq flow.
    fn lift(edge: &mut Edge, sqe: Sqe, data: &[u8]) -> Op {
        edge.proto = Proto::Nvmeq(Legs::default());
        let unit = UnitWire {
            entry: UnitEntry::Sqe(sqe),
            entry_wire: Bytes::copy_from_slice(&sqe.encode()),
            data: Bytes::copy_from_slice(data),
        };
        edge.lift(Unit::Entry(unit))
    }

    /// A service answers a read larger than one Data-In segment: nvmeq
    /// carries the whole answer in one CQE, iSCSI as a train of the 8 KiB
    /// segments every session declares; both retire the read.
    #[test]
    fn a_service_read_answer_is_one_cqe_or_a_data_in_train() {
        let (mut q, mut copy) = (WireBuf::new(), RelayCopyStats::default());
        let read = BlockCmd::checked(SqeOp::Read, 8, 256, u64::MAX).ok();
        let answer = Op::new(Step::ReadData(0), read, 5, vec![0x11; 128 << 10].into());
        let mut edge = Edge::default();
        lift(&mut edge, sqe(SqeOp::Read, 5, 256, 0), &[]);
        let queued = edge.queue(Dir::ToInitiator, [answer.clone()], &mut q, &mut copy);
        assert_eq!((queued, edge.open_commands()), (1, 0));
        assert_eq!(q.len(), FRAME_HDR_LEN + CQE_LEN + (128 << 10));

        let (mut iscsi, mut q) = (Edge::default(), WireBuf::new());
        iscsi.open.begin(5, read.unwrap());
        assert_eq!(
            iscsi.queue(Dir::ToInitiator, [answer], &mut q, &mut copy),
            16
        );
        assert_eq!(iscsi.open_commands(), 0);
        assert_eq!(q.len(), 16 * (BHS_LEN + (8 << 10)));
        assert_eq!(q.bytes_copied(), 0, "answers travel as views");
    }

    #[test]
    fn frame_reencodes_metadata_only() {
        let (mut edge, mut q) = (Edge::default(), WireBuf::new());
        let mut copy = RelayCopyStats::default();
        let len = SHARE_THRESHOLD as u32;
        let mut big = lift(&mut edge, sqe(SqeOp::Write, 1, 1, len), &[0x77; 512]);
        big.data = vec![0x78; SHARE_THRESHOLD].into();
        // A data request has no multi-queue form: not queued, not counted.
        let (offset, seq) = (0, 1);
        let want = Op::want_data(1, offset, len, seq);
        assert_eq!(edge.queue(Dir::ToTarget, [big, want], &mut q, &mut copy), 1);
        assert_eq!(q.bytes_copied(), 0, "large data travels as a view");
        assert_eq!(copy.header_bytes_copied, (FRAME_HDR_LEN + SQE_LEN) as u64);
        assert_eq!(q.len(), FRAME_HDR_LEN + SQE_LEN + SHARE_THRESHOLD);
        // Nothing to say, nothing on the wire.
        assert_eq!(edge.queue(Dir::ToTarget, [], &mut q, &mut copy), 0);
        assert_eq!(q.len(), FRAME_HDR_LEN + SQE_LEN + SHARE_THRESHOLD);
    }

    /// A rebuilt iSCSI PDU copies its 48-byte header, as a rebuilt frame
    /// copies its header and entry; its data travels as a view.
    #[test]
    fn pdu_reencodes_its_header_only() {
        let (mut edge, mut q) = (Edge::default(), WireBuf::new());
        let mut copy = RelayCopyStats::default();
        let read = BlockCmd::checked(SqeOp::Read, 8, 32, u64::MAX).ok();
        edge.open.begin(5, read.unwrap());
        let answer = Op::new(Step::ReadData(0), read, 5, vec![0x11; 16 << 10].into());
        assert_eq!(edge.queue(Dir::ToInitiator, [answer], &mut q, &mut copy), 2);
        assert_eq!(copy.header_bytes_copied, 2 * BHS_LEN as u64);
        assert_eq!(q.bytes_copied(), 0, "data travels as a view");
        assert_eq!(q.len(), 2 * (BHS_LEN + (8 << 10)));
    }

    #[test]
    fn untouched_units_copy_nothing_but_the_frame_header() {
        let (mut edge, mut q) = (Edge::default(), WireBuf::new());
        let mut copy = RelayCopyStats::default();
        let op = lift(&mut edge, sqe(SqeOp::Write, 2, 1, 512), &[0x11; 512]);
        assert!(edge.untouched(std::slice::from_ref(&op)));
        assert_eq!(
            edge.queue(Dir::ToTarget, [op.clone()], &mut q, &mut copy),
            1
        );
        assert_eq!(q.bytes_copied(), 0);
        assert_eq!(copy.header_bytes_copied, FRAME_HDR_LEN as u64);
        // An op lifted earlier is not the unit being forwarded.
        lift(&mut edge, sqe(SqeOp::Write, 3, 1, 512), &[0x11; 512]);
        assert!(!edge.untouched(&[op]));
    }

    /// A chain that emits two ops for one unit sends two frames of one
    /// entry each: the stream refuses a frame of two.
    #[test]
    fn each_op_leaves_as_its_own_frame() {
        let (mut edge, mut q) = (Edge::default(), WireBuf::new());
        let mut copy = RelayCopyStats::default();
        let op = lift(&mut edge, sqe(SqeOp::Write, 2, 1, 512), &[0x11; 512]);
        let flush = BlockCmd::checked(SqeOp::Flush, 0, 0, u64::MAX).ok();
        let extra = Op::new(Step::Command, flush, 9, Bytes::new());
        assert_eq!(edge.queue(Dir::ToTarget, [op, extra], &mut q, &mut copy), 2);
        assert_eq!(q.len(), 2 * (FRAME_HDR_LEN + SQE_LEN) + 512);
        let fresh = 2 * FRAME_HDR_LEN + SQE_LEN;
        assert_eq!(copy.header_bytes_copied, fresh as u64);
    }

    /// Feeds one frame travelling `dir` (a doorbell towards the target, a
    /// completion back) and lifts its unit, which must pass untouched.
    fn relay(edge: &mut Edge, dir: Dir, entry: &[u8], data: &[u8]) -> Vec<Op> {
        let kind = match dir {
            Dir::ToTarget => FrameKind::Doorbell,
            Dir::ToInitiator => FrameKind::Completion,
        };
        let (count, payload_len) = (1, (entry.len() + data.len()) as u32);
        let header = FrameHeader {
            kind,
            count,
            payload_len,
        };
        let mut out = Vec::new();
        let wire = Bytes::from([&header.encode()[..], entry, data].concat());
        for batch in edge.feed(dir, wire).expect("decodes") {
            let op = edge.lift(batch.unit.expect("a command frame"));
            assert!(edge.untouched(std::slice::from_ref(&op)));
            out.push(op);
        }
        out
    }

    /// A read completes with status on its Data-In — over nvmeq, the read
    /// CQE — and no SCSI Response: the flow's table must retire it there.
    #[test]
    fn read_sqe_then_read_cqe_leaves_no_table_entry() {
        let mut edge = Edge::default();
        let doorbell = sqe(SqeOp::Read, 5, 1, 0).encode();
        assert_eq!(relay(&mut edge, Dir::ToTarget, &doorbell, &[]).len(), 1);
        assert_eq!(edge.open_commands(), 1);
        let (cid, status, op, data_len) = (5, ScsiStatus::Good, SqeOp::Read, 512);
        let cqe = Cqe {
            cid,
            status,
            op,
            data_len,
        };
        let out = relay(&mut edge, Dir::ToInitiator, &cqe.encode(), &[0x3C; 512]);
        assert_eq!(out.len(), 1);
        assert_eq!(edge.open_commands(), 0, "edge table leaked the read");
    }

    /// `sectors * 512` of a tenant SQE used to be computed unchecked.
    #[test]
    fn oversize_sqe_lifts_to_an_op_nothing_tracks() {
        let mut edge = Edge::default();
        for (cid, sectors) in [(1, 0x0080_0000), (2, u32::MAX)] {
            let doorbell = sqe(SqeOp::Read, cid, sectors, 0).encode();
            // Forwarded as received, for the target to reject.
            let out = relay(&mut edge, Dir::ToTarget, &doorbell, &[]);
            assert!(matches!(&out[..], [op] if op.step == Step::Other && op.cmd.is_none()));
        }
        assert_eq!(edge.open_commands(), 0);
    }

    #[test]
    fn iscsi_pdu_is_a_batch_of_one_and_a_swallowed_pdu_is_detected() {
        let mut edge = Edge::default();
        let mut bhs = [0u8; BHS_LEN];
        bhs[0] = 0x43;
        let login = Pdu::decode(&bhs, Bytes::new()).expect("Login Request");
        let wire = Bytes::from(login.encode());
        for swallow in [false, true] {
            let mut batches = edge.feed(Dir::ToTarget, wire.clone()).expect("decodes");
            assert!(matches!(edge.proto, Proto::Iscsi(_)));
            let batch = batches.next().expect("one PDU");
            assert_eq!(batch.wire_len, wire.len());
            let op = edge.lift(batch.unit.expect("one unit"));
            assert_eq!((op.step, op.tag), (Step::Other, 0));
            let forwards = if swallow { Vec::new() } else { vec![op] };
            // Untouched, the batch forwards verbatim; swallowed, it
            // rebuilds as nothing.
            assert_eq!(edge.untouched(&forwards), !swallow);
        }
    }
}
