//! An op's wire forms: how a received iSCSI PDU or nvmeq unit rises to a
//! block [`Op`] and how an op lowers to either protocol, keeping the
//! flow's [`Exchange`] of open commands current both ways. A received op
//! keeps an opaque handle on its wire form ([`Wire`]) and is re-emitted
//! with the header it came with; an op a service made lowers by its fields.
//! A lifted op's tag is its wire tag, on flow 0 until the relay names its
//! flow; lowering reads the wire tag back from the tag's low half.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use bytes::Bytes;

use storm_block::transport::{BlockCmd, ScsiStatus, Step};
use storm_iscsi::exchange::{data_in_train, scsi_command, status_response, Exchange};
use storm_iscsi::Pdu;
use storm_nvmeq::{Cqe, Sqe, SqeOp, UnitEntry, UnitWire};

use crate::service::Op;

/// An [`Op`]'s wire form, its opaque handle: how a received op arrived,
/// numbered in its flow's lift order from 1, or a data request's R2T
/// ([`Op::want_data`], numbered 0).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Wire {
    /// An iSCSI PDU, and its number.
    Pdu(Pdu, u64),
    /// An nvmeq unit: its entry and its data as received, and its number.
    Entry(Bytes, Bytes, u64),
}

impl Wire {
    /// Whether this is the handle of its flow's `seq`-th op, still with
    /// the data it arrived with.
    pub(crate) fn is(&self, seq: u64, data: &Bytes) -> bool {
        match self {
            Wire::Pdu(pdu, s) => *s == seq && data.same_storage(pdu.data()),
            Wire::Entry(_, d, s) => *s == seq && data.same_storage(d),
        }
    }
}

/// The entry of one outbound frame unit.
pub(crate) enum Entry {
    Wire(Bytes),
    Sqe(Sqe),
    Cqe(Cqe),
}

/// Raises a received iSCSI PDU to an op, keeping `open` current
/// ([`Exchange::observe`]).
pub(crate) fn lift_pdu(open: &mut Exchange, pdu: Pdu, seq: u64) -> Op {
    let (step, cmd) = open.observe(&pdu);
    let op = Op::new(step, cmd, pdu.itt().into(), pdu.data().clone());
    Op {
        wire: Some(Wire::Pdu(pdu, seq)),
        ..op
    }
}

/// Raises a received nvmeq unit to an op, keeping `open` current. An SQE
/// failing [`BlockCmd::checked`] opens nothing: services pass its op on,
/// and the target rejects it. A read's CQE is its data and its status at
/// once, so it retires the read like a final Data-In.
pub(crate) fn lift_entry(open: &mut Exchange, unit: UnitWire, seq: u64) -> Op {
    let (tag, step, cmd) = match unit.entry {
        UnitEntry::Sqe(sqe) => match BlockCmd::checked(sqe.op, sqe.lba, sqe.sectors, u64::MAX) {
            Ok(cmd) => {
                open.begin(sqe.cid, cmd);
                (sqe.cid, Step::Command, Some(cmd))
            }
            Err(_) => {
                open.retire(sqe.cid);
                (sqe.cid, Step::Other, None)
            }
        },
        UnitEntry::Cqe(cqe) if cqe.op == SqeOp::Read => {
            let cmd = open.open(cqe.cid, SqeOp::Read);
            if cmd.is_some() {
                open.retire(cqe.cid);
            }
            (cqe.cid, Step::ReadData(0), cmd)
        }
        UnitEntry::Cqe(cqe) => (cqe.cid, Step::Status(cqe.status), open.retire(cqe.cid)),
    };
    let wire = Wire::Entry(unit.entry_wire, unit.data.clone(), seq);
    Op {
        wire: Some(wire),
        ..Op::new(step, cmd, tag.into(), unit.data)
    }
}

/// Lowers an op to the iSCSI PDUs that carry it: an op with a wire form
/// (received, or a data request) is its PDU around the op's data;
/// otherwise a command (opening its wire tag), read data — a service's
/// whole answer, as a Data-In train — or a status (both retiring it).
pub(crate) fn lower_pdus(open: &mut Exchange, op: Op, mut emit: impl FnMut(Pdu)) {
    let (tag, data) = (op.tag as u32, op.data);
    match (op.wire, op.step, op.cmd) {
        (Some(Wire::Pdu(mut pdu, _)), ..) => {
            if !data.same_storage(pdu.data()) {
                match &mut pdu {
                    Pdu::ScsiCommand(p) => p.data = data,
                    Pdu::DataOut(p) => p.data = data,
                    Pdu::DataIn(p) => p.data = data,
                    _ => {}
                }
            }
            emit(pdu);
        }
        (_, Step::Command, Some(cmd)) => {
            open.begin(tag, cmd);
            emit(scsi_command(cmd, tag, 0, 0, data));
        }
        (_, Step::ReadData(_), _) => {
            open.retire(tag);
            data_in_train(tag, data).for_each(emit);
        }
        (_, Step::Status(status), _) => {
            open.retire(tag);
            emit(status_response(tag, status));
        }
        _ => {}
    }
}

/// Lowers an op to a frame entry plus data segment: a received op whose
/// data is as received is its entry as received; otherwise a command is
/// an SQE (opening its wire tag), read data — a service's whole answer —
/// or a status a CQE (retiring it; a status echoes the retired opcode). A
/// data request has no multi-queue form: nvmeq writes carry all their data.
pub(crate) fn lower_entry(open: &mut Exchange, op: Op) -> Option<(Entry, Bytes)> {
    let (tag, data_len) = (op.tag as u32, op.data.len() as u32);
    let cqe = |status, op| {
        Entry::Cqe(Cqe {
            cid: tag,
            status,
            op,
            data_len,
        })
    };
    let entry = match (op.wire, op.step, op.cmd) {
        (Some(Wire::Entry(wire, data, _)), ..) if data.same_storage(&op.data) => Entry::Wire(wire),
        (_, Step::Command, Some(cmd)) => {
            open.begin(tag, cmd);
            let (lba, sectors) = (cmd.lba, cmd.sectors);
            Entry::Sqe(Sqe {
                op: cmd.op,
                cid: tag,
                lba,
                sectors,
                data_len,
            })
        }
        (_, Step::ReadData(_), _) => {
            open.retire(tag);
            cqe(ScsiStatus::Good, SqeOp::Read)
        }
        (_, Step::Status(status), _) => {
            cqe(status, open.retire(tag).map_or(SqeOp::Write, |c| c.op))
        }
        _ => return None,
    };
    Some((entry, op.data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_iscsi::exchange::r2t;

    /// Lifts an SQE or CQE as received, with `data`.
    fn lift(open: &mut Exchange, entry: UnitEntry, data: &[u8]) -> Op {
        let entry_wire = match &entry {
            UnitEntry::Sqe(s) => Bytes::copy_from_slice(&s.encode()),
            UnitEntry::Cqe(c) => Bytes::copy_from_slice(&c.encode()),
        };
        let data = Bytes::copy_from_slice(data);
        lift_entry(
            open,
            UnitWire {
                entry,
                entry_wire,
                data,
            },
            1,
        )
    }

    fn sqe(op: SqeOp, cid: u32, sectors: u32, data_len: u32) -> UnitEntry {
        let lba = 8;
        UnitEntry::Sqe(Sqe {
            op,
            cid,
            lba,
            sectors,
            data_len,
        })
    }

    #[test]
    fn sqe_lifts_to_a_command_and_lowers_back_around_new_data() {
        let mut open = Exchange::default();
        let mut op = lift(&mut open, sqe(SqeOp::Write, 9, 8, 4096), &[0xAB; 4096]);
        assert_eq!((op.step, op.tag, op.data.len()), (Step::Command, 9, 4096));
        let cmd = op.cmd.expect("a valid write");
        assert_eq!(
            (cmd.op, cmd.lba, cmd.sectors, open.len()),
            (SqeOp::Write, 8, 8, 1)
        );
        op.data = vec![0xCD; 4096].into();
        match (lower_entry(&mut open, op), sqe(SqeOp::Write, 9, 8, 4096)) {
            (Some((Entry::Sqe(s), data)), UnitEntry::Sqe(sent)) => {
                assert_eq!((s, data[0]), (sent, 0xCD))
            }
            _ => panic!("expected an SQE out"),
        }
    }

    #[test]
    fn read_cqe_lifts_to_read_data_and_retires_the_read() {
        let mut open = Exchange::default();
        lift(&mut open, sqe(SqeOp::Read, 3, 1, 0), &[]);
        let (cid, status, op, data_len) = (3, ScsiStatus::Good, SqeOp::Read, 512);
        let cqe = UnitEntry::Cqe(Cqe {
            cid,
            status,
            op,
            data_len,
        });
        let op = lift(&mut open, cqe, &[0x5C; 512]);
        assert_eq!(op.step, Step::ReadData(0));
        assert_eq!(op.step.volume_offset(op.cmd), Some(8 * 512));
        assert!(open.is_empty());
    }

    #[test]
    fn status_a_service_makes_echoes_the_retired_opcode() {
        let mut open = Exchange::default();
        lift(&mut open, sqe(SqeOp::Flush, 7, 0, 0), &[]);
        let mut op_of = |status| match lower_entry(&mut open, status) {
            Some((Entry::Cqe(cqe), _)) => cqe.op,
            _ => panic!("expected a CQE"),
        };
        assert_eq!(op_of(Op::status(7, ScsiStatus::Good)), SqeOp::Flush);
        // Table entry consumed; an unknown cid falls back to Write.
        assert_eq!(op_of(Op::status(7, ScsiStatus::Good)), SqeOp::Write);
    }

    /// A bare tenant `edtl` used to size service staging buffers: a
    /// command whose length disagrees with its CDB opens nothing and
    /// reaches the chain as an op no service can place.
    #[test]
    fn command_whose_length_disagrees_with_its_cdb_lifts_to_other() {
        let write = BlockCmd::checked(SqeOp::Write, 0, 1, u64::MAX).unwrap();
        let Pdu::ScsiCommand(mut c) = scsi_command(write, 1, 1, 1, vec![1u8; 512].into()) else {
            unreachable!()
        };
        c.edtl = 0xFFFF_FE00;
        let mut open = Exchange::default();
        let op = lift_pdu(&mut open, Pdu::ScsiCommand(c.clone()), 1);
        assert_eq!((op.step, op.cmd, open.len()), (Step::Other, None, 0));
        let mut out = Vec::new();
        lower_pdus(&mut open, op, |p| out.push(p));
        assert_eq!(out, [Pdu::ScsiCommand(c)], "re-emitted as received");
    }

    /// A service's data request is an R2T numbered as the service counts,
    /// its transfer tag the number plus one.
    #[test]
    fn data_request_lowers_to_a_numbered_r2t() {
        let (offset, len, seq) = (64 << 10, 256 << 10, 1);
        let op = Op::want_data(2, offset, len, seq);
        let mut out = Vec::new();
        lower_pdus(&mut Exchange::default(), op, |p| out.push(p));
        assert_eq!(out, [Pdu::R2t(r2t(2, 1, 2, offset, len))]);
    }
}
