//! The iSCSI half of the exchange model: how an iSCSI conversation maps
//! to the block vocabulary of [`storm_block::transport`]. Tenant bytes
//! become a [`BlockCmd`] only through [`parse_command`]; the builders are
//! the PDUs an exchange consists of; [`Exchange`] is a connection's table
//! of open commands, which [`Exchange::observe`] keeps current.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use std::hash::RandomState;

use bytes::Bytes;
use storm_block::transport::{BlockCmd, BlockOp, CmdReject, ScsiStatus, Step};
use storm_sim::IdMap;

use crate::cdb::Cdb;
use crate::params::MAX_RECV_DATA_SEGMENT_LENGTH;
use crate::pdu::{DataIn, DataOut, Pdu, R2t, ScsiCommand, ScsiResponse};

/// The one checked constructor of a [`BlockCmd`] from a SCSI Command
/// PDU: CDB decode, [`BlockCmd::checked`], and `sectors × 512 == edtl`.
///
/// # Errors
///
/// See [`CmdReject`].
pub fn parse_command(c: &ScsiCommand, capacity: u64) -> Result<BlockCmd, CmdReject> {
    let (op, lba, sectors) = match Cdb::parse(&c.cdb).map_err(CmdReject::Opcode)? {
        Cdb::Read { lba, sectors } => (BlockOp::Read, lba, sectors),
        Cdb::Write { lba, sectors } => (BlockOp::Write, lba, sectors),
        Cdb::SynchronizeCache => (BlockOp::Flush, 0, 0),
    };
    let cmd = BlockCmd::checked(op, lba, sectors, capacity)?;
    if cmd.bytes() != c.edtl as u64 {
        return Err(CmdReject::Invalid);
    }
    Ok(cmd)
}

/// The SCSI Command PDU for `cmd`, `data` riding as immediate data. The
/// length field saturates, so a command too large for it encodes as one
/// [`parse_command`] refuses.
pub fn scsi_command(cmd: BlockCmd, itt: u32, cmd_sn: u32, exp_stat_sn: u32, data: Bytes) -> Pdu {
    let (lba, sectors) = (cmd.lba, cmd.sectors);
    let cdb = match cmd.op {
        BlockOp::Read => Cdb::Read { lba, sectors },
        BlockOp::Write => Cdb::Write { lba, sectors },
        BlockOp::Flush => Cdb::SynchronizeCache,
    };
    Pdu::ScsiCommand(ScsiCommand {
        immediate: false,
        final_pdu: true,
        read: cmd.op == BlockOp::Read,
        write: cmd.op == BlockOp::Write,
        lun: 0,
        itt,
        edtl: u32::try_from(cmd.bytes()).unwrap_or(u32::MAX),
        cmd_sn,
        exp_stat_sn,
        cdb: cdb.to_bytes(),
        data,
    })
}

/// The R2T asking for `len` bytes at buffer offset `offset` of command
/// `itt` ([`Transfer::next_burst`](storm_block::transport::Transfer::next_burst)),
/// the command's `r2t_sn`-th, under transfer tag `ttt`.
pub fn r2t(itt: u32, r2t_sn: u32, ttt: u32, offset: u32, len: u32) -> R2t {
    R2t {
        lun: 0,
        itt,
        ttt,
        stat_sn: 0,
        exp_cmd_sn: 0,
        max_cmd_sn: 0,
        r2t_sn,
        buffer_offset: offset,
        desired_length: len,
    }
}

/// A read's whole answer in one PDU: payload plus phase-collapsed status.
/// Like every target-side builder here it leaves the sequence numbers
/// zero — right for a middle-box's synthetic replies; a target stamps its
/// own.
pub fn data_in_final(itt: u32, data: Bytes, status: ScsiStatus) -> Pdu {
    Pdu::DataIn(DataIn {
        final_pdu: true,
        status_present: true,
        status,
        lun: 0,
        itt,
        ttt: 0xFFFF_FFFF,
        stat_sn: 0,
        exp_cmd_sn: 0,
        max_cmd_sn: 0,
        data_sn: 0,
        buffer_offset: 0,
        residual: 0,
        data,
    })
}

/// A successful read's answer as Data-In PDUs of at most the
/// MaxRecvDataSegmentLength every session declares
/// ([`MAX_RECV_DATA_SEGMENT_LENGTH`]), status collapsed into the last (an
/// empty payload is one PDU).
pub fn data_in_train(itt: u32, data: Bytes) -> impl Iterator<Item = Pdu> {
    let mut next = Some((0u32, 0usize));
    std::iter::from_fn(move || {
        let (data_sn, off) = next?;
        let end = (off + MAX_RECV_DATA_SEGMENT_LENGTH).min(data.len());
        let last = end == data.len();
        next = (!last).then_some((data_sn + 1, end));
        let mut pdu = data_in_final(itt, data.slice(off..end), ScsiStatus::Good);
        if let Pdu::DataIn(d) = &mut pdu {
            (d.final_pdu, d.status_present) = (last, last);
            d.data_sn = data_sn;
            d.buffer_offset = u32::try_from(off).unwrap_or(u32::MAX);
        }
        Some(pdu)
    })
}

/// `data[range]` as Data-Out PDUs of at most `max_segment` bytes answering
/// transfer tag `ttt` (`0xFFFF_FFFF` = unsolicited), the last one final.
pub fn data_out_train(
    itt: u32,
    ttt: u32,
    exp_stat_sn: u32,
    data: &Bytes,
    range: std::ops::Range<usize>,
    max_segment: usize,
) -> impl Iterator<Item = Pdu> + '_ {
    let stop = range.end.min(data.len());
    let mut next = (0u32, range.start);
    std::iter::from_fn(move || {
        let (data_sn, off) = next;
        if off >= stop {
            return None;
        }
        let end = off.saturating_add(max_segment.max(1)).min(stop);
        next = (data_sn + 1, end);
        Some(Pdu::DataOut(DataOut {
            final_pdu: end == stop,
            lun: 0,
            itt,
            ttt,
            exp_stat_sn,
            data_sn,
            buffer_offset: u32::try_from(off).unwrap_or(u32::MAX),
            data: data.slice(off..end),
        }))
    })
}

/// The SCSI Response that ends a command with `status`.
pub fn status_response(itt: u32, status: ScsiStatus) -> Pdu {
    Pdu::ScsiResponse(ScsiResponse {
        itt,
        response: 0,
        status,
        stat_sn: 0,
        exp_cmd_sn: 0,
        max_cmd_sn: 0,
        residual: 0,
        data: Bytes::new(),
    })
}

/// One connection's open commands by initiator task tag.
#[derive(Debug, Default)]
pub struct Exchange {
    open: IdMap<u32, BlockCmd, RandomState>,
}

impl Exchange {
    /// Commands currently open.
    pub fn len(&self) -> usize {
        self.open.len()
    }

    /// Whether no command is open.
    pub fn is_empty(&self) -> bool {
        self.open.is_empty()
    }

    /// Opens `cmd` under `itt`, replacing whatever the tag held.
    pub fn begin(&mut self, itt: u32, cmd: BlockCmd) {
        self.open.insert(itt, cmd);
    }

    /// The command open under `itt`, if it is an `op`.
    pub fn open(&self, itt: u32, op: BlockOp) -> Option<BlockCmd> {
        self.open.get(&itt).copied().filter(|c| c.op == op)
    }

    /// Retires whatever `itt` held.
    pub fn retire(&mut self, itt: u32) -> Option<BlockCmd> {
        self.open.remove(&itt)
    }

    /// Classifies `pdu`, with the open command it belongs to (write and
    /// read data of a tag that is not open as such have none), and keeps
    /// the table current: a servable command opens its tag; the final
    /// Data-In with status, or a SCSI Response, retires it.
    pub fn observe(&mut self, pdu: &Pdu) -> (Step, Option<BlockCmd>) {
        match pdu {
            Pdu::ScsiCommand(c) => match parse_command(c, u64::MAX) {
                Ok(cmd) => {
                    self.begin(c.itt, cmd);
                    (Step::Command, Some(cmd))
                }
                Err(_) => {
                    self.retire(c.itt);
                    (Step::Other, None)
                }
            },
            Pdu::DataOut(d) => (
                Step::WriteData(d.buffer_offset),
                self.open(d.itt, BlockOp::Write),
            ),
            Pdu::DataIn(d) => {
                let cmd = self.open(d.itt, BlockOp::Read);
                if cmd.is_some() && d.final_pdu && d.status_present {
                    self.retire(d.itt);
                }
                (Step::ReadData(d.buffer_offset), cmd)
            }
            Pdu::ScsiResponse(r) => (Step::Status(r.status), self.retire(r.itt)),
            _ => (Step::Other, None),
        }
    }

    /// [`Exchange::observe`] for a consumer that sees only the 48-byte
    /// header (the passive tap walks payload bytes it cannot hold).
    pub fn observe_header(&mut self, bhs: &[u8]) -> (Step, Option<BlockCmd>) {
        Pdu::decode(bhs, Bytes::new()).map_or((Step::Other, None), |pdu| self.observe(&pdu))
    }
}
