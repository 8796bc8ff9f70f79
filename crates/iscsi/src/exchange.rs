//! The exchange model: how one command conversation maps to block I/O,
//! known in one place and shared by both endpoints, the nvmeq target, the
//! relay's edge codec and every middle-box service.
//!
//! * [`BlockCmd`] is a protocol-neutral read/write/flush. Tenant bytes
//!   become one only through [`BlockCmd::parse`] (or [`BlockCmd::checked`]
//!   for a transport without CDBs), so nothing sizes a buffer or computes
//!   a range from a command that did not pass the checks.
//! * [`Transfer`] assembles a data phase by buffer offset and says which
//!   R2T comes next; the `data_*`, [`status_response`] and
//!   [`BlockCmd::command`] builders are the PDUs an exchange consists of.
//! * [`Exchange`] is a connection's table of open commands:
//!   [`Exchange::observe`] says what a PDU means at block level and
//!   retires the command on its status, wherever that arrives.
//! * [`Staging`] assembles the writes an observer needs whole, by tag.
//!
//! Policy stays with the caller. Endpoints use [`Transfer`] directly (an
//! overrun is a protocol error, a target completes a write only on a
//! final Data-Out); observers use [`Staging`] (clamp, complete once every
//! byte was seen).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use std::hash::RandomState;

use bytes::{Bytes, BytesMut};
use storm_sim::IdMap;

use crate::cdb::{Cdb, ScsiStatus};
use crate::pdu::{DataIn, DataOut, Pdu, R2t, ScsiCommand, ScsiResponse};

/// Largest transfer one command may ask for, in bytes: the largest data
/// segment either wire format carries (iSCSI's 24-bit length, nvmeq's
/// `MAX_PAYLOAD`). The biggest anything here issues is the 9 MiB write of
/// the relay's oversize-message tests; workloads stay at or below 1 MiB.
pub const MAX_TRANSFER: u64 = 16 << 20;

/// What a block command does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockOp {
    /// Read `sectors` sectors at `lba`.
    Read,
    /// Write `sectors` sectors at `lba`.
    Write,
    /// Flush/barrier; moves no data.
    Flush,
}

/// A block command in 512-byte sectors. A literal is for encoding a
/// command the caller itself issues; every method is total either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCmd {
    /// The operation.
    pub op: BlockOp,
    /// First sector (zero for flush).
    pub lba: u64,
    /// Sector count (zero for flush).
    pub sectors: u32,
}

/// Why a command is not a servable [`BlockCmd`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdReject {
    /// CDB opcode outside the supported subset.
    Opcode(u8),
    /// Valid, but moves no block data (TEST UNIT READY, INQUIRY, READ
    /// CAPACITY): targets answer it themselves.
    NotBlockIo(Cdb),
    /// Length disagrees with the CDB or exceeds [`MAX_TRANSFER`], or the
    /// sector range overflows or passes the end of the volume.
    Invalid,
}

impl BlockCmd {
    /// Checks a command against [`MAX_TRANSFER`] and a volume of
    /// `capacity` sectors (`u64::MAX` when the caller does not know it).
    ///
    /// # Errors
    ///
    /// [`CmdReject::Invalid`].
    pub fn checked(
        op: BlockOp,
        lba: u64,
        sectors: u32,
        capacity: u64,
    ) -> Result<BlockCmd, CmdReject> {
        let cmd = BlockCmd { op, lba, sectors };
        match lba.checked_add(sectors as u64) {
            Some(end) if end <= capacity && cmd.bytes() <= MAX_TRANSFER => Ok(cmd),
            _ => Err(CmdReject::Invalid),
        }
    }

    /// The one checked constructor from a SCSI Command PDU: CDB decode,
    /// [`BlockCmd::checked`], and `sectors × 512 == edtl`.
    ///
    /// # Errors
    ///
    /// See [`CmdReject`].
    pub fn parse(c: &ScsiCommand, capacity: u64) -> Result<BlockCmd, CmdReject> {
        let (op, lba, sectors) = match Cdb::parse(&c.cdb).map_err(CmdReject::Opcode)? {
            Cdb::Read { lba, sectors } => (BlockOp::Read, lba, sectors),
            Cdb::Write { lba, sectors } => (BlockOp::Write, lba, sectors),
            Cdb::SynchronizeCache => (BlockOp::Flush, 0, 0),
            other => return Err(CmdReject::NotBlockIo(other)),
        };
        let cmd = BlockCmd::checked(op, lba, sectors, capacity)?;
        if cmd.bytes() != c.edtl as u64 {
            return Err(CmdReject::Invalid);
        }
        Ok(cmd)
    }

    /// Bytes the command transfers.
    pub fn bytes(&self) -> u64 {
        self.sectors as u64 * 512
    }

    /// Volume byte position of the byte `buffer_offset` into this
    /// command's data; `None` when that overflows.
    pub fn volume_offset(&self, buffer_offset: u32) -> Option<u64> {
        self.lba.checked_mul(512)?.checked_add(buffer_offset as u64)
    }

    /// The SCSI Command PDU for this command, `data` riding as immediate
    /// data. The length field saturates, so a command too large for it
    /// encodes as one [`BlockCmd::parse`] refuses.
    pub fn command(&self, itt: u32, cmd_sn: u32, exp_stat_sn: u32, data: Bytes) -> Pdu {
        let (lba, sectors) = (self.lba, self.sectors);
        let cdb = match self.op {
            BlockOp::Read => Cdb::Read { lba, sectors },
            BlockOp::Write => Cdb::Write { lba, sectors },
            BlockOp::Flush => Cdb::SynchronizeCache,
        };
        Pdu::ScsiCommand(ScsiCommand {
            immediate: false,
            final_pdu: true,
            read: self.op == BlockOp::Read,
            write: self.op == BlockOp::Write,
            lun: 0,
            itt,
            edtl: u32::try_from(self.bytes()).unwrap_or(u32::MAX),
            cmd_sn,
            exp_stat_sn,
            cdb: cdb.to_bytes(),
            data,
        })
    }
}

/// Data fell outside a [`Transfer`]'s buffer (the part inside was kept).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overrun;

/// Assembles one command's data phase by buffer offset.
#[derive(Debug)]
pub struct Transfer {
    buf: BytesMut,
    received: usize,
    r2ts: u32,
    /// End of the data the last R2T asked for.
    asked: usize,
}

impl Transfer {
    /// Starts a transfer of `expected` bytes — a checked command's
    /// [`BlockCmd::bytes`], never a bare length field.
    pub fn new(expected: usize) -> Transfer {
        Transfer {
            buf: BytesMut::zeroed(expected),
            received: 0,
            r2ts: 0,
            asked: 0,
        }
    }

    /// Whether every expected byte has arrived (overlaps count twice).
    pub fn is_complete(&self) -> bool {
        self.received >= self.buf.len()
    }

    /// Places `data` at `offset`, clamped to the buffer.
    ///
    /// # Errors
    ///
    /// [`Overrun`] when some of `data` fell outside. Endpoints treat that
    /// as a protocol error; observers ignore it.
    pub fn absorb(&mut self, offset: u32, data: &[u8]) -> Result<(), Overrun> {
        let start = (offset as usize).min(self.buf.len());
        let take = data.len().min(self.buf.len() - start);
        #[expect(
            clippy::disallowed_methods,
            reason = "the one reassembly copy of a segmented data phase; single-PDU payloads never reach it."
        )]
        self.buf[start..start + take].copy_from_slice(&data[..take]);
        self.received += take;
        if take < data.len() {
            return Err(Overrun);
        }
        Ok(())
    }

    /// The assembled bytes.
    pub fn into_bytes(self) -> Bytes {
        self.buf.freeze()
    }

    /// Whether every byte the last R2T asked for is in (always, before
    /// the first): an observer that solicits data itself asks for the
    /// next burst then, where a target waits for the burst's final
    /// Data-Out.
    pub fn burst_done(&self) -> bool {
        self.received >= self.asked
    }

    /// The next burst to ask for, as `(r2t_sn, buffer_offset, length)`:
    /// everything still missing, capped at `max_burst`, once the
    /// `first_burst` bytes the initiator sends unasked are in. `r2t_sn`
    /// counts this transfer's requests from zero.
    pub fn next_burst(&mut self, first_burst: usize, max_burst: usize) -> Option<(u32, u32, u32)> {
        if self.is_complete() || self.received < first_burst {
            return None;
        }
        let missing = (self.buf.len() - self.received).min(max_burst);
        self.r2ts += 1;
        self.asked = self.received + missing;
        let field = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        Some((self.r2ts - 1, field(self.received), field(missing)))
    }
}

/// The R2T asking for `len` bytes at buffer offset `offset` of command
/// `itt` ([`Transfer::next_burst`]), the command's `r2t_sn`-th, under
/// transfer tag `ttt`.
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

/// A successful read's answer as Data-In PDUs of at most `max_segment`
/// bytes, status collapsed into the last (an empty payload is one PDU).
pub fn data_in_train(itt: u32, data: Bytes, max_segment: usize) -> impl Iterator<Item = Pdu> {
    let mut next = Some((0u32, 0usize));
    std::iter::from_fn(move || {
        let (data_sn, off) = next?;
        let end = off.saturating_add(max_segment.max(1)).min(data.len());
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

/// What a PDU, or a block op, is at block level; the command it belongs
/// to travels beside it (see [`Exchange::observe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A block command; its write data, if any, rides with it at offset 0.
    Command,
    /// Write data at this offset into its command's data.
    WriteData(u32),
    /// Read data at this offset.
    ReadData(u32),
    /// The command's status.
    Status(ScsiStatus),
    /// Anything else: session PDUs, a command [`BlockCmd::parse`] refused
    /// (which opens nothing).
    Other,
}

impl Step {
    /// Where on the volume the data starts, when it is block data of
    /// `cmd` and the position does not overflow.
    pub fn volume_offset(self, cmd: Option<BlockCmd>) -> Option<u64> {
        match self {
            Step::Command => cmd?.volume_offset(0),
            Step::WriteData(at) | Step::ReadData(at) => cmd?.volume_offset(at),
            Step::Status(_) | Step::Other => None,
        }
    }
}

/// Outcome of feeding write data to a [`Staging`].
#[derive(Debug)]
pub enum Staged<'a> {
    /// No write is staged under that task tag.
    Untracked,
    /// Bytes are still missing.
    Partial(&'a mut Transfer),
    /// Every byte has been seen; the write is retired.
    Complete(BlockCmd, Bytes),
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
            Pdu::ScsiCommand(c) => match BlockCmd::parse(c, u64::MAX) {
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

/// Observer-side write assembly: the writes an observer needs whole (to
/// mirror, classify or journal them), by initiator task tag.
#[derive(Debug, Default)]
pub struct Staging {
    open: IdMap<u32, (BlockCmd, Transfer), RandomState>,
}

impl Staging {
    /// Feeds one op of a command's traffic: a write command opens its
    /// write, seeded with its immediate data (a view of it, with nothing
    /// left open, if that covers the write); write data fills it in,
    /// clamped to its buffer; any other command or a status on the tag
    /// drops it. A write completes, and is retired, once every byte has
    /// been seen.
    pub fn feed(
        &mut self,
        itt: u32,
        step: Step,
        cmd: Option<BlockCmd>,
        data: &Bytes,
    ) -> Staged<'_> {
        match (step, cmd) {
            (Step::Command, Some(cmd)) if cmd.op == BlockOp::Write => {
                let expected = cmd.bytes() as usize;
                if data.len() >= expected {
                    self.open.remove(&itt);
                    return Staged::Complete(cmd, data.slice(..expected));
                }
                let mut xfer = Transfer::new(expected);
                let _ = xfer.absorb(0, data);
                self.open.insert(itt, (cmd, xfer));
            }
            (Step::WriteData(at), _) => {
                let done = self.open.get_mut(&itt).is_some_and(|(_, xfer)| {
                    let _ = xfer.absorb(at, data);
                    xfer.is_complete()
                });
                if let Some((cmd, xfer)) = done.then(|| self.open.remove(&itt)).flatten() {
                    return Staged::Complete(cmd, xfer.into_bytes());
                }
            }
            (Step::Command | Step::Status(_), _) => _ = self.open.remove(&itt),
            _ => {}
        }
        match self.open.get_mut(&itt) {
            Some((_, xfer)) => Staged::Partial(xfer),
            None => Staged::Untracked,
        }
    }
}
