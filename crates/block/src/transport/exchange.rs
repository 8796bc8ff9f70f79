//! The block half of the exchange model: how one command conversation
//! maps to block I/O, whatever wire protocol carries it. Tenant bytes
//! become a [`BlockCmd`] only through [`BlockCmd::checked`] (which each
//! protocol's decoder ends in), so nothing sizes a buffer or computes a
//! range from a command that did not pass the checks. Endpoints assemble
//! a data phase with a [`Transfer`] (an overrun is a protocol error);
//! observers with a [`Staging`] (clamp, complete once every byte was seen).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use std::hash::RandomState;

use bytes::{Bytes, BytesMut};
use storm_sim::IdMap;

use super::ScsiStatus;

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
    /// Opcode outside the block I/O subset (read, write, flush); a
    /// command that moves no block data, such as INQUIRY, is one too.
    Opcode(u8),
    /// Length disagrees with the command or exceeds [`MAX_TRANSFER`], or
    /// the sector range overflows or passes the end of the volume.
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

    /// Bytes the command transfers.
    pub fn bytes(&self) -> u64 {
        self.sectors as u64 * 512
    }

    /// Volume byte position of the byte `buffer_offset` into this
    /// command's data; `None` when that overflows.
    pub fn volume_offset(&self, buffer_offset: u32) -> Option<u64> {
        self.lba.checked_mul(512)?.checked_add(buffer_offset as u64)
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

    /// Starts a transfer of `expected` bytes seeded at offset 0 with
    /// `first`, a command's immediate data (bytes beyond the buffer are
    /// dropped): `Ok` with a view of `first` when that covers the
    /// transfer, so nothing is assembled, else `Err` with the started
    /// transfer.
    pub fn start(expected: usize, first: &Bytes) -> Result<Bytes, Transfer> {
        if first.len() >= expected {
            return Ok(first.slice(..expected));
        }
        let mut xfer = Transfer::new(expected);
        let _ = xfer.absorb(0, first);
        Err(xfer)
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
            reason = "the one reassembly copy of a segmented data phase (a write's, or a read's that spans several Data-Ins); a covered write takes `start`'s view instead, and a read one Data-In answers whole is handed on as it came."
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

/// What a PDU, or a block op, is at block level; the command it belongs
/// to travels beside it (see `storm_iscsi::exchange::Exchange::observe`).
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
    /// Anything else: session PDUs, a command the protocol's decoder
    /// refused (which opens nothing).
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

/// Observer-side write assembly: the writes an observer needs whole (to
/// mirror, classify or journal them), by tag: a relay op's, which names
/// its flow, or a bare initiator task tag.
#[derive(Debug, Default)]
pub struct Staging {
    open: IdMap<u64, (BlockCmd, Transfer), RandomState>,
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
        tag: u64,
        step: Step,
        cmd: Option<BlockCmd>,
        data: &Bytes,
    ) -> Staged<'_> {
        match (step, cmd) {
            (Step::Command, Some(cmd)) if cmd.op == BlockOp::Write => {
                match Transfer::start(cmd.bytes() as usize, data) {
                    Ok(whole) => {
                        self.open.remove(&tag);
                        return Staged::Complete(cmd, whole);
                    }
                    Err(xfer) => _ = self.open.insert(tag, (cmd, xfer)),
                }
            }
            (Step::WriteData(at), _) => {
                let done = self.open.get_mut(&tag).is_some_and(|(_, xfer)| {
                    let _ = xfer.absorb(at, data);
                    xfer.is_complete()
                });
                if let Some((cmd, xfer)) = done.then(|| self.open.remove(&tag)).flatten() {
                    return Staged::Complete(cmd, xfer.into_bytes());
                }
            }
            (Step::Command | Step::Status(_), _) => _ = self.open.remove(&tag),
            _ => {}
        }
        match self.open.get_mut(&tag) {
            Some((_, xfer)) => Staged::Partial(xfer),
            None => Staged::Untracked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `Transfer` against a plain `Vec` model: any `(offset, data)`
        /// sequence — overlapping, past the end, at `u32::MAX` — never panics,
        /// reports an overrun exactly when bytes fell outside the buffer, and
        /// assembles what the model (which keeps the in-range prefix) holds.
        #[test]
        fn transfer_matches_vec_model(
            expected in 0u32..2048,
            ops in prop::collection::vec((any::<u8>(), any::<u32>(), 0usize..600, any::<u8>()), 0..12),
        ) {
            let mut xfer = Transfer::new(expected as usize);
            let mut model = vec![0u8; expected as usize];
            let mut received = 0usize;
            for (kind, raw, len, fill) in ops {
                // Biased to the interesting places: inside the buffer,
                // around its end, and at the top of the field.
                let offset = match kind % 4 {
                    0 => raw % (expected + 1),
                    1 => expected.saturating_sub(8) + raw % 72,
                    2 => u32::MAX,
                    _ => u32::MAX - raw % 600,
                };
                let data = vec![fill; len];
                let start = (offset as usize).min(model.len());
                let take = len.min(model.len() - start);
                model[start..start + take].copy_from_slice(&data[..take]);
                received += take;
                let overrun = offset as u64 + len as u64 > expected as u64;
                prop_assert_eq!(xfer.absorb(offset, &data).is_err(), overrun);
                prop_assert_eq!(xfer.is_complete(), received >= model.len());
            }
            prop_assert_eq!(&xfer.into_bytes()[..], &model[..]);
        }
    }
}
