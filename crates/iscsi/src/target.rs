//! The sans-io iSCSI target connection (the Cinder/LIO equivalent).
//!
//! Storage timing stays with the caller: the machine emits
//! [`TargetEvent::ReadReady`]/[`TargetEvent::WriteReady`] and the hosting
//! application completes them (after its simulated disk latency) with
//! [`TargetConn::complete_read`]/[`TargetConn::complete_write`].

use std::collections::HashMap;

use bytes::Bytes;

use crate::cdb::{Cdb, ScsiStatus};
use crate::exchange::{data_in_train, status_response, BlockCmd, BlockOp, CmdReject, Transfer};
use crate::iqn::Iqn;
use crate::params::{decode_text, encode_text, SessionParams};
use crate::pdu::{LoginResponse, LogoutResponse, NopIn, Pdu, PduError};
use crate::stream::{PduStream, WireBuf};

/// Standard INQUIRY data: direct-access block device, SPC-4, 31 more
/// bytes of vendor / product / revision.
const INQUIRY: &[u8; 36] = b"\x00\x00\x06\x00\x1f\x00\x00\x00STORM   VIRTUAL VOLUME  0001";

/// Target-side configuration.
#[derive(Debug, Clone)]
pub struct TargetConfig {
    /// This target's name.
    pub target_iqn: Iqn,
    /// Offered session parameters.
    pub params: SessionParams,
    /// Exported LUN capacity in 512-byte sectors.
    pub num_sectors: u64,
    /// Session handle to assign at login.
    pub tsih: u16,
}

impl TargetConfig {
    /// A ready-to-use example configuration exporting `num_sectors`.
    pub fn example(num_sectors: u64) -> Self {
        TargetConfig {
            target_iqn: Iqn::for_volume(1),
            params: SessionParams::default(),
            num_sectors,
            tsih: 1,
        }
    }
}

/// Events surfaced to the application hosting the target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetEvent {
    /// Login completed; the connection is in full-feature phase.
    LoggedIn {
        /// The initiator's IQN (connection attribution reads this).
        initiator_name: String,
    },
    /// A read command wants `sectors` sectors at `lba`; answer with
    /// [`TargetConn::complete_read`].
    ReadReady {
        /// Task tag to echo back.
        itt: u32,
        /// First sector.
        lba: u64,
        /// Sector count.
        sectors: u32,
    },
    /// A write command's data is fully assembled; answer with
    /// [`TargetConn::complete_write`].
    WriteReady {
        /// Task tag to echo back.
        itt: u32,
        /// First sector.
        lba: u64,
        /// The complete write payload.
        data: Bytes,
    },
    /// A flush command arrived; answer with [`TargetConn::complete_flush`].
    FlushReady {
        /// Task tag to echo back.
        itt: u32,
    },
    /// The initiator logged out.
    LoggedOut,
    /// Protocol violation; drop the connection.
    ProtocolError(String),
}

/// One target-side connection state machine.
#[derive(Debug)]
pub struct TargetConn {
    cfg: TargetConfig,
    params: SessionParams,
    stream: PduStream,
    out: WireBuf,
    stat_sn: u32,
    exp_cmd_sn: u32,
    logged_in: bool,
    /// Incomplete writes: first sector and the data assembled so far.
    writes: HashMap<u32, (u64, Transfer)>,
    reads: HashMap<u32, ()>,
    next_ttt: u32,
    outstanding: usize,
    peak: usize,
}

impl TargetConn {
    /// Creates a connection awaiting login.
    pub fn new(cfg: TargetConfig) -> Self {
        let params = cfg.params.clone();
        TargetConn {
            cfg,
            params,
            stream: PduStream::new(),
            out: WireBuf::new(),
            stat_sn: 1,
            exp_cmd_sn: 1,
            logged_in: false,
            writes: HashMap::new(),
            reads: HashMap::new(),
            next_ttt: 1,
            outstanding: 0,
            peak: 0,
        }
    }

    /// Commands surfaced to the hosting app but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.outstanding
    }

    /// High-water mark of [`TargetConn::in_flight`] (queue occupancy).
    pub fn occupancy_peak(&self) -> usize {
        self.peak
    }

    fn note_ready(&mut self) {
        self.outstanding += 1;
        self.peak = self.peak.max(self.outstanding);
    }

    /// The negotiated session parameters.
    pub fn params(&self) -> &SessionParams {
        &self.params
    }

    /// Whether login completed.
    pub fn is_logged_in(&self) -> bool {
        self.logged_in
    }

    /// Drains bytes to put on the wire (flat copy; see
    /// [`TargetConn::take_wire`] for the zero-copy chunk form).
    pub fn take_output(&mut self) -> Vec<u8> {
        self.out.take_output()
    }

    /// Drains the queued wire bytes as refcounted chunks: Data-In
    /// payloads are views of the disk read buffer, not copies.
    pub fn take_wire(&mut self) -> Vec<bytes::Bytes> {
        self.out.take_chunks()
    }

    /// Whether any output bytes are queued.
    pub fn has_output(&self) -> bool {
        !self.out.is_empty()
    }

    /// Data-segment bytes memcpy'd on the encode path (small segments
    /// batched into scratch allocations).
    pub fn bytes_copied(&self) -> u64 {
        self.out.bytes_copied()
    }

    fn bump_stat_sn(&mut self) -> u32 {
        let sn = self.stat_sn;
        self.stat_sn = self.stat_sn.wrapping_add(1);
        sn
    }

    /// Feeds received bytes (copied into the reassembler; see
    /// [`TargetConn::feed_bytes`]); returns events for the hosting app.
    pub fn feed(&mut self, bytes: &[u8]) -> Vec<TargetEvent> {
        let pdus = self.stream.feed(bytes);
        self.handle_all(pdus)
    }

    /// Feeds a received chunk by reference (no copy into the
    /// reassembler); returns events for the hosting app.
    pub fn feed_bytes(&mut self, bytes: Bytes) -> Vec<TargetEvent> {
        let pdus = self.stream.feed_bytes(bytes);
        self.handle_all(pdus.map(|pdus| pdus.into_iter().map(|pw| pw.pdu)))
    }

    fn handle_all(
        &mut self,
        pdus: Result<impl IntoIterator<Item = Pdu>, PduError>,
    ) -> Vec<TargetEvent> {
        let mut events = Vec::new();
        match pdus {
            Ok(pdus) => pdus.into_iter().for_each(|p| self.handle(p, &mut events)),
            Err(e) => events.push(TargetEvent::ProtocolError(e.to_string())),
        }
        events
    }

    fn handle(&mut self, pdu: Pdu, events: &mut Vec<TargetEvent>) {
        match pdu {
            Pdu::LoginRequest(r) => {
                let peer = decode_text(&r.data);
                self.params = self.cfg.params.negotiate(&peer);
                self.exp_cmd_sn = r.cmd_sn.wrapping_add(1);
                let initiator_name = peer.get("InitiatorName").cloned().unwrap_or_default();
                let mut keys = self.cfg.params.to_keys();
                keys.insert("TargetPortalGroupTag".into(), "1".into());
                let resp = Pdu::LoginResponse(LoginResponse {
                    transit: true,
                    csg: 1,
                    nsg: 3,
                    isid: r.isid,
                    tsih: self.cfg.tsih,
                    itt: r.itt,
                    stat_sn: self.bump_stat_sn(),
                    exp_cmd_sn: self.exp_cmd_sn,
                    max_cmd_sn: self.exp_cmd_sn.wrapping_add(64),
                    status_class: 0,
                    status_detail: 0,
                    data: encode_text(&keys).into(),
                });
                self.out.push_pdu(&resp);
                self.logged_in = true;
                events.push(TargetEvent::LoggedIn { initiator_name });
            }
            Pdu::ScsiCommand(c) => {
                self.exp_cmd_sn = c.cmd_sn.wrapping_add(1);
                let cmd = match BlockCmd::parse(&c, self.cfg.num_sectors) {
                    Ok(cmd) => cmd,
                    Err(CmdReject::NotBlockIo(cdb)) => {
                        let data = match cdb {
                            Cdb::Inquiry { alloc } => {
                                Bytes::from_static(&INQUIRY[..INQUIRY.len().min(alloc as usize)])
                            }
                            Cdb::ReadCapacity10 => {
                                let last = self.cfg.num_sectors.saturating_sub(1);
                                let [a, b, c, d] =
                                    u32::try_from(last).unwrap_or(u32::MAX).to_be_bytes();
                                Bytes::from(vec![a, b, c, d, 0, 0, 2, 0]) // 512-byte blocks
                            }
                            _ => return self.scsi_response(c.itt, ScsiStatus::Good), // TEST UNIT READY
                        };
                        return self.data_in_with_status(c.itt, data);
                    }
                    Err(reject) => {
                        self.scsi_response(c.itt, ScsiStatus::CheckCondition);
                        if let CmdReject::Opcode(op) = reject {
                            events.push(TargetEvent::ProtocolError(format!(
                                "unsupported cdb opcode {op:#04x}"
                            )));
                        }
                        return;
                    }
                };
                let BlockCmd { lba, sectors, .. } = cmd;
                match cmd.op {
                    BlockOp::Read => {
                        // `complete_read` asserts the tag is outstanding, so
                        // a reused tag must be refused here, not found there.
                        if self.reads.insert(c.itt, ()).is_some() {
                            events.push(TargetEvent::ProtocolError(format!(
                                "read reuses outstanding itt {}",
                                c.itt
                            )));
                            return;
                        }
                        self.note_ready();
                        let itt = c.itt;
                        events.push(TargetEvent::ReadReady { itt, lba, sectors });
                    }
                    BlockOp::Write => {
                        let mut xfer = Transfer::new(cmd.bytes() as usize);
                        // Immediate data beyond the buffer is dropped.
                        let _ = xfer.absorb(0, &c.data);
                        if xfer.is_complete() {
                            self.write_ready(c.itt, lba, xfer, events);
                        } else {
                            self.request_data(c.itt, &mut xfer);
                            self.writes.insert(c.itt, (lba, xfer));
                        }
                    }
                    BlockOp::Flush => {
                        self.note_ready();
                        events.push(TargetEvent::FlushReady { itt: c.itt });
                    }
                }
            }
            Pdu::DataOut(d) => {
                let Some((lba, mut xfer)) = self.writes.remove(&d.itt) else {
                    events.push(TargetEvent::ProtocolError(format!(
                        "data-out for unknown itt {}",
                        d.itt
                    )));
                    return;
                };
                if xfer.absorb(d.buffer_offset, &d.data).is_err() {
                    let itt = d.itt;
                    events.push(TargetEvent::ProtocolError(format!(
                        "data-out for itt {itt} overruns its buffer"
                    )));
                } else if d.final_pdu && xfer.is_complete() {
                    return self.write_ready(d.itt, lba, xfer, events);
                } else if d.final_pdu {
                    // The burst is in; solicit the next one.
                    self.request_data(d.itt, &mut xfer);
                }
                self.writes.insert(d.itt, (lba, xfer));
            }
            Pdu::NopOut(n) => {
                if n.itt != 0xFFFF_FFFF {
                    let pong = Pdu::NopIn(NopIn {
                        itt: n.itt,
                        ttt: 0xFFFF_FFFF,
                        stat_sn: self.stat_sn,
                        exp_cmd_sn: self.exp_cmd_sn,
                        max_cmd_sn: self.exp_cmd_sn.wrapping_add(64),
                        data: n.data,
                    });
                    self.out.push_pdu(&pong);
                }
            }
            Pdu::LogoutRequest(r) => {
                let resp = Pdu::LogoutResponse(LogoutResponse {
                    response: 0,
                    itt: r.itt,
                    stat_sn: self.bump_stat_sn(),
                    exp_cmd_sn: self.exp_cmd_sn,
                    max_cmd_sn: self.exp_cmd_sn.wrapping_add(64),
                });
                self.out.push_pdu(&resp);
                self.logged_in = false;
                events.push(TargetEvent::LoggedOut);
            }
            other => events.push(TargetEvent::ProtocolError(format!(
                "unexpected pdu at target: {other:?}"
            ))),
        }
    }

    /// Queues a PDU built by [`crate::exchange`], stamped with this
    /// connection's sequence numbers.
    fn send(&mut self, mut pdu: Pdu) {
        let max_cmd_sn = self.exp_cmd_sn.wrapping_add(64);
        let sn = (self.stat_sn, self.exp_cmd_sn, max_cmd_sn);
        match &mut pdu {
            Pdu::DataIn(p) => (p.stat_sn, p.exp_cmd_sn, p.max_cmd_sn) = sn,
            Pdu::ScsiResponse(p) => (p.stat_sn, p.exp_cmd_sn, p.max_cmd_sn) = sn,
            Pdu::R2t(p) => (p.stat_sn, p.exp_cmd_sn, p.max_cmd_sn) = sn,
            _ => {}
        }
        self.out.push_pdu(&pdu);
    }

    fn write_ready(&mut self, itt: u32, lba: u64, xfer: Transfer, events: &mut Vec<TargetEvent>) {
        self.note_ready();
        let data = xfer.into_bytes();
        events.push(TargetEvent::WriteReady { itt, lba, data });
    }

    /// Solicits the next burst of an incomplete write with an R2T, once
    /// the data the initiator pushes unasked (immediate + first burst;
    /// none beyond immediate under InitialR2T) is in.
    fn request_data(&mut self, itt: u32, xfer: &mut Transfer) {
        let first_burst = match self.params.initial_r2t {
            true => 0,
            false => self.params.first_burst_length as usize,
        };
        let max_burst = self.params.max_burst_length as usize;
        if let Some(mut r2t) = xfer.next_r2t(itt, first_burst, max_burst) {
            r2t.ttt = self.next_ttt;
            self.next_ttt = self.next_ttt.wrapping_add(1);
            self.send(Pdu::R2t(r2t));
        }
    }

    fn scsi_response(&mut self, itt: u32, status: ScsiStatus) {
        self.send(status_response(itt, status));
        self.bump_stat_sn();
    }

    /// Sends read payload as Data-In PDUs with phase-collapsed status on
    /// the final one.
    fn data_in_with_status(&mut self, itt: u32, data: Bytes) {
        let mrdsl = self.params.max_recv_data_segment_length as usize;
        for pdu in data_in_train(itt, data, mrdsl) {
            self.send(pdu);
        }
        self.bump_stat_sn();
    }

    /// Completes a read surfaced by [`TargetEvent::ReadReady`].
    ///
    /// # Panics
    ///
    /// Panics if `itt` is not an outstanding read.
    pub fn complete_read(&mut self, itt: u32, data: Bytes, status: ScsiStatus) {
        assert!(self.reads.remove(&itt).is_some(), "unknown read itt {itt}");
        self.outstanding = self.outstanding.saturating_sub(1);
        if status == ScsiStatus::Good {
            self.data_in_with_status(itt, data);
        } else {
            self.scsi_response(itt, status);
        }
    }

    /// Completes a write surfaced by [`TargetEvent::WriteReady`].
    pub fn complete_write(&mut self, itt: u32, status: ScsiStatus) {
        self.outstanding = self.outstanding.saturating_sub(1);
        self.scsi_response(itt, status);
    }

    /// Completes a flush surfaced by [`TargetEvent::FlushReady`].
    pub fn complete_flush(&mut self, itt: u32, status: ScsiStatus) {
        self.outstanding = self.outstanding.saturating_sub(1);
        self.scsi_response(itt, status);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initiator::{Initiator, InitiatorConfig};
    use crate::transport::TransportEvent;

    #[test]
    fn login_reports_initiator_name_for_attribution() {
        let mut ini = Initiator::new(InitiatorConfig::example());
        let mut tgt = TargetConn::new(TargetConfig::example(1024));
        ini.start_login();
        let evs = tgt.feed(&ini.take_output());
        match &evs[0] {
            TargetEvent::LoggedIn { initiator_name } => {
                assert_eq!(
                    initiator_name,
                    InitiatorConfig::example().initiator_iqn.as_str()
                );
            }
            other => panic!("expected login, got {other:?}"),
        }
        assert!(tgt.is_logged_in());
        let evs = ini.feed(&tgt.take_output());
        assert!(evs.contains(&TransportEvent::Ready));
    }

    #[test]
    fn out_of_range_io_returns_check_condition() {
        let mut ini = Initiator::new(InitiatorConfig::example());
        let mut tgt = TargetConn::new(TargetConfig::example(8));
        ini.start_login();
        let _ = tgt.feed(&ini.take_output());
        let _ = ini.feed(&tgt.take_output());
        let tag = ini.read(100, 4);
        let _ = tgt.feed(&ini.take_output());
        let evs = ini.feed(&tgt.take_output());
        assert!(evs.iter().any(|e| matches!(
            e,
            TransportEvent::ReadDone { tag: t, status: ScsiStatus::CheckCondition, .. }
            if *t == tag
        )));
    }

    #[test]
    fn read_reusing_an_outstanding_itt_is_a_protocol_error() {
        let mut ini = Initiator::new(InitiatorConfig::example());
        let mut tgt = TargetConn::new(TargetConfig::example(64));
        ini.start_login();
        let _ = tgt.feed(&ini.take_output());
        let cmd = BlockCmd {
            op: BlockOp::Read,
            lba: 0,
            sectors: 1,
        };
        let read = |cmd_sn| cmd.command(9, cmd_sn, 2, Bytes::new()).encode();
        let evs = tgt.feed(&read(2));
        assert!(matches!(evs[..], [TargetEvent::ReadReady { itt: 9, .. }]));
        let evs = tgt.feed(&read(3));
        assert!(
            matches!(evs[..], [TargetEvent::ProtocolError(_)]),
            "{evs:?}"
        );
        // The first read is still the one outstanding command.
        assert_eq!(tgt.in_flight(), 1);
        tgt.complete_read(9, Bytes::from(vec![0u8; 512]), ScsiStatus::Good);
    }

    /// Tenant-controlled CDB fields must not reach unchecked arithmetic:
    /// `lba + sectors` wraps for READ(16) at the top of the LBA space.
    #[test]
    fn hostile_cdb_fields_get_check_condition_and_keep_the_connection() {
        let mut ini = Initiator::new(InitiatorConfig::example());
        let mut tgt = TargetConn::new(TargetConfig::example(64));
        ini.start_login();
        let _ = tgt.feed(&ini.take_output());
        let _ = tgt.take_output();
        let hostile = [
            (BlockOp::Read, u64::MAX, 1),
            (BlockOp::Write, u64::MAX - 3, 8),
            (BlockOp::Read, 0, 0x0080_0000),
            (BlockOp::Read, 0, u32::MAX),
        ];
        for (n, (op, lba, sectors)) in (2u32..).zip(hostile) {
            let cmd = BlockCmd { op, lba, sectors };
            let evs = tgt.feed(&cmd.command(n, n, 2, Bytes::new()).encode());
            assert!(evs.is_empty(), "{cmd:?}: {evs:?}");
            let out = PduStream::new().feed(&tgt.take_output()).unwrap();
            assert!(
                matches!(&out[..], [Pdu::ScsiResponse(r)]
                    if r.itt == n && r.status == ScsiStatus::CheckCondition),
                "{cmd:?}: {out:?}"
            );
        }
        assert_eq!(tgt.in_flight(), 0);
        // The connection still serves a valid command.
        let ok = BlockCmd {
            op: BlockOp::Read,
            lba: 0,
            sectors: 1,
        };
        let evs = tgt.feed(&ok.command(9, 9, 2, Bytes::new()).encode());
        assert!(matches!(evs[..], [TargetEvent::ReadReady { itt: 9, .. }]));
    }

    #[test]
    fn nop_ping_pong() {
        let mut tgt = TargetConn::new(TargetConfig::example(8));
        let ping = Pdu::NopOut(crate::pdu::NopOut {
            itt: 55,
            ttt: 0xFFFF_FFFF,
            cmd_sn: 1,
            exp_stat_sn: 1,
            data: Bytes::from_static(b"hb"),
        });
        let evs = tgt.feed(&ping.encode());
        assert!(evs.is_empty());
        let out = tgt.take_output();
        let mut stream = PduStream::new();
        let pdus = stream.feed(&out).unwrap();
        match &pdus[0] {
            Pdu::NopIn(n) => {
                assert_eq!(n.itt, 55);
                assert_eq!(&n.data[..], b"hb");
            }
            other => panic!("expected nop-in, got {other:?}"),
        }
    }

    #[test]
    fn inquiry_and_read_capacity() {
        let mut ini = Initiator::new(InitiatorConfig::example());
        let mut tgt = TargetConn::new(TargetConfig::example(2048));
        ini.start_login();
        let _ = tgt.feed(&ini.take_output());
        let _ = ini.feed(&tgt.take_output());
        // Drive a raw READ CAPACITY through the target.
        let cmd = Pdu::ScsiCommand(crate::pdu::ScsiCommand {
            immediate: false,
            final_pdu: true,
            read: true,
            write: false,
            lun: 0,
            itt: 99,
            edtl: 8,
            cmd_sn: 50,
            exp_stat_sn: 2,
            cdb: Cdb::ReadCapacity10.to_bytes(),
            data: Bytes::new(),
        });
        let evs = tgt.feed(&cmd.encode());
        assert!(evs.is_empty(), "capacity served internally: {evs:?}");
        let out = tgt.take_output();
        let pdus = PduStream::new().feed(&out).unwrap();
        match &pdus[0] {
            Pdu::DataIn(d) => {
                assert!(d.status_present);
                let last_lba = u32::from_be_bytes(d.data[0..4].try_into().unwrap());
                let block = u32::from_be_bytes(d.data[4..8].try_into().unwrap());
                assert_eq!(last_lba, 2047);
                assert_eq!(block, 512);
            }
            other => panic!("expected data-in, got {other:?}"),
        }
    }
}
