//! The sans-io iSCSI target connection (the Cinder/LIO equivalent).
//!
//! Storage timing stays with the caller: the machine emits
//! [`TargetEvent::ReadReady`]/[`TargetEvent::WriteReady`] and the hosting
//! application completes them (after its simulated disk latency) with
//! [`TargetConn::complete_read`]/[`TargetConn::complete_write`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use std::hash::RandomState;

use bytes::Bytes;
use storm_sim::IdMap;

use storm_block::transport::{
    scan_text, BlockCmd, BlockOp, CmdReject, Iqn, ScsiStatus, TargetEvent, TargetTransport,
    Transfer, TransportKind, WireBuf,
};

use crate::exchange::{data_in_train, parse_command, r2t, status_response};
use crate::params::{login_text, FIRST_BURST_LENGTH, MAX_BURST_LENGTH};
use crate::pdu::{LoginResponse, Pdu};
use crate::stream::{push_pdu, PduStream};

/// Target-side configuration.
#[derive(Debug, Clone)]
pub struct TargetConfig {
    /// This target's name.
    pub target_iqn: Iqn,
    /// Exported LUN capacity in 512-byte sectors.
    pub num_sectors: u64,
}

impl TargetConfig {
    /// A ready-to-use example configuration exporting `num_sectors`.
    pub fn example(num_sectors: u64) -> Self {
        TargetConfig {
            target_iqn: Iqn::for_volume(1),
            num_sectors,
        }
    }
}

/// One target-side connection state machine.
#[derive(Debug)]
pub struct TargetConn {
    cfg: TargetConfig,
    stream: PduStream,
    out: WireBuf,
    stat_sn: u32,
    exp_cmd_sn: u32,
    logged_in: bool,
    /// Incomplete writes: first sector and the data assembled so far.
    writes: IdMap<u32, (u64, Transfer), RandomState>,
    reads: IdMap<u32, (), RandomState>,
    next_ttt: u32,
    outstanding: usize,
}

impl TargetConn {
    /// Creates a connection awaiting login.
    pub fn new(cfg: TargetConfig) -> Self {
        TargetConn {
            cfg,
            stream: PduStream::new(),
            out: WireBuf::new(),
            stat_sn: 1,
            exp_cmd_sn: 1,
            logged_in: false,
            writes: IdMap::default(),
            reads: IdMap::default(),
            next_ttt: 1,
            outstanding: 0,
        }
    }

    /// Commands surfaced to the hosting app but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.outstanding
    }

    /// Whether login completed.
    pub fn is_logged_in(&self) -> bool {
        self.logged_in
    }

    /// Takes everything queued on [`TargetTransport::wire`] as
    /// refcounted chunks: Data-In payloads are views of the disk read
    /// buffer, not copies.
    pub fn take_wire(&mut self) -> Vec<Bytes> {
        self.out.take_wire(self.out.len()).unwrap_or_default()
    }

    fn bump_stat_sn(&mut self) -> u32 {
        let sn = self.stat_sn;
        self.stat_sn = self.stat_sn.wrapping_add(1);
        sn
    }

    /// Feeds a received chunk by reference (no copy into the
    /// reassembler); returns events for the hosting app.
    pub fn feed_bytes(&mut self, bytes: Bytes) -> Vec<TargetEvent> {
        let mut events = Vec::new();
        match self.stream.feed_bytes(bytes) {
            Ok(pdus) => pdus
                .into_iter()
                .for_each(|pw| self.handle(pw.pdu, &mut events)),
            Err(e) => events.push(TargetEvent::ProtocolError(e.to_string())),
        }
        events
    }

    fn handle(&mut self, pdu: Pdu, events: &mut Vec<TargetEvent>) {
        match pdu {
            Pdu::LoginRequest(r) => {
                self.exp_cmd_sn = r.cmd_sn.wrapping_add(1);
                // A login naming another target is refused with status
                // class 2 (initiator error), detail 3 (not found).
                let target_name = scan_text(&r.data, "TargetName");
                let found = target_name.as_deref() == Some(self.cfg.target_iqn.as_str());
                let (status_class, status_detail, data) = match found {
                    true => (0, 0, login_text(&[("TargetPortalGroupTag", "1")])),
                    false => (2, 3, Bytes::new()),
                };
                let resp = Pdu::LoginResponse(LoginResponse {
                    transit: found,
                    csg: 1,
                    nsg: 3,
                    isid: r.isid,
                    tsih: 1,
                    itt: r.itt,
                    stat_sn: self.bump_stat_sn(),
                    exp_cmd_sn: self.exp_cmd_sn,
                    max_cmd_sn: self.exp_cmd_sn.wrapping_add(64),
                    status_class,
                    status_detail,
                    data,
                });
                push_pdu(&mut self.out, &resp);
                if !found {
                    let error = format!("login for unknown target {target_name:?}");
                    return events.push(TargetEvent::ProtocolError(error));
                }
                self.logged_in = true;
                let initiator_name = scan_text(&r.data, "InitiatorName").unwrap_or_default();
                events.push(TargetEvent::LoggedIn { initiator_name });
            }
            Pdu::ScsiCommand(_) | Pdu::DataOut(_) if !self.logged_in => {
                events.push(TargetEvent::ProtocolError(format!(
                    "itt {} before login",
                    pdu.itt()
                )));
            }
            Pdu::ScsiCommand(c) => {
                self.exp_cmd_sn = c.cmd_sn.wrapping_add(1);
                let cmd = match parse_command(&c, self.cfg.num_sectors) {
                    Ok(cmd) => cmd,
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
                        self.outstanding += 1;
                        let itt = c.itt;
                        events.push(TargetEvent::ReadReady { itt, lba, sectors });
                    }
                    // Immediate data that covers the write is handed on
                    // as a view of the received PDU.
                    BlockOp::Write => match Transfer::start(cmd.bytes() as usize, &c.data) {
                        Ok(data) => self.write_ready(c.itt, lba, data, events),
                        Err(mut xfer) => {
                            self.request_data(c.itt, &mut xfer);
                            self.writes.insert(c.itt, (lba, xfer));
                        }
                    },
                    BlockOp::Flush => {
                        self.outstanding += 1;
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
                    return self.write_ready(d.itt, lba, xfer.into_bytes(), events);
                } else if d.final_pdu {
                    // The burst is in; solicit the next one.
                    self.request_data(d.itt, &mut xfer);
                }
                self.writes.insert(d.itt, (lba, xfer));
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
        push_pdu(&mut self.out, &pdu);
    }

    fn write_ready(&mut self, itt: u32, lba: u64, data: Bytes, events: &mut Vec<TargetEvent>) {
        self.outstanding += 1;
        events.push(TargetEvent::WriteReady { itt, lba, data });
    }

    /// Solicits the next burst of an incomplete write with an R2T, once
    /// the data the initiator pushes unasked (immediate + first burst) is
    /// in.
    fn request_data(&mut self, itt: u32, xfer: &mut Transfer) {
        if let Some((r2t_sn, offset, len)) = xfer.next_burst(FIRST_BURST_LENGTH, MAX_BURST_LENGTH) {
            let ttt = self.next_ttt;
            self.next_ttt = self.next_ttt.wrapping_add(1);
            self.send(Pdu::R2t(r2t(itt, r2t_sn, ttt, offset, len)));
        }
    }

    fn scsi_response(&mut self, itt: u32, status: ScsiStatus) {
        self.send(status_response(itt, status));
        self.bump_stat_sn();
    }

    /// Sends read payload as Data-In PDUs with phase-collapsed status on
    /// the final one.
    fn data_in_with_status(&mut self, itt: u32, data: Bytes) {
        for pdu in data_in_train(itt, data) {
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

impl TargetTransport for TargetConn {
    fn kind(&self) -> TransportKind {
        TransportKind::Iscsi
    }

    fn feed_bytes(&mut self, bytes: Bytes) -> Vec<TargetEvent> {
        TargetConn::feed_bytes(self, bytes)
    }

    fn complete_read(&mut self, _now_ns: u64, itt: u32, data: Bytes, status: ScsiStatus) {
        TargetConn::complete_read(self, itt, data, status);
    }

    fn complete_write(&mut self, _now_ns: u64, itt: u32, status: ScsiStatus) {
        TargetConn::complete_write(self, itt, status);
    }

    fn complete_flush(&mut self, _now_ns: u64, itt: u32, status: ScsiStatus) {
        TargetConn::complete_flush(self, itt, status);
    }

    fn wire(&mut self) -> &mut WireBuf {
        &mut self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::{data_out_train, scsi_command};
    use crate::initiator::{Initiator, InitiatorConfig};
    use crate::pdu::BHS_LEN;
    use storm_block::transport::{Transport, TransportEvent};

    /// A drained wire image as one chunk.
    fn flat(wire: Vec<Bytes>) -> Bytes {
        wire.concat().into()
    }

    /// The PDUs a drained wire image holds.
    fn decode(wire: Vec<Bytes>) -> Vec<Pdu> {
        let pdus = PduStream::new().feed_bytes(flat(wire)).unwrap();
        pdus.into_iter().map(|pw| pw.pdu).collect()
    }

    /// A connection exporting `num_sectors`, logged in by the example
    /// initiator, its Login Response drained.
    fn logged_in(num_sectors: u64) -> TargetConn {
        let mut ini = Initiator::new(InitiatorConfig::example());
        let mut tgt = TargetConn::new(TargetConfig::example(num_sectors));
        ini.start_login();
        let _ = tgt.feed_bytes(flat(ini.take_wire()));
        let _ = tgt.take_wire();
        tgt
    }

    #[test]
    fn login_reports_initiator_name_for_attribution() {
        let mut ini = Initiator::new(InitiatorConfig::example());
        let mut tgt = TargetConn::new(TargetConfig::example(1024));
        ini.start_login();
        let evs = tgt.feed_bytes(flat(ini.take_wire()));
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
        let evs = ini.feed_bytes(flat(tgt.take_wire()));
        assert!(evs.contains(&TransportEvent::Ready));
    }

    /// A login naming a volume this connection does not export is
    /// answered "not found" (class 2, detail 3) with a protocol error.
    #[test]
    fn login_to_another_target_is_refused() {
        let mut cfg = InitiatorConfig::example();
        cfg.target_iqn = Iqn::for_volume(2);
        let (mut ini, mut tgt) = (
            Initiator::new(cfg),
            TargetConn::new(TargetConfig::example(8)),
        );
        ini.start_login();
        let evs = tgt.feed_bytes(flat(ini.take_wire()));
        assert!(matches!(evs[..], [TargetEvent::ProtocolError(_)]) && !tgt.is_logged_in());
        let (class, detail) = (2, 3);
        let evs = ini.feed_bytes(flat(tgt.take_wire()));
        assert!(evs.contains(&TransportEvent::ConnectFailed { class, detail }));
    }

    #[test]
    fn out_of_range_io_returns_check_condition() {
        let mut ini = Initiator::new(InitiatorConfig::example());
        let mut tgt = TargetConn::new(TargetConfig::example(8));
        ini.start_login();
        let _ = tgt.feed_bytes(flat(ini.take_wire()));
        let _ = ini.feed_bytes(flat(tgt.take_wire()));
        let tag = ini.read(100, 4);
        let _ = tgt.feed_bytes(flat(ini.take_wire()));
        let evs = ini.feed_bytes(flat(tgt.take_wire()));
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
        let _ = tgt.feed_bytes(flat(ini.take_wire()));
        let cmd = BlockCmd {
            op: BlockOp::Read,
            lba: 0,
            sectors: 1,
        };
        let read = |cmd_sn| {
            scsi_command(cmd, 9, cmd_sn, 2, Bytes::new())
                .encode()
                .into()
        };
        let evs = tgt.feed_bytes(read(2));
        assert!(matches!(evs[..], [TargetEvent::ReadReady { itt: 9, .. }]));
        let evs = tgt.feed_bytes(read(3));
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
        let _ = tgt.feed_bytes(flat(ini.take_wire()));
        let _ = tgt.take_wire();
        let hostile = [
            (BlockOp::Read, u64::MAX, 1),
            (BlockOp::Write, u64::MAX - 3, 8),
            (BlockOp::Read, 0, 0x0080_0000),
            (BlockOp::Read, 0, u32::MAX),
        ];
        for (n, (op, lba, sectors)) in (2u32..).zip(hostile) {
            let cmd = BlockCmd { op, lba, sectors };
            let evs = tgt.feed_bytes(scsi_command(cmd, n, n, 2, Bytes::new()).encode().into());
            assert!(evs.is_empty(), "{cmd:?}: {evs:?}");
            let out = decode(tgt.take_wire());
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
        let evs = tgt.feed_bytes(scsi_command(ok, 9, 9, 2, Bytes::new()).encode().into());
        assert!(matches!(evs[..], [TargetEvent::ReadReady { itt: 9, .. }]));
    }

    /// A write whose immediate data covers it reaches the app as a view
    /// of the fed bytes; one larger than the first burst takes its
    /// immediate data and the unsolicited rest of the first burst, then
    /// solicits what is missing with an R2T.
    #[test]
    fn covered_writes_are_views_and_partial_ones_solicit_the_rest() {
        let mut tgt = logged_in(1024);
        let cmd = |sectors| BlockCmd {
            op: BlockOp::Write,
            lba: 8,
            sectors,
        };
        let data = Bytes::from(vec![0x5A; 4096]);
        let wire: Bytes = scsi_command(cmd(8), 1, 1, 1, data.clone()).encode().into();
        let fed = wire.slice(BHS_LEN..BHS_LEN + 4096);
        let evs = tgt.feed_bytes(wire);
        assert!(
            matches!(&evs[..], [TargetEvent::WriteReady { itt: 1, lba: 8, data: got }]
                if got.same_storage(&fed)),
            "{evs:?}"
        );

        let mrdsl = crate::MAX_RECV_DATA_SEGMENT_LENGTH;
        let data = Bytes::from_iter((0..80 * 1024).map(|i| (i % 251) as u8));
        let wire = scsi_command(cmd(160), 2, 2, 1, data.slice(..mrdsl)).encode();
        assert!(tgt.feed_bytes(wire.into()).is_empty());
        for pdu in data_out_train(2, 0xFFFF_FFFF, 1, &data, mrdsl..FIRST_BURST_LENGTH, mrdsl) {
            assert!(tgt.feed_bytes(pdu.encode().into()).is_empty());
        }
        let [Pdu::R2t(r2t)] = &decode(tgt.take_wire())[..] else {
            panic!("the missing bytes were not solicited");
        };
        assert_eq!(
            (r2t.itt, r2t.buffer_offset, r2t.desired_length),
            (2, 64 * 1024, 16 * 1024)
        );
        let mut evs = Vec::new();
        for pdu in data_out_train(2, r2t.ttt, 1, &data, 64 * 1024..80 * 1024, mrdsl) {
            evs.extend(tgt.feed_bytes(pdu.encode().into()));
        }
        assert!(
            matches!(&evs[..], [TargetEvent::WriteReady { itt: 2, lba: 8, data: got }]
                if *got == data),
            "{evs:?}"
        );
    }

    /// A SCSI Command or Data-Out ahead of the login is a protocol error:
    /// nothing reaches the app.
    #[test]
    fn commands_before_login_are_protocol_errors() {
        let mut tgt = TargetConn::new(TargetConfig::example(64));
        let read = BlockCmd {
            op: BlockOp::Read,
            lba: 0,
            sectors: 1,
        };
        let data = Bytes::from(vec![0u8; 512]);
        let data_out = data_out_train(1, 0xFFFF_FFFF, 1, &data, 0..512, 512);
        for pdu in [scsi_command(read, 1, 1, 1, Bytes::new())]
            .into_iter()
            .chain(data_out)
        {
            let evs = tgt.feed_bytes(pdu.encode().into());
            assert!(
                matches!(evs[..], [TargetEvent::ProtocolError(_)]),
                "{evs:?}"
            );
        }
        assert!(tgt.take_wire().is_empty());
        assert!(!tgt.is_logged_in());
        assert_eq!(tgt.in_flight(), 0);
    }

    /// An unknown CDB gets CHECK CONDITION and a protocol error; TEST
    /// UNIT READY, INQUIRY and READ CAPACITY move no block data and are
    /// refused the same way.
    #[test]
    fn unknown_cdbs_get_check_condition_and_a_protocol_error() {
        let mut tgt = logged_in(2048);
        for (itt, op) in [(1, 0xEE), (2, 0x00), (3, 0x12), (4, 0x25)] {
            let mut cdb = [0u8; 16];
            cdb[0] = op;
            let cmd = Pdu::ScsiCommand(crate::pdu::ScsiCommand {
                immediate: false,
                final_pdu: true,
                read: true,
                write: false,
                lun: 0,
                itt,
                edtl: 8,
                cmd_sn: itt,
                exp_stat_sn: 1,
                cdb,
                data: Bytes::new(),
            });
            let evs = tgt.feed_bytes(cmd.encode().into());
            assert!(
                matches!(evs[..], [TargetEvent::ProtocolError(_)]),
                "{evs:?}"
            );
            let out = decode(tgt.take_wire());
            assert!(
                matches!(&out[..], [Pdu::ScsiResponse(r)]
                    if r.itt == itt && r.status == ScsiStatus::CheckCondition),
                "{out:?}"
            );
        }
    }

    /// Everything a session queued on its outbound wire.
    fn drain(out: &mut WireBuf) -> Vec<Bytes> {
        out.take_wire(out.len()).unwrap()
    }

    /// The full write/read cycle from the crate example, driven purely
    /// through the trait objects — no iSCSI types leak through.
    #[test]
    fn iscsi_session_through_trait_objects() {
        let mut ini: Box<dyn Transport> = Box::new(Initiator::new(InitiatorConfig::example()));
        let mut conn = TargetConn::new(TargetConfig::example(2048));
        let tgt: &mut dyn TargetTransport = &mut conn;
        assert_eq!(ini.kind(), TransportKind::Iscsi);
        assert_eq!(tgt.kind(), TransportKind::Iscsi);

        ini.start();
        let mut ready = false;
        for _ in 0..8 {
            for c in drain(ini.wire()) {
                let _ = tgt.feed_bytes(c);
            }
            for c in drain(tgt.wire()) {
                ready |= ini
                    .feed_bytes(c)
                    .iter()
                    .any(|e| matches!(e, TransportEvent::Ready));
            }
        }
        assert!(ready && ini.is_ready() && conn.is_logged_in());

        let tgt: &mut dyn TargetTransport = &mut conn;
        let wtag = ini.write(0, Bytes::from(vec![0xAA; 4096]));
        let mut done = false;
        for _ in 0..8 {
            for c in drain(ini.wire()) {
                for ev in tgt.feed_bytes(c) {
                    if let TargetEvent::WriteReady { itt, lba, data } = ev {
                        assert_eq!((lba, data.len()), (0, 4096));
                        tgt.complete_write(0, itt, ScsiStatus::Good);
                    }
                }
            }
            for c in drain(tgt.wire()) {
                for ev in ini.feed_bytes(c) {
                    if let TransportEvent::WriteDone { tag, status } = ev {
                        assert_eq!((tag, status), (wtag, ScsiStatus::Good));
                        done = true;
                    }
                }
            }
        }
        assert!(done);
        assert_eq!((ini.in_flight(), conn.in_flight()), (0, 0));
    }
}
