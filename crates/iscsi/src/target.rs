//! The sans-io iSCSI target connection (the Cinder/LIO equivalent).
//!
//! Storage timing stays with the caller: the machine emits
//! [`TargetEvent::ReadReady`]/[`TargetEvent::WriteReady`] and the hosting
//! application completes them (after its simulated disk latency) with
//! [`TargetConn::complete_read`]/[`TargetConn::complete_write`].

use std::collections::HashMap;

use bytes::{Bytes, BytesMut};

use crate::cdb::{Cdb, ScsiStatus};
use crate::iqn::Iqn;
use crate::params::{decode_text, encode_text, SessionParams};
use crate::pdu::{DataIn, LoginResponse, LogoutResponse, NopIn, Pdu, R2t, ScsiResponse};
use crate::stream::{PduStream, WireBuf};

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

#[derive(Debug)]
struct WriteXfer {
    lba: u64,
    buf: BytesMut,
    received: usize,
    expected: usize,
    /// Bytes the initiator will push unsolicited (immediate + first
    /// burst); only beyond this does the target solicit with R2Ts.
    unsolicited: usize,
    next_ttt: u32,
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
    writes: HashMap<u32, WriteXfer>,
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

    /// Feeds received bytes; returns events for the hosting app.
    pub fn feed(&mut self, bytes: &[u8]) -> Vec<TargetEvent> {
        self.feed_bytes(Bytes::copy_from_slice(bytes))
    }

    /// Feeds a received chunk by reference (no copy into the
    /// reassembler); returns events for the hosting app.
    pub fn feed_bytes(&mut self, bytes: Bytes) -> Vec<TargetEvent> {
        let pdus = match self.stream.feed_bytes(bytes) {
            Ok(p) => p,
            Err(e) => return vec![TargetEvent::ProtocolError(e.to_string())],
        };
        let mut events = Vec::new();
        for pw in pdus {
            self.handle(pw.pdu, &mut events);
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
                let cdb = match Cdb::parse(&c.cdb) {
                    Ok(cdb) => cdb,
                    Err(op) => {
                        self.scsi_response(c.itt, ScsiStatus::CheckCondition);
                        events.push(TargetEvent::ProtocolError(format!(
                            "unsupported cdb opcode {op:#04x}"
                        )));
                        return;
                    }
                };
                match cdb {
                    Cdb::TestUnitReady => self.scsi_response(c.itt, ScsiStatus::Good),
                    Cdb::Inquiry { alloc } => {
                        let mut inq = vec![0u8; 36];
                        inq[0] = 0x00; // direct-access block device
                        inq[2] = 0x06; // SPC-4
                        inq[4] = 31; // additional length
                        inq[8..16].copy_from_slice(b"STORM   ");
                        inq[16..32].copy_from_slice(b"VIRTUAL VOLUME  ");
                        inq[32..36].copy_from_slice(b"0001");
                        inq.truncate(alloc as usize);
                        self.data_in_with_status(c.itt, Bytes::from(inq), ScsiStatus::Good);
                    }
                    Cdb::ReadCapacity10 => {
                        let last = self.cfg.num_sectors.saturating_sub(1);
                        let last32 = u32::try_from(last).unwrap_or(u32::MAX);
                        let mut cap = Vec::with_capacity(8);
                        cap.extend_from_slice(&last32.to_be_bytes());
                        cap.extend_from_slice(&512u32.to_be_bytes());
                        self.data_in_with_status(c.itt, Bytes::from(cap), ScsiStatus::Good);
                    }
                    Cdb::Read { lba, sectors } => {
                        if lba + sectors as u64 > self.cfg.num_sectors {
                            self.scsi_response(c.itt, ScsiStatus::CheckCondition);
                            return;
                        }
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
                        events.push(TargetEvent::ReadReady {
                            itt: c.itt,
                            lba,
                            sectors,
                        });
                    }
                    Cdb::Write { lba, sectors } => {
                        let expected = sectors as usize * 512;
                        if lba + sectors as u64 > self.cfg.num_sectors
                            || expected != c.edtl as usize
                        {
                            self.scsi_response(c.itt, ScsiStatus::CheckCondition);
                            return;
                        }
                        let unsolicited = if self.params.initial_r2t {
                            c.data.len().min(expected)
                        } else {
                            expected.min(self.params.first_burst_length as usize)
                        };
                        let mut xfer = WriteXfer {
                            lba,
                            buf: BytesMut::zeroed(expected),
                            received: 0,
                            expected,
                            unsolicited,
                            next_ttt: 0,
                        };
                        let imm = c.data.len().min(expected);
                        xfer.buf[..imm].copy_from_slice(&c.data[..imm]);
                        xfer.received = imm;
                        if xfer.received >= xfer.expected {
                            let data = xfer.buf.freeze();
                            self.note_ready();
                            events.push(TargetEvent::WriteReady {
                                itt: c.itt,
                                lba,
                                data,
                            });
                        } else {
                            // Solicit only what the initiator will not
                            // push unsolicited.
                            if xfer.received >= xfer.unsolicited {
                                self.solicit(c.itt, &mut xfer);
                            }
                            self.writes.insert(c.itt, xfer);
                        }
                    }
                    Cdb::SynchronizeCache => {
                        self.note_ready();
                        events.push(TargetEvent::FlushReady { itt: c.itt });
                    }
                }
            }
            Pdu::DataOut(d) => {
                let Some(xfer) = self.writes.get_mut(&d.itt) else {
                    events.push(TargetEvent::ProtocolError(format!(
                        "data-out for unknown itt {}",
                        d.itt
                    )));
                    return;
                };
                let off = d.buffer_offset as usize;
                let end = off + d.data.len();
                if end > xfer.expected {
                    events.push(TargetEvent::ProtocolError(format!(
                        "data-out overruns buffer: {end} > {}",
                        xfer.expected
                    )));
                    return;
                }
                xfer.buf[off..end].copy_from_slice(&d.data);
                xfer.received += d.data.len();
                if !d.final_pdu {
                    return;
                }
                if xfer.received >= xfer.expected {
                    let xfer = self.writes.remove(&d.itt).expect("just updated");
                    self.note_ready();
                    events.push(TargetEvent::WriteReady {
                        itt: d.itt,
                        lba: xfer.lba,
                        data: xfer.buf.freeze(),
                    });
                } else if xfer.received >= xfer.unsolicited {
                    // The unsolicited burst is in; solicit the next one.
                    let mut xfer = self.writes.remove(&d.itt).expect("just updated");
                    self.solicit(d.itt, &mut xfer);
                    self.writes.insert(d.itt, xfer);
                }
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

    /// Emits an R2T for the next burst of an incomplete write.
    fn solicit(&mut self, itt: u32, xfer: &mut WriteXfer) {
        let remaining = xfer.expected - xfer.received;
        let burst = remaining.min(self.params.max_burst_length as usize);
        let ttt = self.next_ttt;
        self.next_ttt = self.next_ttt.wrapping_add(1);
        let r2t = Pdu::R2t(R2t {
            lun: 0,
            itt,
            ttt,
            stat_sn: self.stat_sn,
            exp_cmd_sn: self.exp_cmd_sn,
            max_cmd_sn: self.exp_cmd_sn.wrapping_add(64),
            r2t_sn: xfer.next_ttt,
            buffer_offset: xfer.received as u32,
            desired_length: burst as u32,
        });
        xfer.next_ttt += 1;
        self.out.push_pdu(&r2t);
    }

    fn scsi_response(&mut self, itt: u32, status: ScsiStatus) {
        let resp = Pdu::ScsiResponse(ScsiResponse {
            itt,
            response: 0,
            status,
            stat_sn: self.bump_stat_sn(),
            exp_cmd_sn: self.exp_cmd_sn,
            max_cmd_sn: self.exp_cmd_sn.wrapping_add(64),
            residual: 0,
            data: Bytes::new(),
        });
        self.out.push_pdu(&resp);
    }

    /// Sends read payload as Data-In PDUs with phase-collapsed status on
    /// the final one.
    fn data_in_with_status(&mut self, itt: u32, data: Bytes, status: ScsiStatus) {
        let mrdsl = self.params.max_recv_data_segment_length as usize;
        let total = data.len();
        let mut off = 0;
        let mut data_sn = 0;
        loop {
            let end = (off + mrdsl).min(total);
            let last = end == total;
            let pdu = Pdu::DataIn(DataIn {
                final_pdu: last,
                status_present: last,
                status,
                lun: 0,
                itt,
                ttt: 0xFFFF_FFFF,
                stat_sn: if last {
                    self.bump_stat_sn()
                } else {
                    self.stat_sn
                },
                exp_cmd_sn: self.exp_cmd_sn,
                max_cmd_sn: self.exp_cmd_sn.wrapping_add(64),
                data_sn,
                buffer_offset: off as u32,
                residual: 0,
                data: data.slice(off..end),
            });
            self.out.push_pdu(&pdu);
            if last {
                break;
            }
            data_sn += 1;
            off = end;
        }
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
            self.data_in_with_status(itt, data, status);
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
        let read = |cmd_sn| {
            Pdu::ScsiCommand(crate::pdu::ScsiCommand {
                immediate: false,
                final_pdu: true,
                read: true,
                write: false,
                lun: 0,
                itt: 9,
                edtl: 512,
                cmd_sn,
                exp_stat_sn: 2,
                cdb: Cdb::Read { lba: 0, sectors: 1 }.to_bytes(),
                data: Bytes::new(),
            })
            .encode()
        };
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
