//! The sans-io iSCSI initiator (the compute host's Open-iSCSI equivalent).

use std::collections::HashMap;

use bytes::Bytes;

use crate::exchange::{data_out_train, BlockCmd, BlockOp, Transfer};
use crate::iqn::Iqn;
use crate::params::{decode_text, encode_text, SessionParams};
use crate::pdu::{LoginRequest, LogoutRequest, NopOut, Pdu};
use crate::stream::{PduStream, WireBuf};
use crate::transport::TransportEvent;

/// Identifies an outstanding I/O issued through [`Initiator`].
///
/// The tag becomes the initiator task tag (ITT) of the SCSI command PDU,
/// so it is visible to every hop that parses the wire — middle-box relays
/// and targets alike. Telemetry leans on this: a request token is the
/// initiator's TCP source port combined with this tag, which lets the
/// guest, the middle-box, and the target stamp trace spans for the same
/// request without any side channel (`storm_sim::req_token`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IoTag(pub u32);

/// Initiator configuration.
#[derive(Debug, Clone)]
pub struct InitiatorConfig {
    /// This initiator's name.
    pub initiator_iqn: Iqn,
    /// The target to log in to.
    pub target_iqn: Iqn,
    /// Offered session parameters.
    pub params: SessionParams,
    /// Initiator session id.
    pub isid: [u8; 6],
}

impl InitiatorConfig {
    /// A ready-to-use example configuration (for docs and tests).
    pub fn example() -> Self {
        InitiatorConfig {
            initiator_iqn: Iqn::for_host("example"),
            target_iqn: Iqn::for_volume(1),
            params: SessionParams::default(),
            isid: [0x80, 0, 0, 0x01, 0, 1],
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    LoginSent,
    FullFeature,
    LogoutSent,
}

#[derive(Debug)]
enum Pending {
    Read(Transfer),
    Write { data: Bytes },
    Flush,
}

/// The initiator state machine: bytes in ([`Initiator::feed`]), bytes out
/// ([`Initiator::take_output`]), events out.
#[derive(Debug)]
pub struct Initiator {
    cfg: InitiatorConfig,
    params: SessionParams,
    state: State,
    stream: PduStream,
    out: WireBuf,
    next_itt: u32,
    cmd_sn: u32,
    exp_stat_sn: u32,
    pending: HashMap<u32, Pending>,
}

impl Initiator {
    /// Creates an initiator in the idle state.
    pub fn new(cfg: InitiatorConfig) -> Self {
        let params = cfg.params.clone();
        Initiator {
            cfg,
            params,
            state: State::Idle,
            stream: PduStream::new(),
            out: WireBuf::new(),
            next_itt: 1,
            cmd_sn: 1,
            exp_stat_sn: 0,
            pending: HashMap::new(),
        }
    }

    /// The negotiated session parameters (valid after login).
    pub fn params(&self) -> &SessionParams {
        &self.params
    }

    /// Whether the session is in full-feature phase.
    pub fn is_logged_in(&self) -> bool {
        self.state == State::FullFeature
    }

    /// Number of outstanding I/Os.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Drains the bytes this machine wants to put on the wire (flat copy;
    /// see [`Initiator::take_wire`] for the zero-copy chunk form).
    pub fn take_output(&mut self) -> Vec<u8> {
        self.out.take_output()
    }

    /// Drains the queued wire bytes as refcounted chunks: large data
    /// segments are views of the caller's write buffers, so replica
    /// fan-out and the simulated TCP stack share one allocation.
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

    /// Queues the login request.
    ///
    /// # Panics
    ///
    /// Panics if called in any state but idle.
    pub fn start_login(&mut self) {
        assert_eq!(self.state, State::Idle, "login from non-idle state");
        let mut keys = self.cfg.params.to_keys();
        keys.insert("InitiatorName".into(), self.cfg.initiator_iqn.to_string());
        keys.insert("TargetName".into(), self.cfg.target_iqn.to_string());
        keys.insert("SessionType".into(), "Normal".into());
        let pdu = Pdu::LoginRequest(LoginRequest {
            transit: true,
            csg: 1,
            nsg: 3,
            isid: self.cfg.isid,
            tsih: 0,
            itt: self.alloc_itt(),
            cid: 0,
            cmd_sn: self.cmd_sn,
            exp_stat_sn: self.exp_stat_sn,
            data: encode_text(&keys).into(),
        });
        self.out.push_pdu(&pdu);
        self.state = State::LoginSent;
    }

    fn alloc_itt(&mut self) -> u32 {
        let itt = self.next_itt;
        self.next_itt = self.next_itt.wrapping_add(1);
        itt
    }

    /// Issues a read of `sectors` sectors at `lba`.
    ///
    /// # Panics
    ///
    /// Panics if the session is not logged in or `sectors` is zero.
    pub fn read(&mut self, lba: u64, sectors: u32) -> IoTag {
        assert_eq!(self.state, State::FullFeature, "read before login");
        assert!(sectors > 0, "zero-length read");
        let xfer = Transfer::new(sectors as usize * 512);
        self.issue(
            BlockOp::Read,
            lba,
            sectors,
            Bytes::new(),
            Pending::Read(xfer),
        )
    }

    /// Queues the command PDU for a new task and records what it awaits.
    fn issue(&mut self, op: BlockOp, lba: u64, sectors: u32, imm: Bytes, wait: Pending) -> IoTag {
        let itt = self.alloc_itt();
        let cmd = BlockCmd { op, lba, sectors };
        let pdu = cmd.command(itt, self.bump_cmd_sn(), self.exp_stat_sn, imm);
        self.out.push_pdu(&pdu);
        self.pending.insert(itt, wait);
        IoTag(itt)
    }

    /// Queues `data[range]` as Data-Out PDUs answering transfer tag `ttt`.
    fn send_data(&mut self, itt: u32, ttt: u32, data: &Bytes, range: std::ops::Range<usize>) {
        let mrdsl = self.params.max_recv_data_segment_length as usize;
        for pdu in data_out_train(itt, ttt, self.exp_stat_sn, data, range, mrdsl) {
            self.out.push_pdu(&pdu);
        }
    }

    /// Issues a write of `data` (a whole number of sectors) at `lba`.
    ///
    /// Data up to the negotiated immediate/first-burst limit rides with the
    /// command PDU; the target solicits the remainder with R2Ts.
    ///
    /// # Panics
    ///
    /// Panics if not logged in, `data` is empty or not sector-aligned.
    pub fn write(&mut self, lba: u64, data: Bytes) -> IoTag {
        assert_eq!(self.state, State::FullFeature, "write before login");
        assert!(
            !data.is_empty() && data.len().is_multiple_of(512),
            "unaligned write"
        );
        let sectors = (data.len() / 512) as u32;
        let mrdsl = self.params.max_recv_data_segment_length as usize;
        let first_burst = self.params.first_burst_length as usize;
        // Immediate data rides in the command PDU (ImmediateData=Yes).
        let immediate_limit = if self.params.immediate_data {
            first_burst.min(mrdsl)
        } else {
            0
        };
        let imm = data.len().min(immediate_limit);
        let wait = Pending::Write { data: data.clone() };
        let tag = self.issue(BlockOp::Write, lba, sectors, data.slice(..imm), wait);
        // InitialR2T=No: the rest of the first burst flows as unsolicited
        // Data-Out (ttt = 0xffffffff) without waiting for an R2T.
        if !self.params.initial_r2t {
            self.send_data(tag.0, 0xFFFF_FFFF, &data, imm..first_burst);
        }
        tag
    }

    /// Issues a cache flush.
    ///
    /// # Panics
    ///
    /// Panics if the session is not logged in.
    pub fn flush(&mut self) -> IoTag {
        assert_eq!(self.state, State::FullFeature, "flush before login");
        self.issue(BlockOp::Flush, 0, 0, Bytes::new(), Pending::Flush)
    }

    /// Requests a session logout.
    pub fn logout(&mut self) {
        if self.state != State::FullFeature {
            return;
        }
        let itt = self.alloc_itt();
        let pdu = Pdu::LogoutRequest(LogoutRequest {
            reason: 0,
            itt,
            cid: 0,
            cmd_sn: self.bump_cmd_sn(),
            exp_stat_sn: self.exp_stat_sn,
        });
        self.out.push_pdu(&pdu);
        self.state = State::LogoutSent;
    }

    fn bump_cmd_sn(&mut self) -> u32 {
        let sn = self.cmd_sn;
        self.cmd_sn = self.cmd_sn.wrapping_add(1);
        sn
    }

    /// Feeds received bytes; returns completed events.
    pub fn feed(&mut self, bytes: &[u8]) -> Vec<TransportEvent> {
        self.feed_bytes(Bytes::copy_from_slice(bytes))
    }

    /// Feeds a received chunk by reference (no copy into the
    /// reassembler); returns completed events.
    pub fn feed_bytes(&mut self, bytes: Bytes) -> Vec<TransportEvent> {
        let pdus = match self.stream.feed_bytes(bytes) {
            Ok(p) => p,
            Err(e) => return vec![TransportEvent::ProtocolError(e.to_string())],
        };
        let mut events = Vec::new();
        for pw in pdus {
            self.handle(pw.pdu, &mut events);
        }
        events
    }

    fn handle(&mut self, pdu: Pdu, events: &mut Vec<TransportEvent>) {
        match pdu {
            Pdu::LoginResponse(r) => {
                self.exp_stat_sn = r.stat_sn.wrapping_add(1);
                if self.state != State::LoginSent {
                    events.push(TransportEvent::ProtocolError(
                        "unexpected login response".into(),
                    ));
                    return;
                }
                if r.status_class != 0 {
                    self.state = State::Idle;
                    events.push(TransportEvent::ConnectFailed {
                        class: r.status_class,
                        detail: r.status_detail,
                    });
                    return;
                }
                let peer = decode_text(&r.data);
                self.params = self.cfg.params.negotiate(&peer);
                if r.transit && r.nsg == 3 {
                    self.state = State::FullFeature;
                    events.push(TransportEvent::Ready);
                }
            }
            Pdu::DataIn(d) => {
                self.exp_stat_sn = d.stat_sn.wrapping_add(1);
                let Some(Pending::Read(xfer)) = self.pending.get_mut(&d.itt) else {
                    events.push(TransportEvent::ProtocolError(format!(
                        "data-in for unknown itt {}",
                        d.itt
                    )));
                    return;
                };
                if xfer.absorb(d.buffer_offset, &d.data).is_err() {
                    events.push(TransportEvent::ProtocolError(format!(
                        "data-in for itt {} overruns its buffer",
                        d.itt
                    )));
                } else if d.final_pdu && d.status_present {
                    if let Some(Pending::Read(xfer)) = self.pending.remove(&d.itt) {
                        events.push(TransportEvent::ReadDone {
                            tag: IoTag(d.itt),
                            status: d.status,
                            data: xfer.into_bytes(),
                        });
                    }
                }
            }
            Pdu::R2t(r) => {
                let Some(Pending::Write { data }) = self.pending.get(&r.itt) else {
                    events.push(TransportEvent::ProtocolError(format!(
                        "r2t for unknown itt {}",
                        r.itt
                    )));
                    return;
                };
                let data = data.clone();
                let start = r.buffer_offset as usize;
                let end = start.saturating_add(r.desired_length as usize);
                self.send_data(r.itt, r.ttt, &data, start..end);
            }
            Pdu::ScsiResponse(r) => {
                self.exp_stat_sn = r.stat_sn.wrapping_add(1);
                match self.pending.remove(&r.itt) {
                    Some(Pending::Write { .. }) => events.push(TransportEvent::WriteDone {
                        tag: IoTag(r.itt),
                        status: r.status,
                    }),
                    Some(Pending::Flush) => events.push(TransportEvent::FlushDone {
                        tag: IoTag(r.itt),
                        status: r.status,
                    }),
                    Some(Pending::Read(_)) => events.push(TransportEvent::ReadDone {
                        tag: IoTag(r.itt),
                        status: r.status,
                        data: Bytes::new(),
                    }),
                    None => events.push(TransportEvent::ProtocolError(format!(
                        "response for unknown itt {}",
                        r.itt
                    ))),
                }
            }
            Pdu::NopIn(n) => {
                // Target ping: echo it back.
                if n.itt == 0xFFFF_FFFF {
                    let pong = Pdu::NopOut(NopOut {
                        itt: 0xFFFF_FFFF,
                        ttt: n.ttt,
                        cmd_sn: self.cmd_sn,
                        exp_stat_sn: self.exp_stat_sn,
                        data: n.data,
                    });
                    self.out.push_pdu(&pong);
                }
            }
            Pdu::LogoutResponse(_) => {
                self.state = State::Idle;
                events.push(TransportEvent::Closed);
            }
            other => events.push(TransportEvent::ProtocolError(format!(
                "unexpected pdu at initiator: {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdb::ScsiStatus;
    use crate::target::{TargetConfig, TargetConn, TargetEvent};

    fn logged_in_pair() -> (Initiator, TargetConn) {
        let mut ini = Initiator::new(InitiatorConfig::example());
        let mut tgt = TargetConn::new(TargetConfig::example(1 << 20));
        ini.start_login();
        let mut ok = false;
        for _ in 0..4 {
            let _ = tgt.feed(&ini.take_output());
            for ev in ini.feed(&tgt.take_output()) {
                if ev == TransportEvent::Ready {
                    ok = true;
                }
            }
        }
        assert!(ok, "login did not complete");
        (ini, tgt)
    }

    type TestDisk = std::collections::HashMap<u64, [u8; 512]>;

    /// Drives both machines until quiescent, auto-serving target I/O from
    /// `disk`, and returns initiator events.
    fn drive_with(
        ini: &mut Initiator,
        tgt: &mut TargetConn,
        disk: &mut TestDisk,
    ) -> Vec<TransportEvent> {
        let mut events = Vec::new();
        for _ in 0..64 {
            let out = ini.take_output();
            let tevs = tgt.feed(&out);
            for tev in tevs {
                match tev {
                    TargetEvent::WriteReady { itt, lba, data } => {
                        for (i, sector) in data.chunks(512).enumerate() {
                            disk.insert(lba + i as u64, sector.try_into().unwrap());
                        }
                        tgt.complete_write(itt, ScsiStatus::Good);
                    }
                    TargetEvent::ReadReady { itt, lba, sectors } => {
                        let mut buf = Vec::new();
                        for s in 0..sectors as u64 {
                            buf.extend_from_slice(
                                &disk.get(&(lba + s)).copied().unwrap_or([0; 512]),
                            );
                        }
                        tgt.complete_read(itt, Bytes::from(buf), ScsiStatus::Good);
                    }
                    TargetEvent::FlushReady { itt } => tgt.complete_flush(itt, ScsiStatus::Good),
                    _ => {}
                }
            }
            let back = tgt.take_output();
            if out.is_empty() && back.is_empty() {
                break;
            }
            events.extend(ini.feed(&back));
        }
        events
    }

    fn drive(ini: &mut Initiator, tgt: &mut TargetConn) -> Vec<TransportEvent> {
        let mut disk = TestDisk::new();
        drive_with(ini, tgt, &mut disk)
    }

    #[test]
    fn small_write_uses_immediate_data_and_completes() {
        let (mut ini, mut tgt) = logged_in_pair();
        let tag = ini.write(10, Bytes::from(vec![0x42u8; 4096]));
        let evs = drive(&mut ini, &mut tgt);
        assert!(evs.contains(&TransportEvent::WriteDone {
            tag,
            status: ScsiStatus::Good
        }));
        assert_eq!(ini.in_flight(), 0);
    }

    #[test]
    fn large_write_flows_through_r2t() {
        let (mut ini, mut tgt) = logged_in_pair();
        let mut disk = TestDisk::new();
        // 256 KiB > 64 KiB first burst: needs R2T rounds.
        let data: Vec<u8> = (0..256 * 1024).map(|i| (i % 251) as u8).collect();
        let tag = ini.write(100, Bytes::from(data.clone()));
        let evs = drive_with(&mut ini, &mut tgt, &mut disk);
        assert!(evs.contains(&TransportEvent::WriteDone {
            tag,
            status: ScsiStatus::Good
        }));
        // Read it back and verify contents survived segmentation/offsets.
        let rtag = ini.read(100, 512);
        let evs = drive_with(&mut ini, &mut tgt, &mut disk);
        let got = evs
            .iter()
            .find_map(|e| match e {
                TransportEvent::ReadDone { tag, data, .. } if *tag == rtag => Some(data.clone()),
                _ => None,
            })
            .expect("read completed");
        assert_eq!(&got[..], &data[..]);
    }

    #[test]
    fn read_spans_multiple_data_in_pdus() {
        let (mut ini, mut tgt) = logged_in_pair();
        let mut disk = TestDisk::new();
        let wtag = ini.write(0, Bytes::from(vec![7u8; 128 * 1024]));
        let evs = drive_with(&mut ini, &mut tgt, &mut disk);
        assert!(evs
            .iter()
            .any(|e| matches!(e, TransportEvent::WriteDone { tag, .. } if *tag == wtag)));
        let rtag = ini.read(0, 256); // 128 KiB > 64 KiB MRDSL -> 2+ Data-In PDUs
        let evs = drive_with(&mut ini, &mut tgt, &mut disk);
        let got = evs
            .iter()
            .find_map(|e| match e {
                TransportEvent::ReadDone { tag, data, status } if *tag == rtag => {
                    assert_eq!(*status, ScsiStatus::Good);
                    Some(data.clone())
                }
                _ => None,
            })
            .expect("read completed");
        assert_eq!(got.len(), 128 * 1024);
        assert!(got.iter().all(|&b| b == 7));
    }

    #[test]
    fn flush_and_logout() {
        let (mut ini, mut tgt) = logged_in_pair();
        let tag = ini.flush();
        let evs = drive(&mut ini, &mut tgt);
        assert!(evs.contains(&TransportEvent::FlushDone {
            tag,
            status: ScsiStatus::Good
        }));
        ini.logout();
        let evs = drive(&mut ini, &mut tgt);
        assert!(evs.contains(&TransportEvent::Closed));
        assert!(!ini.is_logged_in());
    }

    #[test]
    #[should_panic(expected = "before login")]
    fn io_before_login_panics() {
        let mut ini = Initiator::new(InitiatorConfig::example());
        let _ = ini.read(0, 1);
    }

    #[test]
    fn garbage_bytes_produce_protocol_error() {
        let (mut ini, _tgt) = logged_in_pair();
        // A full BHS with a reserved opcode and zero data-segment length.
        let mut junk = [0u8; 48];
        junk[0] = 0x3F;
        let evs = ini.feed(&junk);
        assert!(matches!(evs[0], TransportEvent::ProtocolError(_)));
    }
}
