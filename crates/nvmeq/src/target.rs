//! Target-side queue pair: one completion frame per command.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use bytes::Bytes;

use storm_block::transport::{
    scan_text, BlockCmd, Iqn, ScsiStatus, TargetEvent, TargetTransport, TransportKind, WireBuf,
};

use crate::codec::{Cqe, FrameHeader, FrameKind, SqeOp};
use crate::stream::{push_unit, FrameStream, UnitEntry, UnitWire};

/// Target-side queue-pair configuration.
#[derive(Debug, Clone)]
pub struct NvmeqTargetConfig {
    /// This target's name.
    pub target_iqn: Iqn,
    /// Exported volume capacity in 512-byte sectors.
    pub num_sectors: u64,
}

impl NvmeqTargetConfig {
    /// A ready-to-use example configuration exporting `num_sectors`.
    pub fn example(num_sectors: u64) -> Self {
        NvmeqTargetConfig {
            target_iqn: Iqn::for_volume(1),
            num_sectors,
        }
    }
}

/// The target side of an NVMe-oF-style queue pair, implementing
/// [`TargetTransport`].
///
/// Each `complete_*` call queues its CQE at once, as one completion
/// frame with the read payload (if any) behind it. Read payloads stay
/// refcounted views end to end.
#[derive(Debug)]
pub struct NvmeqTargetConn {
    cfg: NvmeqTargetConfig,
    stream: FrameStream,
    out: WireBuf,
    logged_in: bool,
    outstanding: usize,
}

impl NvmeqTargetConn {
    /// Creates a connection awaiting its connect frame.
    pub fn new(cfg: NvmeqTargetConfig) -> Self {
        NvmeqTargetConn {
            cfg,
            stream: FrameStream::new(),
            out: WireBuf::new(),
            logged_in: false,
            outstanding: 0,
        }
    }

    /// Whether session establishment completed.
    pub fn is_logged_in(&self) -> bool {
        self.logged_in
    }

    /// Commands accepted but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.outstanding
    }

    /// Takes everything queued on [`TargetTransport::wire`] as
    /// refcounted chunks.
    pub fn take_wire(&mut self) -> Vec<Bytes> {
        self.out.take_wire(self.out.len()).unwrap_or_default()
    }

    /// Feeds received bytes; returns events for the hosting app.
    pub fn feed_bytes(&mut self, bytes: Bytes) -> Vec<TargetEvent> {
        let frames = match self.stream.feed_bytes(bytes) {
            Ok(f) => f,
            Err(e) => return vec![TargetEvent::ProtocolError(e.to_string())],
        };
        let mut events = Vec::new();
        for fw in frames {
            match fw.header.kind {
                FrameKind::Connect => self.on_connect(&fw.payload, &mut events),
                FrameKind::Doorbell => {
                    let Some(UnitWire {
                        entry: UnitEntry::Sqe(sqe),
                        data,
                        ..
                    }) = fw.unit
                    else {
                        events.push(TargetEvent::ProtocolError(
                            "CQE in doorbell frame".to_string(),
                        ));
                        continue;
                    };
                    if !self.logged_in {
                        events.push(TargetEvent::ProtocolError(
                            "doorbell before connect".to_string(),
                        ));
                        continue;
                    }
                    // Same admission as the iSCSI target: range, transfer
                    // ceiling, and in-capsule data that matches the
                    // sector count.
                    let cmd = BlockCmd::checked(sqe.op, sqe.lba, sqe.sectors, self.cfg.num_sectors)
                        .ok()
                        .filter(|c| sqe.op != SqeOp::Write || data.len() as u64 == c.bytes());
                    let Some(BlockCmd { lba, sectors, .. }) = cmd else {
                        // An error CQE; the queue stays up.
                        self.answer(sqe.cid, sqe.op, ScsiStatus::CheckCondition, Bytes::new());
                        continue;
                    };
                    self.outstanding += 1;
                    let itt = sqe.cid;
                    events.push(match sqe.op {
                        SqeOp::Read => TargetEvent::ReadReady { itt, lba, sectors },
                        SqeOp::Write => TargetEvent::WriteReady { itt, lba, data },
                        SqeOp::Flush => TargetEvent::FlushReady { itt },
                    });
                }
                other => events.push(TargetEvent::ProtocolError(format!(
                    "unexpected frame {other:?} on target side"
                ))),
            }
        }
        events
    }

    fn on_connect(&mut self, payload: &Bytes, events: &mut Vec<TargetEvent>) {
        let initiator_name = scan_text(payload, "InitiatorName");
        let target_name = scan_text(payload, "TargetName");
        let accept = matches!(&target_name, Some(t) if t == self.cfg.target_iqn.as_str());
        // Ack payload: status byte (1 = no such target), 7 reserved, then
        // the capacity in sectors.
        let (status, capacity) = if accept {
            (0, self.cfg.num_sectors)
        } else {
            (1, 0)
        };
        let header = FrameHeader {
            kind: FrameKind::ConnectAck,
            count: 0,
            payload_len: 16,
        };
        self.out.push_slice(&header.encode());
        self.out.push_slice(&[status, 0, 0, 0, 0, 0, 0, 0]);
        self.out.push_slice(&capacity.to_be_bytes());
        if accept {
            self.logged_in = true;
            events.push(TargetEvent::LoggedIn {
                initiator_name: initiator_name.unwrap_or_default(),
            });
        } else {
            events.push(TargetEvent::ProtocolError(format!(
                "connect for unknown target {target_name:?}"
            )));
        }
    }

    /// Queues one command's completion frame: its CQE, then the read
    /// payload as a shared view.
    fn answer(&mut self, cid: u32, op: SqeOp, status: ScsiStatus, data: Bytes) {
        let data_len = data.len() as u32;
        let cqe = Cqe {
            cid,
            status,
            op,
            data_len,
        };
        push_unit(&mut self.out, FrameKind::Completion, &cqe.encode(), data);
    }

    fn retire(&mut self, cid: u32, op: SqeOp, status: ScsiStatus, data: Bytes) {
        self.outstanding = self.outstanding.saturating_sub(1);
        self.answer(cid, op, status, data);
    }

    /// Completes a read surfaced by [`TargetEvent::ReadReady`]. `now_ns`
    /// is unused: completions leave at once.
    pub fn complete_read(&mut self, _now_ns: u64, itt: u32, data: Bytes, status: ScsiStatus) {
        self.retire(itt, SqeOp::Read, status, data);
    }

    /// Completes a write surfaced by [`TargetEvent::WriteReady`].
    pub fn complete_write(&mut self, _now_ns: u64, itt: u32, status: ScsiStatus) {
        self.retire(itt, SqeOp::Write, status, Bytes::new());
    }

    /// Completes a flush surfaced by [`TargetEvent::FlushReady`].
    pub fn complete_flush(&mut self, _now_ns: u64, itt: u32, status: ScsiStatus) {
        self.retire(itt, SqeOp::Flush, status, Bytes::new());
    }

    /// Does nothing: every completion is on the wire queue as soon as it
    /// is made. Kept because the `benchmark/` probes call it.
    pub fn flush_cq(&mut self, _now_ns: u64) {}
}

impl TargetTransport for NvmeqTargetConn {
    fn kind(&self) -> TransportKind {
        TransportKind::Nvmeq
    }

    fn feed_bytes(&mut self, bytes: Bytes) -> Vec<TargetEvent> {
        NvmeqTargetConn::feed_bytes(self, bytes)
    }

    fn complete_read(&mut self, now_ns: u64, itt: u32, data: Bytes, status: ScsiStatus) {
        NvmeqTargetConn::complete_read(self, now_ns, itt, data, status);
    }

    fn complete_write(&mut self, now_ns: u64, itt: u32, status: ScsiStatus) {
        NvmeqTargetConn::complete_write(self, now_ns, itt, status);
    }

    fn complete_flush(&mut self, now_ns: u64, itt: u32, status: ScsiStatus) {
        NvmeqTargetConn::complete_flush(self, now_ns, itt, status);
    }

    fn wire(&mut self) -> &mut WireBuf {
        &mut self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Sqe;
    use crate::initiator::{NvmeqConfig, NvmeqInitiator};
    use storm_block::transport::{Transport, TransportEvent};

    fn connected_pair(qd: u16) -> (NvmeqInitiator, NvmeqTargetConn) {
        let mut ini = NvmeqInitiator::new(NvmeqConfig::example(qd));
        let mut tgt = NvmeqTargetConn::new(NvmeqTargetConfig::example(4096));
        ini.start();
        let mut ready = false;
        for _ in 0..4 {
            for c in ini.take_wire() {
                let _ = tgt.feed_bytes(c);
            }
            for c in tgt.take_wire() {
                ready |= ini
                    .feed_bytes(c)
                    .iter()
                    .any(|e| matches!(e, TransportEvent::Ready));
            }
        }
        assert!(ready && ini.is_ready() && tgt.is_logged_in());
        (ini, tgt)
    }

    #[test]
    fn full_session_answers_each_command_at_once() {
        let (mut ini, mut tgt) = connected_pair(8);

        // Four writes and four reads, all completed at t=1000: each
        // completion is on the wire as its own frame the moment it is
        // made, and read payloads travel as views.
        for i in 0..4u8 {
            ini.write(u64::from(i) * 2, Bytes::from(vec![i; 1024]));
            ini.read(u64::from(i) * 2, 2);
        }
        for c in ini.take_wire() {
            for ev in tgt.feed_bytes(c) {
                match ev {
                    TargetEvent::WriteReady { itt, data, .. } => {
                        assert_eq!(data.len(), 1024);
                        TargetTransport::complete_write(&mut tgt, 1000, itt, ScsiStatus::Good);
                    }
                    TargetEvent::ReadReady { itt, sectors, .. } => {
                        let data = Bytes::from(vec![0xFE; sectors as usize * 512]);
                        TargetTransport::complete_read(&mut tgt, 1000, itt, data, ScsiStatus::Good);
                    }
                    other => panic!("{other:?}"),
                }
            }
        }
        assert_eq!(tgt.in_flight(), 0);
        let mut done = 0;
        for c in tgt.take_wire() {
            for ev in ini.feed_bytes(c) {
                match ev {
                    TransportEvent::WriteDone { status, .. } => {
                        assert_eq!(status, ScsiStatus::Good)
                    }
                    TransportEvent::ReadDone { data, status, .. } => {
                        assert_eq!((data.len(), status), (1024, ScsiStatus::Good));
                    }
                    other => panic!("{other:?}"),
                }
                done += 1;
            }
        }
        assert_eq!(done, 8);
        assert_eq!(ini.cq_stats(), (8, 8), "one CQE per frame");
        assert_eq!(ini.in_flight(), 0);
        let encoded = ini.wire().bytes_copied() + tgt.wire().bytes_copied();
        let decoded = ini.stream.bytes_copied() + tgt.stream.bytes_copied();
        assert_eq!(encoded + decoded, 0);
    }

    /// The target used to surface any SQE as an event, so the host sized
    /// its read buffer from a bare tenant `sectors` (up to 2 TiB).
    #[test]
    fn hostile_sqe_gets_an_error_cqe_and_the_queue_stays_up() {
        let (mut ini, mut tgt) = connected_pair(8);
        let doorbell = |sqe: Sqe, data: &[u8]| {
            let header = FrameHeader::unit(FrameKind::Doorbell, data.len());
            let mut wire = header.encode().to_vec();
            wire.extend_from_slice(&sqe.encode());
            wire.extend_from_slice(data);
            Bytes::from(wire)
        };
        let sqe = |op, cid, lba, sectors, data_len| Sqe {
            op,
            cid,
            lba,
            sectors,
            data_len,
        };
        let hostile = [
            (sqe(SqeOp::Read, 1, 0, u32::MAX, 0), &[][..]),
            (sqe(SqeOp::Read, 2, u64::MAX, 1, 0), &[][..]),
            (sqe(SqeOp::Read, 3, 4090, 8, 0), &[][..]),
            (sqe(SqeOp::Write, 4, 0, 8, 512), &[0u8; 512][..]),
        ];
        for (sqe, data) in hostile {
            let evs = tgt.feed_bytes(doorbell(sqe, data));
            assert!(evs.is_empty(), "{sqe:?}: {evs:?}");
            let evs: Vec<_> = tgt
                .take_wire()
                .into_iter()
                .flat_map(|c| ini.feed_bytes(c))
                .collect();
            // The initiator never issued these cids, so it reports the
            // stray completions; what matters is that each got exactly one.
            assert_eq!(evs.len(), 1, "{sqe:?}: {evs:?}");
        }
        assert_eq!(tgt.in_flight(), 0);
        assert!(tgt.is_logged_in());
        let evs = tgt.feed_bytes(doorbell(sqe(SqeOp::Read, 9, 0, 8, 0), &[]));
        assert!(matches!(evs[..], [TargetEvent::ReadReady { itt: 9, .. }]));
    }

    #[test]
    fn connect_naming_the_wrong_volume_is_refused() {
        let mut ini2 = NvmeqInitiator::new(NvmeqConfig {
            target_iqn: Iqn::for_volume(999),
            ..NvmeqConfig::example(4)
        });
        let mut tgt2 = NvmeqTargetConn::new(NvmeqTargetConfig::example(64));
        ini2.start();
        for c in ini2.take_wire() {
            assert!(tgt2
                .feed_bytes(c)
                .iter()
                .any(|e| matches!(e, TargetEvent::ProtocolError(_))));
        }
        for c in tgt2.take_wire() {
            assert!(ini2
                .feed_bytes(c)
                .iter()
                .any(|e| matches!(e, TransportEvent::ConnectFailed { detail: 1, .. })));
        }
        assert!(!tgt2.is_logged_in());
    }
}
