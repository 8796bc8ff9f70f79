//! Target-side queue pair: submission drain, completion coalescing.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use bytes::Bytes;

use storm_block::transport::{
    BlockCmd, Iqn, ScsiStatus, TargetEvent, TargetTransport, TransportKind, WireBuf,
};

use crate::codec::{scan_connect_payload, Cqe, FrameHeader, FrameKind, SqeOp, CQE_LEN};
use crate::stream::{FrameStream, UnitEntry};

/// Ring size offered in the connect ack.
const QUEUE_DEPTH: u16 = 32;
/// Flush the completion queue as soon as this many CQEs are held, even
/// before the moderation window closes.
const CQ_MAX_BATCH: usize = 8;
/// Interrupt-moderation window: the first held CQE starts a timer this
/// many nanoseconds out; when it fires, everything held goes out as one
/// completion frame.
const CQ_WINDOW_NS: u64 = 20_000;

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
/// Completions coalesce: `complete_*` parks the CQE instead of sending
/// it, and the whole parked set leaves as one completion frame when
/// either `CQ_MAX_BATCH` entries are held or the interrupt-moderation
/// deadline passes ([`cq_deadline_ns`](Self::cq_deadline_ns) tells the
/// hosting app when to call [`flush_cq`](Self::flush_cq)). Read payloads
/// stay refcounted views end to end.
#[derive(Debug)]
pub struct NvmeqTargetConn {
    cfg: NvmeqTargetConfig,
    stream: FrameStream,
    out: WireBuf,
    logged_in: bool,
    /// The host's advertised ring size (informational; the host enforces
    /// its own cap).
    peer_queue_depth: u16,
    outstanding: usize,
    peak: usize,
    /// CQEs held for the next completion frame.
    pending: Vec<(Cqe, Bytes)>,
    cq_deadline: Option<u64>,
    cq_flushes: u64,
    cqes_flushed: u64,
}

impl NvmeqTargetConn {
    /// Creates a connection awaiting its connect frame.
    pub fn new(cfg: NvmeqTargetConfig) -> Self {
        NvmeqTargetConn {
            cfg,
            stream: FrameStream::new(),
            out: WireBuf::new(),
            logged_in: false,
            peer_queue_depth: 0,
            outstanding: 0,
            peak: 0,
            pending: Vec::new(),
            cq_deadline: None,
            cq_flushes: 0,
            cqes_flushed: 0,
        }
    }

    /// The ring size the host advertised at connect.
    pub fn peer_queue_depth(&self) -> u16 {
        self.peer_queue_depth
    }

    /// Completion frames flushed and CQEs they carried; the ratio is the
    /// realized coalescing batch size.
    pub fn cq_stats(&self) -> (u64, u64) {
        (self.cq_flushes, self.cqes_flushed)
    }

    /// Whether session establishment completed.
    pub fn is_logged_in(&self) -> bool {
        self.logged_in
    }

    /// Commands accepted but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.outstanding
    }

    /// High-water mark of [`in_flight`](Self::in_flight).
    pub fn occupancy_peak(&self) -> usize {
        self.peak
    }

    /// Payload bytes memcpy'd by this endpoint.
    pub fn bytes_copied(&self) -> u64 {
        self.out.bytes_copied() + self.stream.bytes_copied()
    }

    /// Drains queued wire bytes as refcounted chunks.
    pub fn take_wire(&mut self) -> Vec<Bytes> {
        self.out.take_chunks()
    }

    /// When the interrupt-moderation timer should next fire, if any
    /// completions are held.
    pub fn cq_deadline_ns(&self) -> Option<u64> {
        self.cq_deadline
    }

    fn note_ready(&mut self) {
        self.outstanding += 1;
        self.peak = self.peak.max(self.outstanding);
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
                FrameKind::Connect => {
                    self.on_connect(&fw.payload, fw.header.queue_depth, &mut events)
                }
                FrameKind::Doorbell => {
                    let capacity = self.cfg.num_sectors;
                    for unit in fw.units {
                        let UnitEntry::Sqe(sqe) = unit.entry else {
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
                        // Same admission as the iSCSI target: range,
                        // transfer ceiling, and in-capsule data that
                        // matches the sector count.
                        let cmd = BlockCmd::checked(sqe.op, sqe.lba, sqe.sectors, capacity)
                            .ok()
                            .filter(|c| {
                                sqe.op != SqeOp::Write || unit.data.len() as u64 == c.bytes()
                            });
                        let Some(BlockCmd { lba, sectors, .. }) = cmd else {
                            // An error CQE, sent at once (no clock here to
                            // open a moderation window); the queue stays up.
                            self.hold(sqe.cid, sqe.op, ScsiStatus::CheckCondition, Bytes::new());
                            self.flush_cq(0);
                            continue;
                        };
                        self.note_ready();
                        let itt = sqe.cid;
                        events.push(match sqe.op {
                            SqeOp::Read => TargetEvent::ReadReady { itt, lba, sectors },
                            SqeOp::Write => TargetEvent::WriteReady {
                                itt,
                                lba,
                                data: unit.data,
                            },
                            SqeOp::Flush => TargetEvent::FlushReady { itt },
                        });
                    }
                }
                FrameKind::Disconnect => {
                    let header = FrameHeader {
                        kind: FrameKind::DisconnectAck,
                        count: 0,
                        payload_len: 0,
                        queue_depth: 0,
                    };
                    self.out.push_slice(&header.encode());
                    self.logged_in = false;
                    events.push(TargetEvent::LoggedOut);
                }
                other => events.push(TargetEvent::ProtocolError(format!(
                    "unexpected frame {other:?} on target side"
                ))),
            }
        }
        events
    }

    fn on_connect(&mut self, payload: &Bytes, peer_qd: u16, events: &mut Vec<TargetEvent>) {
        let initiator_name = scan_connect_payload(payload, "InitiatorName");
        let target_name = scan_connect_payload(payload, "TargetName");
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
            queue_depth: QUEUE_DEPTH,
        };
        self.out.push_slice(&header.encode());
        self.out.push_slice(&[status, 0, 0, 0, 0, 0, 0, 0]);
        self.out.push_slice(&capacity.to_be_bytes());
        if accept {
            self.peer_queue_depth = peer_qd;
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

    /// Holds one command's CQE (and read payload) for the next completion
    /// frame.
    fn hold(&mut self, cid: u32, op: SqeOp, status: ScsiStatus, data: Bytes) {
        let data_len = data.len() as u32;
        let cqe = Cqe {
            cid,
            status,
            op,
            data_len,
        };
        self.pending.push((cqe, data));
    }

    fn park(&mut self, now_ns: u64, cid: u32, op: SqeOp, status: ScsiStatus, data: Bytes) {
        self.outstanding = self.outstanding.saturating_sub(1);
        self.hold(cid, op, status, data);
        if self.pending.len() >= CQ_MAX_BATCH {
            self.flush_cq(now_ns);
        } else if self.cq_deadline.is_none() {
            self.cq_deadline = Some(now_ns + CQ_WINDOW_NS);
        }
    }

    /// Completes a read surfaced by [`TargetEvent::ReadReady`]; the CQE
    /// is held for coalescing.
    pub fn complete_read(&mut self, now_ns: u64, itt: u32, data: Bytes, status: ScsiStatus) {
        self.park(now_ns, itt, SqeOp::Read, status, data);
    }

    /// Completes a write surfaced by [`TargetEvent::WriteReady`].
    pub fn complete_write(&mut self, now_ns: u64, itt: u32, status: ScsiStatus) {
        self.park(now_ns, itt, SqeOp::Write, status, Bytes::new());
    }

    /// Completes a flush surfaced by [`TargetEvent::FlushReady`].
    pub fn complete_flush(&mut self, now_ns: u64, itt: u32, status: ScsiStatus) {
        self.park(now_ns, itt, SqeOp::Flush, status, Bytes::new());
    }

    /// Flushes every held completion as one frame (the hosting app calls
    /// this when the timer armed for [`cq_deadline_ns`](Self::cq_deadline_ns)
    /// fires; a batch-full flush may already have drained the queue, in
    /// which case this is a no-op).
    pub fn flush_cq(&mut self, _now_ns: u64) {
        self.cq_deadline = None;
        if self.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        let data_len: usize = pending.iter().map(|(_, d)| d.len()).sum();
        let header = FrameHeader {
            kind: FrameKind::Completion,
            count: pending.len() as u16,
            payload_len: (pending.len() * CQE_LEN + data_len) as u32,
            queue_depth: 0,
        };
        self.out.push_slice(&header.encode());
        for (cqe, _) in &pending {
            self.out.push_slice(&cqe.encode());
        }
        self.cq_flushes += 1;
        self.cqes_flushed += header.count as u64;
        for (_, data) in pending {
            self.out.push_data(data);
        }
    }
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

    fn take_wire(&mut self) -> Vec<Bytes> {
        NvmeqTargetConn::take_wire(self)
    }

    fn is_logged_in(&self) -> bool {
        NvmeqTargetConn::is_logged_in(self)
    }

    fn bytes_copied(&self) -> u64 {
        NvmeqTargetConn::bytes_copied(self)
    }

    fn cq_deadline_ns(&self) -> Option<u64> {
        NvmeqTargetConn::cq_deadline_ns(self)
    }

    fn flush_cq(&mut self, now_ns: u64) {
        NvmeqTargetConn::flush_cq(self, now_ns);
    }

    fn in_flight(&self) -> usize {
        NvmeqTargetConn::in_flight(self)
    }

    fn occupancy_peak(&self) -> usize {
        NvmeqTargetConn::occupancy_peak(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Sqe, SQE_LEN};
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
    fn full_session_with_coalescing() {
        let (mut ini, mut tgt) = connected_pair(8);
        assert_eq!(tgt.peer_queue_depth(), 8);

        // Four writes in one doorbell; target completes them all at
        // t=1000 — under CQ_MAX_BATCH, so they coalesce behind the
        // moderation timer.
        let payloads: Vec<Bytes> = (0..4).map(|i| Bytes::from(vec![i as u8; 1024])).collect();
        for (i, p) in payloads.iter().enumerate() {
            ini.write(i as u64 * 2, p.clone());
        }
        for c in ini.take_wire() {
            for ev in tgt.feed_bytes(c) {
                if let TargetEvent::WriteReady { itt, data, .. } = ev {
                    assert_eq!(data.len(), 1024);
                    TargetTransport::complete_write(&mut tgt, 1000, itt, ScsiStatus::Good);
                }
            }
        }
        assert_eq!(tgt.occupancy_peak(), 4, "all four held concurrently");
        assert!(tgt.take_wire().is_empty(), "completions held back");
        assert_eq!(
            tgt.cq_deadline_ns(),
            Some(1000 + CQ_WINDOW_NS),
            "moderation timer armed by first completion"
        );

        // Timer fires: one frame with all four CQEs.
        tgt.flush_cq(21_000);
        assert_eq!(tgt.cq_deadline_ns(), None);
        let mut done = 0;
        for c in tgt.take_wire() {
            for ev in ini.feed_bytes(c) {
                if matches!(ev, TransportEvent::WriteDone { status, .. } if status == ScsiStatus::Good)
                {
                    done += 1;
                }
            }
        }
        assert_eq!(done, 4);
        assert_eq!(ini.cq_stats(), (1, 4), "four CQEs in one frame");
        assert_eq!(tgt.cq_stats(), (1, 4));
        assert_eq!(ini.in_flight(), 0);
        assert_eq!(tgt.in_flight(), 0);
        assert_eq!(ini.bytes_copied() + tgt.bytes_copied(), 0);
    }

    /// The target used to surface any SQE as an event, so the host sized
    /// its read buffer from a bare tenant `sectors` (up to 2 TiB).
    #[test]
    fn hostile_sqe_gets_an_error_cqe_and_the_queue_stays_up() {
        let (mut ini, mut tgt) = connected_pair(8);
        let doorbell = |sqe: Sqe, data: &[u8]| {
            let header = FrameHeader {
                kind: FrameKind::Doorbell,
                count: 1,
                payload_len: (SQE_LEN + data.len()) as u32,
                queue_depth: 0,
            };
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
    fn batch_full_flushes_without_timer() {
        let (mut ini, mut tgt) = connected_pair(16);
        for i in 0..CQ_MAX_BATCH {
            ini.read(i as u64, 2);
        }
        for c in ini.take_wire() {
            for ev in tgt.feed_bytes(c) {
                if let TargetEvent::ReadReady { itt, sectors, .. } = ev {
                    let data = Bytes::from(vec![0xFE; sectors as usize * 512]);
                    TargetTransport::complete_read(&mut tgt, 500, itt, data, ScsiStatus::Good);
                }
            }
        }
        // The eighth completion hit CQ_MAX_BATCH and flushed on its own.
        assert_eq!(tgt.cq_deadline_ns(), None);
        assert_eq!(tgt.cq_stats(), (1, 8));
        let mut got = 0;
        for c in tgt.take_wire() {
            for ev in ini.feed_bytes(c) {
                if let TransportEvent::ReadDone { data, status, .. } = ev {
                    assert_eq!((data.len(), status), (1024, ScsiStatus::Good));
                    got += 1;
                }
            }
        }
        assert_eq!(got, 8);
        assert_eq!(ini.bytes_copied() + tgt.bytes_copied(), 0, "reads share");
    }

    #[test]
    fn disconnect_round_trip_and_bad_target() {
        let (mut ini, mut tgt) = connected_pair(4);
        ini.shutdown();
        let mut out = false;
        for c in ini.take_wire() {
            out |= tgt
                .feed_bytes(c)
                .iter()
                .any(|e| matches!(e, TargetEvent::LoggedOut));
        }
        assert!(out && !tgt.is_logged_in());
        let mut closed = false;
        for c in tgt.take_wire() {
            closed |= ini
                .feed_bytes(c)
                .iter()
                .any(|e| matches!(e, TransportEvent::Closed));
        }
        assert!(closed);

        // A connect naming the wrong volume is refused.
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
