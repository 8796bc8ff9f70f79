//! Host-side queue pair: submission ring, one doorbell per command,
//! overflow software queue.

use std::collections::VecDeque;
use std::hash::RandomState;

use bytes::Bytes;

use storm_sim::IdMap;

use storm_block::transport::{
    encode_text, IoTag, Iqn, Transport, TransportEvent, TransportKind, WireBuf,
};

use crate::codec::{Cqe, FrameHeader, FrameKind, Sqe, SqeOp};
use crate::stream::{push_unit, FrameStream, UnitEntry, UnitWire};

/// Host-side queue-pair configuration.
#[derive(Debug, Clone)]
pub struct NvmeqConfig {
    /// This host's name (connection attribution reads it).
    pub initiator_iqn: Iqn,
    /// The volume to bind to.
    pub target_iqn: Iqn,
    /// Submission ring size: commands beyond this wait in a software
    /// queue until a completion frees a slot.
    pub queue_depth: u16,
}

impl NvmeqConfig {
    /// A ready-to-use example configuration (for docs and tests).
    pub fn example(queue_depth: u16) -> Self {
        NvmeqConfig {
            initiator_iqn: Iqn::for_host("example"),
            target_iqn: Iqn::for_volume(1),
            queue_depth,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    ConnectSent,
    Ready,
    /// The target refused the connect.
    Closed,
}

/// A command waiting for a free ring slot.
#[derive(Debug)]
struct Staged {
    sqe: Sqe,
    data: Bytes,
}

/// The host side of an NVMe-oF-style queue pair, implementing
/// [`Transport`].
///
/// Sans-io like every protocol machine in the workspace: commands go in
/// via `read`/`write`/`flush`, wire bytes queue on
/// [`wire`](Transport::wire). A command rings its doorbell as
/// it enters the submission ring: its SQE and in-capsule data are
/// encoded then, as one doorbell frame of their own. The ring holds at
/// most `queue_depth` commands; extras park in a software overflow queue
/// and enter the ring as completions retire slots, which is what keeps
/// `queue_depth` commands on the wire continuously during a deep sweep.
#[derive(Debug)]
pub struct NvmeqInitiator {
    cfg: NvmeqConfig,
    state: State,
    next_cid: u32,
    /// cid → opcode for every command issued and not yet completed
    /// (ring + overflow). Lookup/remove only — never iterated.
    issued: IdMap<u32, SqeOp, RandomState>,
    /// Commands occupying ring slots (doorbelled, or in flight at the
    /// target).
    in_sq: usize,
    sq_peak: usize,
    /// Commands waiting for a free ring slot.
    overflow: VecDeque<Staged>,
    /// Completion reassembly (the target's tests read its copy count).
    pub(crate) stream: FrameStream,
    out: WireBuf,
    num_sectors: u64,
    sqes_sent: u64,
    cqes_received: u64,
}

impl NvmeqInitiator {
    /// Creates an idle queue pair.
    ///
    /// # Panics
    ///
    /// Panics if `queue_depth` is zero.
    pub fn new(cfg: NvmeqConfig) -> Self {
        assert!(cfg.queue_depth > 0, "zero queue depth");
        NvmeqInitiator {
            cfg,
            state: State::Idle,
            next_cid: 1,
            issued: IdMap::default(),
            in_sq: 0,
            sq_peak: 0,
            overflow: VecDeque::new(),
            stream: FrameStream::new(),
            out: WireBuf::new(),
            num_sectors: 0,
            sqes_sent: 0,
            cqes_received: 0,
        }
    }

    /// Volume capacity in sectors, learned from the connect ack.
    pub fn num_sectors(&self) -> u64 {
        self.num_sectors
    }

    /// Doorbell frames sent and SQEs they carried: one each.
    pub fn doorbell_stats(&self) -> (u64, u64) {
        (self.sqes_sent, self.sqes_sent)
    }

    /// Completion frames received and CQEs they carried: one each.
    pub fn cq_stats(&self) -> (u64, u64) {
        (self.cqes_received, self.cqes_received)
    }

    /// High-water mark of submission-ring occupancy.
    pub fn sq_peak(&self) -> usize {
        self.sq_peak
    }

    /// Takes everything queued on [`Transport::wire`] as refcounted
    /// chunks.
    pub fn take_wire(&mut self) -> Vec<Bytes> {
        self.out.take_wire(self.out.len()).unwrap_or_default()
    }

    fn alloc_cid(&mut self) -> u32 {
        let cid = self.next_cid;
        self.next_cid = self.next_cid.wrapping_add(1);
        cid
    }

    /// Queues a command: into the ring if a slot is free, else onto the
    /// overflow queue.
    fn submit(&mut self, sqe: Sqe, data: Bytes) -> IoTag {
        assert_eq!(self.state, State::Ready, "submit before connect");
        let tag = IoTag(sqe.cid);
        self.issued.insert(sqe.cid, sqe.op);
        let staged = Staged { sqe, data };
        if self.in_sq < self.cfg.queue_depth as usize {
            self.ring_in(staged);
        } else {
            self.overflow.push_back(staged);
        }
        tag
    }

    /// Puts a command in a ring slot and rings its doorbell: one frame
    /// holding its SQE, then its data as a shared view.
    fn ring_in(&mut self, staged: Staged) {
        self.in_sq += 1;
        self.sq_peak = self.sq_peak.max(self.in_sq);
        let entry = staged.sqe.encode();
        push_unit(&mut self.out, FrameKind::Doorbell, &entry, staged.data);
        self.sqes_sent += 1;
    }

    fn complete(&mut self, cqe: &Cqe, data: Bytes, events: &mut Vec<TransportEvent>) {
        let Some(op) = self.issued.remove(&cqe.cid) else {
            events.push(TransportEvent::ProtocolError(format!(
                "completion for unknown cid {}",
                cqe.cid
            )));
            return;
        };
        // Retire the ring slot and promote a parked command into it.
        self.in_sq = self.in_sq.saturating_sub(1);
        if let Some(next) = self.overflow.pop_front() {
            self.ring_in(next);
        }
        let tag = IoTag(cqe.cid);
        events.push(match op {
            SqeOp::Read => TransportEvent::ReadDone {
                tag,
                status: cqe.status,
                data,
            },
            SqeOp::Write => TransportEvent::WriteDone {
                tag,
                status: cqe.status,
            },
            SqeOp::Flush => TransportEvent::FlushDone {
                tag,
                status: cqe.status,
            },
        });
    }
}

impl Transport for NvmeqInitiator {
    fn kind(&self) -> TransportKind {
        TransportKind::Nvmeq
    }

    fn start(&mut self) {
        assert_eq!(self.state, State::Idle, "connect already started");
        let payload = encode_text(&[
            ("InitiatorName", self.cfg.initiator_iqn.as_str()),
            ("TargetName", self.cfg.target_iqn.as_str()),
        ]);
        let header = FrameHeader {
            kind: FrameKind::Connect,
            count: 0,
            payload_len: payload.len() as u32,
        };
        self.out.push_slice(&header.encode());
        self.out.push_slice(&payload);
        self.state = State::ConnectSent;
    }

    fn is_ready(&self) -> bool {
        self.state == State::Ready
    }

    fn read(&mut self, lba: u64, sectors: u32) -> IoTag {
        assert!(sectors > 0, "zero-length read");
        let cid = self.alloc_cid();
        self.submit(
            Sqe {
                op: SqeOp::Read,
                cid,
                lba,
                sectors,
                data_len: 0,
            },
            Bytes::new(),
        )
    }

    fn write(&mut self, lba: u64, data: Bytes) -> IoTag {
        assert!(
            !data.is_empty() && data.len().is_multiple_of(512),
            "unaligned write"
        );
        let cid = self.alloc_cid();
        let sqe = Sqe {
            op: SqeOp::Write,
            cid,
            lba,
            sectors: (data.len() / 512) as u32,
            data_len: data.len() as u32,
        };
        self.submit(sqe, data)
    }

    fn flush(&mut self) -> IoTag {
        let cid = self.alloc_cid();
        self.submit(
            Sqe {
                op: SqeOp::Flush,
                cid,
                lba: 0,
                sectors: 0,
                data_len: 0,
            },
            Bytes::new(),
        )
    }

    fn in_flight(&self) -> usize {
        self.issued.len()
    }

    fn feed_bytes(&mut self, bytes: Bytes) -> Vec<TransportEvent> {
        let frames = match self.stream.feed_bytes(bytes) {
            Ok(f) => f,
            Err(e) => return vec![TransportEvent::ProtocolError(e.to_string())],
        };
        let mut events = Vec::new();
        for fw in frames {
            match fw.header.kind {
                FrameKind::ConnectAck => {
                    if self.state != State::ConnectSent {
                        events.push(TransportEvent::ProtocolError(
                            "unexpected connect ack".to_string(),
                        ));
                        continue;
                    }
                    let status = fw.payload.first().copied().unwrap_or(0xFF);
                    if status == 0 && fw.payload.len() >= 16 {
                        let mut ns = [0u8; 8];
                        ns.copy_from_slice(&fw.payload[8..16]);
                        self.num_sectors = u64::from_be_bytes(ns);
                        self.state = State::Ready;
                        events.push(TransportEvent::Ready);
                    } else {
                        self.state = State::Closed;
                        events.push(TransportEvent::ConnectFailed {
                            class: 2,
                            detail: status,
                        });
                    }
                }
                FrameKind::Completion => match fw.unit {
                    Some(UnitWire {
                        entry: UnitEntry::Cqe(cqe),
                        data,
                        ..
                    }) => {
                        self.cqes_received += 1;
                        self.complete(&cqe, data, &mut events);
                    }
                    _ => events.push(TransportEvent::ProtocolError(
                        "SQE in completion frame".to_string(),
                    )),
                },
                other => events.push(TransportEvent::ProtocolError(format!(
                    "unexpected frame {other:?} on host side"
                ))),
            }
        }
        events
    }

    fn wire(&mut self) -> &mut WireBuf {
        &mut self.out
    }

    fn sq_peak(&self) -> usize {
        NvmeqInitiator::sq_peak(self)
    }

    fn doorbell_stats(&self) -> (u64, u64) {
        NvmeqInitiator::doorbell_stats(self)
    }

    fn cq_stats(&self) -> (u64, u64) {
        NvmeqInitiator::cq_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::FrameWire;
    use storm_block::transport::ScsiStatus;

    /// Reassembles drained wire chunks into frames.
    fn frames(chunks: Vec<Bytes>) -> Vec<FrameWire> {
        let mut s = FrameStream::new();
        let frames: Vec<_> = chunks
            .into_iter()
            .flat_map(|c| s.feed_bytes(c).unwrap())
            .collect();
        assert_eq!(s.pending_bytes(), 0);
        frames
    }

    fn sqe(fw: &FrameWire) -> Sqe {
        match fw.unit.as_ref().map(|u| &u.entry) {
            Some(UnitEntry::Sqe(sqe)) => *sqe,
            other => panic!("not a doorbell: {other:?}"),
        }
    }

    #[test]
    fn each_command_rings_its_own_doorbell() {
        let mut ini = NvmeqInitiator::new(NvmeqConfig::example(8));
        ini.start();
        let _ = ini.take_wire();
        // Fake the ack.
        let mut ack = Vec::new();
        let mut payload = vec![0u8; 16];
        payload[8..16].copy_from_slice(&2048u64.to_be_bytes());
        ack.extend_from_slice(
            &FrameHeader {
                kind: FrameKind::ConnectAck,
                count: 0,
                payload_len: 16,
            }
            .encode(),
        );
        ack.extend_from_slice(&payload);
        let evs = ini.feed_bytes(Bytes::from(ack));
        assert!(matches!(evs[..], [TransportEvent::Ready]));
        assert_eq!(ini.num_sectors(), 2048);

        // Three commands, one take_wire: three frames of one SQE each.
        let tags = [
            ini.read(0, 8),
            ini.write(8, Bytes::from(vec![0xAA; 4096])),
            ini.flush(),
        ];
        assert_eq!(ini.in_flight(), 3);
        let got = frames(ini.take_wire());
        assert_eq!(got.len(), 3);
        for (fw, tag) in got.iter().zip(tags) {
            assert_eq!((fw.header.kind, fw.header.count), (FrameKind::Doorbell, 1));
            assert_eq!(IoTag(sqe(fw).cid), tag);
        }
        assert_eq!(ini.doorbell_stats(), (3, 3));
        // The 4 KiB write payload is a shared view, not a copy.
        assert_eq!(ini.out.bytes_copied(), 0);
    }

    #[test]
    fn ring_caps_at_queue_depth_and_promotes_overflow() {
        let mut ini = NvmeqInitiator::new(NvmeqConfig::example(2));
        ini.state = State::Ready; // skip handshake for the unit test
        let t1 = ini.read(0, 1);
        let _t2 = ini.read(1, 1);
        let t3 = ini.read(2, 1);
        assert_eq!(ini.in_flight(), 3, "all issued commands count");
        assert_eq!(
            frames(ini.take_wire()).len(),
            2,
            "third command parked in overflow"
        );
        assert_eq!(ini.sq_peak(), 2);

        // Completing one ring command promotes the parked one.
        let cqe = Cqe {
            cid: t1.0,
            status: ScsiStatus::Good,
            op: SqeOp::Read,
            data_len: 512,
        };
        let mut frame = FrameHeader::unit(FrameKind::Completion, 512)
            .encode()
            .to_vec();
        frame.extend_from_slice(&cqe.encode());
        frame.extend_from_slice(&[0x11; 512]);
        let evs = ini.feed_bytes(Bytes::from(frame));
        assert!(matches!(&evs[..], [TransportEvent::ReadDone { tag, .. }] if *tag == t1));
        let got = frames(ini.take_wire());
        assert_eq!(got.len(), 1, "promoted overflow command doorbells");
        assert_eq!(IoTag(sqe(&got[0]).cid), t3);
        assert_eq!(ini.in_flight(), 2);
        assert_eq!(ini.cq_stats(), (1, 1));
    }
}
