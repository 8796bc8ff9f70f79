//! The passive relay: per-packet interception on the forwarding path.

use std::collections::HashMap;

use storm_iscsi::exchange::Exchange;
use storm_iscsi::BHS_LEN;
use storm_net::{App, Cx, FourTuple, Frame, TapVerdict};
use storm_sim::trace::{flow_token, Hop, TraceEvent, TraceHook};
use storm_sim::{SimDuration, SimTime};

use crate::service::{Dir, StorageService};

/// Configuration of a passive tap.
#[derive(Debug, Clone, Copy)]
pub struct PassiveTapConfig {
    /// The iSCSI port identifying storage flows (3260).
    pub iscsi_port: u16,
}

impl Default for PassiveTapConfig {
    fn default() -> Self {
        PassiveTapConfig {
            iscsi_port: storm_iscsi::ISCSI_PORT,
        }
    }
}

#[derive(Debug)]
enum TrackState {
    /// Collecting the 48-byte BHS.
    Header,
    /// Consuming `remaining` data bytes then `pad` pad bytes.
    Data {
        remaining: usize,
        pad: usize,
        /// Absolute byte offset on the volume of the segment's first byte
        /// (None for non-data segments: login text, sense data…).
        vol_offset: Option<u64>,
        consumed: usize,
    },
}

/// Incremental per-direction PDU boundary tracker.
///
/// Unlike [`storm_iscsi::PduStream`], this never buffers payload bytes: it
/// walks packet payloads as they stream past (the passive relay cannot
/// hold packets) and reports which byte ranges are data-segment bytes and
/// where they land on the volume.
#[derive(Debug)]
pub struct WireTracker {
    state: TrackState,
    hdr: Vec<u8>,
    pdus: u64,
}

impl Default for WireTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl WireTracker {
    /// Creates a tracker at a PDU boundary.
    pub fn new() -> Self {
        WireTracker {
            state: TrackState::Header,
            hdr: Vec::with_capacity(48),
            pdus: 0,
        }
    }

    /// PDUs whose headers have been parsed.
    pub fn pdus(&self) -> u64 {
        self.pdus
    }

    /// Walks `payload`, returning `(range_in_payload, vol_offset)` for
    /// every data-segment byte run. `cmds` is the flow's open-command
    /// table (shared between both directions' trackers): each completed
    /// header is classified through it, which learns commands, resolves
    /// Data-In/Data-Out volume offsets and retires commands on status.
    pub fn walk(
        &mut self,
        payload: &[u8],
        cmds: &mut Exchange,
    ) -> Vec<(std::ops::Range<usize>, u64)> {
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < payload.len() {
            match &mut self.state {
                TrackState::Header => {
                    let need = BHS_LEN - self.hdr.len();
                    let take = need.min(payload.len() - pos);
                    // storm-lint: allow(no-hot-path-copy): the fixed-size
                    // header scratch; payload bytes are never buffered.
                    self.hdr.extend_from_slice(&payload[pos..pos + take]);
                    pos += take;
                    if self.hdr.len() == BHS_LEN {
                        self.pdus += 1;
                        let dsl = storm_iscsi::data_segment_length(&self.hdr).unwrap_or(0);
                        let vol_offset = cmds.observe_header(&self.hdr).volume_offset();
                        self.hdr.clear();
                        if dsl > 0 {
                            self.state = TrackState::Data {
                                remaining: dsl,
                                pad: dsl.div_ceil(4) * 4 - dsl,
                                vol_offset,
                                consumed: 0,
                            };
                        }
                    }
                }
                TrackState::Data {
                    remaining,
                    pad,
                    vol_offset,
                    consumed,
                } => {
                    if *remaining > 0 {
                        let take = (*remaining).min(payload.len() - pos);
                        // A run whose position overflows is not block data.
                        if let Some(at) = vol_offset.and_then(|b| b.checked_add(*consumed as u64)) {
                            out.push((pos..pos + take, at));
                        }
                        *consumed += take;
                        *remaining -= take;
                        pos += take;
                    }
                    if *remaining == 0 {
                        let skip = (*pad).min(payload.len() - pos);
                        pos += skip;
                        *pad -= skip;
                        if *pad == 0 {
                            self.state = TrackState::Header;
                        }
                    }
                }
            }
        }
        out
    }
}

/// The passive-relay tap application. Installed on a forwarding
/// middle-box node via [`storm_net::Network::set_tap`]; transforms
/// in-flight data through the service chain's `transform` hooks.
pub struct PassiveTap {
    cfg: PassiveTapConfig,
    services: Vec<Box<dyn StorageService>>,
    trackers: HashMap<(FourTuple, Dir), WireTracker>,
    cmds: HashMap<FourTuple, Exchange>,
    packets: u64,
    bytes_transformed: u64,
    trace: TraceHook,
}

impl PassiveTap {
    /// Creates a tap running `services` (their `transform` hooks).
    pub fn new(cfg: PassiveTapConfig, services: Vec<Box<dyn StorageService>>) -> Self {
        PassiveTap {
            cfg,
            services,
            trackers: HashMap::new(),
            cmds: HashMap::new(),
            packets: 0,
            bytes_transformed: 0,
            trace: TraceHook::none(),
        }
    }

    /// Arms this tap's trace hook; `mb` identifies the middle-box in
    /// [`TraceEvent::Meta`] labels. Emits one `Meta` for the tap itself and
    /// one per chained service so the analyzer can label service stages.
    pub fn set_trace_hook(&mut self, hook: TraceHook, mb: u32) {
        self.trace = hook;
        if self.trace.is_armed() {
            self.trace.emit(
                SimTime::ZERO,
                TraceEvent::Meta {
                    hop: Hop::Relay,
                    id: mb,
                    name: "passive-tap".to_string(),
                },
            );
            for (idx, svc) in self.services.iter().enumerate() {
                self.trace.emit(
                    SimTime::ZERO,
                    TraceEvent::Meta {
                        hop: Hop::Service,
                        id: idx as u32,
                        name: svc.name().to_string(),
                    },
                );
            }
        }
    }

    /// Packets inspected.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Data-segment bytes transformed.
    pub fn bytes_transformed(&self) -> u64 {
        self.bytes_transformed
    }

    fn flow_key(&self, frame: &Frame) -> Option<(FourTuple, Dir)> {
        if frame.tcp.dst_port == self.cfg.iscsi_port {
            Some((frame.tuple(), Dir::ToTarget))
        } else if frame.tcp.src_port == self.cfg.iscsi_port {
            Some((frame.tuple().reversed(), Dir::ToInitiator))
        } else {
            None
        }
    }
}

impl App for PassiveTap {
    fn on_tap(&mut self, cx: &mut Cx<'_>, frame: &mut Frame) -> TapVerdict {
        let Some((base_tuple, dir)) = self.flow_key(frame) else {
            return TapVerdict::Forward;
        };
        self.packets += 1;
        if frame.tcp.payload.is_empty() {
            return TapVerdict::Forward;
        }
        let payload_len = frame.tcp.payload.len();
        // Per-service per-byte work, attributed to the flow (the net layer
        // separately charges the tap's fixed per-packet cost as Relay).
        if self.trace.is_armed() {
            let req = flow_token(base_tuple.src.port);
            for (idx, svc) in self.services.iter().enumerate() {
                self.trace.emit(
                    cx.now(),
                    TraceEvent::Stage {
                        req,
                        hop: Hop::Service,
                        id: idx as u32,
                        dur: svc.per_byte_cost() * payload_len as u64,
                    },
                );
            }
        }
        let cmds = self.cmds.entry(base_tuple).or_default();
        let tracker = self.trackers.entry((base_tuple, dir)).or_default();
        // The tap copies the packet to user space anyway, so flattening a
        // scatter-gather payload here models the passive approach's cost,
        // not an accident of the simulator.
        let flat = frame.tcp.payload.to_bytes();
        let runs = tracker.walk(&flat, cmds);
        let mut per_byte = SimDuration::ZERO;
        for svc in &self.services {
            per_byte += svc.per_byte_cost();
        }
        if !runs.is_empty() {
            let mut data = bytes::BytesMut::from(&flat[..]);
            for (range, vol_offset) in &runs {
                for svc in &mut self.services {
                    svc.transform(dir, *vol_offset, &mut data[range.clone()]);
                }
                self.bytes_transformed += range.len() as u64;
            }
            frame.tcp.payload = data.freeze().into();
        }
        // The whole payload is copied to user space (one syscall per
        // packet); processing cost scales with payload bytes.
        TapVerdict::ForwardAfter(per_byte * payload_len as u64)
    }
}

impl std::fmt::Debug for PassiveTap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassiveTap")
            .field("packets", &self.packets)
            .field("services", &self.services.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use storm_iscsi::exchange::{data_in_final, data_out_train, BlockCmd, BlockOp};
    use storm_iscsi::{Pdu, ScsiStatus};

    fn write_cmd(itt: u32, lba: u64, edtl: u32, imm: &[u8]) -> Vec<u8> {
        let cmd = BlockCmd {
            op: BlockOp::Write,
            lba,
            sectors: edtl / 512,
        };
        cmd.command(itt, 1, 1, Bytes::copy_from_slice(imm)).encode()
    }

    #[test]
    fn tracker_locates_immediate_data() {
        let mut t = WireTracker::new();
        let mut cmds = Exchange::default();
        let wire = write_cmd(1, 100, 1024, &[0xAA; 1024]);
        let runs = t.walk(&wire, &mut cmds);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].0, 48..48 + 1024);
        assert_eq!(runs[0].1, 100 * 512);
        assert_eq!(cmds.len(), 1);
        assert_eq!(t.pdus(), 1);
    }

    #[test]
    fn tracker_handles_fragmentation_across_packets() {
        let mut t = WireTracker::new();
        let mut cmds = Exchange::default();
        let wire = write_cmd(2, 8, 2048, &[0xBB; 2048]);
        // Feed in 100-byte fragments; collect (vol_offset, len) runs.
        let mut runs = Vec::new();
        for chunk in wire.chunks(100) {
            for (r, off) in t.walk(chunk, &mut cmds) {
                runs.push((off, r.len()));
            }
        }
        let total: usize = runs.iter().map(|(_, l)| l).sum();
        assert_eq!(total, 2048);
        // Offsets are continuous from lba*512.
        assert_eq!(runs[0].0, 8 * 512);
        let mut expect = 8 * 512;
        for (off, len) in runs {
            assert_eq!(off, expect);
            expect += len as u64;
        }
    }

    #[test]
    fn tracker_resolves_data_out_by_itt() {
        let mut t = WireTracker::new();
        let mut cmds = Exchange::default();
        // Command with no immediate data...
        let wire = write_cmd(3, 50, 4096, &[]);
        assert!(t.walk(&wire, &mut cmds).is_empty());
        // ...followed by a Data-Out at buffer offset 1024.
        let payload = Bytes::from(vec![0xCC; 4096]);
        let dout = data_out_train(3, 9, 1, &payload, 1024..1536, 512)
            .next()
            .unwrap()
            .encode();
        let runs = t.walk(&dout, &mut cmds);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].1, 50 * 512 + 1024);
    }

    #[test]
    fn non_data_pdus_produce_no_runs() {
        let mut t = WireTracker::new();
        let mut cmds = Exchange::default();
        let nop = Pdu::NopOut(storm_iscsi::NopOut {
            itt: 5,
            ttt: 0xFFFF_FFFF,
            cmd_sn: 1,
            exp_stat_sn: 1,
            data: Bytes::from_static(b"ping"),
        })
        .encode();
        // NOP payload is a data segment but has no volume offset.
        assert!(t.walk(&nop, &mut cmds).is_empty());
        assert_eq!(t.pdus(), 1);
    }

    /// A successful read never produces a SCSI Response: its status rides
    /// on the final Data-In, which must retire the command.
    #[test]
    fn successful_read_leaves_no_table_entry() {
        let (mut to_target, mut to_initiator) = (WireTracker::new(), WireTracker::new());
        let mut cmds = Exchange::default();
        let read = BlockCmd {
            op: BlockOp::Read,
            lba: 6,
            sectors: 1,
        };
        let cmd = read.command(4, 1, 1, Bytes::new()).encode();
        assert!(to_target.walk(&cmd, &mut cmds).is_empty());
        assert_eq!(cmds.len(), 1);
        let din = data_in_final(4, Bytes::from(vec![0xDD; 512]), ScsiStatus::Good);
        let runs = to_initiator.walk(&din.encode(), &mut cmds);
        assert_eq!(runs, vec![(48..48 + 512, 6 * 512)]);
        assert_eq!(cmds.len(), 0);
    }

    /// `lba * 512 + buffer_offset` of a hostile command has no volume
    /// position; its bytes are walked past, not transformed.
    #[test]
    fn overflowing_volume_offset_yields_no_runs() {
        let mut t = WireTracker::new();
        let mut cmds = Exchange::default();
        let wire = write_cmd(1, u64::MAX / 512 + 1, 512, &[0xEE; 512]);
        assert!(t.walk(&wire, &mut cmds).is_empty());
        assert_eq!(t.pdus(), 1);
    }
}
