//! Property-based tests for the iSCSI codec and endpoint machines.

use bytes::Bytes;
use proptest::prelude::*;
use storm_block::transport::{ScsiStatus, Staged, Staging, Step, TargetEvent, TransportEvent};
use storm_iscsi::exchange::{parse_command, Exchange};
use storm_iscsi::{
    data_segment_length, Cdb, DataIn, DataOut, Initiator, InitiatorConfig, LoginRequest,
    LoginResponse, Pdu, PduError, PduStream, R2t, ScsiCommand, ScsiResponse, TargetConfig,
    TargetConn, BHS_LEN,
};

/// Feeds a copy of `bytes` to `s`, returning the PDUs it completed.
fn feed(s: &mut PduStream, bytes: &[u8]) -> Result<Vec<Pdu>, PduError> {
    let got = s.feed_bytes(Bytes::copy_from_slice(bytes))?;
    Ok(got.into_iter().map(|pw| pw.pdu).collect())
}

/// A drained wire image as one chunk.
fn flat(wire: Vec<Bytes>) -> Bytes {
    wire.concat().into()
}

/// A data segment deliberately biased toward non-4-byte-aligned lengths,
/// so padding paths get exercised on every run.
fn seg() -> impl Strategy<Value = Bytes> {
    prop::collection::vec(any::<u8>(), 0..259).prop_map(Bytes::from)
}

fn isid() -> impl Strategy<Value = [u8; 6]> {
    any::<u64>().prop_map(|v| v.to_be_bytes()[2..8].try_into().expect("6 bytes"))
}

fn cdb16() -> impl Strategy<Value = [u8; 16]> {
    (any::<u64>(), any::<u64>()).prop_map(|(a, b)| {
        let mut c = [0u8; 16];
        c[..8].copy_from_slice(&a.to_be_bytes());
        c[8..].copy_from_slice(&b.to_be_bytes());
        c
    })
}

fn arbitrary_status() -> impl Strategy<Value = ScsiStatus> {
    prop_oneof![
        Just(ScsiStatus::Good),
        Just(ScsiStatus::CheckCondition),
        Just(ScsiStatus::Busy),
    ]
}

/// Every one of the 7 PDU variants, fields fully randomized.
fn any_variant() -> impl Strategy<Value = Pdu> {
    let login_req =
        (any::<u32>(), isid(), any::<u16>(), seg()).prop_map(|(itt, isid, tsih, data)| {
            Pdu::LoginRequest(LoginRequest {
                transit: true,
                csg: 1,
                nsg: 3,
                isid,
                tsih,
                itt,
                cid: 0,
                cmd_sn: 1,
                exp_stat_sn: 1,
                data,
            })
        });
    let login_resp =
        (any::<u32>(), isid(), any::<u8>(), seg()).prop_map(|(itt, isid, detail, data)| {
            Pdu::LoginResponse(LoginResponse {
                transit: true,
                csg: 1,
                nsg: 3,
                isid,
                tsih: 1,
                itt,
                stat_sn: 1,
                exp_cmd_sn: 2,
                max_cmd_sn: 34,
                status_class: 0,
                status_detail: detail,
                data,
            })
        });
    let cmd = (any::<u32>(), any::<u64>(), cdb16(), seg()).prop_map(|(itt, lun, cdb, data)| {
        Pdu::ScsiCommand(ScsiCommand {
            immediate: false,
            final_pdu: true,
            read: false,
            write: true,
            lun,
            itt,
            edtl: data.len() as u32,
            cmd_sn: 7,
            exp_stat_sn: 3,
            cdb,
            data,
        })
    });
    let resp = (any::<u32>(), any::<u32>(), arbitrary_status(), seg()).prop_map(
        |(itt, residual, status, data)| {
            Pdu::ScsiResponse(ScsiResponse {
                itt,
                response: 0,
                status,
                stat_sn: 9,
                exp_cmd_sn: 10,
                max_cmd_sn: 42,
                residual,
                data,
            })
        },
    );
    let data_out =
        (any::<u32>(), any::<u32>(), any::<u32>(), seg()).prop_map(|(itt, ttt, off, data)| {
            Pdu::DataOut(DataOut {
                final_pdu: true,
                lun: 1,
                itt,
                ttt,
                exp_stat_sn: 1,
                data_sn: 0,
                buffer_offset: off,
                data,
            })
        });
    let data_in = (any::<u32>(), any::<u32>(), arbitrary_status(), seg()).prop_map(
        |(itt, off, status, data)| {
            Pdu::DataIn(DataIn {
                final_pdu: true,
                status_present: true,
                status,
                lun: 1,
                itt,
                ttt: 0xFFFF_FFFF,
                stat_sn: 4,
                exp_cmd_sn: 5,
                max_cmd_sn: 36,
                data_sn: 2,
                buffer_offset: off,
                residual: 0,
                data,
            })
        },
    );
    let r2t = (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()).prop_map(
        |(itt, ttt, off, want)| {
            Pdu::R2t(R2t {
                lun: 0,
                itt,
                ttt,
                stat_sn: 1,
                exp_cmd_sn: 2,
                max_cmd_sn: 33,
                r2t_sn: 0,
                buffer_offset: off,
                desired_length: want,
            })
        },
    );
    prop_oneof![login_req, login_resp, cmd, resp, data_out, data_in, r2t]
}

fn arbitrary_pdu() -> impl Strategy<Value = Pdu> {
    prop_oneof![
        (any::<u32>(), prop::collection::vec(any::<u8>(), 0..300)).prop_map(|(itt, data)| {
            Pdu::ScsiResponse(ScsiResponse {
                itt,
                response: 0,
                status: ScsiStatus::CheckCondition,
                stat_sn: 1,
                exp_cmd_sn: 2,
                max_cmd_sn: 33,
                residual: 0,
                data: Bytes::from(data),
            })
        }),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            prop::collection::vec(any::<u8>(), 0..600)
        )
            .prop_map(|(itt, ttt, off, data)| {
                Pdu::DataOut(DataOut {
                    final_pdu: true,
                    lun: 0,
                    itt,
                    ttt,
                    exp_stat_sn: 1,
                    data_sn: 0,
                    buffer_offset: off,
                    data: Bytes::from(data),
                })
            }),
    ]
}

proptest! {
    /// Encode → stream-parse round-trips any PDU sequence, regardless of
    /// how the byte stream is fragmented.
    #[test]
    fn stream_round_trip_any_fragmentation(
        pdus in prop::collection::vec(arbitrary_pdu(), 1..6),
        chunk in 1usize..200,
    ) {
        let mut wire = Vec::new();
        for p in &pdus {
            wire.extend(p.encode());
        }
        let mut s = PduStream::new();
        let mut got = Vec::new();
        for piece in wire.chunks(chunk) {
            got.extend(feed(&mut s, piece).unwrap());
        }
        prop_assert_eq!(got, pdus);
        prop_assert_eq!(s.pending_bytes(), 0);
    }

    /// CDB round trip for arbitrary LBAs and lengths.
    #[test]
    fn cdb_round_trip(lba in any::<u64>(), sectors in 1u32..1_000_000) {
        for cdb in [Cdb::Read { lba, sectors }, Cdb::Write { lba, sectors }] {
            prop_assert_eq!(Cdb::parse(&cdb.to_bytes()), Ok(cdb));
        }
    }

    /// Full write/read cycles through initiator+target preserve data for
    /// arbitrary sizes (immediate data, unsolicited bursts and R2T paths)
    /// and arbitrary aligned offsets.
    #[test]
    fn write_read_preserves_data(
        sectors in 1u32..600,       // up to 300 KiB: crosses every burst limit
        lba in 0u64..1000,
        seed in any::<u8>(),
    ) {
        let mut ini = Initiator::new(InitiatorConfig::example());
        let mut tgt = TargetConn::new(TargetConfig::example(1 << 20));
        ini.start_login();
        for _ in 0..4 {
            let _ = tgt.feed_bytes(flat(ini.take_wire()));
            let _ = ini.feed_bytes(flat(tgt.take_wire()));
        }
        prop_assert!(ini.is_logged_in());
        let data: Vec<u8> =
            (0..sectors as usize * 512).map(|i| (i as u8).wrapping_mul(seed | 1)).collect();
        let tag = ini.write(lba, Bytes::from(data.clone()));
        // Shuttle with an in-memory disk at the target.
        let mut disk: std::collections::BTreeMap<u64, [u8; 512]> = Default::default();
        let mut done = false;
        let mut read_back: Option<Bytes> = None;
        let mut rtag = None;
        for _ in 0..128 {
            let out = flat(ini.take_wire());
            for ev in tgt.feed_bytes(out.clone()) {
                match ev {
                    TargetEvent::WriteReady { itt, lba, data } => {
                        for (i, sector) in data.chunks(512).enumerate() {
                            disk.insert(lba + i as u64, sector.try_into().unwrap());
                        }
                        tgt.complete_write(itt, ScsiStatus::Good);
                    }
                    TargetEvent::ReadReady { itt, lba, sectors } => {
                        let mut buf = Vec::new();
                        for s in 0..sectors as u64 {
                            buf.extend_from_slice(&disk.get(&(lba + s)).copied().unwrap_or([0; 512]));
                        }
                        tgt.complete_read(itt, Bytes::from(buf), ScsiStatus::Good);
                    }
                    _ => {}
                }
            }
            let back = flat(tgt.take_wire());
            for ev in ini.feed_bytes(back) {
                match ev {
                    TransportEvent::WriteDone { tag: t, status } if t == tag => {
                        prop_assert_eq!(status, ScsiStatus::Good);
                        rtag = Some(ini.read(lba, sectors));
                    }
                    TransportEvent::ReadDone { tag: t, status, data } if Some(t) == rtag => {
                        prop_assert_eq!(status, ScsiStatus::Good);
                        read_back = Some(data);
                        done = true;
                    }
                    TransportEvent::ProtocolError(e) => prop_assert!(false, "protocol error: {e}"),
                    _ => {}
                }
            }
            if done {
                break;
            }
        }
        prop_assert!(done, "I/O did not complete");
        prop_assert_eq!(&read_back.unwrap()[..], &data[..]);
        prop_assert_eq!(ini.in_flight(), 0);
    }
}

mod exchange_model {
    use super::*;
    use storm_block::transport::{BlockCmd, BlockOp};
    use storm_iscsi::exchange::{data_out_train, scsi_command};

    /// Two observers of an initiator's PDUs, each with the last write it
    /// assembled: a monitor-style one (classify with `Exchange::observe`,
    /// then `Staging`) and a cache-style one (`parse_command`, then
    /// `Staging` by the PDU's own offset).
    #[derive(Default)]
    struct Observers {
        open: Exchange,
        monitor: Staging,
        cache: Staging,
        at_monitor: Option<(u64, Bytes)>,
        at_cache: Option<(u64, Bytes)>,
    }

    impl Observers {
        fn see(&mut self, pdu: &Pdu) {
            let (step, cmd) = self.open.observe(pdu);
            let itt = pdu.itt().into();
            if let Staged::Complete(cmd, bytes) = self.monitor.feed(itt, step, cmd, pdu.data()) {
                self.at_monitor = Some((cmd.lba, bytes));
            }
            let staged = match pdu {
                Pdu::ScsiCommand(c) => {
                    let cmd = parse_command(c, u64::MAX).unwrap();
                    self.cache.feed(itt, Step::Command, Some(cmd), &c.data)
                }
                Pdu::DataOut(d) => {
                    self.cache
                        .feed(itt, Step::WriteData(d.buffer_offset), None, &d.data)
                }
                _ => Staged::Untracked,
            };
            if let Staged::Complete(cmd, bytes) = staged {
                self.at_cache = Some((cmd.lba, bytes));
            }
        }
    }

    proptest! {
        /// Every consumer of one write conversation assembles the same
        /// bytes: the target (`WriteReady`) and both [`Observers`]. The
        /// initiator and target talk at the fixed session limits, over
        /// writes that fit the immediate data, end in the unsolicited
        /// first burst, or take one or two R2T rounds. The observers
        /// also take the same write in a Data-Out layout drawn directly
        /// (immediate length, segment size, burst split), as a guest that
        /// ignores the session limits sends it.
        #[test]
        fn every_consumer_assembles_the_same_write(
            sectors in prop_oneof![1u32..17, 17u32..129, 129u32..641, 641u32..1101],
            lba in 0u64..1000,
            imm in 0usize..17,          // x 512 bytes
            segment in 1usize..9,       // x 512 bytes
            burst in 1usize..17,        // x 512 bytes
            seed in any::<u8>(),
        ) {
            let mut ini = Initiator::new(InitiatorConfig::example());
            let mut tgt = TargetConn::new(TargetConfig::example(1 << 20));
            ini.start_login();
            for _ in 0..4 {
                let _ = tgt.feed_bytes(flat(ini.take_wire()));
                let _ = ini.feed_bytes(flat(tgt.take_wire()));
            }
            prop_assert!(ini.is_logged_in());
            let data: Vec<u8> =
                (0..sectors as usize * 512).map(|i| (i as u8).wrapping_mul(seed | 1)).collect();
            let data = Bytes::from(data);
            let want = Some((lba, data.clone()));
            let tag = ini.write(lba, data.clone());

            let mut tap = PduStream::new();
            let mut seen = Observers::default();
            let mut at_target = None;
            let mut done = false;
            for _ in 0..256 {
                let out = flat(ini.take_wire());
                for pdu in feed(&mut tap, &out).unwrap() {
                    seen.see(&pdu);
                }
                for ev in tgt.feed_bytes(out.clone()) {
                    match ev {
                        TargetEvent::WriteReady { itt, lba, data } => {
                            at_target = Some((lba, data));
                            tgt.complete_write(itt, ScsiStatus::Good);
                        }
                        other => prop_assert!(false, "unexpected target event {other:?}"),
                    }
                }
                for ev in ini.feed_bytes(flat(tgt.take_wire())) {
                    match ev {
                        TransportEvent::WriteDone { tag: t, status } => {
                            prop_assert_eq!((t, status), (tag, ScsiStatus::Good));
                            done = true;
                        }
                        other => prop_assert!(false, "unexpected initiator event {other:?}"),
                    }
                }
                if done {
                    break;
                }
            }
            prop_assert!(done, "write did not complete");
            prop_assert_eq!(&at_target, &want);
            prop_assert_eq!(&seen.at_monitor, &want);
            prop_assert_eq!(&seen.at_cache, &want);
            // Completion retired the command everywhere.
            for staging in [&mut seen.monitor, &mut seen.cache] {
                let left = staging.feed(tag.0.into(), Step::Other, None, &Bytes::new());
                prop_assert!(matches!(left, Staged::Untracked), "a write stayed staged");
            }

            // The drawn layout: immediate data, then bursts of Data-Out.
            let mut seen = Observers::default();
            let cmd = BlockCmd { op: BlockOp::Write, lba, sectors };
            let imm = (imm * 512).min(data.len());
            seen.see(&scsi_command(cmd, 5, 1, 1, data.slice(..imm)));
            let bursts = (imm..data.len()).step_by(burst * 512);
            for (ttt, start) in (0u32..).zip(bursts) {
                let range = start..start + burst * 512;
                for pdu in data_out_train(5, ttt, 1, &data, range, segment * 512) {
                    seen.see(&pdu);
                }
            }
            prop_assert_eq!(&seen.at_monitor, &want);
            prop_assert_eq!(&seen.at_cache, &want);
        }
    }
}

mod zero_copy {
    use super::*;

    proptest! {
        /// All three encoders — `encode`, `encode_into`, and the zero-copy
        /// `wire_chunks` scatter-gather view — must produce identical wire
        /// bytes for every PDU variant, including non-4-byte-aligned data
        /// segments, and the chunked view must share (not copy) the data.
        #[test]
        fn zero_copy_encoders_match_legacy(pdu in any_variant()) {
            let legacy = pdu.encode();
            prop_assert_eq!(legacy.len() % 4, 0, "wire image must be padded");
            prop_assert_eq!(legacy.len(), pdu.wire_len());

            let mut buf = bytes::BytesMut::new();
            pdu.encode_into(&mut buf);
            prop_assert_eq!(&buf.to_vec(), &legacy);

            let w = pdu.wire_chunks();
            prop_assert_eq!(w.wire_len(), legacy.len());
            prop_assert_eq!(&w.to_vec(), &legacy);
            prop_assert_eq!(&w.header[..], &legacy[..BHS_LEN]);
            prop_assert!(w.pad.len() < 4);
            prop_assert!(w.pad.iter().all(|&b| b == 0));
            if !pdu.data().is_empty() {
                prop_assert!(
                    w.data.same_storage(pdu.data()),
                    "data chunk must share the PDU's storage, not copy it"
                );
            }
            // The header carries the real (unpadded) data-segment length.
            prop_assert_eq!(data_segment_length(&w.header).unwrap(), pdu.data().len());

            // And the stream decodes it all back to the same PDU.
            let mut s = PduStream::new();
            let got = feed(&mut s, &legacy).unwrap();
            prop_assert_eq!(got, vec![pdu]);
        }

        /// `data_segment_length` rejects every truncated header instead of
        /// panicking — short reassembly buffers must surface as protocol
        /// errors in the relay hot path.
        #[test]
        fn truncated_headers_are_rejected(len in 0usize..BHS_LEN, fill in any::<u8>()) {
            let short = vec![fill; len];
            prop_assert_eq!(data_segment_length(&short), Err(PduError::Truncated));
        }

        /// Feeding arbitrary garbage to the stream never panics: it either
        /// parses, waits for more bytes, or reports a decode error.
        #[test]
        fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
            let mut s = PduStream::new();
            match feed(&mut s, &bytes) {
                Ok(pdus) => {
                    // Whatever parsed must re-encode to a prefix of the input.
                    let mut wire = Vec::new();
                    for p in &pdus {
                        wire.extend(p.encode());
                    }
                    prop_assert_eq!(&bytes[..wire.len()], &wire[..]);
                }
                Err(PduError::UnknownOpcode(_)) | Err(PduError::Truncated) => {}
                // Internal accounting desync must never be reachable from
                // the outside, whatever the input.
                Err(e @ PduError::Desync) => prop_assert!(false, "{e}"),
            }
        }
    }
}
