//! Property-based tests for the iSCSI codec and endpoint machines.

use bytes::Bytes;
use proptest::prelude::*;
use storm_iscsi::exchange::{BlockCmd, Exchange, Staged, Step, Transfer};
use storm_iscsi::{
    data_segment_length, Cdb, DataIn, DataOut, Initiator, InitiatorConfig, LoginRequest,
    LoginResponse, LogoutRequest, LogoutResponse, NopIn, NopOut, Pdu, PduError, PduStream, R2t,
    ScsiCommand, ScsiResponse, ScsiStatus, SessionParams, TargetConfig, TargetConn, TargetEvent,
    TextRequest, TextResponse, TransportEvent, BHS_LEN,
};

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

/// Every one of the 13 PDU variants, fields fully randomized.
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
    let nop_out = (any::<u32>(), any::<u32>(), seg()).prop_map(|(itt, ttt, data)| {
        Pdu::NopOut(NopOut {
            itt,
            ttt,
            cmd_sn: 1,
            exp_stat_sn: 1,
            data,
        })
    });
    let nop_in = (any::<u32>(), any::<u32>(), seg()).prop_map(|(itt, ttt, data)| {
        Pdu::NopIn(NopIn {
            itt,
            ttt,
            stat_sn: 1,
            exp_cmd_sn: 2,
            max_cmd_sn: 33,
            data,
        })
    });
    let text_req = (any::<u32>(), any::<u32>(), seg()).prop_map(|(itt, ttt, data)| {
        Pdu::TextRequest(TextRequest {
            final_pdu: true,
            itt,
            ttt,
            cmd_sn: 1,
            exp_stat_sn: 1,
            data,
        })
    });
    let text_resp = (any::<u32>(), any::<u32>(), seg()).prop_map(|(itt, ttt, data)| {
        Pdu::TextResponse(TextResponse {
            final_pdu: true,
            itt,
            ttt,
            stat_sn: 1,
            exp_cmd_sn: 2,
            max_cmd_sn: 33,
            data,
        })
    });
    // The wire shares byte 1 between the reason code and the mandatory
    // final bit, so only 7 bits of the reason survive a round trip.
    let logout_req = (any::<u32>(), any::<u16>(), 0u8..0x80).prop_map(|(itt, cid, reason)| {
        Pdu::LogoutRequest(LogoutRequest {
            reason,
            itt,
            cid,
            cmd_sn: 1,
            exp_stat_sn: 1,
        })
    });
    let logout_resp = (any::<u32>(), any::<u8>()).prop_map(|(itt, response)| {
        Pdu::LogoutResponse(LogoutResponse {
            response,
            itt,
            stat_sn: 1,
            exp_cmd_sn: 2,
            max_cmd_sn: 33,
        })
    });
    prop_oneof![
        login_req,
        login_resp,
        cmd,
        resp,
        data_out,
        data_in,
        r2t,
        nop_out,
        nop_in,
        text_req,
        text_resp,
        logout_req,
        logout_resp,
    ]
}

fn arbitrary_pdu() -> impl Strategy<Value = Pdu> {
    prop_oneof![
        (any::<u32>(), prop::collection::vec(any::<u8>(), 0..300)).prop_map(|(itt, data)| {
            Pdu::NopOut(NopOut {
                itt,
                ttt: 0xFFFF_FFFF,
                cmd_sn: 1,
                exp_stat_sn: 1,
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
            got.extend(s.feed(piece).unwrap());
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
            let _ = tgt.feed(&ini.take_output());
            let _ = ini.feed(&tgt.take_output());
        }
        prop_assert!(ini.is_logged_in());
        let data: Vec<u8> =
            (0..sectors as usize * 512).map(|i| (i as u8).wrapping_mul(seed | 1)).collect();
        let tag = ini.write(lba, Bytes::from(data.clone()));
        // Shuttle with an in-memory disk at the target.
        let mut disk: std::collections::HashMap<u64, [u8; 512]> = Default::default();
        let mut done = false;
        let mut read_back: Option<Bytes> = None;
        let mut rtag = None;
        for _ in 0..128 {
            let out = ini.take_output();
            for ev in tgt.feed(&out) {
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
            let back = tgt.take_output();
            for ev in ini.feed(&back) {
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

/// An offset biased to the interesting places: inside the buffer, around
/// its end, and at the top of the field.
fn buffer_offset(kind: u8, raw: u32, expected: u32) -> u32 {
    match kind % 4 {
        0 => raw % (expected + 1),
        1 => expected.saturating_sub(8) + raw % 72,
        2 => u32::MAX,
        _ => u32::MAX - raw % 600,
    }
}

mod exchange_model {
    use super::*;

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
                let offset = buffer_offset(kind, raw, expected);
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

        /// Every consumer of one write conversation assembles the same bytes:
        /// the target (`WriteReady`), a monitor-style observer (classify with
        /// `Exchange::observe`, then stage/absorb) and a cache-style one
        /// (`BlockCmd::parse`, then stage/absorb by the PDU's own offset).
        /// Small negotiated limits force immediate data, the unsolicited first
        /// burst and several R2T rounds.
        #[test]
        fn every_consumer_assembles_the_same_write(
            sectors in 1u32..96,
            lba in 0u64..1000,
            mrdsl in 1u32..9,           // x 512 bytes
            first_burst in 0u32..17,    // x 512 bytes
            max_burst in 1u32..17,      // x 512 bytes
            flags in 0u8..4,
            seed in any::<u8>(),
        ) {
            let params = SessionParams {
                max_recv_data_segment_length: mrdsl * 512,
                first_burst_length: first_burst * 512,
                max_burst_length: max_burst * 512,
                initial_r2t: flags & 1 != 0,
                immediate_data: flags & 2 != 0,
            };
            let mut ini = Initiator::new(InitiatorConfig {
                params: params.clone(),
                ..InitiatorConfig::example()
            });
            let mut tgt = TargetConn::new(TargetConfig {
                params,
                ..TargetConfig::example(1 << 20)
            });
            ini.start_login();
            for _ in 0..4 {
                let _ = tgt.feed(&ini.take_output());
                let _ = ini.feed(&tgt.take_output());
            }
            prop_assert!(ini.is_logged_in());
            let data: Vec<u8> =
                (0..sectors as usize * 512).map(|i| (i as u8).wrapping_mul(seed | 1)).collect();
            let tag = ini.write(lba, Bytes::from(data.clone()));

            let (mut tap, mut monitor, mut cache) = (PduStream::new(), Exchange::default(), Exchange::default());
            let (mut at_target, mut at_monitor, mut at_cache) = (None, None, None);
            let mut done = false;
            for _ in 0..256 {
                let out = ini.take_output();
                for pdu in tap.feed(&out).unwrap() {
                    let staged = match (monitor.observe(&pdu), &pdu) {
                        (Step::Command(cmd), Pdu::ScsiCommand(c)) => monitor.stage(c.itt, cmd, &c.data),
                        (Step::WriteData(_, offset), Pdu::DataOut(d)) => {
                            monitor.absorb(d.itt, offset, &d.data)
                        }
                        _ => Staged::Untracked,
                    };
                    if let Staged::Complete(cmd, bytes) = staged {
                        at_monitor = Some((cmd.lba, bytes));
                    }
                    let staged = match &pdu {
                        Pdu::ScsiCommand(c) => {
                            let cmd = BlockCmd::parse(c, u64::MAX).unwrap();
                            cache.stage(c.itt, cmd, &c.data)
                        }
                        Pdu::DataOut(d) => cache.absorb(d.itt, d.buffer_offset, &d.data),
                        _ => Staged::Untracked,
                    };
                    if let Staged::Complete(cmd, bytes) = staged {
                        at_cache = Some((cmd.lba, bytes));
                    }
                }
                for ev in tgt.feed(&out) {
                    match ev {
                        TargetEvent::WriteReady { itt, lba, data } => {
                            at_target = Some((lba, data));
                            tgt.complete_write(itt, ScsiStatus::Good);
                        }
                        other => prop_assert!(false, "unexpected target event {other:?}"),
                    }
                }
                for ev in ini.feed(&tgt.take_output()) {
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
            let want = Some((lba, Bytes::from(data)));
            prop_assert_eq!(&at_target, &want);
            prop_assert_eq!(&at_monitor, &want);
            prop_assert_eq!(&at_cache, &want);
            // Completion retired the command everywhere.
            prop_assert!(monitor.is_empty() && cache.is_empty());
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
            let got = s.feed(&legacy).unwrap();
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
            match s.feed(&bytes) {
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
