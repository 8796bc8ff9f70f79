//! Property tests for the nvmeq codec and reassembler, mirroring the
//! iSCSI PDU suite: round trips survive arbitrary fragmentation,
//! truncation is rejected cleanly, and garbage never panics.

use bytes::Bytes;
use proptest::prelude::*;

use storm_nvmeq::{
    Cqe, FrameHeader, FrameKind, FrameStream, NvmeqError, Sqe, SqeOp, UnitEntry, CQE_LEN,
    FRAME_HDR_LEN, MAGIC,
};

fn sqe_strategy() -> impl Strategy<Value = (Sqe, Vec<u8>)> {
    (
        prop_oneof![Just(SqeOp::Read), Just(SqeOp::Write), Just(SqeOp::Flush)],
        any::<u32>(),
        any::<u64>(),
        1u32..65,
        // Deliberately unaligned data lengths too: the wire format
        // carries whatever the entry declares.
        prop_oneof![Just(0usize), 1usize..701, Just(512usize), Just(4096usize)],
    )
        .prop_map(|(op, cid, lba, sectors, dlen)| {
            let dlen = if op == SqeOp::Write { dlen } else { 0 };
            let data: Vec<u8> = (0..dlen).map(|i| (i % 251) as u8).collect();
            (
                Sqe {
                    op,
                    cid,
                    lba,
                    sectors: if op == SqeOp::Flush { 0 } else { sectors },
                    data_len: dlen as u32,
                },
                data,
            )
        })
}

fn cqe_strategy() -> impl Strategy<Value = Cqe> {
    (
        any::<u32>(),
        prop_oneof![Just(0u8), Just(2u8), Just(8u8)],
        prop_oneof![Just(SqeOp::Read), Just(SqeOp::Write), Just(SqeOp::Flush)],
        0u32..8193,
    )
        .prop_map(|(cid, status, op, data_len)| Cqe {
            cid,
            status: storm_block::transport::ScsiStatus::from_byte(status),
            op,
            data_len: if op == SqeOp::Read { data_len } else { 0 },
        })
}

/// Encodes each command as its own doorbell frame, back to back.
fn encode_doorbells(cmds: &[(Sqe, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (sqe, data) in cmds {
        out.extend_from_slice(&FrameHeader::unit(FrameKind::Doorbell, data.len()).encode());
        out.extend_from_slice(&sqe.encode());
        out.extend_from_slice(data);
    }
    out
}

proptest! {
    #[test]
    fn sqe_round_trip(cmd in sqe_strategy()) {
        let (sqe, _) = cmd;
        prop_assert_eq!(Sqe::decode(&sqe.encode()), Ok(sqe));
    }

    #[test]
    fn cqe_round_trip(cqe in cqe_strategy()) {
        prop_assert_eq!(Cqe::decode(&cqe.encode()), Ok(cqe));
    }

    /// A train of one-command doorbell frames survives any stream
    /// fragmentation and comes back in order, each frame with its data.
    #[test]
    fn doorbell_round_trip_any_fragmentation(
        cmds in prop::collection::vec(sqe_strategy(), 1..9),
        chunk in 1usize..200,
    ) {
        let wire = encode_doorbells(&cmds);
        let mut s = FrameStream::new();
        let mut frames = Vec::new();
        for piece in wire.chunks(chunk) {
            frames.extend(s.feed_bytes(Bytes::copy_from_slice(piece)).unwrap());
        }
        prop_assert_eq!(frames.len(), cmds.len());
        for (frame, (sqe, data)) in frames.iter().zip(&cmds) {
            prop_assert_eq!(frame.header.count, 1);
            let unit = frame.unit.as_ref().expect("a doorbell carries its SQE");
            prop_assert_eq!(&unit.entry, &UnitEntry::Sqe(*sqe));
            prop_assert_eq!(unit.data.as_ref(), &data[..]);
        }
        prop_assert_eq!(s.pending_bytes(), 0);
    }

    /// Any strict prefix of a valid frame parses to nothing (still
    /// waiting) or a clean error — never a bogus frame, never a panic.
    #[test]
    fn truncated_frames_are_never_misparsed(
        cmd in sqe_strategy(),
        cut_frac in 0.0f64..1.0,
    ) {
        let wire = encode_doorbells(&[cmd]);
        let cut = ((wire.len() - 1) as f64 * cut_frac) as usize;
        let mut s = FrameStream::new();
        if let Ok(frames) = s.feed_bytes(Bytes::copy_from_slice(&wire[..cut])) {
            prop_assert!(frames.is_empty(), "prefix must not complete a frame");
        }
    }

    /// Arbitrary bytes fed in arbitrary chunks never panic: they parse
    /// or produce a typed error, and a bad first byte is rejected as
    /// soon as a header is available.
    #[test]
    fn garbage_never_panics(
        junk in prop::collection::vec(any::<u8>(), 0..600),
        chunk in 1usize..64,
    ) {
        let mut s = FrameStream::new();
        let mut failed = false;
        for piece in junk.chunks(chunk) {
            match s.feed_bytes(Bytes::copy_from_slice(piece)) {
                Ok(_) => {}
                Err(e) => {
                    if junk[0] != MAGIC && junk.len() >= FRAME_HDR_LEN {
                        prop_assert_eq!(e, NvmeqError::BadMagic(junk[0]));
                    }
                    failed = true;
                    break;
                }
            }
        }
        if junk.len() >= FRAME_HDR_LEN && junk[0] != MAGIC {
            prop_assert!(failed, "bad magic must be rejected");
        }
    }

    /// CQE entry decode tolerates truncation at every length.
    #[test]
    fn entry_truncation_is_typed(len in 0usize..CQE_LEN) {
        prop_assert_eq!(Cqe::decode(&vec![0u8; len]), Err(NvmeqError::Truncated));
        prop_assert_eq!(Sqe::decode(&vec![1u8; len]), Err(NvmeqError::Truncated));
    }
}
