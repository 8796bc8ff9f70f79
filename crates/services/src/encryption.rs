//! Case 2: on-the-fly data encryption/decryption.
//!
//! "The goal of this middle-box is to encrypt the tenant data before it is
//! written to the disk and decrypt it when the data is requested." The
//! tenant picks the algorithm — the flexibility the paper contrasts with
//! provider-controlled encryption:
//!
//! * [`CipherKind::AesXts`] — the dm-crypt equivalent; needs whole
//!   sectors, so it runs in the active relay, and a data segment that is
//!   not whole sectors is refused rather than passed on as plaintext.
//! * [`CipherKind::Stream`] — the byte-wise "stream cipher" used in the
//!   paper's API-overhead experiments (Figures 5/6/8/9); position-keyed,
//!   so it also works on the passive path where data crosses in arbitrary
//!   packet-sized pieces.

use std::collections::BTreeSet;

use bytes::BytesMut;

use storm_core::{Dir, StorageService, SvcCtx};
use storm_crypto::{AesXts, ChaCha20};
use storm_iscsi::exchange::{status_response, Exchange};
use storm_iscsi::{Pdu, ScsiStatus};
use storm_sim::SimDuration;

/// The tenant-selected cipher.
pub enum CipherKind {
    /// AES-256-XTS over 512-byte sectors.
    AesXts(Box<AesXts>),
    /// Seekable ChaCha20 keystream over the volume's byte space.
    Stream(ChaCha20),
}

impl CipherKind {
    /// Transforms `data` in place. `false`, with `data` untouched, when
    /// the cipher works on whole sectors and `data` at `vol_offset` is not
    /// that: segment bounds are the tenant's to choose, so this is input
    /// validation, not an invariant.
    #[must_use]
    fn apply(&self, encrypt: bool, vol_offset: u64, data: &mut [u8]) -> bool {
        match self {
            CipherKind::AesXts(xts) => {
                if !vol_offset.is_multiple_of(512) || !data.len().is_multiple_of(512) {
                    return false;
                }
                let sector = vol_offset / 512;
                if encrypt {
                    xts.encrypt_run(sector, 512, data);
                } else {
                    xts.decrypt_run(sector, 512, data);
                }
            }
            CipherKind::Stream(c) => c.apply_keystream_at(vol_offset, data),
        }
        true
    }
}

/// The encryption middle-box service.
pub struct EncryptionService {
    cipher: CipherKind,
    per_byte: SimDuration,
    cmds: Exchange,
    /// Tags of writes refused for unaligned data; their later Data-Out is
    /// dropped until the tag is reused or its status passes.
    refused: BTreeSet<u32>,
    bytes_encrypted: u64,
    bytes_decrypted: u64,
}

impl EncryptionService {
    /// AES-256-XTS from a 64-byte master key (active relay only).
    pub fn aes_xts(master_key: &[u8; 64]) -> Self {
        Self::with_cipher(CipherKind::AesXts(Box::new(AesXts::from_master_key(
            master_key,
        ))))
    }

    /// ChaCha20 stream cipher (works on both relay paths).
    pub fn stream_cipher(key: &[u8; 32], nonce: &[u8; 12]) -> Self {
        Self::with_cipher(CipherKind::Stream(ChaCha20::new(key, nonce)))
    }

    /// Builds from an explicit cipher.
    pub fn with_cipher(cipher: CipherKind) -> Self {
        EncryptionService {
            cipher,
            // ~1.5 GB/s single-core cipher throughput.
            per_byte: SimDuration::from_nanos(1),
            cmds: Exchange::default(),
            refused: BTreeSet::new(),
            bytes_encrypted: 0,
            bytes_decrypted: 0,
        }
    }

    /// Overrides the modelled per-byte CPU cost.
    pub fn set_per_byte_cost(&mut self, cost: SimDuration) {
        self.per_byte = cost;
    }

    /// `(encrypted, decrypted)` byte counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.bytes_encrypted, self.bytes_decrypted)
    }
}

impl StorageService for EncryptionService {
    fn name(&self) -> &str {
        "encryption"
    }

    fn on_pdu(&mut self, cx: &mut SvcCtx, dir: Dir, mut pdu: Pdu) {
        // Where the PDU's data segment sits on the volume, if it carries
        // block data of an open command (immediate data, Data-Out, Data-In).
        let at = self.cmds.observe(&pdu).volume_offset();
        let itt = pdu.itt();
        // A refused write's remaining data stops here, until a new command
        // takes the tag or a status for it passes.
        match &pdu {
            Pdu::ScsiCommand(_) | Pdu::ScsiResponse(_) => {
                self.refused.remove(&itt);
            }
            Pdu::DataOut(_) if self.refused.contains(&itt) => return,
            _ => {}
        }
        let data = match (&mut pdu, dir) {
            (Pdu::ScsiCommand(c), Dir::ToTarget) => Some(&mut c.data),
            (Pdu::DataOut(d), Dir::ToTarget) => Some(&mut d.data),
            (Pdu::DataIn(d), Dir::ToInitiator) => Some(&mut d.data),
            _ => None,
        };
        if let (Some(at), Some(data)) = (at, data.filter(|d| !d.is_empty())) {
            let encrypt = dir == Dir::ToTarget;
            // The transform's output needs storage of its own.
            let mut buf = BytesMut::from(&data[..]);
            if self.cipher.apply(encrypt, at, &mut buf) {
                cx.charge(self.per_byte * buf.len() as u64);
                if encrypt {
                    self.bytes_encrypted += buf.len() as u64;
                } else {
                    self.bytes_decrypted += buf.len() as u64;
                }
                *data = buf.freeze();
            } else {
                let what = if encrypt {
                    "refused"
                } else {
                    "passed undecrypted"
                };
                cx.alert(format!(
                    "encryption: {what} command {itt:#x}, {} bytes at volume offset {at} \
                     are not whole sectors",
                    buf.len()
                ));
                if encrypt {
                    // Fail closed: plaintext never goes on. The initiator
                    // is told its write failed, and the tag is retired here
                    // because the target may never answer for it.
                    let status = status_response(itt, ScsiStatus::CheckCondition);
                    self.cmds.observe(&status);
                    self.refused.insert(itt);
                    cx.reply(status);
                    return;
                }
            }
        }
        cx.forward(pdu);
    }

    fn per_byte_cost(&self) -> SimDuration {
        self.per_byte
    }

    fn transform(&mut self, dir: Dir, vol_offset: u64, data: &mut [u8]) {
        // Passive path: only position-keyed ciphers can run here.
        if let CipherKind::Stream(c) = &self.cipher {
            c.apply_keystream_at(vol_offset, data);
            if dir == Dir::ToTarget {
                self.bytes_encrypted += data.len() as u64;
            } else {
                self.bytes_decrypted += data.len() as u64;
            }
        }
    }
}

impl std::fmt::Debug for EncryptionService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncryptionService")
            .field("bytes_encrypted", &self.bytes_encrypted)
            .field("bytes_decrypted", &self.bytes_decrypted)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use storm_core::service::SvcAction;
    use storm_iscsi::exchange::{
        data_in_final, data_out_train, status_response, BlockCmd, BlockOp,
    };
    use storm_iscsi::ScsiStatus;
    use storm_sim::SimTime;

    fn svc() -> EncryptionService {
        EncryptionService::aes_xts(&[0x42; 64])
    }

    /// A command of `sectors` sectors carrying `imm` as immediate data.
    fn cmd(op: BlockOp, itt: u32, lba: u64, sectors: u32, imm: Bytes) -> Pdu {
        BlockCmd { op, lba, sectors }.command(itt, 1, 1, imm)
    }

    /// What one PDU made the service do, by kind.
    #[derive(Default)]
    struct Outcome {
        forwarded: Vec<Pdu>,
        replies: Vec<Pdu>,
        alerts: usize,
    }

    fn outcome(svc: &mut EncryptionService, dir: Dir, pdu: Pdu) -> Outcome {
        let mut cx = SvcCtx::new(SimTime::ZERO);
        svc.on_pdu(&mut cx, dir, pdu);
        let mut out = Outcome::default();
        for action in cx.take_actions() {
            match action {
                SvcAction::Forward(p) => out.forwarded.push(p),
                SvcAction::Reply(p) => out.replies.push(p),
                SvcAction::Alert(_) => out.alerts += 1,
                _ => {}
            }
        }
        out
    }

    /// The PDU the service forwarded.
    fn run(svc: &mut EncryptionService, dir: Dir, pdu: Pdu) -> Pdu {
        outcome(svc, dir, pdu).forwarded.pop().expect("forwarded")
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut enc = svc();
        let plain = Bytes::from(vec![0x11u8; 4096]);
        // Write path: immediate data is encrypted.
        let write = cmd(BlockOp::Write, 1, 64, 8, plain.clone());
        let out = run(&mut enc, Dir::ToTarget, write);
        let stored = match &out {
            Pdu::ScsiCommand(c) => c.data.clone(),
            other => panic!("unexpected {other:?}"),
        };
        assert_ne!(stored, plain, "ciphertext must differ");
        // Read path: a Data-In carrying the ciphertext decrypts back.
        let _ = run(&mut enc, Dir::ToInitiator, status_of(1));
        let read = cmd(BlockOp::Read, 2, 64, 8, Bytes::new());
        assert_eq!(run(&mut enc, Dir::ToTarget, read.clone()), read);
        let din = data_in_final(2, stored, ScsiStatus::Good);
        let back = run(&mut enc, Dir::ToInitiator, din);
        match back {
            Pdu::DataIn(d) => assert_eq!(d.data, plain),
            other => panic!("unexpected {other:?}"),
        }
        let (e, d) = enc.counters();
        assert_eq!((e, d), (4096, 4096));
        // Status retired the write, status on the final Data-In the read.
        assert!(enc.cmds.is_empty(), "{} commands leaked", enc.cmds.len());
    }

    fn status_of(itt: u32) -> Pdu {
        status_response(itt, ScsiStatus::Good)
    }

    /// A successful read ends with status collapsed into its final
    /// Data-In — no SCSI Response follows — and must still be retired.
    #[test]
    fn successful_read_leaves_no_table_entry() {
        let mut enc = svc();
        let _ = run(
            &mut enc,
            Dir::ToTarget,
            cmd(BlockOp::Read, 5, 0, 1, Bytes::new()),
        );
        assert_eq!(enc.cmds.len(), 1);
        let din = data_in_final(5, Bytes::from(vec![0u8; 512]), ScsiStatus::Good);
        let _ = run(&mut enc, Dir::ToInitiator, din);
        assert_eq!(enc.cmds.len(), 0);
    }

    /// `lba * 512` overflows for a hostile LBA: no volume offset, so the
    /// data passes through untouched instead of panicking.
    #[test]
    fn overflowing_volume_offset_passes_data_untouched() {
        let mut enc = svc();
        let write = cmd(
            BlockOp::Write,
            6,
            u64::MAX - 8,
            1,
            Bytes::from(vec![7u8; 512]),
        );
        assert_eq!(run(&mut enc, Dir::ToTarget, write.clone()), write);
        assert_eq!(enc.counters(), (0, 0));
    }

    #[test]
    fn data_out_uses_buffer_offset() {
        let mut enc = svc();
        // Establish the command context with no immediate data.
        let _ = run(
            &mut enc,
            Dir::ToTarget,
            cmd(BlockOp::Write, 7, 100, 6, Bytes::new()),
        );
        let plain = vec![0xABu8; 1024];
        let whole = Bytes::from([vec![0u8; 2048], plain.clone()].concat());
        let dout = data_out_train(7, 1, 1, &whole, 2048..3072, 1024)
            .next()
            .unwrap();
        let out = run(&mut enc, Dir::ToTarget, dout);
        let cipher1 = match &out {
            Pdu::DataOut(d) => d.data.clone(),
            _ => unreachable!(),
        };
        // Same plaintext at a different offset yields different ciphertext
        // (sector tweak).
        let mut direct = plain.clone();
        AesXts::from_master_key(&[0x42; 64]).encrypt_run(100 + 4, 512, &mut direct);
        assert_eq!(&cipher1[..], &direct[..]);
    }

    /// One Data-Out of command `itt` carrying `range` of a 3 KiB payload.
    fn data_out(itt: u32, range: std::ops::Range<usize>) -> Pdu {
        let whole = Bytes::from(vec![0xABu8; 3072]);
        let max = range.len();
        let pdu = data_out_train(itt, 1, 1, &whole, range, max).next();
        pdu.expect("non-empty range")
    }

    fn assert_refused(out: &Outcome, itt: u32) {
        assert!(
            out.forwarded.is_empty(),
            "plaintext went on: {:?}",
            out.forwarded
        );
        assert_eq!(
            out.replies,
            [status_response(itt, ScsiStatus::CheckCondition)]
        );
        assert_eq!(out.alerts, 1);
    }

    /// Segment bounds are the tenant's to choose: a Data-Out that is not
    /// whole sectors is refused, not a panic and not plaintext at rest.
    #[test]
    fn unaligned_data_out_length_fails_closed() {
        let mut enc = svc();
        let write = cmd(BlockOp::Write, 7, 100, 6, Bytes::new());
        let _ = run(&mut enc, Dir::ToTarget, write);
        assert_refused(&outcome(&mut enc, Dir::ToTarget, data_out(7, 0..100)), 7);
        assert_eq!(enc.counters(), (0, 0));
        assert!(enc.cmds.is_empty(), "the refused command stayed open");
    }

    #[test]
    fn unaligned_buffer_offset_fails_closed() {
        let mut enc = svc();
        let write = cmd(BlockOp::Write, 7, 100, 6, Bytes::new());
        let _ = run(&mut enc, Dir::ToTarget, write);
        assert_refused(&outcome(&mut enc, Dir::ToTarget, data_out(7, 7..519)), 7);
    }

    /// The command PDU itself is held back when its immediate data is the
    /// unaligned segment.
    #[test]
    fn unaligned_immediate_data_fails_closed() {
        let mut enc = svc();
        let write = cmd(BlockOp::Write, 7, 100, 6, Bytes::from(vec![1u8; 100]));
        assert_refused(&outcome(&mut enc, Dir::ToTarget, write), 7);
    }

    /// Once refused, none of the command's later data goes on either,
    /// aligned or not, and it raises no second alert; other tags, a new
    /// command on the same tag and a passing status are unaffected.
    #[test]
    fn refused_command_stays_refused_until_tag_reuse_or_status() {
        let mut enc = svc();
        let write = cmd(BlockOp::Write, 7, 100, 6, Bytes::new());
        let _ = run(&mut enc, Dir::ToTarget, write.clone());
        let _ = run(
            &mut enc,
            Dir::ToTarget,
            cmd(BlockOp::Write, 8, 200, 6, Bytes::new()),
        );
        assert_refused(&outcome(&mut enc, Dir::ToTarget, data_out(7, 0..100)), 7);
        let later = outcome(&mut enc, Dir::ToTarget, data_out(7, 512..1024));
        assert!(later.forwarded.is_empty() && later.replies.is_empty());
        assert_eq!(later.alerts, 0);
        // Another command on the flow still encrypts.
        let other = run(&mut enc, Dir::ToTarget, data_out(8, 0..512));
        assert_ne!(other, data_out(8, 0..512));
        // The target's own status for the tag lifts the refusal...
        assert_eq!(run(&mut enc, Dir::ToInitiator, status_of(7)), status_of(7));
        assert!(enc.refused.is_empty());
        // ...and so does a new command reusing it.
        let _ = run(&mut enc, Dir::ToTarget, write.clone());
        assert_refused(&outcome(&mut enc, Dir::ToTarget, data_out(7, 0..100)), 7);
        let _ = run(&mut enc, Dir::ToTarget, write);
        let again = run(&mut enc, Dir::ToTarget, data_out(7, 512..1024));
        assert_ne!(again, data_out(7, 512..1024));
        assert_eq!(enc.counters().0, 1024);
    }

    /// Ciphertext the target segments off a sector boundary cannot be
    /// decrypted; it reaches the initiator as it is, with an alert.
    #[test]
    fn unaligned_data_in_passes_ciphertext_with_an_alert() {
        let mut enc = svc();
        let _ = run(
            &mut enc,
            Dir::ToTarget,
            cmd(BlockOp::Read, 9, 0, 1, Bytes::new()),
        );
        let din = data_in_final(9, Bytes::from(vec![3u8; 100]), ScsiStatus::Good);
        let out = outcome(&mut enc, Dir::ToInitiator, din.clone());
        assert_eq!(out.forwarded, [din]);
        assert_eq!((out.alerts, out.replies.len()), (1, 0));
        assert_eq!(enc.counters(), (0, 0));
    }

    /// The stream cipher is position-keyed: no alignment to check.
    #[test]
    fn stream_cipher_takes_unaligned_segments() {
        let mut enc = EncryptionService::stream_cipher(&[7; 32], &[9; 12]);
        let _ = run(
            &mut enc,
            Dir::ToTarget,
            cmd(BlockOp::Write, 7, 100, 6, Bytes::new()),
        );
        let out = outcome(&mut enc, Dir::ToTarget, data_out(7, 7..107));
        assert_eq!((out.forwarded.len(), out.alerts), (1, 0));
        assert_ne!(out.forwarded[0], data_out(7, 7..107));
        assert_eq!(enc.counters(), (100, 0));
    }

    #[test]
    fn stream_cipher_passive_transform_round_trips_in_pieces() {
        let mut enc = EncryptionService::stream_cipher(&[7; 32], &[9; 12]);
        let mut dec = EncryptionService::stream_cipher(&[7; 32], &[9; 12]);
        let plain: Vec<u8> = (0..3000).map(|i| (i % 251) as u8).collect();
        let mut wire = plain.clone();
        // Encrypt in irregular chunks (packets), decrypt in different ones.
        let mut off = 0;
        for chunk in [100usize, 900, 1448, 552] {
            enc.transform(
                Dir::ToTarget,
                5000 + off as u64,
                &mut wire[off..off + chunk],
            );
            off += chunk;
        }
        let mut off = 0;
        for chunk in [1448usize, 1448, 104] {
            dec.transform(
                Dir::ToInitiator,
                5000 + off as u64,
                &mut wire[off..off + chunk],
            );
            off += chunk;
        }
        assert_eq!(wire, plain);
        assert_eq!(enc.counters().0, 3000);
        assert_eq!(dec.counters().1, 3000);
    }

    #[test]
    fn xts_never_transforms_on_passive_path() {
        let mut enc = svc();
        let mut data = vec![1u8; 512];
        let orig = data.clone();
        enc.transform(Dir::ToTarget, 0, &mut data);
        assert_eq!(data, orig, "XTS must not run without whole-PDU context");
    }

    #[test]
    fn non_data_pdus_pass_untouched() {
        let mut enc = svc();
        let nop = Pdu::NopOut(storm_iscsi::NopOut {
            itt: 9,
            ttt: 0xFFFF_FFFF,
            cmd_sn: 1,
            exp_stat_sn: 1,
            data: Bytes::from_static(b"keepalive"),
        });
        let out = run(&mut enc, Dir::ToTarget, nop.clone());
        assert_eq!(out, nop);
    }
}
