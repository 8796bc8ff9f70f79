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
//!   packet-sized pieces. In the active relay the keystream of a command's
//!   data is computed ahead on a helper core ([`ChaCha20::ahead`]) from
//!   the moment the command passes.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use std::collections::BTreeMap;

use bytes::BytesMut;

use storm_block::transport::{BlockOp, ScsiStatus, Step};
use storm_core::{Dir, Op, StorageService, SvcCtx};
use storm_crypto::{AesXts, ChaCha20, Keystream};
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

/// Commands [`EncryptionService`] follows at once; when the table is full,
/// a new entry drops the oldest.
const OPEN_BOUND: usize = 256;

/// What the service keeps for one command until its last data byte, a
/// status for its tag or a new command on it.
struct Open {
    /// Opening order: a full table drops the lowest.
    seq: u64,
    /// Bytes of data the command moves; the op that reaches them is its
    /// last.
    bytes: u64,
    /// The keystream of the data still to come, computed ahead, or `None`
    /// for a write refused for unaligned data, whose later data is
    /// dropped.
    ahead: Option<Keystream>,
}

/// The encryption middle-box service.
pub struct EncryptionService {
    cipher: CipherKind,
    per_byte: SimDuration,
    /// The commands whose data is still to come and that the service
    /// keeps something for, by tag.
    open: BTreeMap<u64, Open>,
    /// Entries opened so far: the last one's `seq`.
    opened: u64,
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
            open: BTreeMap::new(),
            opened: 0,
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

    /// Commands the service keeps state for: a keystream computed ahead,
    /// or a refused write whose data is still to come.
    pub fn open_commands(&self) -> usize {
        self.open.len()
    }

    /// Keeps `ahead` for command `tag` until its data reaches `bytes`,
    /// dropping the oldest entry if the table is full.
    fn track(&mut self, tag: u64, bytes: u64, ahead: Option<Keystream>) {
        if self.open.len() >= OPEN_BOUND && !self.open.contains_key(&tag) {
            let oldest = self.open.iter().min_by_key(|(_, o)| o.seq).map(|(&t, _)| t);
            if let Some(oldest) = oldest {
                self.open.remove(&oldest);
            }
        }
        self.opened += 1;
        let seq = self.opened;
        self.open.insert(tag, Open { seq, bytes, ahead });
    }

    /// Starts the keystream of the data that follows command `op` (a read's
    /// whole range, a write's data past what the command carries), when
    /// the cipher is ChaCha20.
    fn start_ahead(&mut self, op: &Op, at: u64) {
        let (CipherKind::Stream(c), Some(cmd)) = (&self.cipher, op.cmd()) else {
            return;
        };
        let carried = match cmd.op {
            BlockOp::Read => 0,
            BlockOp::Write => op.data.len() as u64,
            _ => return,
        };
        let Some(rest) = cmd.bytes().checked_sub(carried).filter(|&n| n > 0) else {
            return;
        };
        if let Some(ks) = at.checked_add(carried).and_then(|from| c.ahead(from, rest)) {
            self.track(op.tag(), cmd.bytes(), Some(ks));
        }
    }
}

/// Whether `op` carries the last data byte of a command of `bytes`, so no
/// data of the command follows it: its data (a command's own, or a data
/// op's at its offset) reaches the end, or it is a read answer without
/// data (a failed nvmeq read).
fn ends_data(op: &Op, bytes: u64) -> bool {
    let (off, read) = match op.step() {
        Step::Command => (0, false),
        Step::WriteData(off) => (off, false),
        Step::ReadData(off) => (off, true),
        Step::Status(_) | Step::Other => return false,
    };
    u64::from(off) + op.data.len() as u64 >= bytes || (read && op.data.is_empty())
}

impl StorageService for EncryptionService {
    fn name(&self) -> &str {
        "encryption"
    }

    fn on_op(&mut self, cx: &mut SvcCtx<Op>, dir: Dir, mut op: Op) {
        let tag = op.tag();
        // A new command on the tag, or a status for it, ends what was kept
        // for the tag. A refused write's remaining data stops here.
        match op.step() {
            Step::Command | Step::Status(_) => {
                self.open.remove(&tag);
            }
            Step::WriteData(_) => {
                if let Some(&Open {
                    bytes, ahead: None, ..
                }) = self.open.get(&tag)
                {
                    if ends_data(&op, bytes) {
                        self.open.remove(&tag);
                    }
                    return;
                }
            }
            _ => {}
        }
        // Where the op's data sits on the volume, if it is block data of
        // a known command travelling the way its step does.
        let encrypt = dir == Dir::ToTarget;
        let at = match (op.step(), encrypt) {
            (Step::Command | Step::WriteData(_), true) | (Step::ReadData(_), false) => {
                op.step().volume_offset(op.cmd())
            }
            _ => None,
        };
        if let (Step::Command, Some(at)) = (op.step(), at) {
            self.start_ahead(&op, at);
        }
        if let (Some(at), false) = (at, op.data.is_empty()) {
            // The transform's output needs storage of its own.
            let mut buf = BytesMut::from(&op.data[..]);
            let ahead = self.open.get(&tag).and_then(|o| o.ahead.as_ref());
            if ahead.is_some_and(|ks| ks.apply(at, &mut buf))
                || self.cipher.apply(encrypt, at, &mut buf)
            {
                cx.charge(self.per_byte * buf.len() as u64);
                if encrypt {
                    self.bytes_encrypted += buf.len() as u64;
                } else {
                    self.bytes_decrypted += buf.len() as u64;
                }
                op.data = buf.freeze();
            } else {
                let what = if encrypt {
                    "refused"
                } else {
                    "passed undecrypted"
                };
                cx.alert(format!(
                    "encryption: {what} command {tag:#x}, {} bytes at volume offset {at} \
                     are not whole sectors",
                    buf.len()
                ));
                if encrypt {
                    // Fail closed: plaintext never goes on. The initiator
                    // is told its write failed (which retires the tag at
                    // the relay, as the target may never answer for it).
                    // Its data still to come is dropped.
                    let bytes = op.cmd().map_or(0, |c| c.bytes());
                    if ends_data(&op, bytes) {
                        self.open.remove(&tag);
                    } else {
                        self.track(tag, bytes, None);
                    }
                    cx.reply(Op::status(tag, ScsiStatus::CheckCondition));
                    return;
                }
            }
        }
        if self.open.get(&tag).is_some_and(|o| ends_data(&op, o.bytes)) {
            self.open.remove(&tag);
        }
        cx.forward(op);
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
    use storm_block::transport::{BlockCmd, BlockOp};
    use storm_core::service::SvcAction;
    use storm_sim::SimTime;

    fn svc() -> EncryptionService {
        EncryptionService::aes_xts(&[0x42; 64])
    }

    fn block(op: BlockOp, lba: u64, sectors: u32) -> BlockCmd {
        BlockCmd { op, lba, sectors }
    }

    /// A command of `sectors` sectors carrying `imm` as immediate data.
    fn cmd(op: BlockOp, itt: u64, lba: u64, sectors: u32, imm: Bytes) -> Op {
        Op::command(itt, block(op, lba, sectors), imm)
    }

    /// Data of the six-sector write `itt` at LBA 100 (or 200 for tag 8),
    /// carrying `range` of a 3 KiB payload.
    fn data_out(itt: u64, range: std::ops::Range<usize>) -> Op {
        let lba = if itt == 8 { 200 } else { 100 };
        let whole = Bytes::from(vec![0xABu8; 3072]);
        let step = Step::WriteData(range.start as u32);
        let write = block(BlockOp::Write, lba, 6);
        Op::new(step, Some(write), itt, whole.slice(range))
    }

    fn read_data(itt: u64, cmd: BlockCmd, data: Bytes) -> Op {
        Op::new(Step::ReadData(0), Some(cmd), itt, data)
    }

    /// What one op made the service do, by kind.
    #[derive(Default)]
    struct Outcome {
        forwarded: Vec<Op>,
        replies: Vec<Op>,
        alerts: usize,
    }

    fn outcome(svc: &mut EncryptionService, dir: Dir, op: Op) -> Outcome {
        let mut cx = SvcCtx::new(SimTime::ZERO);
        svc.on_op(&mut cx, dir, op);
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

    /// The op the service forwarded.
    fn run(svc: &mut EncryptionService, dir: Dir, op: Op) -> Op {
        outcome(svc, dir, op).forwarded.pop().expect("forwarded")
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut enc = svc();
        let plain = Bytes::from(vec![0x11u8; 4096]);
        // Write path: immediate data is encrypted.
        let write = cmd(BlockOp::Write, 1, 64, 8, plain.clone());
        let stored = run(&mut enc, Dir::ToTarget, write).data;
        assert_ne!(stored, plain, "ciphertext must differ");
        // Read path: read data carrying the ciphertext decrypts back.
        let read = cmd(BlockOp::Read, 2, 64, 8, Bytes::new());
        assert_eq!(run(&mut enc, Dir::ToTarget, read.clone()), read);
        let din = read_data(2, block(BlockOp::Read, 64, 8), stored);
        assert_eq!(run(&mut enc, Dir::ToInitiator, din).data, plain);
        assert_eq!(enc.counters(), (4096, 4096));
    }

    /// `lba * 512` overflows for a hostile LBA: no volume offset, so the
    /// data passes through untouched instead of panicking.
    #[test]
    fn overflowing_volume_offset_passes_data_untouched() {
        let mut enc = svc();
        let data = Bytes::from(vec![7u8; 512]);
        let write = cmd(BlockOp::Write, 6, u64::MAX - 8, 1, data);
        assert_eq!(run(&mut enc, Dir::ToTarget, write.clone()), write);
        assert_eq!(enc.counters(), (0, 0));
    }

    /// Data of a tag the relay has no open command for has no volume
    /// offset, so it passes untouched.
    #[test]
    fn data_without_a_command_passes_untouched() {
        let mut enc = svc();
        let stray = Op::new(Step::WriteData(0), None, 7, vec![0xAB; 512].into());
        assert_eq!(run(&mut enc, Dir::ToTarget, stray.clone()), stray);
        assert_eq!(enc.counters(), (0, 0));
    }

    #[test]
    fn data_out_uses_buffer_offset() {
        let mut enc = svc();
        let plain = vec![0xABu8; 1024];
        let out = run(&mut enc, Dir::ToTarget, data_out(7, 2048..3072));
        // Same plaintext at a different offset yields different ciphertext
        // (sector tweak).
        let mut direct = plain.clone();
        AesXts::from_master_key(&[0x42; 64]).encrypt_run(100 + 4, 512, &mut direct);
        assert_eq!(&out.data[..], &direct[..]);
    }

    fn assert_refused(out: &Outcome, itt: u64) {
        assert!(
            out.forwarded.is_empty(),
            "plaintext went on: {:?}",
            out.forwarded
        );
        assert_eq!(out.replies, [Op::status(itt, ScsiStatus::CheckCondition)]);
        assert_eq!(out.alerts, 1);
    }

    /// Segment bounds are the tenant's to choose: write data that is not
    /// whole sectors is refused, not a panic and not plaintext at rest.
    #[test]
    fn unaligned_data_out_length_fails_closed() {
        let mut enc = svc();
        assert_refused(&outcome(&mut enc, Dir::ToTarget, data_out(7, 0..100)), 7);
        assert_eq!(enc.counters(), (0, 0));
    }

    #[test]
    fn unaligned_buffer_offset_fails_closed() {
        let mut enc = svc();
        assert_refused(&outcome(&mut enc, Dir::ToTarget, data_out(7, 7..519)), 7);
    }

    /// The command itself is held back when its immediate data is the
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
        assert_refused(&outcome(&mut enc, Dir::ToTarget, data_out(7, 0..100)), 7);
        let later = outcome(&mut enc, Dir::ToTarget, data_out(7, 512..1024));
        assert!(later.forwarded.is_empty() && later.replies.is_empty());
        assert_eq!(later.alerts, 0);
        // Another command on the flow still encrypts.
        let other = run(&mut enc, Dir::ToTarget, data_out(8, 0..512));
        assert_ne!(other, data_out(8, 0..512));
        // The target's own status for the tag lifts the refusal...
        let status = Op::status(7, ScsiStatus::Good);
        assert_eq!(run(&mut enc, Dir::ToInitiator, status.clone()), status);
        assert_eq!(enc.open_commands(), 0);
        // ...and so does a new command reusing it.
        let _ = run(&mut enc, Dir::ToTarget, write.clone());
        assert_refused(&outcome(&mut enc, Dir::ToTarget, data_out(7, 0..100)), 7);
        let _ = run(&mut enc, Dir::ToTarget, write);
        let again = run(&mut enc, Dir::ToTarget, data_out(7, 512..1024));
        assert_ne!(again, data_out(7, 512..1024));
        assert_eq!(enc.counters().0, 1024);
    }

    /// A refused write is kept only while its data is still to come: N
    /// writes refused at their command or at a Data-Out, each followed by
    /// the rest of its data, leave nothing behind, and a refusal of the
    /// last data byte keeps nothing at all.
    #[test]
    fn refused_writes_leave_the_table_once_their_data_is_done() {
        let mut enc = svc();
        for itt in 0..100 {
            let unaligned = Bytes::from(vec![1u8; 100]);
            let write = cmd(BlockOp::Write, itt, 100, 6, unaligned);
            assert_refused(&outcome(&mut enc, Dir::ToTarget, write), itt);
            assert_eq!(enc.open_commands(), 1);
            for range in [100..1124, 1124..2148, 2148..3072] {
                let later = outcome(&mut enc, Dir::ToTarget, data_out(itt, range));
                assert!(later.forwarded.is_empty() && later.replies.is_empty());
            }
            assert_eq!(enc.open_commands(), 0, "write {itt}");
        }
        for itt in 100..200 {
            let _ = run(
                &mut enc,
                Dir::ToTarget,
                cmd(BlockOp::Write, itt, 100, 6, Bytes::new()),
            );
            assert_refused(
                &outcome(&mut enc, Dir::ToTarget, data_out(itt, 0..100)),
                itt,
            );
            let _ = outcome(&mut enc, Dir::ToTarget, data_out(itt, 100..3072));
            assert_eq!(enc.open_commands(), 0, "write {itt}");
        }
        assert_refused(
            &outcome(&mut enc, Dir::ToTarget, data_out(7, 3000..3072)),
            7,
        );
        assert_eq!(enc.open_commands(), 0);
    }

    /// Writes refused while their data never comes (its connection went,
    /// say: the service is told nothing of that) fill the table up to its
    /// bound and no further; the oldest go first.
    #[test]
    fn refused_writes_whose_data_never_comes_stay_within_the_bound() {
        let mut enc = svc();
        let n = 2 * OPEN_BOUND as u64;
        for (flow, itt) in (0..n).map(|i| (i % 2, i)) {
            let tag = flow << 32 | itt;
            let write = cmd(BlockOp::Write, tag, 100, 6, Bytes::from(vec![1u8; 100]));
            assert_refused(&outcome(&mut enc, Dir::ToTarget, write), tag);
            assert!(enc.open_commands() <= OPEN_BOUND);
        }
        assert_eq!(enc.open_commands(), OPEN_BOUND);
        let kept = |itt: u64| enc.open.contains_key(&((itt % 2) << 32 | itt));
        assert!(!kept(n - OPEN_BOUND as u64 - 1) && kept(n - OPEN_BOUND as u64));
    }

    /// Ciphertext the target segments off a sector boundary cannot be
    /// decrypted; it reaches the initiator as it is, with an alert.
    #[test]
    fn unaligned_data_in_passes_ciphertext_with_an_alert() {
        let mut enc = svc();
        let din = read_data(9, block(BlockOp::Read, 0, 1), Bytes::from(vec![3u8; 100]));
        let out = outcome(&mut enc, Dir::ToInitiator, din.clone());
        assert_eq!(out.forwarded, [din]);
        assert_eq!((out.alerts, out.replies.len()), (1, 0));
        assert_eq!(enc.counters(), (0, 0));
    }

    /// The stream cipher is position-keyed: no alignment to check.
    #[test]
    fn stream_cipher_takes_unaligned_segments() {
        let mut enc = EncryptionService::stream_cipher(&[7; 32], &[9; 12]);
        let out = outcome(&mut enc, Dir::ToTarget, data_out(7, 7..107));
        assert_eq!((out.forwarded.len(), out.alerts), (1, 0));
        assert_ne!(out.forwarded[0], data_out(7, 7..107));
        assert_eq!(enc.counters(), (100, 0));
    }

    /// With ChaCha20 a read's keystream, and a write's past the data its
    /// command carries, are computed ahead. Whatever share the helper core
    /// had ready, each op's bytes are the inline cipher's, and what was
    /// kept for the command goes at its last data byte (or at an empty
    /// read answer, a status, or a new command on the tag).
    #[test]
    fn stream_cipher_ahead_equals_inline_and_ends_with_the_data() {
        let (key, nonce) = ([7; 32], [9; 12]);
        let mut enc = EncryptionService::stream_cipher(&key, &nonce);
        let c = ChaCha20::new(&key, &nonce);
        let piece = |k: usize| Bytes::from(vec![k as u8; 8192]);
        let expect = |at: u64, data: &Bytes| {
            let mut out = data.to_vec();
            c.apply_keystream_at(at, &mut out);
            out
        };
        // A 64 KiB read at LBA 40, answered by eight 8 KiB Data-Ins.
        let read = block(BlockOp::Read, 40, 128);
        let _ = run(&mut enc, Dir::ToTarget, Op::command(1, read, Bytes::new()));
        assert!(enc.open_commands() <= 1);
        for k in 0..8 {
            let din = Op::new(Step::ReadData(k * 8192), Some(read), 1, piece(k as usize));
            let out = run(&mut enc, Dir::ToInitiator, din);
            assert_eq!(
                out.data,
                expect(40 * 512 + u64::from(k) * 8192, &piece(k as usize))
            );
        }
        assert_eq!(enc.open_commands(), 0);
        // The same read answered at once (nvmeq), then one that failed.
        for data in [Bytes::from(vec![5u8; 65536]), Bytes::new()] {
            let _ = run(&mut enc, Dir::ToTarget, Op::command(2, read, Bytes::new()));
            let out = run(&mut enc, Dir::ToInitiator, read_data(2, read, data.clone()));
            assert_eq!(out.data, expect(40 * 512, &data));
            assert_eq!(enc.open_commands(), 0);
        }
        // A 64 KiB write: 8 KiB with its command, seven Data-Outs.
        let write = block(BlockOp::Write, 8, 128);
        let out = run(&mut enc, Dir::ToTarget, Op::command(3, write, piece(0)));
        assert_eq!(out.data, expect(8 * 512, &piece(0)));
        for k in 1..8 {
            let dout = Op::new(Step::WriteData(k * 8192), Some(write), 3, piece(k as usize));
            let out = run(&mut enc, Dir::ToTarget, dout);
            assert_eq!(
                out.data,
                expect(8 * 512 + u64::from(k) * 8192, &piece(k as usize))
            );
        }
        assert_eq!(enc.open_commands(), 0);
        // A status, or a new command on the tag, ends a read whose data
        // never came.
        let _ = run(&mut enc, Dir::ToTarget, Op::command(4, read, Bytes::new()));
        let _ = run(
            &mut enc,
            Dir::ToInitiator,
            Op::status(4, ScsiStatus::CheckCondition),
        );
        assert_eq!(enc.open_commands(), 0);
        let _ = run(&mut enc, Dir::ToTarget, Op::command(5, read, Bytes::new()));
        let _ = run(&mut enc, Dir::ToTarget, Op::command(5, write, piece(0)));
        assert!(enc.open_commands() <= 1);
        assert_eq!(enc.counters(), (8 * 8192 + 8192, 8 * 8192 + 65536));
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
    fn non_data_ops_pass_untouched() {
        let mut enc = svc();
        let nop = Op::new(Step::Other, None, 9, Bytes::from_static(b"keepalive"));
        assert_eq!(run(&mut enc, Dir::ToTarget, nop.clone()), nop);
    }
}
