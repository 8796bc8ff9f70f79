//! The AES block cipher (FIPS-197) with a 256-bit key, as table lookups.
//!
//! The state is four big-endian column words. SubBytes, ShiftRows and
//! MixColumns of one column collapse into four loads from [`TE`], one per
//! input byte: `TE[0][x]` is the MixColumns column `(2·S[x], S[x], S[x],
//! 3·S[x])` and `TE[1..4]` are its byte rotations, one per state row. A
//! round is sixteen loads and four round-key XORs.
//!
//! Decryption is FIPS-197 §5.3.5's *equivalent inverse cipher*:
//! InvMixColumns is linear, so it commutes with AddRoundKey once it has
//! been applied to the round key. [`Aes256::new`] folds it into the
//! reversed schedule, the inverse round takes the shape of the forward
//! one over [`TD`] (`(14, 9, 13, 11)·S⁻¹[x]`), and decrypting costs what
//! encrypting costs.
//!
//! Nothing is transcribed. Both S-boxes are still derived from their
//! definition (multiplicative inverse in GF(2^8), then the affine
//! transform) and the eight tables from the S-boxes, all by `const fn` at
//! compile time: 8.5 KiB of `static`, no first-use initialisation. Table
//! indices depend on key and data, so, like the per-byte S-box lookups
//! of the textbook rounds (kept under `cfg(test)` as the oracle), this is
//! **not** side-channel hardened.

/// AES block size in bytes.
pub const BLOCK_SIZE: usize = 16;

/// Rounds for a 256-bit key.
const ROUNDS: usize = 14;

const fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = (a << 1) ^ if a & 0x80 != 0 { 0x1B } else { 0 };
        b >>= 1;
    }
    p
}

/// `a^254 = a^-1` in GF(2^8) by square-and-multiply; 0 maps to 0, as the
/// S-box definition wants.
const fn gf_inv(a: u8) -> u8 {
    let (mut result, mut base, mut exp) = (1u8, a, 254u32);
    while exp > 0 {
        if exp & 1 != 0 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

/// The S-box (`inverse == false`) or its inverse permutation.
const fn sbox(inverse: bool) -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let inv = gf_inv(i as u8);
        // Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63.
        let s = inv
            ^ inv.rotate_left(1)
            ^ inv.rotate_left(2)
            ^ inv.rotate_left(3)
            ^ inv.rotate_left(4)
            ^ 0x63;
        if inverse {
            table[s as usize] = i as u8;
        } else {
            table[i] = s;
        }
        i += 1;
    }
    table
}

/// `t[0][x]` is the (Inv)MixColumns matrix's first column, `coef`, scaled
/// by `sbox[x]`, as a big-endian word; `t[k]` is `t[0]` rotated `k` bytes
/// right, the column a byte in state row `k` contributes.
const fn round_tables(sbox: &[u8; 256], coef: [u8; 4]) -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = sbox[x];
        let word = u32::from_be_bytes([
            gf_mul(s, coef[0]),
            gf_mul(s, coef[1]),
            gf_mul(s, coef[2]),
            gf_mul(s, coef[3]),
        ]);
        let mut k = 0;
        while k < 4 {
            t[k][x] = word.rotate_right(8 * k as u32);
            k += 1;
        }
        x += 1;
    }
    t
}

static SBOX: [u8; 256] = sbox(false);
static INV_SBOX: [u8; 256] = sbox(true);
static TE: [[u32; 256]; 4] = round_tables(&SBOX, [2, 1, 1, 3]);
static TD: [[u32; 256]; 4] = round_tables(&INV_SBOX, [14, 9, 13, 11]);

/// Round keys as column words, four per AddRoundKey.
type Schedule = [u32; SCHEDULE_WORDS];
const SCHEDULE_WORDS: usize = 4 * (ROUNDS + 1);

/// The byte of row `row` (0 = most significant) of a column word.
#[inline(always)]
fn byte(word: u32, row: usize) -> usize {
    (word >> (24 - 8 * row)) as u8 as usize
}

fn sub_word(w: u32) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[b as usize]))
}

/// One direction of the cipher: output column `c` takes its row-`r` byte
/// from column `c + r·STEP`, which is ShiftRows for `STEP = 1` and
/// InvShiftRows for `STEP = 3`; `last` is the S-box of the final round,
/// which has no MixColumns.
#[inline(always)]
fn crypt<const STEP: usize>(
    t: &[[u32; 256]; 4],
    last: &[u8; 256],
    rk: &Schedule,
    block: &mut [u8; BLOCK_SIZE],
) {
    let mut s: [u32; 4] = core::array::from_fn(|c| {
        u32::from_be_bytes([
            block[4 * c],
            block[4 * c + 1],
            block[4 * c + 2],
            block[4 * c + 3],
        ]) ^ rk[c]
    });
    for round in 1..ROUNDS {
        s = core::array::from_fn(|c| {
            t[0][byte(s[c], 0)]
                ^ t[1][byte(s[(c + STEP) % 4], 1)]
                ^ t[2][byte(s[(c + 2 * STEP) % 4], 2)]
                ^ t[3][byte(s[(c + 3 * STEP) % 4], 3)]
                ^ rk[4 * round + c]
        });
    }
    for c in 0..4 {
        let word = u32::from_be_bytes([
            last[byte(s[c], 0)],
            last[byte(s[(c + STEP) % 4], 1)],
            last[byte(s[(c + 2 * STEP) % 4], 2)],
            last[byte(s[(c + 3 * STEP) % 4], 3)],
        ]) ^ rk[4 * ROUNDS + c];
        block[4 * c..4 * c + 4].copy_from_slice(&word.to_be_bytes());
    }
}

/// AES with a 256-bit key (14 rounds), as used by dm-crypt in the paper.
#[derive(Clone)]
pub struct Aes256 {
    enc: Schedule,
    dec: Schedule,
}

impl Aes256 {
    /// Expands `key` into the encryption and decryption key schedules.
    pub fn new(key: &[u8; 32]) -> Self {
        let mut enc: Schedule = [0; SCHEDULE_WORDS];
        for (i, word) in key.chunks_exact(4).enumerate() {
            enc[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 8..enc.len() {
            let prev = enc[i - 1];
            let temp = match i % 8 {
                // Round constant x^(i/8 - 1); it never reaches the reduction.
                0 => sub_word(prev.rotate_left(8)) ^ (1 << (23 + i / 8)),
                4 => sub_word(prev),
                _ => prev,
            };
            enc[i] = enc[i - 8] ^ temp;
        }
        // Round keys in reverse; InvMixColumns on all but the outer two.
        // TD already holds S⁻¹, so going through S first leaves the matrix.
        let mut dec = enc;
        for (round, rk) in dec.chunks_exact_mut(4).enumerate() {
            rk.copy_from_slice(&enc[4 * (ROUNDS - round)..][..4]);
            if (1..ROUNDS).contains(&round) {
                for w in rk {
                    let b = w.to_be_bytes().map(|b| SBOX[b as usize] as usize);
                    *w = TD[0][b[0]] ^ TD[1][b[1]] ^ TD[2][b[2]] ^ TD[3][b[3]];
                }
            }
        }
        Aes256 { enc, dec }
    }

    /// Encrypts one 16-byte block in place.
    #[inline]
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_SIZE]) {
        crypt::<1>(&TE, &SBOX, &self.enc, block);
    }

    /// Decrypts one 16-byte block in place.
    #[inline]
    pub fn decrypt_block(&self, block: &mut [u8; BLOCK_SIZE]) {
        crypt::<3>(&TD, &INV_SBOX, &self.dec, block);
    }
}

impl std::fmt::Debug for Aes256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never expose key material.
        f.debug_struct("Aes256").finish_non_exhaustive()
    }
}

/// The cipher as FIPS-197 writes it — byte state, bit-serial field
/// arithmetic, one function per transformation — which is what this file
/// was before the tables: the oracle they are tested against.
#[cfg(test)]
mod reference {
    use super::{gf_mul, INV_SBOX, SBOX};

    const RCON: [u8; 7] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40];

    /// Byte-wise key expansion (FIPS-197 §5.2, Nk = 8).
    fn expand(key: &[u8; 32]) -> Vec<[u8; 16]> {
        let nk = 8;
        let total_words = 4 * (14 + 1);
        let mut w: Vec<[u8; 4]> = Vec::with_capacity(total_words);
        for i in 0..nk {
            w.push([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / nk - 1];
            } else if i % nk == 4 {
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
            }
            let prev = w[i - nk];
            w.push([
                prev[0] ^ temp[0],
                prev[1] ^ temp[1],
                prev[2] ^ temp[2],
                prev[3] ^ temp[3],
            ]);
        }
        w.chunks_exact(4)
            .map(|c| {
                let mut rk = [0u8; 16];
                for (i, word) in c.iter().enumerate() {
                    rk[4 * i..4 * i + 4].copy_from_slice(word);
                }
                rk
            })
            .collect()
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16], sbox: &[u8; 256]) {
        for b in state.iter_mut() {
            *b = sbox[*b as usize];
        }
    }

    /// State is column-major: byte `r + 4c` is row `r`, column `c`.
    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[r + 4 * ((c + r) % 4)] = s[r + 4 * c];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3);
            state[4 * c + 3] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2);
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] =
                gf_mul(col[0], 14) ^ gf_mul(col[1], 11) ^ gf_mul(col[2], 13) ^ gf_mul(col[3], 9);
            state[4 * c + 1] =
                gf_mul(col[0], 9) ^ gf_mul(col[1], 14) ^ gf_mul(col[2], 11) ^ gf_mul(col[3], 13);
            state[4 * c + 2] =
                gf_mul(col[0], 13) ^ gf_mul(col[1], 9) ^ gf_mul(col[2], 14) ^ gf_mul(col[3], 11);
            state[4 * c + 3] =
                gf_mul(col[0], 11) ^ gf_mul(col[1], 13) ^ gf_mul(col[2], 9) ^ gf_mul(col[3], 14);
        }
    }

    pub fn encrypt_block(key: &[u8; 32], block: &mut [u8; 16]) {
        let round_keys = expand(key);
        let rounds = round_keys.len() - 1;
        add_round_key(block, &round_keys[0]);
        for rk in &round_keys[1..rounds] {
            sub_bytes(block, &SBOX);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, rk);
        }
        sub_bytes(block, &SBOX);
        shift_rows(block);
        add_round_key(block, &round_keys[rounds]);
    }

    pub fn decrypt_block(key: &[u8; 32], block: &mut [u8; 16]) {
        let round_keys = expand(key);
        let rounds = round_keys.len() - 1;
        add_round_key(block, &round_keys[rounds]);
        for rk in round_keys[1..rounds].iter().rev() {
            inv_shift_rows(block);
            sub_bytes(block, &INV_SBOX);
            add_round_key(block, rk);
            inv_mix_columns(block);
        }
        inv_shift_rows(block);
        sub_bytes(block, &INV_SBOX);
        add_round_key(block, &round_keys[0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sbox_known_entries() {
        // Canonical spot values from FIPS-197.
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7C);
        assert_eq!(SBOX[0x53], 0xED);
        assert_eq!(SBOX[0xFF], 0x16);
        for i in 0..256 {
            assert_eq!(INV_SBOX[SBOX[i] as usize], i as u8);
        }
    }

    #[test]
    fn round_tables_are_rotations_of_the_mixed_sbox() {
        // Te0[0] as the reference table code (rijndael-alg-fst.c) lists it.
        assert_eq!(TE[0][0x00], 0xC663_63A5);
        for x in 0..256 {
            let (s, si) = (SBOX[x], INV_SBOX[x]);
            assert_eq!(TE[0][x].to_be_bytes(), [gf_mul(s, 2), s, s, gf_mul(s, 3)]);
            let inv = [14, 9, 13, 11].map(|m| gf_mul(si, m));
            assert_eq!(TD[0][x].to_be_bytes(), inv);
            for k in 1..4 {
                assert_eq!(TE[k][x], TE[0][x].rotate_right(8 * k as u32));
                assert_eq!(TD[k][x], TD[0][x].rotate_right(8 * k as u32));
            }
        }
    }

    /// FIPS-197 Appendix C.3, in both directions.
    #[test]
    fn fips197_aes256_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let plain: [u8; 16] = core::array::from_fn(|i| ((i as u8) << 4) | i as u8);
        let cipher: [u8; 16] = [
            0x8E, 0xA2, 0xB7, 0xCA, 0x51, 0x67, 0x45, 0xBF, 0xEA, 0xFC, 0x49, 0x90, 0x4B, 0x49,
            0x60, 0x89,
        ];
        let aes = Aes256::new(&key);
        let mut block = plain;
        aes.encrypt_block(&mut block);
        assert_eq!(block, cipher);
        let mut block = cipher;
        aes.decrypt_block(&mut block);
        assert_eq!(block, plain);
        // The oracle answers to the same vector.
        let mut block = plain;
        reference::encrypt_block(&key, &mut block);
        assert_eq!(block, cipher);
        reference::decrypt_block(&key, &mut block);
        assert_eq!(block, plain);
    }

    #[test]
    fn encrypt_decrypt_round_trip_random() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(17);
        for _ in 0..50 {
            let mut key = [0u8; 32];
            rng.fill(&mut key[..]);
            let aes = Aes256::new(&key);
            let mut block = [0u8; 16];
            rng.fill(&mut block[..]);
            let orig = block;
            aes.encrypt_block(&mut block);
            assert_ne!(block, orig);
            aes.decrypt_block(&mut block);
            assert_eq!(block, orig);
        }
    }

    #[test]
    fn debug_does_not_leak_keys() {
        let aes = Aes256::new(&[0xAA; 32]);
        let s = format!("{aes:?}");
        assert!(!s.contains("aa") && !s.contains("AA") && !s.contains("170"));
    }

    #[test]
    fn gf_mul_basics() {
        // x * x = x^2; 0x80 * 2 wraps with the field polynomial.
        assert_eq!(gf_mul(0x02, 0x02), 0x04);
        assert_eq!(gf_mul(0x80, 0x02), 0x1B);
        assert_eq!(gf_mul(0x57, 0x83), 0xC1); // FIPS-197 example 4.2
        assert_eq!(gf_inv(0), 0);
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The table rounds and the textbook rounds agree on every key and
        /// block, in both directions.
        #[test]
        fn fast_matches_reference(key in prop::array::uniform32(any::<u8>()),
                                  block in prop::array::uniform16(any::<u8>())) {
            let aes = Aes256::new(&key);
            let (mut fast, mut slow) = (block, block);
            aes.encrypt_block(&mut fast);
            reference::encrypt_block(&key, &mut slow);
            prop_assert_eq!(fast, slow);
            let (mut fast, mut slow) = (block, block);
            aes.decrypt_block(&mut fast);
            reference::decrypt_block(&key, &mut slow);
            prop_assert_eq!(fast, slow);
        }
    }
}
