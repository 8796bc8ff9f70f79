//! The ChaCha20 stream cipher (RFC 7539).
//!
//! Used as the StorM "stream cipher" service in the API-overhead
//! experiments. ChaCha20 is seekable: the keystream for any byte position
//! can be generated independently, which lets the passive-relay service
//! transform packet payloads mid-stream without buffering whole sectors —
//! the keystream position is derived from the absolute byte offset of the
//! data on the volume.
//!
//! Whole 256-byte runs go through a kernel that computes four consecutive
//! blocks per pass, written so the loop vectoriser turns the four blocks
//! into the four lanes of packed 32-bit operations on any target (no
//! `unsafe`, no `std::arch`); [`ChaCha20::block`] serves the unaligned
//! head and tail and is what the tests compare the kernel against.
//!
//! # Counter and nonce
//!
//! RFC 7539's 32-bit counter covers 256 GiB, less than a volume's byte
//! space, so state words 12-13 are one 64-bit block counter as in the
//! original ChaCha layout, started at the nonce's first word: block
//! 2^32 + i under nonce `(n0, n1, n2)` is block i under `(n0 + 1, n1, n2)`.
//! Below 256 GiB this is RFC 7539 byte for byte. Nonces that must give
//! unrelated keystreams under one key therefore have to differ in their
//! last eight bytes, not only in the first four.

/// ChaCha20 with a 256-bit key and 96-bit nonce.
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
}

impl std::fmt::Debug for ChaCha20 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaCha20").finish_non_exhaustive()
    }
}

const SIGMA: [u32; 4] = [0x61707865, 0x3320646E, 0x79622D32, 0x6B206574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

// `inline(always)` here and on `quarter_round`: the wide kernel's loop
// body must be straight-line code for the vectoriser to take it.
#[inline(always)]
fn double_round(state: &mut [u32; 16]) {
    quarter_round(state, 0, 4, 8, 12);
    quarter_round(state, 1, 5, 9, 13);
    quarter_round(state, 2, 6, 10, 14);
    quarter_round(state, 3, 7, 11, 15);
    quarter_round(state, 0, 5, 10, 15);
    quarter_round(state, 1, 6, 11, 12);
    quarter_round(state, 2, 7, 8, 13);
    quarter_round(state, 3, 4, 9, 14);
}

/// Blocks per pass of the wide kernel. 4, 8, 16 and 32 measure the same
/// (one 128-bit vector of lanes is what baseline x86-64 has); 4 leaves the
/// shortest tail.
const LANES: usize = 4;
/// Bytes per pass of the wide kernel.
const WIDE: usize = 64 * LANES;

impl ChaCha20 {
    /// Creates a cipher from a 32-byte key and 12-byte nonce.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12]) -> Self {
        let mut k = [0u32; 8];
        for (i, w) in k.iter_mut().enumerate() {
            *w = u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        }
        let mut n = [0u32; 3];
        for (i, w) in n.iter_mut().enumerate() {
            *w = u32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        }
        ChaCha20 { key: k, nonce: n }
    }

    /// The input state of keystream block `index`: words 12-13 are the
    /// 64-bit block counter, started at the first nonce word.
    #[inline(always)]
    fn state(&self, index: u64) -> [u32; 16] {
        let mut state = [0u32; 16];
        state[0..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.key);
        state[12] = index as u32;
        state[13] = self.nonce[0].wrapping_add((index >> 32) as u32);
        state[14] = self.nonce[1];
        state[15] = self.nonce[2];
        state
    }

    fn block_at(&self, index: u64) -> [u8; 64] {
        let initial = self.state(index);
        let mut state = initial;
        for _ in 0..10 {
            double_round(&mut state);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = state[i].wrapping_add(initial[i]);
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Produces the 64-byte keystream block for the given block counter
    /// (RFC 7539's block function).
    pub fn block(&self, counter: u32) -> [u8; 64] {
        self.block_at(u64::from(counter))
    }

    /// The keystream words of blocks `first..first + LANES`, lane-major:
    /// `out[word][lane]`.
    ///
    /// The shape is what makes LLVM vectorise it across blocks: the loop
    /// over lanes must be innermost, because the loop vectoriser takes
    /// only innermost loops. So the ten double rounds are written out (a
    /// `for _ in 0..10` is too big to unroll, stays a loop, and the
    /// kernel comes out scalar; the 16-word store loop is unrolled away),
    /// the body is scalar code on one block, and the lane-major stores
    /// are unit-stride. Per-lane states (a chunk may straddle a 2^32-block
    /// boundary) cost nothing extra. CI checks the emitted code for packed
    /// adds; a "vertical" `[[u32; LANES]; 16]` state with per-operation
    /// lane loops also compiles to scalar code.
    #[inline(never)]
    fn wide_keystream(&self, first: u64, out: &mut [[u32; LANES]; 16]) {
        for lane in 0..LANES {
            let initial = self.state(first + lane as u64);
            let mut s = initial;
            double_round(&mut s);
            double_round(&mut s);
            double_round(&mut s);
            double_round(&mut s);
            double_round(&mut s);
            double_round(&mut s);
            double_round(&mut s);
            double_round(&mut s);
            double_round(&mut s);
            double_round(&mut s);
            for (row, (word, init)) in out.iter_mut().zip(s.iter().zip(&initial)) {
                row[lane] = word.wrapping_add(*init);
            }
        }
    }

    /// XORs at most one block's worth of `data` with block `index` from
    /// byte `within` on.
    fn xor_partial(&self, index: u64, within: usize, data: &mut [u8]) {
        let ks = self.block_at(index);
        for (d, k) in data.iter_mut().zip(&ks[within..]) {
            *d ^= k;
        }
    }

    /// XORs `data` with the keystream starting at absolute byte `offset`
    /// (offset 0 corresponds to block counter 0, byte 0; the keystream
    /// does not repeat within the `u64` byte space).
    ///
    /// Applying the same call twice restores the original data, and
    /// processing a buffer in arbitrary contiguous pieces yields the same
    /// result as processing it at once — the property the passive-relay
    /// cipher service relies on.
    pub fn apply_keystream_at(&self, offset: u64, data: &mut [u8]) {
        let mut index = offset / 64;
        let within = (offset % 64) as usize;
        let mut rest = data;
        if within != 0 {
            let n = (64 - within).min(rest.len());
            let (head, tail) = rest.split_at_mut(n);
            self.xor_partial(index, within, head);
            index += 1;
            rest = tail;
        }
        let mut ks = [[0u32; LANES]; 16];
        let mut chunks = rest.chunks_exact_mut(WIDE);
        for chunk in &mut chunks {
            self.wide_keystream(index, &mut ks);
            for (lane, block) in chunk.chunks_exact_mut(64).enumerate() {
                for (word, k) in block.chunks_exact_mut(4).zip(&ks) {
                    for (d, k) in word.iter_mut().zip(k[lane].to_le_bytes()) {
                        *d ^= k;
                    }
                }
            }
            index += LANES as u64;
        }
        for (block, index) in chunks.into_remainder().chunks_mut(64).zip(index..) {
            self.xor_partial(index, 0, block);
        }
    }

    /// Encrypts/decrypts `data` in place from keystream position 0.
    pub fn apply_keystream(&self, data: &mut [u8]) {
        self.apply_keystream_at(0, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc7539_quarter_round() {
        // RFC 7539 section 2.1.1.
        let mut state = [0u32; 16];
        state[0] = 0x11111111;
        state[1] = 0x01020304;
        state[2] = 0x9B8D6F43;
        state[3] = 0x01234567;
        quarter_round(&mut state, 0, 1, 2, 3);
        assert_eq!(state[0], 0xEA2A92F4);
        assert_eq!(state[1], 0xCB1CF8CE);
        assert_eq!(state[2], 0x4581472E);
        assert_eq!(state[3], 0x5881C4BB);
    }

    #[test]
    fn rfc7539_block_function() {
        // RFC 7539 section 2.3.2.
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4A, 0, 0, 0, 0];
        let cipher = ChaCha20::new(&key, &nonce);
        let expect: [u8; 64] = [
            0x10, 0xF1, 0xE7, 0xE4, 0xD1, 0x3B, 0x59, 0x15, 0x50, 0x0F, 0xDD, 0x1F, 0xA3, 0x20,
            0x71, 0xC4, 0xC7, 0xD1, 0xF4, 0xC7, 0x33, 0xC0, 0x68, 0x03, 0x04, 0x22, 0xAA, 0x9A,
            0xC3, 0xD4, 0x6C, 0x4E, 0xD2, 0x82, 0x64, 0x46, 0x07, 0x9F, 0xAA, 0x09, 0x14, 0xC2,
            0xD7, 0x05, 0xD9, 0x8B, 0x02, 0xA2, 0xB5, 0x12, 0x9C, 0xD1, 0xDE, 0x16, 0x4E, 0xB9,
            0xCB, 0xD0, 0x83, 0xE8, 0xA2, 0x50, 0x3C, 0x4E,
        ];
        assert_eq!(cipher.block(1), expect);
    }

    #[test]
    fn rfc7539_encryption() {
        // RFC 7539 section 2.4.2: counter 1 is byte offset 64.
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4A, 0, 0, 0, 0];
        let mut text = *b"Ladies and Gentlemen of the class of '99: If I could offer you \
            only one tip for the future, sunscreen would be it.";
        let expect: [u8; 114] = [
            0x6E, 0x2E, 0x35, 0x9A, 0x25, 0x68, 0xF9, 0x80, 0x41, 0xBA, 0x07, 0x28, 0xDD, 0x0D,
            0x69, 0x81, 0xE9, 0x7E, 0x7A, 0xEC, 0x1D, 0x43, 0x60, 0xC2, 0x0A, 0x27, 0xAF, 0xCC,
            0xFD, 0x9F, 0xAE, 0x0B, 0xF9, 0x1B, 0x65, 0xC5, 0x52, 0x47, 0x33, 0xAB, 0x8F, 0x59,
            0x3D, 0xAB, 0xCD, 0x62, 0xB3, 0x57, 0x16, 0x39, 0xD6, 0x24, 0xE6, 0x51, 0x52, 0xAB,
            0x8F, 0x53, 0x0C, 0x35, 0x9F, 0x08, 0x61, 0xD8, 0x07, 0xCA, 0x0D, 0xBF, 0x50, 0x0D,
            0x6A, 0x61, 0x56, 0xA3, 0x8E, 0x08, 0x8A, 0x22, 0xB6, 0x5E, 0x52, 0xBC, 0x51, 0x4D,
            0x16, 0xCC, 0xF8, 0x06, 0x81, 0x8C, 0xE9, 0x1A, 0xB7, 0x79, 0x37, 0x36, 0x5A, 0xF9,
            0x0B, 0xBF, 0x74, 0xA3, 0x5B, 0xE6, 0xB4, 0x0B, 0x8E, 0xED, 0xF2, 0x78, 0x5E, 0x42,
            0x87, 0x4D,
        ];
        ChaCha20::new(&key, &nonce).apply_keystream_at(64, &mut text);
        assert_eq!(text, expect);
    }

    #[test]
    fn keystream_does_not_repeat_past_256_gib() {
        // Block 2^32 is not block 0: words 12-13 are one 64-bit counter.
        let cipher = ChaCha20::new(&[5u8; 32], &[2u8; 12]);
        let (mut low, mut high) = ([0u8; 512], [0u8; 512]);
        cipher.apply_keystream_at(0, &mut low);
        cipher.apply_keystream_at(1 << 38, &mut high);
        assert_ne!(low, high);
    }

    #[test]
    fn wide_pass_straddling_256_gib_equals_blockwise() {
        let key = [5u8; 32];
        let cipher = ChaCha20::new(&key, &[2u8; 12]);
        let start = (1u64 << 38) - 128;
        let mut whole = [0u8; 512];
        cipher.apply_keystream_at(start, &mut whole);
        let mut pieces = [0u8; 512];
        for (i, piece) in pieces.chunks_mut(64).enumerate() {
            cipher.apply_keystream_at(start + 64 * i as u64, piece);
        }
        assert_eq!(whole, pieces);
        // Past the boundary the carry has gone into the first nonce word.
        let mut carried = [0u8; 384];
        ChaCha20::new(&key, &[3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]).apply_keystream(&mut carried);
        assert_eq!(whole[128..], carried);
    }

    #[test]
    fn xor_twice_is_identity() {
        let cipher = ChaCha20::new(&[7u8; 32], &[3u8; 12]);
        let mut data: Vec<u8> = (0..1000).map(|i| (i % 256) as u8).collect();
        let orig = data.clone();
        cipher.apply_keystream(&mut data);
        assert_ne!(data, orig);
        cipher.apply_keystream(&mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn piecewise_equals_whole() {
        // Chunked processing at arbitrary offsets must match one-shot —
        // this is what lets the passive relay cipher packets of any size.
        let cipher = ChaCha20::new(&[9u8; 32], &[1u8; 12]);
        let mut whole: Vec<u8> = (0..500).map(|i| (i * 3 % 256) as u8).collect();
        let mut pieces = whole.clone();
        cipher.apply_keystream_at(123, &mut whole);
        let cuts = [0usize, 1, 63, 64, 65, 200, 450, 500];
        for w in cuts.windows(2) {
            cipher.apply_keystream_at(123 + w[0] as u64, &mut pieces[w[0]..w[1]]);
        }
        assert_eq!(whole, pieces);
    }

    #[test]
    fn different_nonces_different_streams() {
        let a = ChaCha20::new(&[1u8; 32], &[0u8; 12]);
        let b = ChaCha20::new(&[1u8; 32], &[1u8; 12]);
        assert_ne!(a.block(0), b.block(0));
        assert_ne!(a.block(0), a.block(1));
    }

    #[test]
    fn debug_hides_key() {
        let c = ChaCha20::new(&[0xAB; 32], &[0; 12]);
        assert_eq!(format!("{c:?}"), "ChaCha20 { .. }");
    }
}
