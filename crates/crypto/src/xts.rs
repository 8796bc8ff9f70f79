//! AES-XTS sector encryption (IEEE 1619), dm-crypt's default mode.
//!
//! XTS is length-preserving and tweakable by sector number, which is why
//! disk encryptors use it: each 512-byte sector encrypts independently, so
//! random sector I/O needs no chaining state. The StorM encryption
//! middle-box applies it per SCSI sector.

use crate::aes::{Aes256, BLOCK_SIZE};

/// AES-256-XTS for 512-byte sectors.
#[derive(Debug, Clone)]
pub struct AesXts {
    data_cipher: Aes256,
    tweak_cipher: Aes256,
}

impl AesXts {
    /// Creates an XTS cipher from a data key and a tweak key.
    pub fn new(data_key: &[u8; 32], tweak_key: &[u8; 32]) -> Self {
        AesXts {
            data_cipher: Aes256::new(data_key),
            tweak_cipher: Aes256::new(tweak_key),
        }
    }

    /// Derives both keys from a single 64-byte master key, as dm-crypt's
    /// `aes-xts-plain64` does.
    pub fn from_master_key(master: &[u8; 64]) -> Self {
        let mut k1 = [0u8; 32];
        let mut k2 = [0u8; 32];
        k1.copy_from_slice(&master[..32]);
        k2.copy_from_slice(&master[32..]);
        Self::new(&k1, &k2)
    }

    /// Multiplies the tweak by alpha in GF(2^128). IEEE 1619 reads the
    /// tweak block as one little-endian integer, so this is a shift with
    /// the carry out of bit 127 folding back as x^7 + x^2 + x + 1.
    fn next_tweak(t: u128) -> u128 {
        (t << 1) ^ ((t >> 127) * 0x87)
    }

    fn process(&self, sector: u64, data: &mut [u8], encrypt: bool) {
        assert!(
            !data.is_empty() && data.len().is_multiple_of(BLOCK_SIZE),
            "XTS data must be a positive multiple of {BLOCK_SIZE} bytes, got {}",
            data.len()
        );
        // "plain64" tweak: little-endian sector number, encrypted.
        let mut first = u128::from(sector).to_le_bytes();
        self.tweak_cipher.encrypt_block(&mut first);
        let mut tweak = u128::from_le_bytes(first);
        for block in data.as_chunks_mut::<BLOCK_SIZE>().0 {
            *block = (u128::from_le_bytes(*block) ^ tweak).to_le_bytes();
            if encrypt {
                self.data_cipher.encrypt_block(block);
            } else {
                self.data_cipher.decrypt_block(block);
            }
            *block = (u128::from_le_bytes(*block) ^ tweak).to_le_bytes();
            tweak = Self::next_tweak(tweak);
        }
    }

    /// Encrypts a sector in place.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or not a multiple of 16 bytes.
    pub fn encrypt_sector(&self, sector: u64, data: &mut [u8]) {
        self.process(sector, data, true);
    }

    /// Decrypts a sector in place.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or not a multiple of 16 bytes.
    pub fn decrypt_sector(&self, sector: u64, data: &mut [u8]) {
        self.process(sector, data, false);
    }

    /// Encrypts a run of consecutive sectors in place. `data` must be a
    /// whole number of `sector_bytes`-sized sectors; sector numbers wrap
    /// past `u64::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a multiple of `sector_bytes` or
    /// `sector_bytes` is not a positive multiple of 16.
    pub fn encrypt_run(&self, first_sector: u64, sector_bytes: usize, data: &mut [u8]) {
        self.run(first_sector, sector_bytes, data, true);
    }

    /// Decrypts a run of consecutive sectors in place.
    ///
    /// # Panics
    ///
    /// Same conditions as [`AesXts::encrypt_run`].
    pub fn decrypt_run(&self, first_sector: u64, sector_bytes: usize, data: &mut [u8]) {
        self.run(first_sector, sector_bytes, data, false);
    }

    fn run(&self, first_sector: u64, sector_bytes: usize, data: &mut [u8], encrypt: bool) {
        assert!(
            sector_bytes > 0 && sector_bytes.is_multiple_of(BLOCK_SIZE),
            "sector size must be a positive multiple of {BLOCK_SIZE}"
        );
        assert!(
            data.len().is_multiple_of(sector_bytes),
            "data length {} is not a whole number of {sector_bytes}-byte sectors",
            data.len()
        );
        for (i, sector) in data.chunks_exact_mut(sector_bytes).enumerate() {
            self.process(first_sector.wrapping_add(i as u64), sector, encrypt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cipher() -> AesXts {
        let mut master = [0u8; 64];
        for (i, b) in master.iter_mut().enumerate() {
            *b = (i * 7 + 3) as u8;
        }
        AesXts::from_master_key(&master)
    }

    #[test]
    fn round_trip_sector() {
        let xts = cipher();
        let mut data: Vec<u8> = (0..512).map(|i| (i % 256) as u8).collect();
        let orig = data.clone();
        xts.encrypt_sector(42, &mut data);
        assert_ne!(data, orig);
        xts.decrypt_sector(42, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn sector_number_matters() {
        let xts = cipher();
        let plain = vec![0u8; 512];
        let mut a = plain.clone();
        let mut b = plain.clone();
        xts.encrypt_sector(1, &mut a);
        xts.encrypt_sector(2, &mut b);
        assert_ne!(a, b);
        // Decrypting with the wrong sector yields garbage, not plaintext.
        let mut c = a.clone();
        xts.decrypt_sector(2, &mut c);
        assert_ne!(c, plain);
    }

    #[test]
    fn identical_blocks_within_sector_differ() {
        // ECB would leak identical blocks; XTS's per-block tweak must not.
        let xts = cipher();
        let mut data = vec![0xABu8; 512];
        xts.encrypt_sector(9, &mut data);
        assert_ne!(data[0..16], data[16..32]);
    }

    #[test]
    fn multi_sector_run_equals_individual_sectors() {
        let xts = cipher();
        let mut run: Vec<u8> = (0..1024).map(|i| (i % 251) as u8).collect();
        let mut individually = run.clone();
        xts.encrypt_run(10, 512, &mut run);
        xts.encrypt_sector(10, &mut individually[..512]);
        xts.encrypt_sector(11, &mut individually[512..]);
        assert_eq!(run, individually);
        xts.decrypt_run(10, 512, &mut run);
        assert_eq!(&run[..4], &[0, 1, 2, 3]);
    }

    /// The tweak chain as IEEE 1619 spells it, byte by byte.
    fn next_tweak_bytewise(t: &mut [u8; BLOCK_SIZE]) {
        let mut carry = 0u8;
        for b in t.iter_mut() {
            let new_carry = *b >> 7;
            *b = (*b << 1) | carry;
            carry = new_carry;
        }
        if carry != 0 {
            t[0] ^= 0x87;
        }
    }

    #[test]
    fn tweak_doubling_carries() {
        let mut t = [0u8; 16];
        t[15] = 0x80;
        let t = AesXts::next_tweak(u128::from_le_bytes(t)).to_le_bytes();
        // The carry out of the top bit folds back as 0x87.
        assert_eq!(t[0], 0x87);
        assert_eq!(t[15], 0x00);
        let t2 = AesXts::next_tweak(u128::from_le_bytes([1u8; 16])).to_le_bytes();
        assert_eq!(t2[0], 2);
        assert_eq!(t2[1], 2);
    }

    proptest! {
        /// One `u128` shift is the byte-wise loop, carry or no carry.
        #[test]
        fn tweak_doubling_matches_bytewise(tweak in prop::array::uniform16(any::<u8>()),
                                           carry in any::<bool>()) {
            let mut bytes = tweak;
            bytes[15] = (bytes[15] & 0x7F) | (u8::from(carry) << 7);
            let fast = AesXts::next_tweak(u128::from_le_bytes(bytes)).to_le_bytes();
            next_tweak_bytewise(&mut bytes);
            prop_assert_eq!(fast, bytes);
        }
    }

    /// IEEE 1619-2007 Annex B, XTS-AES-256 vector 10 (data unit 0xff, 512
    /// bytes), in both directions.
    #[test]
    fn ieee1619_vector_10() {
        let xts = AesXts::new(
            &hex("2718281828459045235360287471352662497757247093699959574966967627"),
            &hex("3141592653589793238462643383279502884197169399375105820974944592"),
        );
        let plain: [u8; 512] = core::array::from_fn(|i| i as u8);
        let cipher: [u8; 512] = hex(IEEE1619_V10_CIPHERTEXT);
        let mut data = plain;
        xts.encrypt_sector(0xff, &mut data);
        assert_eq!(data, cipher);
        xts.decrypt_sector(0xff, &mut data);
        assert_eq!(data, plain);
    }

    fn hex<const N: usize>(s: &str) -> [u8; N] {
        let digits: Vec<u8> = s
            .bytes()
            .filter_map(|c| (c as char).to_digit(16))
            .map(|d| d as u8)
            .collect();
        assert_eq!(digits.len(), 2 * N);
        core::array::from_fn(|i| (digits[2 * i] << 4) | digits[2 * i + 1])
    }

    const IEEE1619_V10_CIPHERTEXT: &str = "
        1c3b3a102f770386e4836c99e370cf9bea00803f5e482357a4ae12d414a3e63b
        5d31e276f8fe4a8d66b317f9ac683f44680a86ac35adfc3345befecb4bb188fd
        5776926c49a3095eb108fd1098baec70aaa66999a72a82f27d848b21d4a741b0
        c5cd4d5fff9dac89aeba122961d03a757123e9870f8acf1000020887891429ca
        2a3e7a7d7df7b10355165c8b9a6d0a7de8b062c4500dc4cd120c0f7418dae3d0
        b5781c34803fa75421c790dfe1de1834f280d7667b327f6c8cd7557e12ac3a0f
        93ec05c52e0493ef31a12d3d9260f79a289d6a379bc70c50841473d1a8cc81ec
        583e9645e07b8d9670655ba5bbcfecc6dc3966380ad8fecb17b6ba02469a020a
        84e18e8f84252070c13e9f1f289be54fbc481457778f616015e1327a02b140f1
        505eb309326d68378f8374595c849d84f4c333ec4423885143cb47bd71c5edae
        9be69a2ffeceb1bec9de244fbe15992b11b77c040f12bd8f6a975a44a0f90c29
        a9abc3d4d893927284c58754cce294529f8614dcd2aba991925fedc4ae74ffac
        6e333b93eb4aff0479da9a410e4450e0dd7ae4c6e2910900575da401fc07059f
        645e8b7e9bfdef33943054ff84011493c27b3429eaedb4ed5376441a77ed4385
        1ad77f16f541dfd269d50d6a5f14fb0aab1cbb4c1550be97f7ab4066193c4caa
        773dad38014bd2092fa755c824bb5e54c4f36ffda9fcea70b9c6e693e148c151";

    /// Sector numbers wrap: a run starting at the last sector continues at
    /// sector 0 instead of overflowing.
    #[test]
    fn run_wraps_past_the_last_sector() {
        let xts = cipher();
        let mut run: Vec<u8> = (0..1024).map(|i| (i % 251) as u8).collect();
        let mut individually = run.clone();
        xts.encrypt_run(u64::MAX, 512, &mut run);
        xts.encrypt_sector(u64::MAX, &mut individually[..512]);
        xts.encrypt_sector(0, &mut individually[512..]);
        assert_eq!(run, individually);
        xts.decrypt_run(u64::MAX, 512, &mut run);
        assert_eq!(&run[..4], &[0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn rejects_unaligned_length() {
        cipher().encrypt_sector(0, &mut [0u8; 100]);
    }
}
