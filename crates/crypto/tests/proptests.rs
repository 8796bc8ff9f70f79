//! Property-based tests for the cipher implementations.

use proptest::prelude::*;
use storm_crypto::{Aes256, AesXts, ChaCha20};

proptest! {
    /// AES-256 round trip.
    #[test]
    fn aes256_round_trip(key in prop::array::uniform32(any::<u8>()),
                         block in prop::array::uniform16(any::<u8>())) {
        let aes = Aes256::new(&key);
        let mut b = block;
        aes.encrypt_block(&mut b);
        aes.decrypt_block(&mut b);
        prop_assert_eq!(b, block);
    }

    /// Encryption is not the identity (for non-degenerate inputs the
    /// probability of a fixed point is negligible; assert difference).
    #[test]
    fn aes_encryption_changes_data(key in prop::array::uniform32(any::<u8>()),
                                   block in prop::array::uniform16(any::<u8>())) {
        let aes = Aes256::new(&key);
        let mut b = block;
        aes.encrypt_block(&mut b);
        prop_assert_ne!(b, block);
    }

    /// XTS: round trip over whole sectors at arbitrary sector numbers.
    #[test]
    fn xts_round_trip(master in prop::collection::vec(any::<u8>(), 64..=64),
                      sector in any::<u64>(),
                      sectors in 1usize..5,
                      seed in any::<u8>()) {
        let mut key = [0u8; 64];
        key.copy_from_slice(&master);
        let xts = AesXts::from_master_key(&key);
        let data: Vec<u8> = (0..sectors * 512).map(|i| (i as u8).wrapping_add(seed)).collect();
        let mut buf = data.clone();
        xts.encrypt_run(sector, 512, &mut buf);
        prop_assert_ne!(&buf, &data);
        xts.decrypt_run(sector, 512, &mut buf);
        prop_assert_eq!(buf, data);
    }

    /// XTS: the same plaintext at different sectors yields different
    /// ciphertext (tweak effectiveness).
    #[test]
    fn xts_sector_tweak(sector_a in any::<u64>(), sector_b in any::<u64>()) {
        prop_assume!(sector_a != sector_b);
        let xts = AesXts::from_master_key(&[0x61; 64]);
        let mut a = vec![0u8; 512];
        let mut b = vec![0u8; 512];
        xts.encrypt_sector(sector_a, &mut a);
        xts.encrypt_sector(sector_b, &mut b);
        prop_assert_ne!(a, b);
    }

    /// ChaCha20: applying the keystream twice restores the data, for any
    /// offset.
    #[test]
    fn chacha_involution(key in prop::array::uniform32(any::<u8>()),
                         nonce in prop::array::uniform12(any::<u8>()),
                         offset in 0u64..1_000_000,
                         data in prop::collection::vec(any::<u8>(), 0..2048)) {
        let c = ChaCha20::new(&key, &nonce);
        let mut buf = data.clone();
        c.apply_keystream_at(offset, &mut buf);
        c.apply_keystream_at(offset, &mut buf);
        prop_assert_eq!(buf, data);
    }

    /// ChaCha20: piecewise processing at arbitrary split points equals
    /// one-shot processing — the property the passive relay depends on.
    #[test]
    fn chacha_piecewise(offset in 0u64..100_000,
                        data in prop::collection::vec(any::<u8>(), 1..2048),
                        split in 0usize..2048) {
        let split = split.min(data.len());
        let c = ChaCha20::new(&[5u8; 32], &[6u8; 12]);
        let mut whole = data.clone();
        c.apply_keystream_at(offset, &mut whole);
        let mut pieces = data.clone();
        c.apply_keystream_at(offset, &mut pieces[..split]);
        c.apply_keystream_at(offset + split as u64, &mut pieces[split..]);
        prop_assert_eq!(whole, pieces);
    }

    /// ChaCha20: `apply_keystream_at` (head, four-block passes, tail)
    /// equals the keystream taken one `block()` at a time.
    #[test]
    fn chacha_matches_blockwise_reference(key in prop::array::uniform32(any::<u8>()),
                                          nonce in prop::array::uniform12(any::<u8>()),
                                          offset in 0u64..1 << 40,
                                          data in prop::collection::vec(any::<u8>(), 0..2048)) {
        let mut buf = data.clone();
        ChaCha20::new(&key, &nonce).apply_keystream_at(offset, &mut buf);
        let expect: Vec<u8> = data
            .iter()
            .zip(offset..)
            .map(|(d, pos)| d ^ reference_block(&key, &nonce, pos / 64)[(pos % 64) as usize])
            .collect();
        prop_assert_eq!(buf, expect);
    }
}

/// Keystream block `index` through the public 32-bit `block()`: the high
/// half of the index is carried into the first nonce word.
fn reference_block(key: &[u8; 32], nonce: &[u8; 12], index: u64) -> [u8; 64] {
    let word = u32::from_le_bytes([nonce[0], nonce[1], nonce[2], nonce[3]]);
    let mut carried = *nonce;
    carried[..4].copy_from_slice(&word.wrapping_add((index >> 32) as u32).to_le_bytes());
    ChaCha20::new(key, &carried).block(index as u32)
}
