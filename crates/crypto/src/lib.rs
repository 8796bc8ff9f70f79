//! From-scratch ciphers for StorM's encryption middle-box.
//!
//! The paper's encryption service uses dm-crypt (AES, 256-bit keys) and the
//! API-overhead experiments use a byte-wise stream cipher. No external
//! crypto crates are in this workspace's allowed dependency set, so the
//! primitives are implemented here and validated against published test
//! vectors (FIPS-197 for AES, RFC 7539 for ChaCha20):
//!
//! * [`Aes256`] — the AES block cipher, 256-bit keys, as four table
//!   lookups per column and round in either direction; the tables and
//!   both S-boxes are derived from the field definition at compile time.
//! * [`AesXts`] — XTS sector mode, the dm-crypt default, used by the
//!   encryption middle-box for data-at-rest (Figures 10 and 11). A run of
//!   8 KiB or more is split at a sector boundary: the caller encrypts one
//!   half while one helper thread, started on the first split and only
//!   when the process may use two or more CPUs, encrypts a copy of the
//!   other. If the helper has not started its half by the time the
//!   caller's is done, the caller takes it back, so a descheduled helper
//!   never delays it. Only the pure kernel crosses threads; the output is
//!   byte-identical to the sector-by-sector loop.
//! * [`ChaCha20`] — a position-seekable stream cipher, used as the paper's
//!   "stream cipher service that operates on each bit of the raw data"
//!   (Figures 5, 6, 8 and 9). Four blocks per pass, in a shape the
//!   compiler vectorises; a 64-bit block counter, so the keystream does
//!   not repeat anywhere in a volume's byte space (RFC 7539 below
//!   256 GiB). [`ChaCha20::ahead`] queues a range's keystream for the
//!   same helper thread, in 8 KiB pieces of a pool of 64 reused buffers,
//!   before its data arrives; [`Keystream::apply`] XORs data with it only
//!   when every piece the data spans is done, and otherwise leaves the
//!   caller to compute the bytes itself, so the caller never waits.
//!
//! These implementations are **not** side-channel hardened (AES indexes
//! tables by secret bytes, and `unsafe` is forbidden, so there is no
//! AES-NI either); they exist to make the reproduction self-contained,
//! not for production cryptography.
//!
//! # Example
//!
//! ```
//! use storm_crypto::AesXts;
//!
//! let xts = AesXts::new(&[0x11; 32], &[0x22; 32]);
//! let mut sector = vec![0u8; 512];
//! sector[0..4].copy_from_slice(b"data");
//! let original = sector.clone();
//! xts.encrypt_sector(7, &mut sector);
//! assert_ne!(sector, original);
//! xts.decrypt_sector(7, &mut sector);
//! assert_eq!(sector, original);
//! ```

#![warn(missing_docs)]

mod aes;
mod chacha;
mod par;
mod xts;

pub use aes::{Aes256, BLOCK_SIZE};
pub use chacha::ChaCha20;
pub use par::Keystream;
pub use xts::AesXts;
