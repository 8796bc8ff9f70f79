//! Sparse in-memory disk.
//!
//! Storage is a map of 4 KiB chunks — the page-cache block of the cloud's
//! disk model and the smallest write any workload issues — so a random
//! 4 KiB write allocates exactly the bytes it stores. `read` and `write`
//! walk the request chunk by chunk: one map lookup and one slice copy per
//! chunk, and a write covering a whole unwritten chunk stores the caller's
//! bytes directly instead of zero-filling a chunk first. Chunks are shared
//! copy-on-write, so a clone copies no chunk until one side writes it.

use std::collections::hash_map::Entry;
use std::hash::RandomState;
use std::sync::Arc;

use storm_sim::IdMap;

use crate::device::{check_access, BlockDevice, BlockError, BLOCK_BYTES, SECTOR_SIZE};

/// Sectors per allocation chunk (4 KiB chunks, the blocks it lends).
const CHUNK_SECTORS: u64 = 8;
const CHUNK_BYTES: usize = CHUNK_SECTORS as usize * SECTOR_SIZE;

/// A sparse, in-memory block device.
///
/// Memory is allocated in 4 KiB chunks on first write, so a "1 TB volume"
/// costs only what is actually touched — this is how the repo hosts the
/// paper's 20 GB test volumes. Unwritten sectors read as zeroes, matching a
/// freshly created Cinder volume.
#[derive(Debug, Clone, Default)]
pub struct MemDisk {
    num_sectors: u64,
    chunks: IdMap<u64, Arc<[u8]>, RandomState>,
}

/// Splits the byte range starting at sector `lba`, `len` bytes long, at
/// chunk boundaries: yields `(chunk index, offset in chunk, offset in the
/// caller's buffer, byte count)` per touched chunk.
fn chunk_spans(lba: u64, len: usize) -> impl Iterator<Item = (u64, usize, usize, usize)> {
    let mut chunk = lba / CHUNK_SECTORS;
    let mut offset = (lba % CHUNK_SECTORS) as usize * SECTOR_SIZE;
    let mut done = 0;
    std::iter::from_fn(move || {
        if done == len {
            return None;
        }
        let n = (CHUNK_BYTES - offset).min(len - done);
        let span = (chunk, offset, done, n);
        chunk += 1;
        offset = 0;
        done += n;
        Some(span)
    })
}

impl MemDisk {
    /// Creates a disk with the given capacity in sectors.
    pub fn new(num_sectors: u64) -> Self {
        MemDisk {
            num_sectors,
            chunks: IdMap::default(),
        }
    }

    /// Creates a disk with the given capacity in bytes (rounded down to a
    /// whole number of sectors).
    pub fn with_capacity_bytes(bytes: u64) -> Self {
        Self::new(bytes / SECTOR_SIZE as u64)
    }

    /// Number of bytes actually allocated (sparse footprint).
    pub fn allocated_bytes(&self) -> usize {
        self.chunks.len() * CHUNK_BYTES
    }

    /// Writes every populated 4 KiB chunk to the same sectors of `dst`, in
    /// sector order: a copy that costs what the disk holds, not what it
    /// could hold. Sectors this disk never wrote are left alone on `dst`,
    /// so the copy is exact only onto a device that reads zero there.
    ///
    /// # Errors
    ///
    /// The first error `dst` returns.
    pub fn copy_into<D: BlockDevice>(&self, dst: &mut D) -> Result<(), BlockError> {
        for (&chunk, stored) in self.chunks.sorted() {
            let lba = chunk * CHUNK_SECTORS;
            // The last chunk may run past a capacity that is not a whole
            // number of chunks.
            let sectors = CHUNK_SECTORS.min(self.num_sectors - lba);
            dst.write(lba, &stored[..sectors as usize * SECTOR_SIZE])?;
        }
        Ok(())
    }
}

impl BlockDevice for MemDisk {
    fn num_sectors(&self) -> u64 {
        self.num_sectors
    }

    fn read(&mut self, lba: u64, buf: &mut [u8]) -> Result<(), BlockError> {
        check_access(self.num_sectors, lba, buf.len())?;
        // Read without allocating: absent chunks are zero.
        for (chunk, offset, at, n) in chunk_spans(lba, buf.len()) {
            let dst = &mut buf[at..at + n];
            match self.chunks.get(&chunk) {
                Some(stored) => dst.copy_from_slice(&stored[offset..offset + n]),
                None => dst.fill(0),
            }
        }
        Ok(())
    }

    fn write(&mut self, lba: u64, data: &[u8]) -> Result<(), BlockError> {
        check_access(self.num_sectors, lba, data.len())?;
        for (chunk, offset, at, n) in chunk_spans(lba, data.len()) {
            let src = &data[at..at + n];
            match self.chunks.entry(chunk) {
                Entry::Occupied(stored) => {
                    Arc::make_mut(stored.into_mut())[offset..offset + n].copy_from_slice(src)
                }
                // A whole-chunk write stores what was written; only a
                // partial first touch needs the zero background.
                Entry::Vacant(slot) if n == CHUNK_BYTES => {
                    slot.insert(src.into());
                }
                Entry::Vacant(slot) => Arc::make_mut(slot.insert(vec![0u8; CHUNK_BYTES].into()))
                    [offset..offset + n]
                    .copy_from_slice(src),
            }
        }
        Ok(())
    }

    /// Lends the stored chunk, or a zero block for one never written.
    fn lend_block(&mut self, lba: u64) -> Result<Option<&[u8; BLOCK_BYTES]>, BlockError> {
        check_access(self.num_sectors, lba, BLOCK_BYTES)?;
        if !lba.is_multiple_of(CHUNK_SECTORS) {
            return Ok(None);
        }
        Ok(match self.chunks.get(&(lba / CHUNK_SECTORS)) {
            Some(stored) => stored.first_chunk(),
            None => Some(&[0; CHUNK_BYTES]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_across_chunk_boundary() {
        let mut d = MemDisk::new(1024);
        let data: Vec<u8> = (0..4 * SECTOR_SIZE).map(|i| (i % 251) as u8).collect();
        // Write straddles a chunk boundary (sector 64).
        d.write(62, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        d.read(62, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn unwritten_sectors_read_zero() {
        let mut d = MemDisk::new(1024);
        let mut buf = vec![0xFFu8; SECTOR_SIZE];
        d.read(1000, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        // Reads never allocate.
        assert_eq!(d.allocated_bytes(), 0);
    }

    #[test]
    fn sparse_footprint_is_small() {
        let mut d = MemDisk::with_capacity_bytes(1 << 40); // "1 TB"
        d.write(0, &[1u8; SECTOR_SIZE]).unwrap();
        d.write(1 << 30, &[2u8; SECTOR_SIZE]).unwrap();
        assert_eq!(d.allocated_bytes(), 2 * CHUNK_BYTES);
        assert_eq!(d.capacity_bytes(), 1 << 40);
    }

    #[test]
    fn bounds_are_enforced() {
        let mut d = MemDisk::new(8);
        assert!(d.write(8, &[0u8; SECTOR_SIZE]).is_err());
        assert!(d.write(7, &[0u8; 2 * SECTOR_SIZE]).is_err());
        let mut buf = [0u8; SECTOR_SIZE];
        assert!(d.read(8, &mut buf).is_err());
        assert!(d.read(0, &mut [0u8; 100]).is_err());
    }

    proptest! {
        /// Differential test against a flat `Vec<u8>`: reads and writes of
        /// 1..=24 sectors anywhere on a 20-chunk disk — inside one chunk,
        /// straddling two or three, covering whole chunks, over written and
        /// unwritten ground — read back what the flat model holds, and the
        /// footprint is exactly the chunks some write touched.
        #[test]
        fn matches_flat_model(steps in prop::collection::vec(
            (1u8..9, 0u64..160, 1u64..25, 1u8..255), 1..60,
        )) {
            const SECTORS: u64 = 20 * CHUNK_SECTORS;
            let mut disk = MemDisk::new(SECTORS);
            let mut flat = vec![0u8; SECTORS as usize * SECTOR_SIZE];
            let mut touched = std::collections::BTreeSet::new();
            for (op, lba, sectors, fill) in steps {
                let sectors = sectors.min(SECTORS - lba);
                let (lo, len) = (lba as usize * SECTOR_SIZE, sectors as usize * SECTOR_SIZE);
                let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                let mut buf = vec![0xEEu8; len];
                if op % 2 == 1 {
                    disk.write(lba, &data).unwrap();
                    flat[lo..lo + len].copy_from_slice(&data);
                    touched.extend(lba / CHUNK_SECTORS..=(lba + sectors - 1) / CHUNK_SECTORS);
                } else {
                    disk.read(lba, &mut buf).unwrap();
                    prop_assert_eq!(&buf[..], &flat[lo..lo + len], "read {}+{}", lba, sectors);
                }
                prop_assert_eq!(disk.allocated_bytes(), touched.len() * CHUNK_BYTES);
            }
            let mut all = vec![0xEEu8; flat.len()];
            disk.read(0, &mut all).unwrap();
            prop_assert_eq!(all, flat);
        }

        /// Random sparse writes, zero-filled ones included, on a disk of
        /// two and a bit 1 MiB pieces whose last chunk is partial: the
        /// chunk copy reads back what the source and the scan-and-copy
        /// hold, and allocates exactly the source's chunks (the scan's
        /// whole 1 MiB pieces, zeros inside them included, are gone).
        #[test]
        fn copy_into_matches_scan_and_copy(writes in prop::collection::vec(
            (0u64..COPY_SECTORS, 1u64..20, 0u8..4), 0..40,
        )) {
            let mut src = MemDisk::new(COPY_SECTORS);
            for (lba, sectors, fill) in writes {
                let sectors = sectors.min(COPY_SECTORS - lba);
                let data: Vec<u8> = (0..sectors as usize * SECTOR_SIZE)
                    .map(|i| fill.wrapping_mul(i as u8 | 1))
                    .collect();
                src.write(lba, &data).unwrap();
            }
            let (mut chunked, mut scanned) = (MemDisk::new(COPY_SECTORS), MemDisk::new(COPY_SECTORS));
            src.copy_into(&mut chunked).unwrap();
            scan_and_copy(&mut src, &mut scanned);
            let whole = |d: &mut MemDisk| {
                let mut all = vec![0xEEu8; COPY_SECTORS as usize * SECTOR_SIZE];
                d.read(0, &mut all).unwrap();
                all
            };
            let expected = whole(&mut src);
            prop_assert!(whole(&mut chunked) == expected);
            prop_assert!(whole(&mut scanned) == expected);
            prop_assert_eq!(chunked.allocated_bytes(), src.allocated_bytes());
        }
    }

    const COPY_SECTORS: u64 = 2 * 2048 + 301;

    /// The image install `copy_into` replaced: read the whole source in
    /// 1 MiB pieces and write each piece holding a non-zero byte.
    fn scan_and_copy(src: &mut MemDisk, dst: &mut MemDisk) {
        const PIECE: u64 = 2048;
        let mut buf = vec![0u8; PIECE as usize * SECTOR_SIZE];
        let mut lba = 0;
        while lba < src.num_sectors() {
            let n = PIECE.min(src.num_sectors() - lba);
            let bytes = n as usize * SECTOR_SIZE;
            src.read(lba, &mut buf[..bytes]).unwrap();
            if buf[..bytes].iter().any(|&b| b != 0) {
                dst.write(lba, &buf[..bytes]).unwrap();
            }
            lba += n;
        }
    }

    #[test]
    fn copy_into_a_smaller_disk_is_refused() {
        let mut src = MemDisk::new(64);
        src.write(8, &[3u8; SECTOR_SIZE]).unwrap();
        assert!(src.copy_into(&mut MemDisk::new(8)).is_err());
    }

    #[test]
    fn lends_stored_and_zero_chunks_in_range() {
        let mut d = MemDisk::new(2 * CHUNK_SECTORS + 3);
        d.write(CHUNK_SECTORS, &[5u8; CHUNK_BYTES]).unwrap();
        assert_eq!(d.lend_block(CHUNK_SECTORS), Ok(Some(&[5u8; CHUNK_BYTES])));
        assert_eq!(d.lend_block(0), Ok(Some(&[0u8; CHUNK_BYTES])));
        // Lending an unwritten chunk does not allocate it.
        assert_eq!(d.allocated_bytes(), CHUNK_BYTES);
        // An unaligned block is not lent; the caller reads a copy.
        assert_eq!(d.lend_block(1), Ok(None));
        // The last chunk holds only three sectors: out of range, like a read.
        assert!(matches!(
            d.lend_block(2 * CHUNK_SECTORS),
            Err(BlockError::OutOfRange { sectors: 8, .. })
        ));
    }

    /// A clone shares its chunks until one side writes: then that side
    /// alone sees the write, partial or whole, and the other keeps its bytes.
    #[test]
    fn clones_copy_chunks_on_write() {
        let mut a = MemDisk::new(4 * CHUNK_SECTORS);
        a.write(0, &[1u8; 2 * CHUNK_BYTES]).unwrap();
        let mut b = a.clone();
        b.write(1, &[2u8; SECTOR_SIZE]).unwrap();
        b.write(CHUNK_SECTORS, &[3u8; CHUNK_BYTES]).unwrap();
        a.write(2 * CHUNK_SECTORS, &[4u8; SECTOR_SIZE]).unwrap();
        let read = |d: &mut MemDisk| {
            let mut all = vec![0u8; 3 * CHUNK_BYTES];
            d.read(0, &mut all).unwrap();
            all
        };
        let (a, b) = (read(&mut a), read(&mut b));
        assert_eq!(&a[..2 * CHUNK_BYTES], &[1u8; 2 * CHUNK_BYTES][..]);
        assert_eq!(
            &a[2 * CHUNK_BYTES..][..SECTOR_SIZE],
            &[4u8; SECTOR_SIZE][..]
        );
        assert_eq!(&b[..SECTOR_SIZE], &[1u8; SECTOR_SIZE][..]);
        assert_eq!(&b[SECTOR_SIZE..2 * SECTOR_SIZE], &[2u8; SECTOR_SIZE][..]);
        assert_eq!(&b[CHUNK_BYTES..2 * CHUNK_BYTES], &[3u8; CHUNK_BYTES][..]);
        assert!(b[2 * CHUNK_BYTES..].iter().all(|&x| x == 0));
    }
}
