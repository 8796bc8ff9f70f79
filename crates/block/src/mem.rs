//! Sparse in-memory disk.
//!
//! Storage is a map of 4 KiB chunks — the page-cache block of the cloud's
//! disk model and the smallest write any workload issues — so a random
//! 4 KiB write allocates exactly the bytes it stores. `read` and `write`
//! walk the request chunk by chunk: one map lookup and one slice copy per
//! chunk, and a write covering a whole unwritten chunk stores the caller's
//! bytes directly instead of zero-filling a chunk first.

use std::collections::hash_map::Entry;
use std::hash::RandomState;

use storm_sim::IdMap;

use crate::device::{check_access, BlockDevice, BlockError, SECTOR_SIZE};

/// Sectors per allocation chunk (4 KiB chunks).
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
    chunks: IdMap<u64, Box<[u8]>, RandomState>,
    failed: bool,
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
            failed: false,
        }
    }

    /// Creates a disk with the given capacity in bytes (rounded down to a
    /// whole number of sectors).
    pub fn with_capacity_bytes(bytes: u64) -> Self {
        Self::new(bytes / SECTOR_SIZE as u64)
    }

    /// Marks the device as failed; all subsequent operations return
    /// [`BlockError::Unavailable`]. Used for fault injection in the
    /// replication experiments.
    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// Clears a previously injected failure.
    pub fn recover(&mut self) {
        self.failed = false;
    }

    /// Whether the device is currently failed.
    pub fn is_failed(&self) -> bool {
        self.failed
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
    /// [`BlockError::Unavailable`] if this disk is failed, or the first
    /// error `dst` returns.
    pub fn copy_into<D: BlockDevice>(&self, dst: &mut D) -> Result<(), BlockError> {
        if self.failed {
            return Err(BlockError::Unavailable);
        }
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
        if self.failed {
            return Err(BlockError::Unavailable);
        }
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
        if self.failed {
            return Err(BlockError::Unavailable);
        }
        check_access(self.num_sectors, lba, data.len())?;
        for (chunk, offset, at, n) in chunk_spans(lba, data.len()) {
            let src = &data[at..at + n];
            match self.chunks.entry(chunk) {
                Entry::Occupied(stored) => {
                    stored.into_mut()[offset..offset + n].copy_from_slice(src)
                }
                // A whole-chunk write stores what was written; only a
                // partial first touch needs the zero background.
                Entry::Vacant(slot) if n == CHUNK_BYTES => {
                    slot.insert(src.into());
                }
                Entry::Vacant(slot) => slot.insert(vec![0u8; CHUNK_BYTES].into_boxed_slice())
                    [offset..offset + n]
                    .copy_from_slice(src),
            }
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), BlockError> {
        if self.failed {
            return Err(BlockError::Unavailable);
        }
        Ok(())
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
        /// footprint is exactly the chunks some write touched. `op` 0
        /// toggles an injected failure, which must refuse both paths and
        /// leave the stored bytes alone.
        #[test]
        fn matches_flat_model(steps in prop::collection::vec(
            (0u8..9, 0u64..160, 1u64..25, 1u8..255), 1..60,
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
                if op == 0 {
                    if disk.is_failed() { disk.recover() } else { disk.fail() }
                } else if disk.is_failed() {
                    prop_assert_eq!(disk.write(lba, &data), Err(BlockError::Unavailable));
                    prop_assert_eq!(disk.read(lba, &mut buf), Err(BlockError::Unavailable));
                } else if op % 2 == 1 {
                    disk.write(lba, &data).unwrap();
                    flat[lo..lo + len].copy_from_slice(&data);
                    touched.extend(lba / CHUNK_SECTORS..=(lba + sectors - 1) / CHUNK_SECTORS);
                } else {
                    disk.read(lba, &mut buf).unwrap();
                    prop_assert_eq!(&buf[..], &flat[lo..lo + len], "read {}+{}", lba, sectors);
                }
                prop_assert_eq!(disk.allocated_bytes(), touched.len() * CHUNK_BYTES);
            }
            disk.recover();
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
    fn copy_from_a_failed_disk_writes_nothing() {
        let mut src = MemDisk::new(64);
        src.write(8, &[3u8; SECTOR_SIZE]).unwrap();
        src.fail();
        let mut dst = MemDisk::new(64);
        assert_eq!(src.copy_into(&mut dst), Err(BlockError::Unavailable));
        assert_eq!(dst.allocated_bytes(), 0);
        // A destination too small for the source's chunks refuses them.
        src.recover();
        assert!(src.copy_into(&mut MemDisk::new(8)).is_err());
    }

    #[test]
    fn failure_injection() {
        let mut d = MemDisk::new(8);
        d.write(0, &[7u8; SECTOR_SIZE]).unwrap();
        d.fail();
        assert!(d.is_failed());
        assert_eq!(
            d.write(0, &[0u8; SECTOR_SIZE]),
            Err(BlockError::Unavailable)
        );
        let mut buf = [0u8; SECTOR_SIZE];
        assert_eq!(d.read(0, &mut buf), Err(BlockError::Unavailable));
        assert_eq!(d.flush(), Err(BlockError::Unavailable));
        d.recover();
        d.read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 7);
    }
}
