//! Sparse in-memory disk.
//!
//! Storage is a map of 4 KiB chunks — the page-cache block of the cloud's
//! disk model and the smallest write any workload issues — so a random
//! 4 KiB write allocates at most the bytes it stores. `read` and `write`
//! walk the request chunk by chunk: one map lookup and one slice copy per
//! chunk, and a write covering a whole unwritten chunk stores the caller's
//! bytes directly instead of zero-filling a chunk first.
//!
//! A chunk is a [`Bytes`] view. `write_bytes` keeps 4 KiB views of the
//! caller's buffer when that buffer is the whole of its backing storage,
//! so a writer that reuses one buffer stores it once however often it
//! writes it; any other buffer is copied, so a chunk pins at most the one
//! buffer its write carried. `read_bytes` answers with the stored views
//! when they are contiguous, and with a view of one shared zero buffer
//! where nothing was written. Chunks are edited copy-on-write, so neither
//! a clone of the disk nor a view handed out earlier sees a later write.

use std::collections::hash_map::Entry;
use std::hash::RandomState;

use bytes::Bytes;
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
    /// Every chunk a write touched, each a `CHUNK_BYTES` view.
    chunks: IdMap<u64, Bytes, RandomState>,
    /// What `read_bytes` lends for never-written ranges: allocated on the
    /// first such read, grown to the longest.
    zeros: Bytes,
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
            zeros: Bytes::new(),
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
    /// could hold, and that a `MemDisk` under `dst` takes by sharing each
    /// chunk that is a whole buffer (`write_bytes`). Sectors this disk
    /// never wrote are left alone on `dst`, so the copy is exact only onto
    /// a device that reads zero there.
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
            dst.write_bytes(lba, stored.slice(..sectors as usize * SECTOR_SIZE))?;
        }
        Ok(())
    }

    /// Writes `data` at `lba`; `share` is the same bytes when they are all
    /// of their backing storage, whose whole chunks are kept as views.
    /// Any other chunk is edited in place when no other view holds its
    /// storage, and in a copy otherwise.
    fn put(&mut self, lba: u64, data: &[u8], share: Option<&Bytes>) -> Result<(), BlockError> {
        check_access(self.num_sectors, lba, data.len())?;
        for (chunk, offset, at, n) in chunk_spans(lba, data.len()) {
            let src = &data[at..at + n];
            match (share, self.chunks.entry(chunk)) {
                (Some(buf), slot) if n == CHUNK_BYTES => {
                    _ = slot.insert_entry(buf.slice(at..at + n))
                }
                // A whole-chunk write stores what was written; only a
                // partial first touch needs the zero background.
                (_, Entry::Vacant(slot)) if n == CHUNK_BYTES => {
                    _ = slot.insert(Bytes::copy_from_slice(src))
                }
                (_, slot) => slot
                    .or_insert_with(|| vec![0; CHUNK_BYTES].into())
                    .make_mut()[offset..offset + n]
                    .copy_from_slice(src),
            }
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
        self.put(lba, data, None)
    }

    /// Keeps each whole chunk of `data` as a view when `data` is all of
    /// its backing storage; copies the rest as `write` does.
    fn write_bytes(&mut self, lba: u64, data: Bytes) -> Result<(), BlockError> {
        self.put(lba, &data, data.spans_storage().then_some(&data))
    }

    /// The stored views joined when they are contiguous, a view of the
    /// zero buffer when nothing in range was written, else a copy.
    fn read_bytes(&mut self, lba: u64, len: usize) -> Result<Bytes, BlockError> {
        check_access(self.num_sectors, lba, len)?;
        let spans = || chunk_spans(lba, len);
        let stored =
            |(chunk, offset, _, n)| Some(self.chunks.get(&chunk)?.slice(offset..offset + n));
        if let Some(view) =
            spans().try_fold(Bytes::new(), |view, span| view.try_join(&stored(span)?))
        {
            return Ok(view);
        }
        if spans().all(|span| stored(span).is_none()) {
            if self.zeros.len() < len {
                self.zeros = vec![0; len].into();
            }
            return Ok(self.zeros.slice(..len));
        }
        let mut buf = vec![0; len];
        self.read(lba, &mut buf)?;
        Ok(buf.into())
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
        // Views of unwritten space are views of one zero buffer.
        let zeros = d.read_bytes(0, CHUNK_BYTES).unwrap();
        assert!(zeros.same_storage(&d.read_bytes(CHUNK_SECTORS + 1, CHUNK_BYTES).unwrap()));
        assert_eq!(zeros, [0u8; CHUNK_BYTES]);
        // Reads never allocate a chunk.
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
        /// footprint is exactly the chunks some write touched. Writes go
        /// through `write`, `write_bytes` of a whole buffer and
        /// `write_bytes` of a view inside a larger one; reads through
        /// `read` and `read_bytes`, whose views are kept and must hold
        /// the model's bytes of their moment after every later write.
        #[test]
        fn matches_flat_model(steps in prop::collection::vec(
            (1u8..9, 0u64..160, 1u64..25, 1u8..255), 1..60,
        )) {
            const SECTORS: u64 = 20 * CHUNK_SECTORS;
            let mut disk = MemDisk::new(SECTORS);
            let mut flat = vec![0u8; SECTORS as usize * SECTOR_SIZE];
            let mut touched = std::collections::BTreeSet::new();
            let mut kept: Vec<(Bytes, Vec<u8>)> = Vec::new();
            for (op, lba, sectors, fill) in steps {
                let sectors = sectors.min(SECTORS - lba);
                let (lo, len) = (lba as usize * SECTOR_SIZE, sectors as usize * SECTOR_SIZE);
                let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                match op {
                    1 | 5 => disk.write(lba, &data).unwrap(),
                    // The writer keeps its buffer: it must not change either.
                    3 => {
                        kept.push((Bytes::from(data.clone()), data.clone()));
                        disk.write_bytes(lba, kept[kept.len() - 1].0.clone()).unwrap();
                    }
                    7 => {
                        let pad = [0xEE; SECTOR_SIZE];
                        let padded = Bytes::from([&pad[..], &data, &pad].concat());
                        disk.write_bytes(lba, padded.slice(SECTOR_SIZE..SECTOR_SIZE + len)).unwrap();
                    }
                    4 | 8 => {
                        kept.push((disk.read_bytes(lba, len).unwrap(), flat[lo..lo + len].to_vec()))
                    }
                    _ => {
                        let mut buf = vec![0xEEu8; len];
                        disk.read(lba, &mut buf).unwrap();
                        prop_assert_eq!(&buf[..], &flat[lo..lo + len], "read {}+{}", lba, sectors);
                    }
                }
                if op % 2 == 1 {
                    flat[lo..lo + len].copy_from_slice(&data);
                    touched.extend(lba / CHUNK_SECTORS..=(lba + sectors - 1) / CHUNK_SECTORS);
                }
                prop_assert_eq!(disk.allocated_bytes(), touched.len() * CHUNK_BYTES);
                for (view, then) in &kept {
                    prop_assert!(view[..] == then[..], "a view does not hold its moment's bytes");
                }
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
        let mut read = |lba, len| d.read_bytes(lba, len);
        assert_eq!(
            read(CHUNK_SECTORS, CHUNK_BYTES).unwrap(),
            [5u8; CHUNK_BYTES]
        );
        assert_eq!(read(0, CHUNK_BYTES).unwrap(), [0u8; CHUNK_BYTES]);
        // Over written and unwritten ground, a copy.
        let straddle = read(CHUNK_SECTORS - 1, 2 * SECTOR_SIZE).unwrap();
        assert_eq!(straddle, [[0u8; SECTOR_SIZE], [5u8; SECTOR_SIZE]].concat());
        // The last chunk holds only three sectors: out of range, like a read.
        assert!(matches!(
            read(2 * CHUNK_SECTORS, CHUNK_BYTES),
            Err(BlockError::OutOfRange { sectors: 8, .. })
        ));
        // Lending an unwritten chunk does not allocate it.
        assert_eq!(d.allocated_bytes(), CHUNK_BYTES);
    }

    /// A buffer that is all of its storage is kept as it is; a view inside
    /// a larger one is copied, so the disk pins none of the bytes around it.
    #[test]
    fn a_whole_buffer_is_shared_and_a_sub_view_copied() {
        let mut d = MemDisk::new(8 * CHUNK_SECTORS);
        let whole = Bytes::from(vec![7u8; 2 * CHUNK_BYTES]);
        d.write_bytes(CHUNK_SECTORS, whole.clone()).unwrap();
        let back = d.read_bytes(CHUNK_SECTORS, 2 * CHUNK_BYTES).unwrap();
        assert!(back.same_storage(&whole));
        let inner = Bytes::from(vec![8u8; 3 * CHUNK_BYTES]).slice(CHUNK_BYTES..2 * CHUNK_BYTES);
        d.write_bytes(4 * CHUNK_SECTORS, inner.clone()).unwrap();
        let back = d.read_bytes(4 * CHUNK_SECTORS, CHUNK_BYTES).unwrap();
        assert!(back == inner && !back.same_storage(&inner));
    }

    /// A clone shares its chunks until one side writes: then that side
    /// alone sees the write, partial or whole, in a copy of the chunk, and
    /// the other keeps its bytes. A chunk nobody else holds is edited where
    /// it lies.
    #[test]
    fn clones_copy_chunks_on_write() {
        let mut a = MemDisk::new(4 * CHUNK_SECTORS);
        a.write(0, &[1u8; 2 * CHUNK_BYTES]).unwrap();
        let mut b = a.clone();
        let at = |d: &mut MemDisk, lba| d.read_bytes(lba, CHUNK_BYTES).unwrap().as_ptr();
        let shared = at(&mut a, 0);
        b.write(1, &[2u8; SECTOR_SIZE]).unwrap();
        assert!(at(&mut a, 0) == shared && at(&mut b, 0) != shared);
        b.write(CHUNK_SECTORS, &[3u8; CHUNK_BYTES]).unwrap();
        a.write(2 * CHUNK_SECTORS, &[4u8; SECTOR_SIZE]).unwrap();
        let own = at(&mut a, 2 * CHUNK_SECTORS);
        a.write(2 * CHUNK_SECTORS + 1, &[4u8; SECTOR_SIZE]).unwrap();
        assert_eq!(at(&mut a, 2 * CHUNK_SECTORS), own);
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
