//! LVM-style volume groups and logical volumes (the Cinder backend model).
//!
//! The paper's testbed creates "multiple volume groups ... from the physical
//! volume through OpenStack's Cinder service". [`VolumeGroup`] allocates
//! fixed-size extents from a backing physical disk, in order; [`Volume`] is
//! a logical device over its run of extents.

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use bytes::Bytes;

use crate::device::{check_access, BlockDevice, BlockError, SECTOR_SIZE};
use crate::MemDisk;

/// Sectors per allocation extent (4 MiB, LVM's default extent size).
pub const EXTENT_SECTORS: u64 = 8192;

/// Identifier of a logical volume within its volume group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VolumeId(pub u32);

impl fmt::Display for VolumeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vol-{}", self.0)
    }
}

/// An LVM-style volume group: an extent allocator over one physical disk.
/// Extents are handed out in order and never given back: no scenario
/// deletes a volume.
#[derive(Debug)]
pub struct VolumeGroup {
    backing: Arc<Mutex<MemDisk>>,
    extents: u64,
    next_extent: u64,
    next_id: u32,
}

impl VolumeGroup {
    /// Creates a volume group over a fresh physical disk of `bytes` bytes.
    pub fn new(bytes: u64) -> Self {
        let disk = MemDisk::with_capacity_bytes(bytes);
        VolumeGroup {
            extents: disk.num_sectors() / EXTENT_SECTORS,
            backing: Arc::new(Mutex::new(disk)),
            next_extent: 0,
            next_id: 1,
        }
    }

    /// Free capacity in bytes.
    pub fn free_bytes(&self) -> u64 {
        (self.extents - self.next_extent) * EXTENT_SECTORS * SECTOR_SIZE as u64
    }

    /// Allocates a logical volume of at least `bytes` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::OutOfRange`] if the group lacks free extents.
    pub fn create_volume(&mut self, bytes: u64) -> Result<Volume, BlockError> {
        let sectors = bytes.div_ceil(SECTOR_SIZE as u64);
        let needed = sectors.div_ceil(EXTENT_SECTORS).max(1);
        if self.extents - self.next_extent < needed {
            return Err(BlockError::OutOfRange {
                lba: 0,
                sectors,
                capacity: self.free_bytes() / SECTOR_SIZE as u64,
            });
        }
        let base = self.next_extent * EXTENT_SECTORS;
        self.next_extent += needed;
        let id = VolumeId(self.next_id);
        self.next_id += 1;
        Ok(Volume {
            id,
            base,
            num_sectors: needed * EXTENT_SECTORS,
            backing: Arc::clone(&self.backing),
            failed: false,
        })
    }
}

/// A logical volume: a sector-addressed view of a run of extents of its
/// volume group's physical disk.
#[derive(Debug, Clone)]
pub struct Volume {
    id: VolumeId,
    /// First physical sector.
    base: u64,
    num_sectors: u64,
    backing: Arc<Mutex<MemDisk>>,
    failed: bool,
}

impl Volume {
    /// This volume's identifier.
    pub fn id(&self) -> VolumeId {
        self.id
    }

    /// Marks this volume handle failed (fault injection); read, write and
    /// flush return [`BlockError::Unavailable`].
    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// Clears an injected failure.
    pub fn recover(&mut self) {
        self.failed = false;
    }

    /// Checks an access of `len` bytes at `lba`: the locked backing disk
    /// and the physical sector the access starts at.
    fn disk(&self, lba: u64, len: usize) -> Result<(MutexGuard<'_, MemDisk>, u64), BlockError> {
        if self.failed {
            return Err(BlockError::Unavailable);
        }
        check_access(self.num_sectors, lba, len)?;
        Ok((self.backing.lock().expect("poisoned"), self.base + lba))
    }
}

impl BlockDevice for Volume {
    fn num_sectors(&self) -> u64 {
        self.num_sectors
    }

    fn read(&mut self, lba: u64, buf: &mut [u8]) -> Result<(), BlockError> {
        let (mut disk, at) = self.disk(lba, buf.len())?;
        disk.read(at, buf)
    }

    fn write(&mut self, lba: u64, data: &[u8]) -> Result<(), BlockError> {
        let (mut disk, at) = self.disk(lba, data.len())?;
        disk.write(at, data)
    }

    fn flush(&mut self) -> Result<(), BlockError> {
        if self.failed {
            return Err(BlockError::Unavailable);
        }
        self.backing.lock().expect("poisoned").flush()
    }

    fn write_bytes(&mut self, lba: u64, data: Bytes) -> Result<(), BlockError> {
        let (mut disk, at) = self.disk(lba, data.len())?;
        disk.write_bytes(at, data)
    }

    fn read_bytes(&mut self, lba: u64, len: usize) -> Result<Bytes, BlockError> {
        let (mut disk, at) = self.disk(lba, len)?;
        disk.read_bytes(at, len)
    }
}

/// A cloneable, shared handle to a [`Volume`] usable as a [`BlockDevice`].
///
/// Targets, the StorM platform (which reads the volume at attach time for
/// semantics reconstruction) and tests can all hold handles to the same
/// volume.
#[derive(Debug, Clone)]
pub struct SharedVolume(Arc<Mutex<Volume>>);

impl SharedVolume {
    /// Wraps a volume in a shared handle.
    pub fn new(volume: Volume) -> Self {
        SharedVolume(Arc::new(Mutex::new(volume)))
    }

    /// The wrapped volume's identifier.
    pub fn id(&self) -> VolumeId {
        self.0.lock().expect("poisoned").id()
    }

    /// Injects a failure on the shared volume.
    pub fn fail(&self) {
        self.0.lock().expect("poisoned").fail();
    }

    /// Clears an injected failure.
    pub fn recover(&self) {
        self.0.lock().expect("poisoned").recover();
    }
}

impl BlockDevice for SharedVolume {
    fn num_sectors(&self) -> u64 {
        self.0.lock().expect("poisoned").num_sectors()
    }
    fn read(&mut self, lba: u64, buf: &mut [u8]) -> Result<(), BlockError> {
        self.0.lock().expect("poisoned").read(lba, buf)
    }
    fn write(&mut self, lba: u64, data: &[u8]) -> Result<(), BlockError> {
        self.0.lock().expect("poisoned").write(lba, data)
    }
    fn flush(&mut self) -> Result<(), BlockError> {
        self.0.lock().expect("poisoned").flush()
    }
    fn write_bytes(&mut self, lba: u64, data: Bytes) -> Result<(), BlockError> {
        self.0.lock().expect("poisoned").write_bytes(lba, data)
    }
    fn read_bytes(&mut self, lba: u64, len: usize) -> Result<Bytes, BlockError> {
        self.0.lock().expect("poisoned").read_bytes(lba, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volumes_are_isolated() {
        let mut vg = VolumeGroup::new(64 << 20);
        let mut a = vg.create_volume(8 << 20).unwrap();
        let mut b = vg.create_volume(8 << 20).unwrap();
        assert_ne!(a.id(), b.id());
        a.write(0, &[1u8; SECTOR_SIZE]).unwrap();
        b.write(0, &[2u8; SECTOR_SIZE]).unwrap();
        let mut buf = [0u8; SECTOR_SIZE];
        a.read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 1);
        b.read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 2);
    }

    #[test]
    fn io_across_extent_boundary() {
        let mut vg = VolumeGroup::new(64 << 20);
        let mut v = vg
            .create_volume(2 * EXTENT_SECTORS * SECTOR_SIZE as u64)
            .unwrap();
        let data: Vec<u8> = (0..4 * SECTOR_SIZE).map(|i| (i % 13) as u8).collect();
        let lba = EXTENT_SECTORS - 2;
        v.write(lba, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        v.read(lba, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn allocation_exhaustion() {
        let mut vg = VolumeGroup::new(8 << 20); // two 4 MiB extents
        let _v1 = vg.create_volume(4 << 20).unwrap();
        let _v2 = vg.create_volume(4 << 20).unwrap();
        assert_eq!(vg.free_bytes(), 0);
        assert!(vg.create_volume(1).is_err());
    }

    #[test]
    fn shared_volume_handles_alias() {
        let mut vg = VolumeGroup::new(16 << 20);
        let v = vg.create_volume(4 << 20).unwrap();
        let mut h1 = SharedVolume::new(v);
        let mut h2 = h1.clone();
        h1.write(5, &[42u8; SECTOR_SIZE]).unwrap();
        let mut buf = [0u8; SECTOR_SIZE];
        h2.read(5, &mut buf).unwrap();
        assert_eq!(buf[0], 42);
        h1.write_bytes(6, Bytes::from(vec![43u8; SECTOR_SIZE]))
            .unwrap();
        assert_eq!(h2.read_bytes(5, 2 * SECTOR_SIZE).unwrap()[SECTOR_SIZE], 43);
        h2.fail();
        assert_eq!(h1.read(5, &mut buf), Err(BlockError::Unavailable));
        assert_eq!(h1.read_bytes(5, SECTOR_SIZE), Err(BlockError::Unavailable));
        h1.recover();
        assert!(h1.flush().is_ok());
    }

    #[test]
    fn a_failed_volume_refuses_flush_too() {
        let mut vg = VolumeGroup::new(16 << 20);
        let mut v = vg.create_volume(4 << 20).unwrap();
        v.fail();
        assert_eq!(v.flush(), Err(BlockError::Unavailable));
        v.recover();
        assert!(v.flush().is_ok());
    }

    #[test]
    fn volume_bounds_enforced() {
        let mut vg = VolumeGroup::new(16 << 20);
        let mut v = vg.create_volume(4 << 20).unwrap();
        let end = v.num_sectors();
        assert!(v.write(end, &[0u8; SECTOR_SIZE]).is_err());
        assert!(v.write(end - 1, &[0u8; SECTOR_SIZE]).is_ok());
    }
}
