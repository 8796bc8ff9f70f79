//! LVM-style volume groups and logical volumes (the Cinder backend model).
//!
//! The paper's testbed creates "multiple volume groups ... from the physical
//! volume through OpenStack's Cinder service". [`VolumeGroup`] allocates
//! fixed-size extents from a backing physical disk; [`Volume`] is a logical
//! device stitched from those extents.

use std::fmt;
use std::hash::RandomState;
use std::sync::{Arc, Mutex};

use storm_sim::{FaultAction, FaultHook, FaultSite, IdMap, SimTime};

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
#[derive(Debug)]
pub struct VolumeGroup {
    backing: Arc<Mutex<MemDisk>>,
    extent_used: Vec<bool>,
    volumes: IdMap<VolumeId, Vec<u64>, RandomState>,
    next_id: u32,
}

impl VolumeGroup {
    /// Creates a volume group over a fresh physical disk of `bytes` bytes.
    pub fn new(bytes: u64) -> Self {
        let disk = MemDisk::with_capacity_bytes(bytes);
        let extents = disk.num_sectors() / EXTENT_SECTORS;
        VolumeGroup {
            backing: Arc::new(Mutex::new(disk)),
            extent_used: vec![false; extents as usize],
            volumes: IdMap::default(),
            next_id: 1,
        }
    }

    /// Free capacity in bytes.
    pub fn free_bytes(&self) -> u64 {
        let free = self.extent_used.iter().filter(|u| !**u).count() as u64;
        free * EXTENT_SECTORS * SECTOR_SIZE as u64
    }

    /// Allocates a logical volume of at least `bytes` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::OutOfRange`] if the group lacks free extents.
    pub fn create_volume(&mut self, bytes: u64) -> Result<Volume, BlockError> {
        let sectors = bytes.div_ceil(SECTOR_SIZE as u64);
        let needed = sectors.div_ceil(EXTENT_SECTORS).max(1);
        let free: Vec<u64> = self
            .extent_used
            .iter()
            .enumerate()
            .filter(|(_, used)| !**used)
            .map(|(i, _)| i as u64)
            .take(needed as usize)
            .collect();
        if (free.len() as u64) < needed {
            return Err(BlockError::OutOfRange {
                lba: 0,
                sectors,
                capacity: self.free_bytes() / SECTOR_SIZE as u64,
            });
        }
        for &e in &free {
            self.extent_used[e as usize] = true;
        }
        let id = VolumeId(self.next_id);
        self.next_id += 1;
        self.volumes.insert(id, free.clone());
        Ok(Volume {
            id,
            extents: free,
            num_sectors: needed * EXTENT_SECTORS,
            backing: Arc::clone(&self.backing),
            failed: false,
            fault: FaultHook::none(),
        })
    }

    /// Frees the extents of volume `id`.
    ///
    /// Deleting an unknown volume is a no-op (idempotent delete, matching
    /// Cinder semantics).
    pub fn delete_volume(&mut self, id: VolumeId) {
        if let Some(extents) = self.volumes.remove(&id) {
            for e in extents {
                self.extent_used[e as usize] = false;
            }
        }
    }

    /// Number of live volumes.
    pub fn volume_count(&self) -> usize {
        self.volumes.len()
    }
}

/// A logical volume: a sector-addressed view stitched from extents of its
/// volume group's physical disk.
#[derive(Debug, Clone)]
pub struct Volume {
    id: VolumeId,
    extents: Vec<u64>,
    num_sectors: u64,
    backing: Arc<Mutex<MemDisk>>,
    failed: bool,
    fault: FaultHook,
}

impl Volume {
    /// This volume's identifier.
    pub fn id(&self) -> VolumeId {
        self.id
    }

    /// Marks this volume handle failed (fault injection); I/O returns
    /// [`BlockError::Unavailable`].
    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// Clears an injected failure.
    pub fn recover(&mut self) {
        self.failed = false;
    }

    /// Arms the volume's fault hook (site [`FaultSite::VolumeIo`]).
    ///
    /// The block layer has no simulation clock, so the hook is consulted
    /// with [`SimTime::ZERO`]; only time-independent decisions (medium
    /// errors) make sense here.
    pub fn set_fault_hook(&mut self, hook: FaultHook) {
        self.fault = hook;
    }

    fn check_fault(&self, lba: u64, write: bool) -> Result<(), BlockError> {
        let site = FaultSite::VolumeIo {
            volume: self.id.0,
            lba,
            write,
        };
        match self.fault.decide(SimTime::ZERO, site) {
            FaultAction::Proceed | FaultAction::Delay(_) => Ok(()),
            FaultAction::Fail => Err(BlockError::Medium { lba }),
            FaultAction::Drop => Err(BlockError::Unavailable),
        }
    }

    fn physical(&self, lba: u64) -> u64 {
        let extent = self.extents[(lba / EXTENT_SECTORS) as usize];
        extent * EXTENT_SECTORS + lba % EXTENT_SECTORS
    }

    /// Splits `[lba, lba+sectors)` into physically contiguous runs.
    fn runs(&self, lba: u64, sectors: u64) -> Vec<(u64, u64, u64)> {
        // (logical_offset_bytes_index, physical_lba, run_sectors)
        let mut out = Vec::new();
        let mut off = 0;
        while off < sectors {
            let l = lba + off;
            let within = EXTENT_SECTORS - l % EXTENT_SECTORS;
            let run = within.min(sectors - off);
            out.push((off, self.physical(l), run));
            off += run;
        }
        out
    }
}

impl BlockDevice for Volume {
    fn num_sectors(&self) -> u64 {
        self.num_sectors
    }

    fn read(&mut self, lba: u64, buf: &mut [u8]) -> Result<(), BlockError> {
        if self.failed {
            return Err(BlockError::Unavailable);
        }
        self.check_fault(lba, false)?;
        let sectors = check_access(self.num_sectors, lba, buf.len())?;
        let mut disk = self.backing.lock().expect("poisoned");
        for (off, plba, run) in self.runs(lba, sectors) {
            let b = off as usize * SECTOR_SIZE;
            disk.read(plba, &mut buf[b..b + run as usize * SECTOR_SIZE])?;
        }
        Ok(())
    }

    fn write(&mut self, lba: u64, data: &[u8]) -> Result<(), BlockError> {
        if self.failed {
            return Err(BlockError::Unavailable);
        }
        self.check_fault(lba, true)?;
        let sectors = check_access(self.num_sectors, lba, data.len())?;
        let mut disk = self.backing.lock().expect("poisoned");
        for (off, plba, run) in self.runs(lba, sectors) {
            let b = off as usize * SECTOR_SIZE;
            disk.write(plba, &data[b..b + run as usize * SECTOR_SIZE])?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), BlockError> {
        self.backing.lock().expect("poisoned").flush()
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

    /// Arms the wrapped volume's fault hook.
    pub fn set_fault_hook(&self, hook: FaultHook) {
        self.0.lock().expect("poisoned").set_fault_hook(hook);
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
    fn allocation_exhaustion_and_reuse() {
        let mut vg = VolumeGroup::new(8 << 20); // two 4 MiB extents
        let v1 = vg.create_volume(4 << 20).unwrap();
        let _v2 = vg.create_volume(4 << 20).unwrap();
        assert_eq!(vg.free_bytes(), 0);
        assert!(vg.create_volume(1).is_err());
        vg.delete_volume(v1.id());
        assert_eq!(vg.free_bytes(), 4 << 20);
        assert!(vg.create_volume(4 << 20).is_ok());
        // Idempotent delete of unknown volume.
        vg.delete_volume(VolumeId(999));
        assert_eq!(vg.volume_count(), 2);
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
        h2.fail();
        assert_eq!(h1.read(5, &mut buf), Err(BlockError::Unavailable));
        h1.recover();
        assert!(h1.flush().is_ok());
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
