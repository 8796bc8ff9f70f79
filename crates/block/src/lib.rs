//! Block storage substrate: devices, volumes and volume groups.
//!
//! The paper's prototype uses OpenStack Cinder backed by LVM volume groups
//! on a SATA disk. This crate provides the equivalent building blocks:
//!
//! * [`BlockDevice`] — the sector-addressed device trait everything above
//!   (iSCSI targets, the ext filesystem, services) is written against.
//! * [`MemDisk`] — a sparse in-memory disk; terabyte-sized volumes cost only
//!   the sectors actually touched.
//! * [`RecordingDevice`] — wraps a device and logs every access; used to
//!   replay a VM's block stream through the simulated fabric.
//! * [`VolumeGroup`] / [`Volume`] — LVM-style extent allocation, the Cinder
//!   backend model.
//! * [`transport`] — the protocol-neutral block transport layer that
//!   `storm-iscsi` and `storm-nvmeq` both build on (and depends on neither).
//!
//! # Example
//!
//! ```
//! use storm_block::{BlockDevice, MemDisk};
//!
//! # fn main() -> Result<(), storm_block::BlockError> {
//! let mut disk = MemDisk::with_capacity_bytes(1 << 20);
//! disk.write(0, &[0xAB; 512])?;
//! let mut buf = [0u8; 512];
//! disk.read(0, &mut buf)?;
//! assert_eq!(buf[0], 0xAB);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod cow;
mod device;
mod mem;
mod recording;
pub mod transport;
mod volume;

pub use cow::CowExtentMap;
pub use device::{BlockDevice, BlockError, SECTOR_SIZE};
pub use mem::MemDisk;
pub use recording::{AccessKind, AccessRecord, RecordingDevice};
pub use volume::{SharedVolume, Volume, VolumeGroup, VolumeId};
