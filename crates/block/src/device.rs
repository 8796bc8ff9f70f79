//! The sector-addressed block device abstraction.

use std::error::Error;
use std::fmt;

use bytes::Bytes;

/// Size of one device sector in bytes (the SCSI standard 512).
pub const SECTOR_SIZE: usize = 512;

/// Errors returned by block device operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// The access touches sectors past the end of the device.
    OutOfRange {
        /// First sector of the access.
        lba: u64,
        /// Number of sectors in the access.
        sectors: u64,
        /// Device capacity in sectors.
        capacity: u64,
    },
    /// The buffer length is not a whole number of sectors.
    Misaligned {
        /// Offending buffer length in bytes.
        len: usize,
    },
    /// The device has failed or been detached (fault injection).
    Unavailable,
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::OutOfRange {
                lba,
                sectors,
                capacity,
            } => write!(
                f,
                "access of {sectors} sectors at lba {lba} exceeds capacity {capacity}"
            ),
            BlockError::Misaligned { len } => {
                write!(f, "buffer of {len} bytes is not sector aligned")
            }
            BlockError::Unavailable => write!(f, "device unavailable"),
        }
    }
}

impl Error for BlockError {}

/// A random-access, sector-addressed block device.
///
/// All offsets are logical block addresses (LBAs) in units of
/// [`SECTOR_SIZE`]-byte sectors. Buffers must be whole multiples of the
/// sector size.
pub trait BlockDevice {
    /// Device capacity in sectors.
    fn num_sectors(&self) -> u64;

    /// Reads `buf.len() / SECTOR_SIZE` sectors starting at `lba`.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::Misaligned`] for non-sector-sized buffers and
    /// [`BlockError::OutOfRange`] for accesses past the device end.
    fn read(&mut self, lba: u64, buf: &mut [u8]) -> Result<(), BlockError>;

    /// Writes `data.len() / SECTOR_SIZE` sectors starting at `lba`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BlockDevice::read`].
    fn write(&mut self, lba: u64, data: &[u8]) -> Result<(), BlockError>;

    /// Flushes any buffered writes to stable storage.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::Unavailable`] if the device has failed.
    fn flush(&mut self) -> Result<(), BlockError> {
        Ok(())
    }

    /// Writes `data` at `lba` as [`BlockDevice::write`] does; a device may
    /// keep views of `data` instead of copying it (the default copies).
    ///
    /// # Errors
    ///
    /// Same conditions as [`BlockDevice::read`].
    fn write_bytes(&mut self, lba: u64, data: Bytes) -> Result<(), BlockError> {
        self.write(lba, &data)
    }

    /// Reads `len` bytes at `lba` as [`BlockDevice::read`] does; a device
    /// may answer with views of what it stores (the default copies).
    ///
    /// # Errors
    ///
    /// Same conditions as [`BlockDevice::read`].
    fn read_bytes(&mut self, lba: u64, len: usize) -> Result<Bytes, BlockError> {
        let mut buf = vec![0; len];
        self.read(lba, &mut buf)?;
        Ok(buf.into())
    }

    /// Device capacity in bytes.
    fn capacity_bytes(&self) -> u64 {
        self.num_sectors() * SECTOR_SIZE as u64
    }
}

/// Validates an access and returns the sector count.
pub(crate) fn check_access(capacity: u64, lba: u64, len: usize) -> Result<u64, BlockError> {
    if len == 0 || !len.is_multiple_of(SECTOR_SIZE) {
        return Err(BlockError::Misaligned { len });
    }
    let sectors = (len / SECTOR_SIZE) as u64;
    if lba.checked_add(sectors).is_none_or(|end| end > capacity) {
        return Err(BlockError::OutOfRange {
            lba,
            sectors,
            capacity,
        });
    }
    Ok(sectors)
}

/// Forwards every method to the device behind the pointer.
macro_rules! forward_block_device {
    ($($ptr:ty),*) => {$(
        impl<D: BlockDevice + ?Sized> BlockDevice for $ptr {
            fn num_sectors(&self) -> u64 {
                (**self).num_sectors()
            }
            fn read(&mut self, lba: u64, buf: &mut [u8]) -> Result<(), BlockError> {
                (**self).read(lba, buf)
            }
            fn write(&mut self, lba: u64, data: &[u8]) -> Result<(), BlockError> {
                (**self).write(lba, data)
            }
            fn flush(&mut self) -> Result<(), BlockError> {
                (**self).flush()
            }
            fn write_bytes(&mut self, lba: u64, data: Bytes) -> Result<(), BlockError> {
                (**self).write_bytes(lba, data)
            }
            fn read_bytes(&mut self, lba: u64, len: usize) -> Result<Bytes, BlockError> {
                (**self).read_bytes(lba, len)
            }
        }
    )*};
}

forward_block_device!(&mut D, Box<D>);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_access_accepts_aligned_in_range() {
        assert_eq!(check_access(100, 0, 512), Ok(1));
        assert_eq!(check_access(100, 92, 8 * 512), Ok(8));
    }

    #[test]
    fn check_access_rejects_misaligned() {
        assert_eq!(
            check_access(100, 0, 100),
            Err(BlockError::Misaligned { len: 100 })
        );
        assert_eq!(
            check_access(100, 0, 0),
            Err(BlockError::Misaligned { len: 0 })
        );
    }

    #[test]
    fn check_access_rejects_out_of_range() {
        assert!(matches!(
            check_access(100, 93, 8 * 512),
            Err(BlockError::OutOfRange {
                lba: 93,
                sectors: 8,
                capacity: 100
            })
        ));
        // Overflow of lba + sectors must not wrap.
        assert!(matches!(
            check_access(100, u64::MAX, 512),
            Err(BlockError::OutOfRange { .. })
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = BlockError::OutOfRange {
            lba: 5,
            sectors: 2,
            capacity: 6,
        };
        assert!(e.to_string().contains("lba 5"));
        assert!(BlockError::Misaligned { len: 7 }.to_string().contains('7'));
        assert!(!BlockError::Unavailable.to_string().is_empty());
    }
}
