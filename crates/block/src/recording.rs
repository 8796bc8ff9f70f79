//! A block device wrapper that records every access.
//!
//! The tenant VM's filesystem runs synchronously against a
//! [`RecordingDevice`]; the recorded access stream is then replayed through
//! the simulated fabric as iSCSI traffic. This preserves the exact order,
//! addresses and contents of the block accesses the middle-box observes —
//! which is what the semantics-reconstruction experiments (Tables I–III)
//! analyse.

use bytes::Bytes;

use crate::device::{BlockDevice, BlockError, SECTOR_SIZE};

/// Whether an access was a read or a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data flowed from the device.
    Read,
    /// Data flowed to the device.
    Write,
}

/// One recorded block access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRecord {
    /// Read or write.
    pub kind: AccessKind,
    /// Starting sector.
    pub lba: u64,
    /// Number of sectors.
    pub sectors: u64,
    /// Payload for writes (the bytes written); empty for reads.
    pub data: Bytes,
}

impl AccessRecord {
    /// Length of the access in bytes.
    pub fn len_bytes(&self) -> usize {
        self.sectors as usize * SECTOR_SIZE
    }
}

/// Wraps a [`BlockDevice`] and logs every read and write. Write payloads
/// go to one buffer that [`RecordingDevice::take_log`] cuts into the
/// records' `data` views, so recording a write allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct RecordingDevice<D> {
    inner: D,
    log: Vec<AccessRecord>,
    /// The payloads of the logged writes, in log order.
    payloads: Vec<u8>,
}

impl<D: BlockDevice> RecordingDevice<D> {
    /// Wraps `inner`, recording reads and writes.
    pub fn new(inner: D) -> Self {
        RecordingDevice {
            inner,
            log: Vec::new(),
            payloads: Vec::new(),
        }
    }

    /// Takes the access log, in issue order, leaving an empty one behind.
    pub fn take_log(&mut self) -> Vec<AccessRecord> {
        let room = self.payloads.capacity();
        let mut payloads = std::mem::take(&mut self.payloads);
        // In place: the records keep only the bytes written. The next buffer
        // gets the room this one grew to, reserved past what it gave back.
        payloads.shrink_to_fit();
        let payloads = Bytes::from(payloads);
        self.payloads.reserve(room);
        let mut at = 0;
        for rec in self.log.iter_mut().filter(|r| r.kind == AccessKind::Write) {
            rec.data = payloads.slice(at..at + rec.len_bytes());
            at += rec.len_bytes();
        }
        let next = Vec::with_capacity(self.log.len());
        std::mem::replace(&mut self.log, next)
    }

    /// A mutable view of the wrapped device (accesses made through it are
    /// not recorded).
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// Unwraps into the inner device, discarding the log.
    pub fn into_inner(self) -> D {
        self.inner
    }
}

/// Logs an access of `len` bytes; a write's payload is cut in later.
fn record(log: &mut Vec<AccessRecord>, kind: AccessKind, lba: u64, len: usize) {
    log.push(AccessRecord {
        kind,
        lba,
        sectors: (len / SECTOR_SIZE) as u64,
        data: Bytes::new(),
    });
}

impl<D: BlockDevice> BlockDevice for RecordingDevice<D> {
    fn num_sectors(&self) -> u64 {
        self.inner.num_sectors()
    }

    fn read(&mut self, lba: u64, buf: &mut [u8]) -> Result<(), BlockError> {
        self.inner.read(lba, buf)?;
        record(&mut self.log, AccessKind::Read, lba, buf.len());
        Ok(())
    }

    fn write(&mut self, lba: u64, data: &[u8]) -> Result<(), BlockError> {
        self.inner.write(lba, data)?;
        record(&mut self.log, AccessKind::Write, lba, data.len());
        self.payloads.extend_from_slice(data);
        Ok(())
    }

    fn flush(&mut self) -> Result<(), BlockError> {
        self.inner.flush()
    }

    fn write_bytes(&mut self, lba: u64, data: Bytes) -> Result<(), BlockError> {
        self.inner.write_bytes(lba, data.clone())?;
        record(&mut self.log, AccessKind::Write, lba, data.len());
        self.payloads.extend_from_slice(&data);
        Ok(())
    }

    fn read_bytes(&mut self, lba: u64, len: usize) -> Result<Bytes, BlockError> {
        let view = self.inner.read_bytes(lba, len)?;
        record(&mut self.log, AccessKind::Read, lba, len);
        Ok(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDisk;

    const BLOCK_BYTES: usize = 8 * SECTOR_SIZE;

    #[test]
    fn records_reads_and_writes_in_order() {
        let mut d = RecordingDevice::new(MemDisk::new(64));
        d.write(3, &[9u8; SECTOR_SIZE]).unwrap();
        let mut buf = [0u8; SECTOR_SIZE];
        d.read(3, &mut buf).unwrap();
        assert_eq!(buf[0], 9);
        d.write(8, &[7u8; 2 * SECTOR_SIZE]).unwrap();
        let log = d.take_log();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].kind, AccessKind::Write);
        assert_eq!(log[0].lba, 3);
        assert_eq!(log[0].data, [9u8; SECTOR_SIZE]);
        assert_eq!(log[0].len_bytes(), SECTOR_SIZE);
        assert_eq!(log[1].kind, AccessKind::Read);
        assert!(log[1].data.is_empty());
        assert_eq!(log[2].data, [7u8; 2 * SECTOR_SIZE]);
        // The two payloads share one buffer.
        assert!(log[0].data.try_join(&log[2].data).is_some());
    }

    #[test]
    fn failed_accesses_are_not_recorded() {
        let mut d = RecordingDevice::new(MemDisk::new(4));
        assert!(d.write(100, &[0u8; SECTOR_SIZE]).is_err());
        assert!(d.take_log().is_empty());
    }

    #[test]
    fn a_lent_block_is_logged_as_the_read_it_replaces() {
        let mut lent = RecordingDevice::new(MemDisk::new(64));
        let mut read = RecordingDevice::new(MemDisk::new(64));
        lent.write_bytes(8, Bytes::from(vec![4u8; BLOCK_BYTES]))
            .unwrap();
        read.write(8, &[4u8; BLOCK_BYTES]).unwrap();
        assert_eq!(lent.read_bytes(8, BLOCK_BYTES).unwrap(), [4u8; BLOCK_BYTES]);
        let mut buf = [0u8; BLOCK_BYTES];
        read.read(8, &mut buf).unwrap();
        // A refused access is not logged.
        assert!(lent.read_bytes(64, BLOCK_BYTES).is_err());
        assert!(lent
            .write_bytes(64, Bytes::from(vec![0u8; SECTOR_SIZE]))
            .is_err());
        assert_eq!(lent.take_log(), read.take_log());
    }

    #[test]
    fn take_log_resets() {
        let mut d = RecordingDevice::new(MemDisk::new(4));
        d.write(0, &[1u8; SECTOR_SIZE]).unwrap();
        let log = d.take_log();
        assert_eq!(log.len(), 1);
        d.write(1, &[2u8; SECTOR_SIZE]).unwrap();
        assert_eq!(d.take_log()[0].data, [2u8; SECTOR_SIZE]);
        assert!(d.take_log().is_empty());
        let _ = d.into_inner();
    }
}
