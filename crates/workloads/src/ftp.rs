//! Bulk sequential transfer (the FTP case of Figure 10).

use std::hash::RandomState;

use bytes::Bytes;

use storm_cloud::{IoCtx, IoKind, IoResult, ReqId, Workload};
use storm_sim::{IdMap, SimDuration, SimTime};

/// Transfer direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtpDirection {
    /// Download: sequential reads from the volume.
    Download,
    /// Upload: sequential writes to the volume.
    Upload,
}

/// Sequential bulk transfer of `total_bytes` in fixed-size chunks,
/// `depth` chunks in flight (an FTP server streaming a large file).
#[derive(Debug)]
pub struct FtpWorkload {
    direction: FtpDirection,
    total_bytes: u64,
    chunk_bytes: usize,
    depth: usize,
    next_offset: u64,
    /// Application + guest TCP stack CPU per byte (the FTP server's own
    /// work), charged to the VM label.
    pub app_cpu_per_byte: SimDuration,
    /// In-VM cipher CPU per byte (tenant-side dm-crypt); charged to the
    /// VM label (dm-crypt worker threads run it concurrently, so it does
    /// not gate a deep pipeline's throughput — but it burns the VM's
    /// cores, which is exactly what Figure 10 measures).
    pub vm_cipher_per_byte: SimDuration,
    sizes: IdMap<ReqId, usize, RandomState>,
    /// Bytes completed.
    pub done_bytes: u64,
    started: Option<SimTime>,
    finished: Option<SimTime>,
}

impl FtpWorkload {
    /// Creates a transfer (256 KiB chunks, four in flight).
    pub fn new(direction: FtpDirection, total_bytes: u64) -> Self {
        FtpWorkload {
            direction,
            total_bytes,
            chunk_bytes: 256 * 1024,
            depth: 4,
            next_offset: 0,
            app_cpu_per_byte: SimDuration::from_nanos(7),
            vm_cipher_per_byte: SimDuration::ZERO,
            sizes: IdMap::default(),
            done_bytes: 0,
            started: None,
            finished: None,
        }
    }

    /// Enables tenant-side encryption modelling.
    pub fn with_vm_cipher(mut self, per_byte: SimDuration) -> Self {
        self.vm_cipher_per_byte = per_byte;
        self
    }

    /// Achieved throughput in MB/s, if finished.
    pub fn throughput_mbps(&self) -> Option<f64> {
        Some(self.done_bytes as f64 / 1e6 / self.elapsed()?.as_secs_f64())
    }

    /// Transfer duration, if finished.
    pub fn elapsed(&self) -> Option<SimDuration> {
        Some(self.finished?.since(self.started?))
    }

    fn issue(&mut self, io: &mut IoCtx<'_>) -> bool {
        if self.next_offset >= self.total_bytes {
            return false;
        }
        let n = self
            .chunk_bytes
            .min((self.total_bytes - self.next_offset) as usize);
        // Round to whole sectors.
        let n = (n / 512).max(1) * 512;
        let lba = self.next_offset / 512;
        let per_byte = self.app_cpu_per_byte + self.vm_cipher_per_byte;
        if per_byte > SimDuration::ZERO {
            io.charge_vm_cpu(per_byte * n as u64);
        }
        let req = match self.direction {
            FtpDirection::Download => io.read(lba, (n / 512) as u32),
            FtpDirection::Upload => io.write(lba, Bytes::from(vec![0x5Au8; n])),
        };
        self.sizes.insert(req, n);
        self.next_offset += n as u64;
        true
    }
}

impl Workload for FtpWorkload {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        self.started = Some(io.now);
        for _ in 0..self.depth {
            if !self.issue(io) {
                break;
            }
        }
    }

    fn completed(&mut self, io: &mut IoCtx<'_>, req: ReqId, _kind: IoKind, result: IoResult) {
        debug_assert!(result.ok);
        if let Some(n) = self.sizes.remove(&req) {
            self.done_bytes += n as u64;
        }
        if !self.issue(io) && io.in_flight <= 1 {
            self.finished = Some(io.now);
            io.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(direction: FtpDirection, bytes: u64) -> (u64, f64) {
        crate::solo(FtpWorkload::new(direction, bytes), 5, 20, |_, w, _| {
            (
                w.done_bytes,
                w.throughput_mbps().expect("transfer finished"),
            )
        })
    }

    #[test]
    fn upload_completes_at_plausible_throughput() {
        let (done, mbps) = run(FtpDirection::Upload, 64 << 20);
        assert_eq!(done, 64 << 20);
        // 1 GbE tops out ~117 MB/s; expect something in (20, 120).
        assert!(mbps > 20.0 && mbps < 125.0, "got {mbps} MB/s");
    }

    #[test]
    fn download_completes() {
        let (done, mbps) = run(FtpDirection::Download, 32 << 20);
        assert_eq!(done, 32 << 20);
        assert!(mbps > 20.0, "got {mbps} MB/s");
    }
}
