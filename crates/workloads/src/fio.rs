//! The Fio-like block micro-benchmark.

use bytes::Bytes;

use storm_cloud::{IoCtx, IoKind, IoResult, ReqId, Workload};
use storm_sim::SimDuration;

/// Percentage of reads: the paper's mixed random pattern is 50/50.
const READ_PCT: u64 = 50;

/// A Fio job description (the knobs the paper sweeps). Every job is the
/// paper's random read/write mix.
#[derive(Debug, Clone)]
pub struct FioJob {
    /// Request size in bytes (4 KiB – 256 KiB in the paper).
    pub block_bytes: usize,
    /// Outstanding requests ("the number of threads issuing I/O requests
    /// simultaneously").
    pub threads: usize,
    /// Measurement duration; issuing stops afterwards.
    pub duration: SimDuration,
    /// Addressable area in sectors (the 20 GB test volume).
    pub area_sectors: u64,
}

impl FioJob {
    /// The paper's default: 50/50 random mix, one thread.
    pub fn randrw(block_bytes: usize, duration: SimDuration, area_sectors: u64) -> Self {
        FioJob {
            block_bytes,
            threads: 1,
            duration,
            area_sectors,
        }
    }

    /// Sets the thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }
}

/// The Fio workload: keeps `threads` requests in flight for `duration`.
#[derive(Debug)]
pub struct FioWorkload {
    job: FioJob,
    /// The constant payload every write carries: built once per job and
    /// shared, as real fio reuses its I/O buffers.
    payload: Bytes,
    started_at: Option<storm_sim::SimTime>,
    /// Completed request count (reads + writes).
    pub completed: u64,
    stopping: bool,
}

impl FioWorkload {
    /// Creates the workload.
    pub fn new(job: FioJob) -> Self {
        FioWorkload {
            payload: Bytes::from(vec![0xA5u8; job.block_bytes]),
            job,
            started_at: None,
            completed: 0,
            stopping: false,
        }
    }

    fn issue_one(&mut self, io: &mut IoCtx<'_>) {
        let sectors = (self.job.block_bytes / 512) as u64;
        let max_start = self.job.area_sectors.saturating_sub(sectors).max(1);
        // Request-size aligned random offset.
        let slots = max_start / sectors;
        let lba = io.rng().below(slots.max(1)) * sectors;
        let read = io.rng().below(100) < READ_PCT;
        if read {
            io.read(lba, sectors as u32);
        } else {
            io.write(lba, self.payload.clone());
        }
    }
}

impl Workload for FioWorkload {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        self.started_at = Some(io.now);
        for _ in 0..self.job.threads {
            self.issue_one(io);
        }
    }

    fn completed(&mut self, io: &mut IoCtx<'_>, _req: ReqId, _kind: IoKind, _result: IoResult) {
        self.completed += 1;
        let deadline = self.started_at.map(|t| t + self.job.duration);
        if !self.stopping && deadline.is_some_and(|d| io.now < d) {
            self.issue_one(io);
        } else {
            self.stopping = true;
            if io.in_flight <= 1 {
                io.stop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_block::BlockDevice;

    /// A two-second job's ops and IOPS.
    fn run_fio(job: FioJob) -> (u64, f64) {
        let fio = FioWorkload::new(job);
        let secs = SimDuration::from_secs(2);
        crate::solo(fio, 11, 3, |c, _, _| (c.stats.ops(), c.stats.iops(secs)))
    }

    /// Every write of a job carries the job's one payload buffer: over
    /// nvmeq the disk keeps that buffer, so each extent written is a view
    /// of it.
    #[test]
    fn writes_of_one_job_share_one_buffer() {
        let fio = FioWorkload::new(FioJob::randrw(4096, SimDuration::from_secs(1), 64).threads(4));
        let payload = fio.payload.clone();
        let transport = storm_block::transport::TransportKind::Nvmeq;
        let cfg = storm_cloud::CloudConfig {
            transport,
            ..Default::default()
        };
        let mut cloud = storm_cloud::Cloud::build(cfg);
        let vol = cloud.create_volume(256 << 20, 0);
        cloud.attach_volume(0, "vm:fio", &vol, Box::new(fio), 11, false);
        cloud.net.run_until(storm_sim::SimTime::from_secs(2));
        let mut disk = vol.shared.clone();
        let extent = |slot: u64| disk.read_bytes(slot * 8, 4096).unwrap();
        assert!((0..7).map(extent).all(|e| e.same_storage(&payload)));
    }

    #[test]
    fn single_thread_sustains_io() {
        let job = FioJob::randrw(4096, SimDuration::from_secs(2), 400_000);
        let (ops, iops) = run_fio(job);
        assert!(ops > 100, "got {ops} ops");
        assert!(iops > 50.0, "got {iops} IOPS");
    }

    #[test]
    fn more_threads_more_iops() {
        // 4 KiB requests so 8 outstanding fit inside the 64 KiB TCP
        // receive window (one iSCSI session = one TCP connection; beyond
        // the window, parallelism is deliberately throttled — that very
        // effect drives the paper's Figure 6 crossover). A small area so
        // the target's page cache warms quickly: a cold single spindle
        // serializes random reads no matter the parallelism.
        let base = FioJob::randrw(4096, SimDuration::from_secs(2), 16_384);
        let (ops1, _) = run_fio(base.clone());
        let (ops8, _) = run_fio(base.threads(8));
        assert!(
            ops8 as f64 > ops1 as f64 * 2.0,
            "parallelism should raise throughput: {ops1} vs {ops8}"
        );
    }

    #[test]
    fn bigger_requests_fewer_iops_more_bandwidth() {
        let small = FioJob::randrw(4096, SimDuration::from_secs(2), 400_000);
        let big = FioJob::randrw(256 * 1024, SimDuration::from_secs(2), 400_000);
        let (ops_small, _) = run_fio(small);
        let (ops_big, _) = run_fio(big);
        assert!(ops_small > ops_big, "{ops_small} vs {ops_big}");
    }
}
