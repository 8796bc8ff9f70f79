//! Trace replay: grouped block accesses issued synchronously.
//!
//! File-level scenarios (PostMark, the malware case study) run a real
//! [`storm_extfs::ExtFs`] over a [`storm_block::RecordingDevice`] at build
//! time; the recorded block accesses — grouped per file operation — are
//! then replayed over the wire. Order and contents are preserved exactly,
//! which is what the semantics-reconstruction experiments require.

use storm_block::{AccessKind, AccessRecord};
use storm_cloud::{IoCtx, IoKind, IoResult, ReqId, Workload};
use storm_sim::metrics::Meter;
use storm_sim::{SimDuration, SimTime};

/// Classification of a file-level operation (Figure 11's components).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Whole-file read.
    Read,
    /// Append to an existing file.
    Append,
    /// File creation.
    Create,
    /// File deletion.
    Delete,
    /// Anything else (mkdir, rename, symlink…).
    Other,
}

impl std::fmt::Display for OpClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpClass::Read => write!(f, "read"),
            OpClass::Append => write!(f, "append"),
            OpClass::Create => write!(f, "creation"),
            OpClass::Delete => write!(f, "deletion"),
            OpClass::Other => write!(f, "other"),
        }
    }
}

/// One file-level operation and the block accesses it generated.
#[derive(Debug, Clone)]
pub struct OpGroup {
    /// Operation class.
    pub class: OpClass,
    /// Human-readable description (e.g. the Table III steps).
    pub label: String,
    /// The block accesses, in issue order.
    pub accesses: Vec<AccessRecord>,
}

/// Per-class completion counters.
#[derive(Debug, Default)]
pub struct ClassStats {
    /// Operations completed.
    pub ops: Meter,
    /// Bytes read within the class.
    pub bytes_read: u64,
    /// Bytes written within the class.
    pub bytes_written: u64,
}

/// Replays [`OpGroup`]s one block access at a time (synchronous file
/// semantics), collecting per-class throughput.
pub struct TraceWorkload {
    groups: Vec<OpGroup>,
    group_idx: usize,
    access_idx: usize,
    /// In-VM (dm-crypt style) cipher cost per byte: charged to the VM's
    /// CPU *and* blocking the issuing thread, as the paper observed
    /// ("dm-crypt may hold application threads on spinlocks ... while
    /// encrypting/flushing writes blocks to disk").
    pub vm_cipher_per_byte: SimDuration,
    /// Fixed per-bio dm-crypt overhead (kcryptd queueing, context
    /// switches, spinlock contention) blocking each access.
    pub vm_cipher_per_access: SimDuration,
    cipher_delayed: bool,
    /// Optional think time between groups.
    pub think: SimDuration,
    started: Option<SimTime>,
    finished: Option<SimTime>,
    /// Per-class stats, indexed by [`OpClass`] discriminant.
    stats: [ClassStats; 5],
    /// Completed groups.
    pub groups_done: u64,
}

impl TraceWorkload {
    /// Creates a replay of `groups`.
    pub fn new(groups: Vec<OpGroup>) -> Self {
        TraceWorkload {
            groups,
            group_idx: 0,
            access_idx: 0,
            vm_cipher_per_byte: SimDuration::ZERO,
            vm_cipher_per_access: SimDuration::ZERO,
            cipher_delayed: false,
            think: SimDuration::ZERO,
            started: None,
            finished: None,
            stats: Default::default(),
            groups_done: 0,
        }
    }

    /// Enables in-VM encryption modelling (tenant-side comparison):
    /// `per_byte` cipher work plus a fixed `per_access` dm-crypt bio
    /// overhead, both blocking the issuing thread.
    pub fn with_vm_cipher(mut self, per_byte: SimDuration, per_access: SimDuration) -> Self {
        self.vm_cipher_per_byte = per_byte;
        self.vm_cipher_per_access = per_access;
        self
    }

    /// Stats for one class.
    pub fn class_stats(&self, class: OpClass) -> &ClassStats {
        &self.stats[class as usize]
    }

    /// Wall-clock of the replay (start to last completion), if finished.
    pub fn elapsed(&self) -> Option<SimDuration> {
        Some(self.finished?.since(self.started?))
    }

    /// Whether every group completed.
    pub fn is_finished(&self) -> bool {
        self.finished.is_some()
    }

    fn issue_next(&mut self, io: &mut IoCtx<'_>) {
        loop {
            if self.group_idx >= self.groups.len() {
                self.finished = Some(io.now);
                io.stop();
                return;
            }
            let group = &self.groups[self.group_idx];
            if self.access_idx >= group.accesses.len() {
                // Group complete.
                self.stats[group.class as usize].ops.record(0);
                self.groups_done += 1;
                self.group_idx += 1;
                self.access_idx = 0;
                if self.think > SimDuration::ZERO {
                    io.set_timer(self.think, 0);
                    return;
                }
                continue;
            }
            // In-VM cipher: block the issuing thread for the access's
            // cipher time before it reaches the block layer.
            let cipher_on = self.vm_cipher_per_byte > SimDuration::ZERO
                || self.vm_cipher_per_access > SimDuration::ZERO;
            if cipher_on && !self.cipher_delayed {
                let rec = &group.accesses[self.access_idx];
                let cost =
                    self.vm_cipher_per_byte * rec.len_bytes() as u64 + self.vm_cipher_per_access;
                io.charge_vm_cpu(cost);
                io.set_timer(cost, 1);
                self.cipher_delayed = true;
                return;
            }
            self.cipher_delayed = false;
            let rec = &group.accesses[self.access_idx];
            self.access_idx += 1;
            let entry = &mut self.stats[group.class as usize];
            match rec.kind {
                AccessKind::Read => {
                    entry.bytes_read += rec.len_bytes() as u64;
                    io.read(rec.lba, rec.sectors as u32);
                }
                AccessKind::Write => {
                    entry.bytes_written += rec.len_bytes() as u64;
                    io.write(rec.lba, rec.data.clone());
                }
            }
            return;
        }
    }
}

impl Workload for TraceWorkload {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        self.started = Some(io.now);
        self.issue_next(io);
    }

    fn completed(&mut self, io: &mut IoCtx<'_>, _req: ReqId, _kind: IoKind, result: IoResult) {
        debug_assert!(result.ok, "trace replay hit an I/O error");
        self.issue_next(io);
    }

    fn timer(&mut self, io: &mut IoCtx<'_>, _token: u64) {
        self.issue_next(io);
    }
}

impl std::fmt::Debug for TraceWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceWorkload")
            .field("groups", &self.groups.len())
            .field("done", &self.groups_done)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_block::{MemDisk, RecordingDevice};
    use storm_extfs::ExtFs;

    /// Builds a tiny trace: create + write + read of one file.
    fn tiny_trace() -> Vec<OpGroup> {
        let dev = RecordingDevice::new(MemDisk::with_capacity_bytes(64 << 20));
        let mut fs = ExtFs::mkfs(dev).unwrap();
        fs.device_mut().take_log();
        fs.create("/f").unwrap();
        fs.write_file("/f", 0, &vec![7u8; 8192]).unwrap();
        fs.sync().unwrap();
        let create = fs.device_mut().take_log();
        let _ = fs.read_file_to_end("/f").unwrap();
        let read = fs.device_mut().take_log();
        vec![
            OpGroup {
                class: OpClass::Create,
                label: "create /f".into(),
                accesses: create,
            },
            OpGroup {
                class: OpClass::Read,
                label: "read /f".into(),
                accesses: read,
            },
        ]
    }

    #[test]
    fn replays_and_counts_classes() {
        let groups = tiny_trace();
        let total_accesses: usize = groups.iter().map(|g| g.accesses.len()).sum();
        assert!(total_accesses > 3);
        crate::solo(TraceWorkload::new(groups), 3, 5, |_, w, _| {
            assert!(w.is_finished(), "replay must finish");
            assert_eq!(w.groups_done, 2);
            assert_eq!(w.class_stats(OpClass::Create).ops.count(), 1);
            assert_eq!(w.class_stats(OpClass::Read).ops.count(), 1);
            assert!(w.class_stats(OpClass::Read).bytes_read >= 8192);
            assert!(w.elapsed().unwrap() > SimDuration::ZERO);
        });
    }
}
