//! Trace replay: grouped block accesses issued synchronously.
//!
//! File-level scenarios (PostMark, the malware case study) run a real
//! [`storm_extfs::ExtFs`] over a [`storm_block::RecordingDevice`] at build
//! time; the recorded block accesses — grouped per file operation — are
//! then replayed over the wire. Order and contents are preserved exactly,
//! which is what the semantics-reconstruction experiments require.

use std::borrow::Borrow;
use std::ops::Range;

use bytes::Bytes;
use storm_block::{AccessKind, AccessRecord, SECTOR_SIZE};
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
    pub accesses: Accesses,
}

/// A group's block accesses, in issue order, each write kept as the runs
/// of its payload that hold non-zero bytes, all in one buffer: the inode
/// tables, bitmaps and directory blocks a filesystem writes are mostly
/// zeros. Iterating, by value or by reference, yields the accesses as
/// recorded, each write's payload rebuilt into a fresh buffer.
#[derive(Debug, Clone, Default)]
pub struct Accesses {
    ops: Vec<Access>,
    runs: Vec<Run>,
    /// The runs' bytes, in order.
    bytes: Vec<u8>,
}

/// An access without its payload: a write's runs are `runs` of
/// [`Accesses::runs`], and their bytes start at `byte` of
/// [`Accesses::bytes`].
#[derive(Debug, Clone, Copy)]
struct Access {
    kind: AccessKind,
    lba: u64,
    sectors: u64,
    runs: (u32, u32),
    byte: u32,
}

impl Access {
    fn len_bytes(&self) -> usize {
        self.sectors as usize * SECTOR_SIZE
    }
}

/// `len` bytes at offset `at` of a write's payload.
#[derive(Debug, Clone, Copy)]
struct Run {
    at: u32,
    len: u32,
}

impl Run {
    fn span(self) -> Range<usize> {
        self.at as usize..(self.at + self.len) as usize
    }
}

/// The zero test's widths: a run ends at an aligned all-zero 16-byte word
/// (8-byte words cut PostMark's inode tables into 2.7 times as many runs
/// and cost the scan 15 % of `setup_s` for 8 % fewer bytes kept), and the
/// scan takes a block of words at a time.
const WORD: usize = 16;
const BLOCK: usize = 8 * WORD;

fn index(n: usize) -> u32 {
    u32::try_from(n).expect("a group's payloads are < 4 GiB")
}

impl Accesses {
    /// Keeps `log` (what [`storm_block::RecordingDevice::take_log`]
    /// returns), its writes as their non-zero runs.
    ///
    /// # Panics
    ///
    /// Panics if a write's payload is not `len_bytes()` long, a read
    /// carries one, or the payloads total 4 GiB or more.
    pub fn from_log(log: Vec<AccessRecord>) -> Accesses {
        let mut kept = Accesses {
            ops: Vec::with_capacity(log.len()),
            ..Accesses::default()
        };
        let mut stored = 0;
        for rec in &log {
            let len = match rec.kind {
                AccessKind::Write => rec.len_bytes(),
                AccessKind::Read => 0,
            };
            assert_eq!(rec.data.len(), len, "{:?} payload at {}", rec.kind, rec.lba);
            let (first, byte) = (index(kept.runs.len()), index(stored));
            stored += nonzero_runs(&rec.data, &mut kept.runs);
            kept.ops.push(Access {
                kind: rec.kind,
                lba: rec.lba,
                sectors: rec.sectors,
                runs: (first, index(kept.runs.len())),
                byte,
            });
        }
        // Exact sizes, found before the bytes are copied: room reserved for
        // the worst case and given back after leaves holes the recorder's
        // next buffer does not fit (PostMark's peak RSS read 4 MiB more).
        kept.runs.shrink_to_fit();
        let mut bytes = Vec::with_capacity(stored);
        for (rec, op) in log.iter().zip(&kept.ops) {
            for run in kept.runs_of(op) {
                bytes.extend_from_slice(&rec.data[run.span()]);
            }
        }
        kept.bytes = bytes;
        kept
    }

    fn runs_of(&self, op: &Access) -> &[Run] {
        &self.runs[op.runs.0 as usize..op.runs.1 as usize]
    }

    /// The number of accesses.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Bytes of write payload kept: the non-zero runs.
    pub fn payload_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Access `i` as recorded.
    fn get(&self, i: usize) -> Option<AccessRecord> {
        let op = self.ops.get(i)?;
        let data = match op.kind {
            AccessKind::Read => Bytes::new(),
            AccessKind::Write => self.payload(op),
        };
        Some(AccessRecord {
            kind: op.kind,
            lba: op.lba,
            sectors: op.sectors,
            data,
        })
    }

    /// A write's payload: a zeroed buffer of its length, its runs copied in.
    fn payload(&self, op: &Access) -> Bytes {
        let mut data = vec![0; op.len_bytes()];
        let mut from = op.byte as usize;
        for &run in self.runs_of(op) {
            let to = from + run.len as usize;
            data[run.span()].copy_from_slice(&self.bytes[from..to]);
            from = to;
        }
        Bytes::from(data)
    }
}

/// Appends the runs of `data` that hold its non-zero bytes to `runs` and
/// returns their length. A run ends at an aligned all-zero word and is
/// trimmed to its first and last non-zero byte, so a zero byte inside it
/// is kept. `data` is whole blocks, as a payload of whole sectors is.
fn nonzero_runs(data: &[u8], runs: &mut Vec<Run>) -> usize {
    let word = |i: usize| {
        let bytes = data[i * WORD..(i + 1) * WORD].try_into();
        u128::from_le_bytes(bytes.expect("a whole word"))
    };
    let mut stored = 0;
    // Little-endian: a word's first byte is its low one.
    let mut close = |start: usize, i: usize| {
        let end = i * WORD - word(i - 1).leading_zeros() as usize / 8;
        runs.push(Run {
            at: index(start),
            len: index(end - start),
        });
        stored += end - start;
    };
    // Bit k of `nonzero`: word k of the block is not zero. `carry`: the
    // word before the block is not.
    let (mut start, mut carry) = (0, 0);
    for (b, block) in data.chunks_exact(BLOCK).enumerate() {
        let nonzero = (block.chunks_exact(WORD).enumerate()).fold(0u32, |bits, (k, w)| {
            let w = u128::from_le_bytes(w.try_into().expect("a whole word"));
            bits | (u32::from(w != 0) << k)
        });
        // Bit k: word k opens or closes a run.
        let mut edges = nonzero ^ (((nonzero << 1) | carry) & 0xFF);
        carry = nonzero >> 7;
        while edges != 0 {
            let k = edges.trailing_zeros() as usize;
            edges &= edges - 1;
            let i = b * (BLOCK / WORD) + k;
            if (nonzero >> k) & 1 == 1 {
                start = i * WORD + word(i).trailing_zeros() as usize / 8;
            } else {
                close(start, i);
            }
        }
    }
    if carry == 1 {
        close(start, data.len() / WORD);
    }
    stored
}

/// Iterates an [`Accesses`], owned or borrowed, rebuilding each write.
#[derive(Debug)]
pub struct AccessIter<A> {
    accesses: A,
    next: usize,
}

impl<A: Borrow<Accesses>> Iterator for AccessIter<A> {
    type Item = AccessRecord;

    fn next(&mut self) -> Option<AccessRecord> {
        let rec = self.accesses.borrow().get(self.next)?;
        self.next += 1;
        Some(rec)
    }
}

impl IntoIterator for Accesses {
    type Item = AccessRecord;
    type IntoIter = AccessIter<Accesses>;

    fn into_iter(self) -> Self::IntoIter {
        AccessIter {
            accesses: self,
            next: 0,
        }
    }
}

impl<'a> IntoIterator for &'a Accesses {
    type Item = AccessRecord;
    type IntoIter = AccessIter<&'a Accesses>;

    fn into_iter(self) -> Self::IntoIter {
        AccessIter {
            accesses: self,
            next: 0,
        }
    }
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
            let op = &group.accesses.ops[self.access_idx];
            let len = op.len_bytes() as u64;
            if cipher_on && !self.cipher_delayed {
                let cost = self.vm_cipher_per_byte * len + self.vm_cipher_per_access;
                io.charge_vm_cpu(cost);
                io.set_timer(cost, 1);
                self.cipher_delayed = true;
                return;
            }
            self.cipher_delayed = false;
            self.access_idx += 1;
            let entry = &mut self.stats[group.class as usize];
            match op.kind {
                AccessKind::Read => {
                    entry.bytes_read += len;
                    io.read(op.lba, op.sectors as u32);
                }
                AccessKind::Write => {
                    entry.bytes_written += len;
                    io.write(op.lba, group.accesses.payload(op));
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
    use storm_sim::SimRng;

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
                accesses: Accesses::from_log(create),
            },
            OpGroup {
                class: OpClass::Read,
                label: "read /f".into(),
                accesses: Accesses::from_log(read),
            },
        ]
    }

    /// A payload of `len` bytes in one of seven shapes: all zero, no zero
    /// byte, a zero run at the start, at the end or in the middle, zero
    /// runs straddling 64-byte edges, or runs of zeros and of random bytes
    /// (zeros among them) with their edges anywhere.
    fn payload(rng: &mut SimRng, shape: u64, len: usize) -> Vec<u8> {
        let mut data = vec![0; len];
        rng.fill(&mut data);
        for b in &mut data {
            *b |= 1;
        }
        let span = |from: usize, to: usize| from.min(len)..to.min(len);
        let cut = rng.below(len as u64) as usize;
        match shape {
            0 => data.fill(0),
            1 => {}
            2 => data[..cut].fill(0),
            3 => data[cut..].fill(0),
            4 => data[span(cut, cut + rng.range(1, 300) as usize)].fill(0),
            5 => {
                for edge in (64..len).step_by(64 * rng.range(1, 4) as usize) {
                    let (before, after) = (rng.range(1, 20) as usize, rng.range(1, 20) as usize);
                    data[span(edge - before, edge + after)].fill(0);
                }
            }
            _ => {
                let mut at = 0;
                while at < len {
                    let run = span(at, at + rng.range(1, 200) as usize);
                    at = run.end;
                    if rng.chance(0.5) {
                        data[run].fill(0);
                    } else {
                        rng.fill(&mut data[run]);
                    }
                }
            }
        }
        data
    }

    /// Writes of every shape and of 512 B to 64 KiB, among reads, come back
    /// as recorded by value and by reference, each write in a buffer of
    /// its own (so a disk may keep it as a view).
    #[test]
    fn accesses_round_trip() {
        let mut rng = SimRng::seed_from_u64(0x5EC7);
        let mut payloads = 0;
        for _ in 0..8 {
            let mut log = Vec::new();
            while log.len() < 48 {
                let sectors = match log.len() {
                    0 => 1,
                    1 => 128,
                    _ => rng.range(1, 129),
                };
                let (lba, len) = (rng.below(1 << 20), sectors as usize * SECTOR_SIZE);
                let (kind, data) = if rng.chance(0.25) {
                    (AccessKind::Read, Vec::new())
                } else {
                    payloads += 1;
                    (AccessKind::Write, payload(&mut rng, payloads % 7, len))
                };
                log.push(AccessRecord {
                    kind,
                    lba,
                    sectors,
                    data: Bytes::from(data),
                });
            }
            let kept = Accesses::from_log(log.clone());
            assert_eq!(kept.len(), log.len());
            assert!(kept.payload_bytes() <= log.iter().map(|r| r.data.len()).sum());
            let by_ref: Vec<AccessRecord> = (&kept).into_iter().collect();
            assert_eq!(by_ref, log);
            assert!(by_ref.iter().all(|r| r.data.spans_storage()));
            assert_eq!(kept.into_iter().collect::<Vec<_>>(), log);
        }
        assert!(payloads >= 256, "{payloads} payloads");
    }

    /// Only non-zero bytes are kept: none of an all-zero write, all of one
    /// with no zero byte, and the 64 of a 4 KiB write whose only non-zero
    /// bytes sit 13 bytes into every 64.
    #[test]
    fn accesses_keep_only_nonzero_runs() {
        let mut rng = SimRng::seed_from_u64(7);
        let mut lone = vec![0; 4096];
        for b in lone.iter_mut().skip(13).step_by(64) {
            *b = 0x5A;
        }
        let writes = [
            (payload(&mut rng, 0, 4096), 0),
            (payload(&mut rng, 1, 4096), 4096),
            (lone, 64),
        ];
        for (data, kept) in writes {
            let rec = AccessRecord {
                kind: AccessKind::Write,
                lba: 0,
                sectors: 8,
                data: Bytes::from(data),
            };
            assert_eq!(Accesses::from_log(vec![rec]).payload_bytes(), kept);
        }
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
