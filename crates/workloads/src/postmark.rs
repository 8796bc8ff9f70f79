//! A PostMark-like small-file workload (the Figure 11 application).
//!
//! PostMark "generates many small file operations to simulate an email
//! server": a pool of small files churned by read / append / create /
//! delete transactions. The trace is generated by running the operations
//! on a real [`storm_extfs::ExtFs`] over a recording device; the resulting
//! block groups replay through [`crate::TraceWorkload`], whose per-class
//! counters yield exactly the components Figure 11 reports.

use std::hash::RandomState;

use storm_block::{BlockDevice, MemDisk, RecordingDevice};
use storm_extfs::ExtFs;
use storm_sim::{IdMap, SimRng};

use crate::replay::{Accesses, OpClass, OpGroup};

/// File sizes in bytes: PostMark's small mail messages.
const FILE_SIZES: (u64, u64) = (512, 9 * 1024);

/// PostMark knobs.
#[derive(Debug, Clone)]
pub struct PostmarkConfig {
    /// Files created during setup.
    pub initial_files: usize,
    /// Transactions to run.
    pub transactions: usize,
    /// RNG seed.
    pub seed: u64,
    /// Volume size in bytes.
    pub volume_bytes: u64,
}

impl Default for PostmarkConfig {
    fn default() -> Self {
        PostmarkConfig {
            initial_files: 100,
            transactions: 400,
            seed: 424242,
            volume_bytes: 128 << 20,
        }
    }
}

fn file_name(i: usize) -> String {
    format!("/mail/msg{i:05}")
}

/// Builds a PostMark trace: returns the prepared disk image (volume
/// contents after setup, which the trace starts from) and the
/// transaction trace to replay over the wire.
///
/// # Panics
///
/// Panics on filesystem errors (configuration too large for the volume).
pub fn prepare(cfg: &PostmarkConfig) -> (MemDisk, Vec<OpGroup>) {
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let mut fs = ExtFs::mkfs(MemDisk::with_capacity_bytes(cfg.volume_bytes)).expect("mkfs");
    fs.mkdir("/mail").expect("mkdir");
    let mut live: Vec<usize> = Vec::new();
    let mut next_file = 0usize;
    let mut size_of: IdMap<_, _, RandomState> = IdMap::default();
    for _ in 0..cfg.initial_files {
        let i = next_file;
        next_file += 1;
        let size = rng.range(FILE_SIZES.0, FILE_SIZES.1) as usize;
        let path = file_name(i);
        fs.create(&path).expect("create");
        fs.write_file(&path, 0, &pattern(size, i)).expect("write");
        size_of.insert(i, size);
        live.push(i);
    }
    fs.sync().expect("sync");
    // The set-up is the image, not the trace: it ran unrecorded, and the
    // transactions run on a copy of what it left.
    let image = fs.device_mut().clone();
    let mut fs = fs.map_device(RecordingDevice::new);

    let mut groups = Vec::with_capacity(cfg.transactions);
    for t in 0..cfg.transactions {
        // PostMark's default mix: half read/append, half create/delete.
        let (class, verb, i) = match rng.below(4) {
            0 => (OpClass::Read, "read", *rng.pick(&live)),
            1 => (OpClass::Append, "append", *rng.pick(&live)),
            2 => {
                next_file += 1;
                (OpClass::Create, "create", next_file - 1)
            }
            _ if live.len() > 2 => {
                let pos = rng.below(live.len() as u64) as usize;
                (OpClass::Delete, "delete", live.swap_remove(pos))
            }
            _ => (OpClass::Read, "read", *rng.pick(&live)),
        };
        let path = file_name(i);
        match class {
            OpClass::Append => {
                let extra = rng.range(256, 4096) as usize;
                let off = *size_of.get(&i).expect("known size") as u64;
                fs.write_file(&path, off, &pattern(extra, i))
                    .expect("append");
                size_of.insert(i, off as usize + extra);
            }
            OpClass::Create => {
                let size = rng.range(FILE_SIZES.0, FILE_SIZES.1) as usize;
                fs.create(&path).expect("create");
                fs.write_file(&path, 0, &pattern(size, i)).expect("write");
                size_of.insert(i, size);
                live.push(i);
            }
            OpClass::Delete => {
                fs.unlink(&path).expect("unlink");
                size_of.remove(&i);
            }
            _ => drop(fs.read_file_to_end(&path).expect("read")),
        }
        fs.sync().expect("sync");
        groups.push(OpGroup {
            class,
            label: format!("txn{t}: {verb} {path}"),
            accesses: Accesses::from_log(fs.device_mut().take_log()),
        });
    }
    (image, groups)
}

/// File contents: byte `i` is `(i + tag) % 251`, copied out of one
/// rotated 251-byte period.
fn pattern(len: usize, tag: usize) -> Vec<u8> {
    const PERIOD: usize = 251;
    let twice: [u8; 2 * PERIOD] = std::array::from_fn(|i| (i % PERIOD) as u8);
    let start = tag % PERIOD;
    let mut out = twice[start..start + PERIOD].repeat(len.div_ceil(PERIOD));
    out.truncate(len);
    out
}

/// Copies a prepared disk image onto a (larger or equal) device — how a
/// pre-formatted volume is installed before attaching. Only the chunks
/// the image holds are written, so `dst` must read zero everywhere else:
/// a fresh volume.
///
/// # Panics
///
/// Panics if `dst` is smaller than `src` or on device errors.
pub fn install_image<D: BlockDevice>(src: &MemDisk, dst: &mut D) {
    assert!(
        dst.num_sectors() >= src.num_sectors(),
        "destination too small"
    );
    src.copy_into(dst).expect("install image");
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_block::AccessKind;

    #[test]
    fn trace_contains_all_classes() {
        let cfg = PostmarkConfig {
            transactions: 60,
            initial_files: 20,
            ..Default::default()
        };
        let (_image, groups) = prepare(&cfg);
        assert_eq!(groups.len(), 60);
        for class in [
            OpClass::Read,
            OpClass::Append,
            OpClass::Create,
            OpClass::Delete,
        ] {
            assert!(
                groups.iter().any(|g| g.class == class),
                "missing {class} in 60 transactions"
            );
        }
        // Every transaction generated at least one block access.
        assert!(groups.iter().all(|g| !g.accesses.is_empty()));
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let cfg = PostmarkConfig {
            transactions: 20,
            initial_files: 10,
            ..Default::default()
        };
        let (_, a) = prepare(&cfg);
        let (_, b) = prepare(&cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.accesses.len(), y.accesses.len());
        }
    }

    #[test]
    fn install_image_round_trips() {
        let cfg = PostmarkConfig {
            transactions: 5,
            initial_files: 5,
            ..Default::default()
        };
        let (image, _) = prepare(&cfg);
        let mut volume = MemDisk::with_capacity_bytes(cfg.volume_bytes);
        install_image(&image, &mut volume);
        // Installing costs what the image holds.
        assert_eq!(volume.allocated_bytes(), image.allocated_bytes());
        // The copied volume mounts and lists the mail pool.
        let mut fs = ExtFs::mount(volume).unwrap();
        assert_eq!(fs.readdir("/mail").unwrap().len(), 5);
    }

    /// The image is the one the trace starts from: the set-up's files,
    /// all of them, not what the transactions leave (at both benchmark
    /// seeds the trace deletes and creates unequal numbers of files).
    #[test]
    fn image_holds_the_set_up_files_only() {
        for seed in [20160628, 4242] {
            let cfg = PostmarkConfig {
                initial_files: 40,
                transactions: 200,
                seed,
                ..PostmarkConfig::default()
            };
            let (image, _) = prepare(&cfg);
            let mut fs = ExtFs::mount(image).unwrap();
            let mut names: Vec<String> = fs
                .readdir("/mail")
                .unwrap()
                .into_iter()
                .map(|e| format!("/mail/{}", e.name))
                .collect();
            names.sort();
            let set_up: Vec<String> = (0..cfg.initial_files).map(file_name).collect();
            assert_eq!(names, set_up, "seed {seed}");
        }
    }

    fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// What the benchmark replays, pinned to digests recorded before the
    /// set-up was made cheaper: the image's non-zero 4 KiB blocks (index
    /// and bytes) and every traced access in order (kind, address,
    /// length, data), on a two-group volume. A set-up optimisation must
    /// leave both alone. (The image digest is of the volume as the set-up
    /// leaves it, which is what the trace starts from; it was once taken
    /// after the trace had run.)
    #[test]
    fn prepared_image_and_trace_are_pinned() {
        let cfg = PostmarkConfig {
            initial_files: 30,
            transactions: 60,
            volume_bytes: 40 << 20,
            ..PostmarkConfig::default()
        };
        let (mut image, groups) = prepare(&cfg);
        let (mut image_fnv, mut used) = (0xcbf2_9ce4_8422_2325, 0);
        let mut block = vec![0u8; 4096];
        for b in 0..image.num_sectors() / 8 {
            image.read(b * 8, &mut block).unwrap();
            if block != [0u8; 4096] {
                used += 1;
                image_fnv = fnv1a(fnv1a(image_fnv, &b.to_le_bytes()), &block);
            }
        }
        let (mut trace_fnv, mut accesses) = (0xcbf2_9ce4_8422_2325, 0);
        for g in &groups {
            trace_fnv = fnv1a(trace_fnv, format!("{}|{}", g.class, g.label).as_bytes());
            for a in &g.accesses {
                accesses += 1;
                trace_fnv = fnv1a(trace_fnv, &[u8::from(a.kind == AccessKind::Write)]);
                trace_fnv = fnv1a(trace_fnv, &a.lba.to_le_bytes());
                trace_fnv = fnv1a(trace_fnv, &a.sectors.to_le_bytes());
                trace_fnv = fnv1a(trace_fnv, &a.data);
            }
        }
        assert_eq!(
            ((image_fnv, used), (trace_fnv, accesses)),
            ((0x31fb_a3e0_3f5d_9edb, 63), (0x00c9_3bcc_1a3a_320f, 994))
        );
    }

    /// At the benchmark's configuration the trace keeps 15.9 MB of its
    /// writes' 42.4 MB: the inode tables, bitmaps and directory blocks
    /// they rewrite are mostly zeros.
    #[test]
    fn trace_keeps_only_nonzero_write_bytes() {
        let cfg = PostmarkConfig {
            initial_files: 500,
            transactions: 2000,
            seed: 20160628,
            volume_bytes: 128 << 20,
        };
        let (_, groups) = prepare(&cfg);
        let kept: usize = groups.iter().map(|g| g.accesses.payload_bytes()).sum();
        let written: usize = (groups.iter().flat_map(|g| &g.accesses))
            .map(|a| a.data.len())
            .sum();
        assert_eq!(written, 42_393_600);
        assert!(kept <= 16_000_000, "{kept} of {written} bytes kept");
    }

    /// The per-byte formula `pattern` replaced, at every length up to
    /// 600 and random ones up to 20 000, under tags near zero and far
    /// from it.
    #[test]
    fn pattern_matches_the_per_byte_formula() {
        let reference = |len: usize, tag: usize| -> Vec<u8> {
            (0..len).map(|i| ((i + tag) % 251) as u8).collect()
        };
        let mut rng = SimRng::seed_from_u64(251);
        for len in 0..=600 {
            let tag = rng.below(1 << 40) as usize;
            assert_eq!(
                pattern(len, tag),
                reference(len, tag),
                "len {len} tag {tag}"
            );
        }
        for tag in 0..600 {
            let len = rng.below(20_001) as usize;
            assert_eq!(
                pattern(len, tag),
                reference(len, tag),
                "len {len} tag {tag}"
            );
        }
        assert_eq!(pattern(20_000, 7), reference(20_000, 7));
    }
}
