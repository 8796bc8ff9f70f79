//! Property-based tests: the filesystem against an in-memory model.
//!
//! A random sequence of file operations runs against both [`ExtFs`] and a
//! plain `BTreeMap` model; externally visible state (file contents,
//! directory listings, errors) must agree, and the filesystem must also
//! survive a remount with identical contents.

use std::collections::BTreeMap;

use proptest::prelude::*;
use storm_block::{BlockDevice, BlockError, MemDisk, RecordingDevice};
use storm_extfs::{ExtFs, FsError};

#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Write {
        file: u8,
        offset: u16,
        len: u16,
        byte: u8,
    },
    Read {
        file: u8,
    },
    Unlink(u8),
    Rename {
        from: u8,
        to: u8,
    },
    Truncate(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..12).prop_map(Op::Create),
        (0u8..12, any::<u16>(), 1u16..2048, any::<u8>()).prop_map(|(file, offset, len, byte)| {
            Op::Write {
                file,
                offset,
                len,
                byte,
            }
        }),
        (0u8..12).prop_map(|f| Op::Read { file: f }),
        (0u8..12).prop_map(Op::Unlink),
        (0u8..12, 0u8..12).prop_map(|(from, to)| Op::Rename { from, to }),
        (0u8..12).prop_map(Op::Truncate),
    ]
}

fn path(file: u8) -> String {
    format!("/f{file}")
}

/// A device that never lends a block: it keeps the copying defaults of
/// `read_bytes` and `write_bytes`, so every block the filesystem reads is
/// copied out of it.
struct NeverLends(MemDisk);

impl BlockDevice for NeverLends {
    fn num_sectors(&self) -> u64 {
        self.0.num_sectors()
    }
    fn read(&mut self, lba: u64, buf: &mut [u8]) -> Result<(), BlockError> {
        self.0.read(lba, buf)
    }
    fn write(&mut self, lba: u64, data: &[u8]) -> Result<(), BlockError> {
        self.0.write(lba, data)
    }
}

/// Runs `op` and renders its outcome (errors and data read included).
fn apply<D: BlockDevice>(fs: &mut ExtFs<D>, op: &Op) -> String {
    match *op {
        Op::Create(f) => format!("{:?}", fs.create(&path(f))),
        Op::Write {
            file,
            offset,
            len,
            byte,
        } => {
            format!(
                "{:?}",
                fs.write_file(&path(file), offset as u64, &vec![byte; len as usize])
            )
        }
        Op::Read { file } => format!("{:?}", fs.read_file_to_end(&path(file))),
        Op::Unlink(f) => format!("{:?}", fs.unlink(&path(f))),
        Op::Rename { from, to } => format!("{:?}", fs.rename(&path(from), &path(to))),
        Op::Truncate(f) => format!("{:?}", fs.truncate(&path(f))),
    }
}

/// Every byte of `disk`.
fn contents(disk: &mut MemDisk) -> Vec<u8> {
    let mut all = vec![0u8; disk.capacity_bytes() as usize];
    disk.read(0, &mut all).unwrap();
    all
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn fs_matches_model(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut fs = ExtFs::mkfs(MemDisk::with_capacity_bytes(96 << 20)).unwrap();
        let mut model: BTreeMap<u8, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Create(f) => {
                    let real = fs.create(&path(f));
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(f) {
                        prop_assert_eq!(real, Ok(()));
                        e.insert(Vec::new());
                    } else {
                        prop_assert_eq!(real, Err(FsError::AlreadyExists));
                    }
                }
                Op::Write { file, offset, len, byte } => {
                    let data = vec![byte; len as usize];
                    let real = fs.write_file(&path(file), offset as u64, &data);
                    match model.get_mut(&file) {
                        Some(content) => {
                            prop_assert_eq!(real, Ok(()));
                            let end = offset as usize + len as usize;
                            if content.len() < end {
                                content.resize(end, 0);
                            }
                            content[offset as usize..end].copy_from_slice(&data);
                        }
                        None => prop_assert_eq!(real, Err(FsError::NotFound)),
                    }
                }
                Op::Read { file } => {
                    let real = fs.read_file_to_end(&path(file));
                    match model.get(&file) {
                        Some(content) => {
                            prop_assert_eq!(real.as_deref(), Ok(content.as_slice()));
                        }
                        None => prop_assert_eq!(real, Err(FsError::NotFound)),
                    }
                }
                Op::Unlink(f) => {
                    let real = fs.unlink(&path(f));
                    if model.remove(&f).is_some() {
                        prop_assert_eq!(real, Ok(()));
                    } else {
                        prop_assert_eq!(real, Err(FsError::NotFound));
                    }
                }
                Op::Rename { from, to } => {
                    let real = fs.rename(&path(from), &path(to));
                    if from == to && model.contains_key(&from) {
                        // Degenerate self-rename: accept either behaviour,
                        // but the file must survive.
                        prop_assert!(fs.stat(&path(from)).is_ok());
                        continue;
                    }
                    if model.contains_key(&from) {
                        prop_assert_eq!(real, Ok(()));
                        let content = model.remove(&from).unwrap();
                        model.insert(to, content);
                    } else {
                        prop_assert_eq!(real, Err(FsError::NotFound));
                    }
                }
                Op::Truncate(f) => {
                    let real = fs.truncate(&path(f));
                    match model.get_mut(&f) {
                        Some(content) => {
                            prop_assert_eq!(real, Ok(()));
                            content.clear();
                        }
                        None => prop_assert_eq!(real, Err(FsError::NotFound)),
                    }
                }
            }
        }
        // Directory listing agrees with the model's key set.
        let mut listed: Vec<String> =
            fs.readdir("/").unwrap().into_iter().map(|e| e.name).collect();
        listed.sort();
        let mut expect: Vec<String> = model.keys().map(|f| format!("f{f}")).collect();
        expect.sort();
        prop_assert_eq!(listed, expect);
        // Remount and re-verify every file (on-disk format durability).
        let dev = fs.into_device().unwrap();
        let mut fs2 = ExtFs::mount(dev).unwrap();
        for (f, content) in &model {
            let read = fs2.read_file_to_end(&path(*f));
            prop_assert_eq!(read.as_deref(), Ok(content.as_slice()));
        }
    }

    /// Borrowing a block and reading a copy of it are the same access:
    /// one operation sequence over a device that lends and over one that
    /// never does records identical logs (kind, address, length, data)
    /// and leaves identical bytes.
    #[test]
    fn lending_and_copying_record_the_same_trace(
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        const BYTES: u64 = 16 << 20;
        let mut lends = ExtFs::mkfs(RecordingDevice::new(MemDisk::with_capacity_bytes(BYTES))).unwrap();
        let mut copies =
            ExtFs::mkfs(RecordingDevice::new(NeverLends(MemDisk::with_capacity_bytes(BYTES)))).unwrap();
        for op in &ops {
            prop_assert_eq!(apply(&mut lends, op), apply(&mut copies, op), "{:?}", op);
            prop_assert_eq!(lends.readdir("/"), copies.readdir("/"));
            prop_assert_eq!(lends.device_mut().take_log(), copies.device_mut().take_log());
        }
        let (mut lent, mut copied) = (lends.into_device().unwrap(), copies.into_device().unwrap());
        prop_assert_eq!(lent.take_log(), copied.take_log());
        prop_assert!(contents(lent.inner_mut()) == contents(&mut copied.inner_mut().0));
    }

    /// Free-space accounting: allocate-then-delete returns to baseline.
    #[test]
    fn space_is_reclaimed(sizes in prop::collection::vec(1usize..64, 1..10)) {
        let mut fs = ExtFs::mkfs(MemDisk::with_capacity_bytes(64 << 20)).unwrap();
        let baseline = fs.superblock().free_blocks_count;
        for (i, blocks) in sizes.iter().enumerate() {
            let p = format!("/file{i}");
            fs.create(&p).unwrap();
            fs.write_file(&p, 0, &vec![7u8; blocks * 4096]).unwrap();
        }
        prop_assert!(fs.superblock().free_blocks_count < baseline);
        for i in 0..sizes.len() {
            fs.unlink(&format!("/file{i}")).unwrap();
        }
        prop_assert_eq!(fs.superblock().free_blocks_count, baseline);
        let free_inodes = fs.superblock().free_inodes_count;
        let _ = free_inodes;
    }
}
