//! An ext2-style filesystem, the guest filesystem of the StorM experiments.
//!
//! The paper's tenant VMs format their volumes as Linux Ext2/3/4 and the
//! semantics-reconstruction middle-box parses the resulting metadata from
//! raw block traffic. This crate provides both sides:
//!
//! * [`ExtFs`] — a working filesystem (mkfs/mount, create/read/write,
//!   directories, rename, unlink, symlinks, single+double indirect
//!   blocks) over any [`storm_block::BlockDevice`]. Running it over a
//!   [`storm_block::RecordingDevice`] yields the exact block-access
//!   streams that Tables I–III analyse.
//! * [`FsView`] — the `dumpe2fs` equivalent: a layout snapshot
//!   (superblock geometry, per-group bitmap/inode-table extents) that
//!   classifies any raw block access, plus parsers for on-disk inodes and
//!   directory entries ([`Inode::from_bytes`], [`dirents`]).
//!
//! The on-disk format keeps ext2's structure and field offsets for the
//! fields it uses (magic `0xEF53`, 4 KiB blocks, 128-byte inodes,
//! variable-length dirents), so the reconstruction code paths mirror what
//! the paper's prototype did against real Ext4 metadata.
//!
//! # Example
//!
//! ```
//! use storm_block::MemDisk;
//! use storm_extfs::ExtFs;
//!
//! # fn main() -> Result<(), storm_extfs::FsError> {
//! let disk = MemDisk::with_capacity_bytes(64 << 20);
//! let mut fs = ExtFs::mkfs(disk)?;
//! fs.mkdir("/logs")?;
//! fs.create("/logs/audit.txt")?;
//! fs.write_file("/logs/audit.txt", 0, b"access granted")?;
//! assert_eq!(fs.read_file_to_end("/logs/audit.txt")?, b"access granted");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod dirent;
mod fs;
mod inode;
mod layout;
mod view;

pub use dirent::{dirents, raw_dirents, DirEntry, Dirent, FileType, RawDirent};
pub use fs::{ExtFs, FsError, Stat};
pub use inode::{block_pointers, Inode};
pub use layout::{
    GroupDesc, Superblock, BLOCK_SIZE, EXT_MAGIC, INODES_PER_GROUP, INODE_SIZE, ROOT_INO,
    SECTORS_PER_BLOCK,
};
pub use view::{FsView, Region};
