//! On-disk inodes.

// Parses tenant-written bytes, so it must not abort; `write_to` is a field
// serialiser, not a forwarded payload.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::layout::{le16, le32, BLOCK_SIZE, INODE_SIZE};

/// Mode bits: file type mask and values (ext2 / POSIX).
pub const S_IFMT: u16 = 0xF000;
/// Regular file.
pub const S_IFREG: u16 = 0x8000;
/// Directory.
pub const S_IFDIR: u16 = 0x4000;
/// Symbolic link.
pub const S_IFLNK: u16 = 0xA000;

/// Direct block pointers per inode.
pub const DIRECT_BLOCKS: usize = 12;
/// Index of the single-indirect pointer.
pub const IND_SLOT: usize = 12;
/// Index of the double-indirect pointer.
pub const DIND_SLOT: usize = 13;
/// Block pointers per indirect block.
pub const PTRS_PER_BLOCK: usize = BLOCK_SIZE / 4;

/// An on-disk inode (128 bytes, ext2 field offsets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Inode {
    /// Type + permission bits.
    pub mode: u16,
    /// Owner uid.
    pub uid: u16,
    /// File size in bytes.
    pub size: u64,
    /// Modification time (simulation seconds).
    pub mtime: u32,
    /// Link count.
    pub links_count: u16,
    /// Allocated 512-byte sectors (ext2's `i_blocks`).
    pub blocks512: u32,
    /// Block pointers: 12 direct, 1 single-indirect, 1 double-indirect,
    /// slot 14 unused (ext2 reserves it for triple-indirect).
    pub block: [u32; 15],
}

impl Inode {
    /// A fresh regular-file inode.
    pub fn new_file() -> Inode {
        Inode {
            mode: S_IFREG | 0o644,
            links_count: 1,
            ..Default::default()
        }
    }

    /// A fresh directory inode.
    pub fn new_dir() -> Inode {
        Inode {
            mode: S_IFDIR | 0o755,
            links_count: 2,
            ..Default::default()
        }
    }

    /// A fresh symlink inode.
    pub fn new_symlink() -> Inode {
        Inode {
            mode: S_IFLNK | 0o777,
            links_count: 1,
            ..Default::default()
        }
    }

    /// Whether this inode is a directory.
    pub fn is_dir(&self) -> bool {
        self.mode & S_IFMT == S_IFDIR
    }

    /// Whether this inode is a symlink.
    pub fn is_symlink(&self) -> bool {
        self.mode & S_IFMT == S_IFLNK
    }

    /// Serializes to a 128-byte inode-table slot.
    pub fn write_to(&self, slot: &mut [u8]) {
        slot[..INODE_SIZE].fill(0);
        slot[0..2].copy_from_slice(&self.mode.to_le_bytes());
        slot[2..4].copy_from_slice(&self.uid.to_le_bytes());
        slot[4..8].copy_from_slice(&(self.size as u32).to_le_bytes());
        slot[16..20].copy_from_slice(&self.mtime.to_le_bytes());
        slot[26..28].copy_from_slice(&self.links_count.to_le_bytes());
        slot[28..32].copy_from_slice(&self.blocks512.to_le_bytes());
        for (i, b) in self.block.iter().enumerate() {
            slot[40 + 4 * i..44 + 4 * i].copy_from_slice(&b.to_le_bytes());
        }
    }

    /// Parses a 128-byte inode-table slot.
    pub fn from_bytes(slot: &[u8; INODE_SIZE]) -> Inode {
        Inode {
            mode: le16(slot, 0),
            uid: le16(slot, 2),
            size: le32(slot, 4) as u64,
            mtime: le32(slot, 16),
            links_count: le16(slot, 26),
            blocks512: le32(slot, 28),
            block: std::array::from_fn(|i| le32(slot, 40 + 4 * i)),
        }
    }
}

/// The block pointer in slot `slot` of an indirect block (0: a hole).
pub(crate) fn pointer_at(block: &[u8], slot: usize) -> u32 {
    u32::from_le_bytes(block.as_chunks::<4>().0[slot])
}

/// The non-zero block pointers of an indirect block, in slot order
/// (whatever `block` holds: it may be sniffed off the wire).
pub fn block_pointers(block: &[u8]) -> impl Iterator<Item = u32> + '_ {
    let (words, _) = block.as_chunks::<4>();
    words
        .iter()
        .map(|w| u32::from_le_bytes(*w))
        .filter(|&p| p != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut ino = Inode::new_file();
        ino.size = 123456;
        ino.mtime = 42;
        ino.blocks512 = 248;
        ino.block[0] = 77;
        ino.block[IND_SLOT] = 99;
        let mut slot = [0u8; INODE_SIZE];
        ino.write_to(&mut slot);
        assert_eq!(Inode::from_bytes(&slot), ino);
    }

    #[test]
    fn type_predicates() {
        assert!(!Inode::new_file().is_dir());
        assert!(Inode::new_dir().is_dir());
        assert!(Inode::new_symlink().is_symlink());
    }

    #[test]
    fn fresh_dir_has_two_links() {
        // "." and the parent's entry.
        assert_eq!(Inode::new_dir().links_count, 2);
        assert_eq!(Inode::new_file().links_count, 1);
    }

    #[test]
    fn geometry_constants() {
        assert_eq!(PTRS_PER_BLOCK, 1024);
        // Slots 12 and 13 (indirect, double-indirect) must fit.
        #[allow(clippy::assertions_on_constants)]
        {
            assert!(DIRECT_BLOCKS + 2 < 15);
        }
    }
}
