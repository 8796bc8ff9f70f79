//! `FsView`: the dumpe2fs-equivalent layout snapshot.
//!
//! The paper: "StorM generates an initial high-level system view of a
//! file-system and supplies it to the middle-boxes when the block device
//! is attached ... StorM uses Linux's dumpe2fs tool to construct an
//! initial file-system view." [`FsView`] is that artifact: built once from
//! the volume at attach time, it classifies every subsequent raw block
//! access into superblock / bitmap / inode-table / data regions — the
//! first step ("Classification") of the storage access monitor.

use storm_block::BlockDevice;

use crate::fs::FsError;
use crate::layout::{
    GroupDesc, Superblock, BLOCK_SIZE, INODES_PER_GROUP, INODE_SIZE, INODE_TABLE_BLOCKS,
    SECTORS_PER_BLOCK,
};

/// What a filesystem block holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// The superblock (block 0).
    Superblock,
    /// The group descriptor table.
    GroupDescTable,
    /// A group's block bitmap.
    BlockBitmap {
        /// Block group index.
        group: u32,
    },
    /// A group's inode bitmap.
    InodeBitmap {
        /// Block group index.
        group: u32,
    },
    /// A slice of a group's inode table.
    InodeTable {
        /// Block group index.
        group: u32,
        /// First inode number stored in this block.
        first_ino: u32,
    },
    /// A data block (file contents, directory entries or indirect
    /// pointers — told apart by tracking inode pointers).
    Data,
    /// Outside the filesystem (past `blocks_count`).
    Beyond,
}

/// A parsed filesystem layout, independent of any live [`crate::ExtFs`].
#[derive(Debug, Clone)]
pub struct FsView {
    pub(crate) sb: Superblock,
    pub(crate) groups: Vec<GroupDesc>,
    pub(crate) gdt_blocks: u64,
}

impl FsView {
    /// Builds a view by reading the superblock and group descriptors from
    /// a device (what the platform does at volume-attach time).
    ///
    /// # Errors
    ///
    /// [`FsError::BadMagic`] if the device holds no filesystem.
    pub fn from_device<D: BlockDevice>(dev: &mut D) -> Result<FsView, FsError> {
        let mut block0 = vec![0u8; BLOCK_SIZE];
        dev.read(0, &mut block0)?;
        let sb = block0
            .first_chunk()
            .and_then(Superblock::read_from)
            .ok_or(FsError::BadMagic)?;
        let groups = sb.group_count();
        let gdt_blocks = (groups as usize * GroupDesc::SIZE).div_ceil(BLOCK_SIZE) as u64;
        let mut gdt = vec![0u8; (gdt_blocks as usize) * BLOCK_SIZE];
        dev.read(SECTORS_PER_BLOCK, &mut gdt)?;
        let (slots, _) = gdt.as_chunks();
        let descs = slots
            .iter()
            .take(groups as usize)
            .map(GroupDesc::read_from)
            .collect();
        Ok(FsView {
            sb,
            groups: descs,
            gdt_blocks,
        })
    }

    /// The parsed superblock.
    pub fn superblock(&self) -> &Superblock {
        &self.sb
    }

    /// Classifies a filesystem block number.
    pub fn classify_block(&self, bno: u64) -> Region {
        if bno >= self.sb.blocks_count {
            return Region::Beyond;
        }
        if bno == 0 {
            return Region::Superblock;
        }
        if bno <= self.gdt_blocks {
            return Region::GroupDescTable;
        }
        for (g, gd) in self.groups.iter().enumerate() {
            let g32 = g as u32;
            if bno == gd.block_bitmap {
                return Region::BlockBitmap { group: g32 };
            }
            if bno == gd.inode_bitmap {
                return Region::InodeBitmap { group: g32 };
            }
            if bno >= gd.inode_table && bno < gd.inode_table + INODE_TABLE_BLOCKS {
                let inodes_per_block = (BLOCK_SIZE / INODE_SIZE) as u32;
                let first_ino =
                    g32 * INODES_PER_GROUP + (bno - gd.inode_table) as u32 * inodes_per_block + 1;
                return Region::InodeTable {
                    group: g32,
                    first_ino,
                };
            }
        }
        Region::Data
    }

    /// `(block, byte_offset)` of inode `ino` inside the inode table.
    pub fn inode_location(&self, ino: u32) -> (u64, usize) {
        let idx = (ino - 1) as u64;
        let group = (idx / INODES_PER_GROUP as u64) as usize;
        let within = (idx % INODES_PER_GROUP as u64) as usize;
        let block = self.groups[group].inode_table + (within * INODE_SIZE / BLOCK_SIZE) as u64;
        (block, (within * INODE_SIZE) % BLOCK_SIZE)
    }

    /// The inode numbers stored in inode-table block `bno`, if it is one.
    pub fn inodes_in_block(&self, bno: u64) -> Option<std::ops::Range<u32>> {
        match self.classify_block(bno) {
            Region::InodeTable { first_ino, .. } => {
                let per_block = (BLOCK_SIZE / INODE_SIZE) as u32;
                Some(first_ino..first_ino + per_block)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::ExtFs;
    use storm_block::MemDisk;

    fn view() -> FsView {
        let fs = ExtFs::mkfs(MemDisk::with_capacity_bytes(128 << 20)).unwrap();
        let mut dev = fs.into_device().unwrap();
        FsView::from_device(&mut dev).unwrap()
    }

    #[test]
    fn classifies_metadata_blocks() {
        let v = view();
        assert_eq!(v.classify_block(0), Region::Superblock);
        assert_eq!(v.classify_block(1), Region::GroupDescTable);
        let gd0 = v.groups[0];
        assert_eq!(
            v.classify_block(gd0.block_bitmap),
            Region::BlockBitmap { group: 0 }
        );
        assert_eq!(
            v.classify_block(gd0.inode_bitmap),
            Region::InodeBitmap { group: 0 }
        );
        assert!(matches!(
            v.classify_block(gd0.inode_table),
            Region::InodeTable {
                group: 0,
                first_ino: 1
            }
        ));
        // First data block of group 0 is Data.
        assert_eq!(
            v.classify_block(gd0.inode_table + INODE_TABLE_BLOCKS),
            Region::Data
        );
        // Far past the end.
        assert_eq!(v.classify_block(1 << 40), Region::Beyond);
    }

    #[test]
    fn inode_locations_line_up_with_classification() {
        let v = view();
        let (block, off) = v.inode_location(2);
        assert_eq!(off, 128); // inode 2 is the second slot
        let inodes = v.inodes_in_block(block).unwrap();
        assert!(inodes.contains(&2));
        assert_eq!(inodes.len(), BLOCK_SIZE / INODE_SIZE);
        // A data block has no inodes.
        assert!(v.inodes_in_block(1 << 20).is_none());
    }

    #[test]
    fn second_group_metadata_located() {
        let v = view();
        assert!(v.groups.len() >= 2, "128 MiB should span multiple groups");
        let gd1 = v.groups[1];
        assert_eq!(
            v.classify_block(gd1.block_bitmap),
            Region::BlockBitmap { group: 1 }
        );
        match v.classify_block(gd1.inode_table) {
            Region::InodeTable {
                group: 1,
                first_ino,
            } => {
                assert_eq!(first_ino, INODES_PER_GROUP + 1);
            }
            other => panic!("expected inode table, got {other:?}"),
        }
    }

    #[test]
    fn from_device_rejects_blank_disk() {
        let mut dev = MemDisk::with_capacity_bytes(16 << 20);
        assert!(FsView::from_device(&mut dev).is_err());
    }
}
