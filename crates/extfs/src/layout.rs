//! On-disk layout: constants, superblock and group descriptors.

// Parses tenant-written bytes, so it must not abort; the superblock and
// group-descriptor `write_to`s are field serialisers, not forwarded payloads.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

/// Filesystem block size in bytes.
pub const BLOCK_SIZE: usize = 4096;
/// 512-byte sectors per filesystem block.
pub const SECTORS_PER_BLOCK: u64 = (BLOCK_SIZE / 512) as u64;
/// The ext magic number.
pub const EXT_MAGIC: u16 = 0xEF53;
/// Blocks per block group.
pub const BLOCKS_PER_GROUP: u64 = 8192;
/// Inodes per block group.
pub const INODES_PER_GROUP: u32 = 2048;
/// Bytes per on-disk inode.
pub const INODE_SIZE: usize = 128;
/// The root directory's inode number.
pub const ROOT_INO: u32 = 2;
/// First inode number available for user files (1..11 are reserved, as in
/// ext2).
pub const FIRST_FREE_INO: u32 = 11;
/// Blocks occupied by the inode table of one group.
pub const INODE_TABLE_BLOCKS: u64 = (INODES_PER_GROUP as usize * INODE_SIZE / BLOCK_SIZE) as u64;
/// Byte offset of the superblock within the volume.
pub const SUPERBLOCK_OFFSET: usize = 1024;

/// The superblock (fields kept at their ext2 offsets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Total inode count.
    pub inodes_count: u32,
    /// Total block count.
    pub blocks_count: u64,
    /// Free blocks.
    pub free_blocks_count: u64,
    /// Free inodes.
    pub free_inodes_count: u32,
    /// First data block (0 for 4 KiB blocks).
    pub first_data_block: u64,
    /// `log2(block_size) - 10`.
    pub log_block_size: u32,
    /// Blocks per group.
    pub blocks_per_group: u64,
    /// Inodes per group.
    pub inodes_per_group: u32,
    /// Magic (must be [`EXT_MAGIC`]).
    pub magic: u16,
}

impl Superblock {
    /// Number of block groups.
    pub fn group_count(&self) -> u64 {
        self.blocks_count.div_ceil(self.blocks_per_group)
    }

    /// Serializes into a [`BLOCK_SIZE`] buffer at the ext2 field offsets
    /// (relative to the 1024-byte superblock origin).
    pub fn write_to(&self, block0: &mut [u8]) {
        let sb = &mut block0[SUPERBLOCK_OFFSET..];
        sb[..96].fill(0);
        sb[0..4].copy_from_slice(&self.inodes_count.to_le_bytes());
        sb[4..8].copy_from_slice(&(self.blocks_count as u32).to_le_bytes());
        sb[12..16].copy_from_slice(&(self.free_blocks_count as u32).to_le_bytes());
        sb[16..20].copy_from_slice(&self.free_inodes_count.to_le_bytes());
        sb[20..24].copy_from_slice(&(self.first_data_block as u32).to_le_bytes());
        sb[24..28].copy_from_slice(&self.log_block_size.to_le_bytes());
        sb[32..36].copy_from_slice(&(self.blocks_per_group as u32).to_le_bytes());
        sb[40..44].copy_from_slice(&self.inodes_per_group.to_le_bytes());
        sb[56..58].copy_from_slice(&self.magic.to_le_bytes());
    }

    /// Parses from block 0.
    ///
    /// # Errors
    ///
    /// Returns `None` when the magic is wrong.
    pub fn read_from(block0: &[u8; BLOCK_SIZE]) -> Option<Superblock> {
        let sb = &block0[SUPERBLOCK_OFFSET..];
        let magic = le16(sb, 56);
        if magic != EXT_MAGIC {
            return None;
        }
        Some(Superblock {
            inodes_count: le32(sb, 0),
            blocks_count: le32(sb, 4) as u64,
            free_blocks_count: le32(sb, 12) as u64,
            free_inodes_count: le32(sb, 16),
            first_data_block: le32(sb, 20) as u64,
            log_block_size: le32(sb, 24),
            blocks_per_group: le32(sb, 32) as u64,
            inodes_per_group: le32(sb, 40),
            magic,
        })
    }
}

/// A block-group descriptor (32 bytes on disk, ext2 field offsets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupDesc {
    /// Block number of the group's block bitmap.
    pub block_bitmap: u64,
    /// Block number of the group's inode bitmap.
    pub inode_bitmap: u64,
    /// First block of the group's inode table.
    pub inode_table: u64,
    /// Free blocks in the group.
    pub free_blocks_count: u16,
    /// Free inodes in the group.
    pub free_inodes_count: u16,
    /// Directories allocated in the group.
    pub used_dirs_count: u16,
}

impl GroupDesc {
    /// On-disk descriptor size.
    pub const SIZE: usize = 32;

    /// Serializes to a 32-byte slot.
    pub fn write_to(&self, slot: &mut [u8]) {
        slot[..Self::SIZE].fill(0);
        slot[0..4].copy_from_slice(&(self.block_bitmap as u32).to_le_bytes());
        slot[4..8].copy_from_slice(&(self.inode_bitmap as u32).to_le_bytes());
        slot[8..12].copy_from_slice(&(self.inode_table as u32).to_le_bytes());
        slot[12..14].copy_from_slice(&self.free_blocks_count.to_le_bytes());
        slot[14..16].copy_from_slice(&self.free_inodes_count.to_le_bytes());
        slot[16..18].copy_from_slice(&self.used_dirs_count.to_le_bytes());
    }

    /// Parses a 32-byte slot.
    pub fn read_from(slot: &[u8; Self::SIZE]) -> GroupDesc {
        GroupDesc {
            block_bitmap: le32(slot, 0) as u64,
            inode_bitmap: le32(slot, 4) as u64,
            inode_table: le32(slot, 8) as u64,
            free_blocks_count: le16(slot, 12),
            free_inodes_count: le16(slot, 14),
            used_dirs_count: le16(slot, 16),
        }
    }
}

/// The little-endian `u16` at byte `off` of an on-disk record. The
/// decoders pass fixed-size records and constant offsets, so the bounds
/// are known where this is inlined.
pub(crate) fn le16(rec: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([rec[off], rec[off + 1]])
}

/// The little-endian `u32` at byte `off` of an on-disk record.
pub(crate) fn le32(rec: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([rec[off], rec[off + 1], rec[off + 2], rec[off + 3]])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superblock_round_trip() {
        let sb = Superblock {
            inodes_count: 8192,
            blocks_count: 16384,
            free_blocks_count: 16000,
            free_inodes_count: 8000,
            first_data_block: 0,
            log_block_size: 2,
            blocks_per_group: BLOCKS_PER_GROUP,
            inodes_per_group: INODES_PER_GROUP,
            magic: EXT_MAGIC,
        };
        let mut block = [0u8; BLOCK_SIZE];
        sb.write_to(&mut block);
        assert_eq!(Superblock::read_from(&block), Some(sb));
        assert_eq!(sb.group_count(), 2);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(Superblock::read_from(&[0u8; BLOCK_SIZE]), None);
    }

    #[test]
    fn magic_is_at_ext2_offset() {
        let sb = Superblock {
            inodes_count: 1,
            blocks_count: 1,
            free_blocks_count: 0,
            free_inodes_count: 0,
            first_data_block: 0,
            log_block_size: 2,
            blocks_per_group: BLOCKS_PER_GROUP,
            inodes_per_group: INODES_PER_GROUP,
            magic: EXT_MAGIC,
        };
        let mut block = vec![0u8; BLOCK_SIZE];
        sb.write_to(&mut block);
        // 0xEF53 little-endian at byte 1080 (1024 + 56) — where dumpe2fs
        // and the monitor look for it.
        assert_eq!(block[1080], 0x53);
        assert_eq!(block[1081], 0xEF);
    }

    #[test]
    fn group_desc_round_trip() {
        let g = GroupDesc {
            block_bitmap: 100,
            inode_bitmap: 101,
            inode_table: 102,
            free_blocks_count: 7000,
            free_inodes_count: 2000,
            used_dirs_count: 3,
        };
        let mut slot = [0u8; GroupDesc::SIZE];
        g.write_to(&mut slot);
        assert_eq!(GroupDesc::read_from(&slot), g);
    }

    #[test]
    fn derived_constants_consistent() {
        assert_eq!(INODE_TABLE_BLOCKS, 64);
        assert_eq!(SECTORS_PER_BLOCK, 8);
        // One bitmap block must cover a whole group.
        assert!(BLOCKS_PER_GROUP as usize <= BLOCK_SIZE * 8);
        assert!(INODES_PER_GROUP as usize <= BLOCK_SIZE * 8);
    }
}
