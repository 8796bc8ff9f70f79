//! The working filesystem: allocation, directories, file I/O.

use std::error::Error;
use std::fmt;

use storm_block::{BlockDevice, BlockError};

use crate::dirent::{
    dirents, lookup, raw_dirents, rec_len_for, write_dirent, DirEntry, FileType, MAX_NAME_LEN,
};
use crate::inode::{
    block_pointers, pointer_at, Inode, DIND_SLOT, DIRECT_BLOCKS, IND_SLOT, PTRS_PER_BLOCK,
};
use crate::layout::{
    GroupDesc, Superblock, BLOCKS_PER_GROUP, BLOCK_SIZE, EXT_MAGIC, FIRST_FREE_INO,
    INODES_PER_GROUP, INODE_SIZE, INODE_TABLE_BLOCKS, ROOT_INO, SECTORS_PER_BLOCK,
};
use crate::view::FsView;

/// Filesystem errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path component does not exist.
    NotFound,
    /// A non-directory appeared mid-path (or readdir on a file).
    NotADirectory,
    /// Expected a file, found a directory.
    IsADirectory,
    /// Create/rename target already exists.
    AlreadyExists,
    /// Out of blocks or inodes.
    NoSpace,
    /// rmdir on a non-empty directory.
    DirNotEmpty,
    /// Malformed path or overlong name.
    InvalidPath,
    /// The device does not hold a valid filesystem.
    BadMagic,
    /// Device too small for even one block group.
    DeviceTooSmall,
    /// Underlying block device error.
    Block(BlockError),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound => write!(f, "no such file or directory"),
            FsError::NotADirectory => write!(f, "not a directory"),
            FsError::IsADirectory => write!(f, "is a directory"),
            FsError::AlreadyExists => write!(f, "file exists"),
            FsError::NoSpace => write!(f, "no space left on device"),
            FsError::DirNotEmpty => write!(f, "directory not empty"),
            FsError::InvalidPath => write!(f, "invalid path"),
            FsError::BadMagic => write!(f, "bad filesystem magic"),
            FsError::DeviceTooSmall => write!(f, "device too small"),
            FsError::Block(e) => write!(f, "block device error: {e}"),
        }
    }
}

impl Error for FsError {}

impl From<BlockError> for FsError {
    fn from(e: BlockError) -> Self {
        FsError::Block(e)
    }
}

/// The first clear bit below `limit` in `bitmap` (bit `i` is bit `i % 8`
/// of byte `i / 8`), found a 64-bit word at a time.
fn first_clear_bit(bitmap: &[u8], limit: usize) -> Option<usize> {
    let (words, _) = bitmap.as_chunks::<8>();
    words
        .iter()
        .take(limit.div_ceil(64))
        .enumerate()
        .find_map(|(w, word)| {
            let ones = u64::from_le_bytes(*word).trailing_ones() as usize;
            (ones < 64).then_some(w * 64 + ones)
        })
        .filter(|&idx| idx < limit)
}

/// One filesystem block.
type Block = [u8; BLOCK_SIZE];

/// A bitmap block with the bits `used` set.
fn bitmap_of(used: impl Iterator<Item = usize>) -> Block {
    let mut bitmap = [0; BLOCK_SIZE];
    used.for_each(|i| bitmap[i / 8] |= 1 << (i % 8));
    bitmap
}

/// File metadata returned by [`ExtFs::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// Inode number.
    pub ino: u32,
    /// Size in bytes.
    pub size: u64,
    /// Whether it is a directory.
    pub is_dir: bool,
    /// Whether it is a symlink.
    pub is_symlink: bool,
    /// Link count.
    pub links: u16,
    /// Allocated 512-byte sectors.
    pub blocks512: u32,
}

/// An ext2-style filesystem over a block device.
///
/// Superblock/group-descriptor counters are cached in memory and written
/// back on [`ExtFs::sync`] (like a real kernel); bitmaps, inode tables and
/// directory blocks are written through immediately, so wire observers see
/// the metadata traffic the semantics-reconstruction engine depends on.
/// A read-only walk borrows the block views the device lends
/// ([`BlockDevice::read_bytes`]), so on a [`storm_block::MemDisk`] no block
/// read copies; a read-modify-write edits a block the filesystem owns.
#[derive(Debug)]
pub struct ExtFs<D> {
    dev: D,
    /// The superblock and group descriptors, counters kept current.
    view: FsView,
    /// The group descriptor table as `sync` writes it.
    gdt: Vec<u8>,
    /// The block a read-modify-write edits.
    scratch: Box<Block>,
    clock: u32,
    sb_dirty: bool,
}

impl<D: BlockDevice> ExtFs<D> {
    /// Formats `dev` and mounts the fresh filesystem.
    ///
    /// # Errors
    ///
    /// [`FsError::DeviceTooSmall`] if the device cannot hold one group's
    /// metadata, or any underlying device error.
    pub fn mkfs(mut dev: D) -> Result<ExtFs<D>, FsError> {
        let total_blocks = dev.num_sectors() / SECTORS_PER_BLOCK;
        let groups = total_blocks.div_ceil(BLOCKS_PER_GROUP);
        if groups == 0 {
            return Err(FsError::DeviceTooSmall);
        }
        let gdt_blocks = (groups as usize * GroupDesc::SIZE).div_ceil(BLOCK_SIZE) as u64;
        // Group 0 must fit sb + gdt + bitmaps + inode table + >=1 data block.
        if total_blocks < 1 + gdt_blocks + 2 + INODE_TABLE_BLOCKS + 8 {
            return Err(FsError::DeviceTooSmall);
        }
        let mut gds = Vec::with_capacity(groups as usize);
        let mut free_blocks_total = 0u64;
        for g in 0..groups {
            let base = g * BLOCKS_PER_GROUP;
            let meta_start = if g == 0 { 1 + gdt_blocks } else { base };
            let block_bitmap = meta_start;
            let inode_bitmap = meta_start + 1;
            let inode_table = meta_start + 2;
            let data_start = inode_table + INODE_TABLE_BLOCKS;
            let group_end = (base + BLOCKS_PER_GROUP).min(total_blocks);
            // Block bitmap: everything before data_start (within the
            // group) is metadata; everything past group_end is padding.
            let (meta, end) = ((data_start - base) as usize, (group_end - base) as usize);
            let used = (0..meta).chain(end.max(meta)..BLOCKS_PER_GROUP as usize);
            dev.write(block_bitmap * SECTORS_PER_BLOCK, &bitmap_of(used))?;
            let free_in_group = end.saturating_sub(meta) as u16;
            // Inode bitmap: group 0 reserves inodes 1..FIRST_FREE_INO (bit
            // index = ino - 1), and inodes beyond the group's span never
            // exist, so the bitmap's tail is marked used too.
            let reserved = if g == 0 { FIRST_FREE_INO - 1 } else { 0 };
            let used = (0..reserved as usize).chain(INODES_PER_GROUP as usize..BLOCK_SIZE * 8);
            dev.write(inode_bitmap * SECTORS_PER_BLOCK, &bitmap_of(used))?;
            let free_inodes = (INODES_PER_GROUP - reserved) as u16;
            // Zero the inode table.
            for b in 0..INODE_TABLE_BLOCKS {
                dev.write((inode_table + b) * SECTORS_PER_BLOCK, &[0; BLOCK_SIZE])?;
            }
            free_blocks_total += free_in_group as u64;
            gds.push(GroupDesc {
                block_bitmap,
                inode_bitmap,
                inode_table,
                free_blocks_count: free_in_group,
                free_inodes_count: free_inodes,
                used_dirs_count: 0,
            });
        }
        let sb = Superblock {
            inodes_count: groups as u32 * INODES_PER_GROUP,
            blocks_count: total_blocks,
            free_blocks_count: free_blocks_total,
            free_inodes_count: groups as u32 * INODES_PER_GROUP - (FIRST_FREE_INO - 1),
            first_data_block: 0,
            log_block_size: 2,
            blocks_per_group: BLOCKS_PER_GROUP,
            inodes_per_group: INODES_PER_GROUP,
            magic: EXT_MAGIC,
        };
        let view = FsView {
            sb,
            groups: gds,
            gdt_blocks,
        };
        let mut fs = ExtFs::new(dev, view, true);
        let mut root = Inode::new_dir();
        fs.init_dir(&mut root, ROOT_INO, ROOT_INO, 0)?;
        fs.write_inode(ROOT_INO, &root)?;
        fs.view.groups[0].used_dirs_count += 1;
        fs.sync()?;
        Ok(fs)
    }

    /// Mounts an existing filesystem.
    ///
    /// # Errors
    ///
    /// [`FsError::BadMagic`] when the superblock is absent or corrupt.
    pub fn mount(mut dev: D) -> Result<ExtFs<D>, FsError> {
        let view = FsView::from_device(&mut dev)?;
        Ok(ExtFs::new(dev, view, false))
    }

    fn new(dev: D, view: FsView, sb_dirty: bool) -> ExtFs<D> {
        ExtFs {
            dev,
            gdt: vec![0; view.gdt_blocks as usize * BLOCK_SIZE],
            view,
            scratch: Box::new([0; BLOCK_SIZE]),
            clock: 1,
            sb_dirty,
        }
    }

    /// The cached superblock.
    pub fn superblock(&self) -> &Superblock {
        &self.view.sb
    }

    /// Mutable access to the underlying device (e.g. to drain a
    /// recording log).
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.dev
    }

    /// Moves the mounted filesystem onto the device `wrap` makes of its
    /// own, keeping the in-memory state a remount would reset (the mtime
    /// clock, the cached counters and whether they are dirty).
    pub fn map_device<E: BlockDevice>(self, wrap: impl FnOnce(D) -> E) -> ExtFs<E> {
        ExtFs {
            dev: wrap(self.dev),
            view: self.view,
            gdt: self.gdt,
            scratch: self.scratch,
            clock: self.clock,
            sb_dirty: self.sb_dirty,
        }
    }

    /// Unmounts, flushing caches, and returns the device.
    ///
    /// # Errors
    ///
    /// Propagates device errors from the final sync.
    pub fn into_device(mut self) -> Result<D, FsError> {
        self.sync()?;
        Ok(self.dev)
    }

    /// Writes back the superblock and group descriptors.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn sync(&mut self) -> Result<(), FsError> {
        if self.sb_dirty {
            let sb = self.view.sb;
            self.edit_block(0, |block0| sb.write_to(block0))?;
            for (slot, gd) in self.gdt.chunks_mut(GroupDesc::SIZE).zip(&self.view.groups) {
                gd.write_to(slot);
            }
            self.dev.write(SECTORS_PER_BLOCK, &self.gdt)?;
            self.sb_dirty = false;
        }
        self.dev.flush()?;
        Ok(())
    }

    // ---- low-level block / inode access ----

    /// Runs `f` on block `bno` as [`BlockDevice::read_bytes`] answers it:
    /// a view of what the device stores, if it lends one.
    fn with_block<R>(&mut self, bno: u64, f: impl FnOnce(&Block) -> R) -> Result<R, FsError> {
        let block = self.dev.read_bytes(bno * SECTORS_PER_BLOCK, BLOCK_SIZE)?;
        let block = block
            .first_chunk()
            .ok_or(BlockError::Misaligned { len: block.len() })?;
        Ok(f(block))
    }

    /// Reads block `bno` into the scratch block, edits and writes it back.
    fn edit_block(&mut self, bno: u64, edit: impl FnOnce(&mut Block)) -> Result<(), FsError> {
        self.edit_block_if(bno, |buf| Some(()).map(|()| edit(buf)))?;
        Ok(())
    }

    /// [`Self::edit_block`], written back only if `edit` returns `Some`.
    fn edit_block_if<R>(
        &mut self,
        bno: u64,
        edit: impl FnOnce(&mut Block) -> Option<R>,
    ) -> Result<Option<R>, FsError> {
        let lba = bno * SECTORS_PER_BLOCK;
        self.dev.read(lba, &mut self.scratch[..])?;
        let edited = edit(&mut self.scratch);
        if edited.is_some() {
            self.dev.write(lba, &self.scratch[..])?;
        }
        Ok(edited)
    }

    /// Writes block `bno` as zeros under what `fill` writes, without
    /// reading it: a fresh block's old bytes belong to its previous owner.
    fn write_fresh(&mut self, bno: u64, fill: impl FnOnce(&mut Block)) -> Result<(), FsError> {
        self.scratch.fill(0);
        fill(&mut self.scratch);
        self.dev.write(bno * SECTORS_PER_BLOCK, &self.scratch[..])?;
        Ok(())
    }

    fn write_block(&mut self, bno: u64, data: &[u8]) -> Result<(), FsError> {
        debug_assert_eq!(data.len(), BLOCK_SIZE);
        self.dev.write(bno * SECTORS_PER_BLOCK, data)?;
        Ok(())
    }

    /// Gives directory `dir` (inode number `ino`) its first block, holding
    /// `.` and `..` (which names `parent`); the caller writes `dir` back.
    fn init_dir(
        &mut self,
        dir: &mut Inode,
        ino: u32,
        parent: u32,
        g: usize,
    ) -> Result<(), FsError> {
        let b = self.alloc_block(g)?;
        dir.block[0] = b;
        dir.size = BLOCK_SIZE as u64;
        dir.blocks512 = SECTORS_PER_BLOCK as u32;
        let (r1, ft) = (rec_len_for(1), FileType::Directory);
        self.write_fresh(b as u64, |buf| {
            write_dirent(buf, ino, ft, ".", r1);
            write_dirent(&mut buf[r1..], parent, ft, "..", BLOCK_SIZE - r1)
        })
    }

    fn read_inode(&mut self, ino: u32) -> Result<Inode, FsError> {
        let (block, offset) = self.view.inode_location(ino);
        let slot = offset / INODE_SIZE;
        self.with_block(block, |buf| Inode::from_bytes(&buf.as_chunks().0[slot]))
    }

    fn write_inode(&mut self, ino: u32, inode: &Inode) -> Result<(), FsError> {
        let (block, offset) = self.view.inode_location(ino);
        let slot = offset..offset + INODE_SIZE;
        self.edit_block(block, |buf| inode.write_to(&mut buf[slot]))
    }

    /// Adds `delta` to inode `ino`'s link count (a directory's `..`).
    fn add_links(&mut self, ino: u32, delta: i16) -> Result<(), FsError> {
        let mut inode = self.read_inode(ino)?;
        inode.links_count = inode.links_count.saturating_add_signed(delta);
        self.write_inode(ino, &inode)
    }

    // ---- allocation ----

    fn alloc_from_bitmap(
        &mut self,
        bitmap_block: u64,
        limit: usize,
    ) -> Result<Option<usize>, FsError> {
        self.edit_block_if(bitmap_block, |bitmap| {
            let idx = first_clear_bit(bitmap, limit)?;
            bitmap[idx / 8] |= 1 << (idx % 8);
            Some(idx)
        })
    }

    fn alloc_block(&mut self, preferred_group: usize) -> Result<u32, FsError> {
        let n = self.view.groups.len();
        for i in 0..n {
            let g = (preferred_group + i) % n;
            if self.view.groups[g].free_blocks_count == 0 {
                continue;
            }
            let bitmap_block = self.view.groups[g].block_bitmap;
            if let Some(idx) = self.alloc_from_bitmap(bitmap_block, BLOCKS_PER_GROUP as usize)? {
                self.view.groups[g].free_blocks_count -= 1;
                self.view.sb.free_blocks_count -= 1;
                self.sb_dirty = true;
                return Ok((g as u64 * BLOCKS_PER_GROUP + idx as u64) as u32);
            }
        }
        Err(FsError::NoSpace)
    }

    fn free_block(&mut self, bno: u32) -> Result<(), FsError> {
        let g = (bno as u64 / BLOCKS_PER_GROUP) as usize;
        let idx = (bno as u64 % BLOCKS_PER_GROUP) as usize;
        let bitmap_block = self.view.groups[g].block_bitmap;
        self.edit_block(bitmap_block, |bitmap| bitmap[idx / 8] &= !(1 << (idx % 8)))?;
        self.view.groups[g].free_blocks_count += 1;
        self.view.sb.free_blocks_count += 1;
        self.sb_dirty = true;
        Ok(())
    }

    fn alloc_inode(&mut self, preferred_group: usize, is_dir: bool) -> Result<u32, FsError> {
        let n = self.view.groups.len();
        for i in 0..n {
            let g = (preferred_group + i) % n;
            if self.view.groups[g].free_inodes_count == 0 {
                continue;
            }
            let bitmap_block = self.view.groups[g].inode_bitmap;
            if let Some(idx) = self.alloc_from_bitmap(bitmap_block, INODES_PER_GROUP as usize)? {
                self.view.groups[g].free_inodes_count -= 1;
                self.view.sb.free_inodes_count -= 1;
                if is_dir {
                    self.view.groups[g].used_dirs_count += 1;
                }
                self.sb_dirty = true;
                return Ok(g as u32 * INODES_PER_GROUP + idx as u32 + 1);
            }
        }
        Err(FsError::NoSpace)
    }

    fn free_inode(&mut self, ino: u32, was_dir: bool) -> Result<(), FsError> {
        let idx = (ino - 1) as usize;
        let g = idx / INODES_PER_GROUP as usize;
        let within = idx % INODES_PER_GROUP as usize;
        let bitmap_block = self.view.groups[g].inode_bitmap;
        self.edit_block(bitmap_block, |map| map[within / 8] &= !(1 << (within % 8)))?;
        self.view.groups[g].free_inodes_count += 1;
        self.view.sb.free_inodes_count += 1;
        if was_dir {
            self.view.groups[g].used_dirs_count -= 1;
        }
        self.sb_dirty = true;
        // Clear the on-disk inode (dtime semantics).
        self.write_inode(ino, &Inode::default())
    }

    // ---- block mapping (direct + single/double indirect) ----

    fn bmap(&mut self, inode: &Inode, idx: usize) -> Result<Option<u32>, FsError> {
        // The inode's pointer, then the slot to follow in each index block.
        let (mut b, slots) = match idx.checked_sub(DIRECT_BLOCKS) {
            None => (inode.block[idx], [None, None]),
            Some(i) if i < PTRS_PER_BLOCK => (inode.block[IND_SLOT], [Some(i), None]),
            Some(i) if i - PTRS_PER_BLOCK < PTRS_PER_BLOCK * PTRS_PER_BLOCK => {
                let i = i - PTRS_PER_BLOCK;
                let slots = [Some(i / PTRS_PER_BLOCK), Some(i % PTRS_PER_BLOCK)];
                (inode.block[DIND_SLOT], slots)
            }
            _ => return Ok(None), // beyond double-indirect reach
        };
        for at in slots.into_iter().flatten() {
            if b == 0 {
                return Ok(None);
            }
            b = self.with_block(b as u64, |buf| pointer_at(buf, at))?;
        }
        Ok((b != 0).then_some(b))
    }

    /// Maps `idx`, allocating data and indirect blocks as needed; returns
    /// `(block, freshly_allocated)`. Fresh data blocks may contain stale
    /// bytes from a previous owner — callers must fully overwrite or
    /// zero-fill them (as the kernel's page cache does). The caller must
    /// write the inode back.
    fn bmap_alloc(
        &mut self,
        inode: &mut Inode,
        idx: usize,
        group: usize,
    ) -> Result<(u32, bool), FsError> {
        if let Some(b) = self.bmap(inode, idx)? {
            return Ok((b, false));
        }
        if idx >= DIRECT_BLOCKS + PTRS_PER_BLOCK + PTRS_PER_BLOCK * PTRS_PER_BLOCK {
            // Beyond double-indirect: treat as a full file.
            return Err(FsError::NoSpace);
        }
        let data = self.alloc_block(group)?;
        inode.blocks512 += SECTORS_PER_BLOCK as u32;
        let linked = self.link_block(inode, idx, data, group);
        if linked.is_err() {
            // No room for an index block to hold it: give it back.
            self.free_block(data)?;
            inode.blocks512 -= SECTORS_PER_BLOCK as u32;
        }
        linked.map(|()| (data, true))
    }

    /// Points slot `i` (within double-indirect reach) of `file` at
    /// data block `b`, allocating the index blocks on the way.
    fn link_block(&mut self, file: &mut Inode, i: usize, b: u32, g: usize) -> Result<(), FsError> {
        if i < DIRECT_BLOCKS {
            file.block[i] = b;
            return Ok(());
        }
        let rel = i - DIRECT_BLOCKS;
        let (top, slot) = if rel < PTRS_PER_BLOCK {
            (IND_SLOT, rel)
        } else {
            (DIND_SLOT, rel - PTRS_PER_BLOCK)
        };
        if file.block[top] == 0 {
            file.block[top] = self.alloc_index_block(file, g)?;
        }
        let mut ind = file.block[top];
        if top == DIND_SLOT {
            // Off the scratch block: allocating a child edits a bitmap there.
            let dind = file.block[DIND_SLOT] as u64;
            let mut outer = [0u8; BLOCK_SIZE];
            self.dev.read(dind * SECTORS_PER_BLOCK, &mut outer)?;
            let at = slot / PTRS_PER_BLOCK;
            ind = pointer_at(&outer, at);
            if ind == 0 {
                ind = self.alloc_index_block(file, g)?;
                outer[at * 4..at * 4 + 4].copy_from_slice(&ind.to_le_bytes());
                self.write_block(dind, &outer)?;
            }
        }
        let within = slot % PTRS_PER_BLOCK;
        self.edit_block(ind as u64, |buf| {
            buf[within * 4..within * 4 + 4].copy_from_slice(&b.to_le_bytes())
        })
    }

    /// Allocates a zeroed index block, counted in `inode`'s blocks.
    fn alloc_index_block(&mut self, inode: &mut Inode, group: usize) -> Result<u32, FsError> {
        let ind = self.alloc_block(group)?;
        inode.blocks512 += SECTORS_PER_BLOCK as u32;
        self.write_block(ind as u64, &[0; BLOCK_SIZE])?;
        Ok(ind)
    }

    /// Frees every block reachable from `inode`.
    fn free_inode_blocks(&mut self, inode: &Inode) -> Result<(), FsError> {
        for &b in &inode.block[..DIRECT_BLOCKS] {
            if b != 0 {
                self.free_block(b)?;
            }
        }
        if inode.block[IND_SLOT] != 0 {
            self.free_index_block(inode.block[IND_SLOT])?;
        }
        let dind = inode.block[DIND_SLOT];
        if dind != 0 {
            for ind in self.pointers(dind)? {
                self.free_index_block(ind)?;
            }
            self.free_block(dind)?;
        }
        Ok(())
    }

    /// The non-zero pointers in index block `ind`.
    fn pointers(&mut self, ind: u32) -> Result<Vec<u32>, FsError> {
        self.with_block(ind as u64, |buf| block_pointers(buf).collect())
    }

    /// Frees the data blocks an indirect block points at, then itself.
    fn free_index_block(&mut self, ind: u32) -> Result<(), FsError> {
        for b in self.pointers(ind)? {
            self.free_block(b)?;
        }
        self.free_block(ind)
    }

    // ---- directories ----

    fn dir_blocks(&mut self, dir: &Inode) -> Result<Vec<u64>, FsError> {
        let count = (dir.size as usize).div_ceil(BLOCK_SIZE);
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            if let Some(b) = self.bmap(dir, i)? {
                out.push(b as u64);
            }
        }
        Ok(out)
    }

    /// The inode and type `name` is bound to in directory `dir_ino`.
    fn dir_lookup(&mut self, dir_ino: u32, name: &str) -> Result<Option<(u32, FileType)>, FsError> {
        let dir = self.read_inode(dir_ino)?;
        if !dir.is_dir() {
            return Err(FsError::NotADirectory);
        }
        for b in self.dir_blocks(&dir)? {
            if let Some(hit) = self.with_block(b, |buf| lookup(buf, name))? {
                return Ok(Some(hit));
            }
        }
        Ok(None)
    }

    fn dir_add(&mut self, dir_ino: u32, name: &str, ino: u32, ft: FileType) -> Result<(), FsError> {
        if name.is_empty() || name.len() > MAX_NAME_LEN || name.contains('/') {
            return Err(FsError::InvalidPath);
        }
        let mut dir = self.read_inode(dir_ino)?;
        if !dir.is_dir() {
            return Err(FsError::NotADirectory);
        }
        let needed = rec_len_for(name.len());
        // Scan blocks for slack inside an existing record.
        for b in self.dir_blocks(&dir)? {
            let added = self.edit_block_if(b, |buf| {
                // The first record with room behind its own name (all of a
                // deleted placeholder is room).
                let (off, rec_len, used) = raw_dirents(buf).find_map(|r| {
                    let used = if r.inode == 0 {
                        0
                    } else {
                        rec_len_for(r.name.len())
                    };
                    (r.rec_len.saturating_sub(used) >= needed)
                        .then_some((r.offset, r.rec_len, used))
                })?;
                // Split: shrink the existing record, place ours after.
                if used != 0 {
                    buf[off + 4..off + 6].copy_from_slice(&(used as u16).to_le_bytes());
                }
                write_dirent(&mut buf[off + used..], ino, ft, name, rec_len - used);
                Some(())
            })?;
            if added.is_some() {
                return Ok(());
            }
        }
        // No slack: append a fresh directory block.
        let group = ((dir_ino - 1) / INODES_PER_GROUP) as usize;
        let idx = (dir.size as usize) / BLOCK_SIZE;
        let (b, _fresh) = self.bmap_alloc(&mut dir, idx, group)?;
        self.write_fresh(b as u64, |buf| write_dirent(buf, ino, ft, name, BLOCK_SIZE))?;
        dir.size += BLOCK_SIZE as u64;
        dir.mtime = self.tick();
        self.write_inode(dir_ino, &dir)?;
        Ok(())
    }

    fn dir_remove(&mut self, dir_ino: u32, name: &str) -> Result<(), FsError> {
        let dir = self.read_inode(dir_ino)?;
        for b in self.dir_blocks(&dir)? {
            let removed = self.edit_block_if(b, |buf| {
                // The record binding `name`, and the one before it.
                let mut prev = None;
                let (off, rec_len, prev) = raw_dirents(buf).find_map(|r| {
                    if r.binds(name) {
                        return Some((r.offset, r.rec_len, prev));
                    }
                    prev = Some((r.offset, r.rec_len));
                    None
                })?;
                // Merge into the previous record (classic ext2); a first
                // record just has its inode field cleared.
                match prev {
                    Some((p, len)) => {
                        buf[p + 4..p + 6].copy_from_slice(&((len + rec_len) as u16).to_le_bytes())
                    }
                    None => buf[off..off + 4].fill(0),
                }
                Some(())
            })?;
            if removed.is_some() {
                return Ok(());
            }
        }
        Err(FsError::NotFound)
    }

    // ---- path resolution ----

    fn split_path(path: &str) -> Result<Vec<&str>, FsError> {
        if !path.starts_with('/') {
            return Err(FsError::InvalidPath);
        }
        let comps: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
        if comps.iter().any(|c| c.len() > MAX_NAME_LEN) {
            return Err(FsError::InvalidPath);
        }
        Ok(comps)
    }

    fn namei(&mut self, path: &str) -> Result<u32, FsError> {
        let comps = Self::split_path(path)?;
        let mut ino = ROOT_INO;
        for c in comps {
            (ino, _) = self.dir_lookup(ino, c)?.ok_or(FsError::NotFound)?;
        }
        Ok(ino)
    }

    fn namei_parent<'p>(&mut self, path: &'p str) -> Result<(u32, &'p str), FsError> {
        let comps = Self::split_path(path)?;
        let (&last, parents) = comps.split_last().ok_or(FsError::InvalidPath)?;
        let mut ino = ROOT_INO;
        for c in parents {
            (ino, _) = self.dir_lookup(ino, c)?.ok_or(FsError::NotFound)?;
        }
        Ok((ino, last))
    }

    fn tick(&mut self) -> u32 {
        self.clock += 1;
        self.clock
    }

    // ---- public operations ----

    /// Creates an empty regular file.
    ///
    /// # Errors
    ///
    /// [`FsError::AlreadyExists`] if the name is taken, path errors, or
    /// allocation failure.
    pub fn create(&mut self, path: &str) -> Result<(), FsError> {
        self.create_node(path, Inode::new_file(), FileType::Regular)?;
        Ok(())
    }

    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExtFs::create`].
    pub fn mkdir(&mut self, path: &str) -> Result<(), FsError> {
        self.create_node(path, Inode::new_dir(), FileType::Directory)?;
        Ok(())
    }

    /// Creates a symlink at `path` pointing to `target`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExtFs::create`].
    pub fn symlink(&mut self, path: &str, target: &str) -> Result<(), FsError> {
        let ino = self.create_node(path, Inode::new_symlink(), FileType::Symlink)?;
        // Store the target as file content (no fast symlinks: keeps the
        // on-wire traffic observable).
        self.write_ino(ino, 0, target.as_bytes())
    }

    /// Binds a fresh `inode` of type `ft` at `path` and returns its
    /// number; a directory gets its first block and its parent a link.
    fn create_node(&mut self, path: &str, mut inode: Inode, ft: FileType) -> Result<u32, FsError> {
        let (parent, name) = self.namei_parent(path)?;
        if self.dir_lookup(parent, name)?.is_some() {
            return Err(FsError::AlreadyExists);
        }
        let group = ((parent - 1) / INODES_PER_GROUP) as usize;
        let is_dir = ft == FileType::Directory;
        let ino = self.alloc_inode(group, is_dir)?;
        if is_dir {
            self.init_dir(&mut inode, ino, parent, group)?;
        }
        inode.mtime = self.tick();
        self.write_inode(ino, &inode)?;
        self.dir_add(parent, name, ino, ft)?;
        if is_dir {
            self.add_links(parent, 1)?;
        }
        Ok(ino)
    }

    /// Reads a symlink's target.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] / [`FsError::InvalidPath`] when `path` is not
    /// a symlink.
    pub fn readlink(&mut self, path: &str) -> Result<String, FsError> {
        let ino = self.namei(path)?;
        let inode = self.read_inode(ino)?;
        if !inode.is_symlink() {
            return Err(FsError::InvalidPath);
        }
        let data = self.read_ino(ino, 0, inode.size as usize)?;
        Ok(String::from_utf8_lossy(&data).into_owned())
    }

    /// Lists a directory (excluding `.` and `..`).
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`] when `path` is not a directory.
    pub fn readdir(&mut self, path: &str) -> Result<Vec<DirEntry>, FsError> {
        let ino = self.namei(path)?;
        let dir = self.read_inode(ino)?;
        if !dir.is_dir() {
            return Err(FsError::NotADirectory);
        }
        let mut out = Vec::new();
        for b in self.dir_blocks(&dir)? {
            self.with_block(b, |buf| {
                out.extend(dirents(buf).filter(|e| !e.is_dot()).map(|e| DirEntry {
                    inode: e.inode,
                    file_type: e.file_type,
                    name: e.name.to_owned(),
                }))
            })?;
        }
        Ok(out)
    }

    /// Stats a path.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] for missing paths.
    pub fn stat(&mut self, path: &str) -> Result<Stat, FsError> {
        let ino = self.namei(path)?;
        let inode = self.read_inode(ino)?;
        Ok(Stat {
            ino,
            size: inode.size,
            is_dir: inode.is_dir(),
            is_symlink: inode.is_symlink(),
            links: inode.links_count,
            blocks512: inode.blocks512,
        })
    }

    /// Writes `data` at `offset`. When the file cannot map another block
    /// the write is short: the inode is written back holding what was
    /// written, and the error returned.
    fn write_ino(&mut self, ino: u32, offset: u64, data: &[u8]) -> Result<(), FsError> {
        let before = self.read_inode(ino)?;
        let mut inode = before;
        let group = ((ino - 1) / INODES_PER_GROUP) as usize;
        let mut pos = offset;
        let mut remaining = data;
        let mapped = loop {
            if remaining.is_empty() {
                break Ok(());
            }
            let idx = (pos / BLOCK_SIZE as u64) as usize;
            let within = (pos % BLOCK_SIZE as u64) as usize;
            let (src, rest) = remaining.split_at((BLOCK_SIZE - within).min(remaining.len()));
            let (b, fresh) = match self.bmap_alloc(&mut inode, idx, group) {
                Ok(found) => found,
                Err(e) => break Err(e),
            };
            let (b, range) = (b as u64, within..within + src.len());
            if src.len() == BLOCK_SIZE {
                self.write_block(b, src)?;
            } else if fresh {
                // A newly allocated block may hold a previous owner's
                // bytes; zero-fill around the written range.
                self.write_fresh(b, |buf| buf[range].copy_from_slice(src))?;
            } else {
                self.edit_block(b, |buf| buf[range].copy_from_slice(src))?;
            }
            pos += src.len() as u64;
            remaining = rest;
        };
        // Only bytes written move the size; a failed write keeps the
        // blocks it linked in, so they are freed with the file.
        let wrote = mapped.is_ok() || pos > offset;
        if wrote {
            inode.size = inode.size.max(pos);
            inode.mtime = self.tick();
        }
        if wrote || inode != before {
            self.write_inode(ino, &inode)?;
        }
        mapped
    }

    fn read_ino(&mut self, ino: u32, offset: u64, len: usize) -> Result<Vec<u8>, FsError> {
        let inode = self.read_inode(ino)?;
        let end = offset.saturating_add(len as u64).min(inode.size);
        if offset >= end {
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity((end - offset) as usize);
        let mut pos = offset;
        while pos < end {
            let idx = (pos / BLOCK_SIZE as u64) as usize;
            let within = (pos % BLOCK_SIZE as u64) as usize;
            let n = ((BLOCK_SIZE - within) as u64).min(end - pos) as usize;
            match self.bmap(&inode, idx)? {
                Some(b) => self.with_block(b as u64, |buf| {
                    out.extend_from_slice(&buf[within..within + n])
                })?,
                None => out.extend(std::iter::repeat_n(0u8, n)), // hole
            }
            pos += n as u64;
        }
        Ok(out)
    }

    /// Writes `data` into the file at byte `offset`, extending it as
    /// needed.
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] when `path` is a directory, plus path and
    /// allocation errors.
    pub fn write_file(&mut self, path: &str, offset: u64, data: &[u8]) -> Result<(), FsError> {
        let ino = self.namei(path)?;
        let inode = self.read_inode(ino)?;
        if inode.is_dir() {
            return Err(FsError::IsADirectory);
        }
        self.write_ino(ino, offset, data)
    }

    /// Reads up to `len` bytes from the file at byte `offset` (short reads
    /// at EOF; holes read as zeroes).
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] when `path` is a directory, plus path
    /// errors.
    pub fn read_file(&mut self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>, FsError> {
        let ino = self.namei(path)?;
        let inode = self.read_inode(ino)?;
        if inode.is_dir() {
            return Err(FsError::IsADirectory);
        }
        self.read_ino(ino, offset, len)
    }

    /// Reads a whole file.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExtFs::read_file`].
    pub fn read_file_to_end(&mut self, path: &str) -> Result<Vec<u8>, FsError> {
        self.read_file(path, 0, usize::MAX)
    }

    /// Removes a file or symlink.
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] for directories (use [`ExtFs::rmdir`]).
    pub fn unlink(&mut self, path: &str) -> Result<(), FsError> {
        let (parent, name) = self.namei_parent(path)?;
        let (ino, _) = self.dir_lookup(parent, name)?.ok_or(FsError::NotFound)?;
        let mut inode = self.read_inode(ino)?;
        if inode.is_dir() {
            return Err(FsError::IsADirectory);
        }
        self.dir_remove(parent, name)?;
        inode.links_count = inode.links_count.saturating_sub(1);
        if inode.links_count == 0 {
            self.free_inode_blocks(&inode)?;
            self.free_inode(ino, false)?;
        } else {
            self.write_inode(ino, &inode)?;
        }
        Ok(())
    }

    /// Removes an empty directory.
    ///
    /// # Errors
    ///
    /// [`FsError::DirNotEmpty`] if it has entries, [`FsError::NotADirectory`]
    /// for non-directories.
    pub fn rmdir(&mut self, path: &str) -> Result<(), FsError> {
        let (parent, name) = self.namei_parent(path)?;
        let (ino, _) = self.dir_lookup(parent, name)?.ok_or(FsError::NotFound)?;
        let inode = self.read_inode(ino)?;
        if !inode.is_dir() {
            return Err(FsError::NotADirectory);
        }
        for b in self.dir_blocks(&inode)? {
            if self.with_block(b, |buf| dirents(buf).any(|e| !e.is_dot()))? {
                return Err(FsError::DirNotEmpty);
            }
        }
        self.dir_remove(parent, name)?;
        self.free_inode_blocks(&inode)?;
        self.free_inode(ino, true)?;
        self.add_links(parent, -1)
    }

    /// Renames `from` to `to` (replacing an existing regular file at
    /// `to`).
    ///
    /// # Errors
    ///
    /// [`FsError::AlreadyExists`] if `to` names a directory; path errors
    /// otherwise.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), FsError> {
        let (from_parent, from_name) = self.namei_parent(from)?;
        let (ino, file_type) = self
            .dir_lookup(from_parent, from_name)?
            .ok_or(FsError::NotFound)?;
        let (to_parent, to_name) = self.namei_parent(to)?;
        // POSIX: renaming a file onto itself is a no-op.
        if from_parent == to_parent && from_name == to_name {
            return Ok(());
        }
        if let Some((existing, _)) = self.dir_lookup(to_parent, to_name)? {
            if existing == ino {
                // Same underlying file reached via both names: no-op.
                return Ok(());
            }
            let existing_inode = self.read_inode(existing)?;
            if existing_inode.is_dir() {
                return Err(FsError::AlreadyExists);
            }
            self.unlink(to)?;
        }
        self.dir_add(to_parent, to_name, ino, file_type)?;
        self.dir_remove(from_parent, from_name)?;
        if file_type == FileType::Directory && from_parent != to_parent {
            // Fix "..".
            self.add_links(from_parent, -1)?;
            self.add_links(to_parent, 1)?;
        }
        Ok(())
    }

    /// Truncates a file to zero length, freeing its blocks.
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] for directories.
    pub fn truncate(&mut self, path: &str) -> Result<(), FsError> {
        let ino = self.namei(path)?;
        let mut inode = self.read_inode(ino)?;
        if inode.is_dir() {
            return Err(FsError::IsADirectory);
        }
        self.free_inode_blocks(&inode)?;
        inode.block = [0; 15];
        inode.size = 0;
        inode.blocks512 = 0;
        inode.mtime = self.tick();
        self.write_inode(ino, &inode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_block::MemDisk;

    fn fs() -> ExtFs<MemDisk> {
        ExtFs::mkfs(MemDisk::with_capacity_bytes(128 << 20)).unwrap()
    }

    /// The bit-at-a-time scan `first_clear_bit` replaced.
    fn first_clear_bit_reference(bitmap: &[u8], limit: usize) -> Option<usize> {
        (0..limit).find(|idx| bitmap[idx / 8] & (1 << (idx % 8)) == 0)
    }

    /// Both group limits and some that are not whole words, at every
    /// fill level from empty to full: filled in index order (allocation's
    /// own order) and in a shuffled one, with the bits past `limit` clear
    /// or set (as mkfs sets the inode bitmap's).
    #[test]
    fn word_scan_matches_bit_scan_at_every_fill_level() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for limit in [
            BLOCKS_PER_GROUP as usize,
            INODES_PER_GROUP as usize,
            1,
            63,
            65,
            4_000,
        ] {
            let mut shuffled: Vec<usize> = (0..limit).collect();
            for i in (1..limit).rev() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                shuffled.swap(i, (x % (i as u64 + 1)) as usize);
            }
            let in_order: Vec<usize> = (0..limit).collect();
            for (order, tail_set) in [(&in_order, false), (&in_order, true), (&shuffled, true)] {
                let mut bitmap = vec![0u8; BLOCK_SIZE];
                if tail_set {
                    (limit..BLOCK_SIZE * 8).for_each(|i| bitmap[i / 8] |= 1 << (i % 8));
                }
                for fill in 0..=limit {
                    assert_eq!(
                        first_clear_bit(&bitmap, limit),
                        first_clear_bit_reference(&bitmap, limit),
                        "limit {limit} fill {fill}"
                    );
                    if let Some(&i) = order.get(fill) {
                        bitmap[i / 8] |= 1 << (i % 8);
                    }
                }
            }
        }
    }

    #[test]
    fn mkfs_then_mount_round_trip() {
        let mut f = fs();
        f.create("/hello.txt").unwrap();
        f.write_file("/hello.txt", 0, b"world").unwrap();
        let dev = f.into_device().unwrap();
        let mut f2 = ExtFs::mount(dev).unwrap();
        assert_eq!(f2.read_file_to_end("/hello.txt").unwrap(), b"world");
        assert_eq!(f2.superblock().magic, EXT_MAGIC);
    }

    #[test]
    fn mount_rejects_blank_device() {
        assert!(matches!(
            ExtFs::mount(MemDisk::with_capacity_bytes(16 << 20)),
            Err(FsError::BadMagic)
        ));
    }

    #[test]
    fn mkfs_rejects_tiny_device() {
        assert!(matches!(
            ExtFs::mkfs(MemDisk::with_capacity_bytes(64 * 1024)),
            Err(FsError::DeviceTooSmall)
        ));
    }

    #[test]
    fn create_write_read_small() {
        let mut f = fs();
        f.create("/a.txt").unwrap();
        f.write_file("/a.txt", 0, b"hello extfs").unwrap();
        assert_eq!(f.read_file_to_end("/a.txt").unwrap(), b"hello extfs");
        // Offsets and short reads.
        assert_eq!(f.read_file("/a.txt", 6, 100).unwrap(), b"extfs");
        let st = f.stat("/a.txt").unwrap();
        assert_eq!(st.size, 11);
        assert!(!st.is_dir);
    }

    #[test]
    fn large_file_uses_indirect_blocks() {
        let mut f = fs();
        f.create("/big").unwrap();
        // 100 blocks > 12 direct: exercises the single indirect path.
        let data: Vec<u8> = (0..100 * BLOCK_SIZE).map(|i| (i % 253) as u8).collect();
        f.write_file("/big", 0, &data).unwrap();
        assert_eq!(f.read_file_to_end("/big").unwrap(), data);
        let st = f.stat("/big").unwrap();
        assert_eq!(st.size, data.len() as u64);
        // i_blocks counts the indirect block too.
        assert!(st.blocks512 > (100 * BLOCK_SIZE / 512) as u32);
    }

    #[test]
    fn very_large_file_uses_double_indirect() {
        let mut f = ExtFs::mkfs(MemDisk::with_capacity_bytes(256 << 20)).unwrap();
        f.create("/huge").unwrap();
        // 12 + 1024 direct+indirect blocks = 4,240 KiB; go past it.
        let blocks = DIRECT_BLOCKS + PTRS_PER_BLOCK + 5;
        let chunk = vec![0xCDu8; BLOCK_SIZE];
        for i in 0..blocks {
            f.write_file("/huge", (i * BLOCK_SIZE) as u64, &chunk)
                .unwrap();
        }
        let st = f.stat("/huge").unwrap();
        assert_eq!(st.size, (blocks * BLOCK_SIZE) as u64);
        // Read back something in the double-indirect region.
        let off = ((DIRECT_BLOCKS + PTRS_PER_BLOCK + 2) * BLOCK_SIZE) as u64;
        assert_eq!(f.read_file("/huge", off, 16).unwrap(), vec![0xCD; 16]);
    }

    #[test]
    fn sparse_files_read_zeroes_in_holes() {
        let mut f = fs();
        f.create("/sparse").unwrap();
        f.write_file("/sparse", 1 << 20, b"tail").unwrap();
        let head = f.read_file("/sparse", 0, 16).unwrap();
        assert_eq!(head, vec![0u8; 16]);
        assert_eq!(f.read_file("/sparse", 1 << 20, 4).unwrap(), b"tail");
    }

    #[test]
    fn directories_nest_and_list() {
        let mut f = fs();
        f.mkdir("/box").unwrap();
        for d in 0..10 {
            f.mkdir(&format!("/box/name{d}")).unwrap();
            for i in 1..=10 {
                f.create(&format!("/box/name{d}/{i}.img")).unwrap();
            }
        }
        let top = f.readdir("/box").unwrap();
        assert_eq!(top.len(), 10);
        let files = f.readdir("/box/name9").unwrap();
        assert_eq!(files.len(), 10);
        assert!(files.iter().all(|e| e.file_type == FileType::Regular));
        assert!(f.stat("/box/name9/7.img").is_ok());
    }

    #[test]
    fn many_entries_overflow_into_second_dir_block() {
        let mut f = fs();
        f.mkdir("/lots").unwrap();
        // ~16 bytes/entry: >300 entries exceed one 4 KiB block.
        for i in 0..300 {
            f.create(&format!("/lots/file_number_{i:04}")).unwrap();
        }
        let entries = f.readdir("/lots").unwrap();
        assert_eq!(entries.len(), 300);
        let st = f.stat("/lots").unwrap();
        assert!(st.size >= 2 * BLOCK_SIZE as u64);
    }

    #[test]
    fn unlink_frees_space() {
        let mut f = fs();
        let free0 = f.superblock().free_blocks_count;
        f.create("/x").unwrap();
        f.write_file("/x", 0, &vec![1u8; 20 * BLOCK_SIZE]).unwrap();
        assert!(f.superblock().free_blocks_count < free0);
        f.unlink("/x").unwrap();
        assert_eq!(f.superblock().free_blocks_count, free0);
        assert_eq!(f.stat("/x"), Err(FsError::NotFound));
        // Name is reusable.
        f.create("/x").unwrap();
    }

    #[test]
    fn rmdir_semantics() {
        let mut f = fs();
        f.mkdir("/d").unwrap();
        f.create("/d/f").unwrap();
        assert_eq!(f.rmdir("/d"), Err(FsError::DirNotEmpty));
        f.unlink("/d/f").unwrap();
        f.rmdir("/d").unwrap();
        assert_eq!(f.stat("/d"), Err(FsError::NotFound));
        f.create("/file").unwrap();
        assert_eq!(f.rmdir("/file"), Err(FsError::NotADirectory));
        assert_eq!(f.unlink("/file"), Ok(()));
    }

    #[test]
    fn rename_moves_and_replaces() {
        let mut f = fs();
        f.mkdir("/a").unwrap();
        f.mkdir("/b").unwrap();
        f.create("/a/f").unwrap();
        f.write_file("/a/f", 0, b"payload").unwrap();
        f.rename("/a/f", "/b/g").unwrap();
        assert_eq!(f.stat("/a/f"), Err(FsError::NotFound));
        assert_eq!(f.read_file_to_end("/b/g").unwrap(), b"payload");
        // Replace an existing file.
        f.create("/b/h").unwrap();
        f.write_file("/b/h", 0, b"old").unwrap();
        f.rename("/b/g", "/b/h").unwrap();
        assert_eq!(f.read_file_to_end("/b/h").unwrap(), b"payload");
        // Directories cannot be replaced.
        f.mkdir("/b/dir").unwrap();
        f.create("/c").unwrap();
        assert_eq!(f.rename("/c", "/b/dir"), Err(FsError::AlreadyExists));
    }

    #[test]
    fn symlink_round_trip() {
        let mut f = fs();
        f.mkdir("/etc").unwrap();
        f.mkdir("/etc/init.d").unwrap();
        f.create("/etc/init.d/DbSecuritySpt").unwrap();
        f.symlink("/etc/S97DbSecuritySpt", "/etc/init.d/DbSecuritySpt")
            .unwrap();
        assert_eq!(
            f.readlink("/etc/S97DbSecuritySpt").unwrap(),
            "/etc/init.d/DbSecuritySpt"
        );
        let st = f.stat("/etc/S97DbSecuritySpt").unwrap();
        assert!(st.is_symlink);
        assert_eq!(
            f.readlink("/etc/init.d/DbSecuritySpt"),
            Err(FsError::InvalidPath)
        );
    }

    #[test]
    fn truncate_frees_blocks() {
        let mut f = fs();
        f.create("/t").unwrap();
        f.write_file("/t", 0, &vec![9u8; 50 * BLOCK_SIZE]).unwrap();
        let free_before = f.superblock().free_blocks_count;
        f.truncate("/t").unwrap();
        assert!(f.superblock().free_blocks_count > free_before);
        assert_eq!(f.stat("/t").unwrap().size, 0);
        assert!(f.read_file_to_end("/t").unwrap().is_empty());
    }

    #[test]
    fn path_errors() {
        let mut f = fs();
        assert_eq!(f.create("relative"), Err(FsError::InvalidPath));
        assert_eq!(f.stat("/missing/deep"), Err(FsError::NotFound));
        f.create("/plain").unwrap();
        assert_eq!(f.create("/plain/under"), Err(FsError::NotADirectory));
        assert_eq!(f.readdir("/plain"), Err(FsError::NotADirectory));
        assert_eq!(f.read_file("/", 0, 1), Err(FsError::IsADirectory));
        let long = "x".repeat(300);
        assert_eq!(f.create(&format!("/{long}")), Err(FsError::InvalidPath));
    }

    #[test]
    fn overwrite_in_place() {
        let mut f = fs();
        f.create("/o").unwrap();
        f.write_file("/o", 0, b"aaaaaaaaaa").unwrap();
        f.write_file("/o", 3, b"BBB").unwrap();
        assert_eq!(f.read_file_to_end("/o").unwrap(), b"aaaBBBaaaa");
        assert_eq!(f.stat("/o").unwrap().size, 10);
    }

    /// A write running past the last mappable block is short: the block
    /// it could map stays in the file (and goes with it), none leaks.
    #[test]
    fn a_failed_write_leaks_no_blocks() {
        let mut f = ExtFs::mkfs(MemDisk::with_capacity_bytes(64 << 20)).unwrap();
        let free = f.superblock().free_blocks_count;
        f.create("/f").unwrap();
        let last = DIRECT_BLOCKS + PTRS_PER_BLOCK + PTRS_PER_BLOCK * PTRS_PER_BLOCK - 1;
        let at = (last * BLOCK_SIZE) as u64;
        let data = vec![3u8; 2 * BLOCK_SIZE];
        assert_eq!(f.write_file("/f", at, &data), Err(FsError::NoSpace));
        // Data, double-indirect and indirect block, all in the file.
        assert_eq!(f.superblock().free_blocks_count, free - 3);
        assert_eq!(
            f.stat("/f").unwrap().blocks512,
            3 * SECTORS_PER_BLOCK as u32
        );
        f.unlink("/f").unwrap();
        assert_eq!(f.superblock().free_blocks_count, free);
    }

    /// A full disk fails the write that needs an index block after its
    /// data block was allocated; the data block is given back.
    #[test]
    fn no_room_for_an_index_block_frees_the_data_block() {
        let mut f = ExtFs::mkfs(MemDisk::with_capacity_bytes(40 << 20)).unwrap();
        f.create("/hog").unwrap();
        f.create("/f").unwrap();
        let block = vec![1u8; BLOCK_SIZE];
        f.write_file("/f", 0, &vec![2u8; DIRECT_BLOCKS * BLOCK_SIZE])
            .unwrap();
        let mut hog = 0;
        while f.superblock().free_blocks_count > 1 {
            f.write_file("/hog", hog, &block[..1]).unwrap();
            hog += BLOCK_SIZE as u64;
        }
        let at = (DIRECT_BLOCKS * BLOCK_SIZE) as u64;
        assert_eq!(f.write_file("/f", at, &block), Err(FsError::NoSpace));
        assert_eq!(f.superblock().free_blocks_count, 1);
        assert_eq!(f.stat("/f").unwrap().size, at);
    }

    #[test]
    fn a_write_that_maps_nothing_leaves_the_file_alone() {
        let mut f = ExtFs::mkfs(MemDisk::with_capacity_bytes(40 << 20)).unwrap();
        f.create("/f").unwrap();
        let before = f.stat("/f").unwrap();
        let free = f.superblock().free_blocks_count;
        // Past double-indirect reach.
        assert_eq!(f.write_file("/f", 1 << 40, b"x"), Err(FsError::NoSpace));
        assert_eq!(f.stat("/f").unwrap(), before);
        assert_eq!(f.superblock().free_blocks_count, free);
        // A full disk, past the end of the file.
        f.create("/fill").unwrap();
        let chunk = vec![7u8; BLOCK_SIZE];
        let mut at = 0;
        while f.write_file("/fill", at, &chunk).is_ok() {
            at += BLOCK_SIZE as u64;
        }
        assert_eq!(f.write_file("/f", 1 << 20, b"x"), Err(FsError::NoSpace));
        assert_eq!(f.stat("/f").unwrap(), before);
    }

    /// A write that fails before writing a byte keeps the index block it
    /// linked in, so unlinking the file frees it.
    #[test]
    fn a_write_that_writes_nothing_keeps_its_index_block_freeable() {
        let mut f = ExtFs::mkfs(MemDisk::with_capacity_bytes(40 << 20)).unwrap();
        f.create("/hog").unwrap();
        f.create("/f").unwrap();
        let mut hog = 0;
        while f.superblock().free_blocks_count > 2 {
            f.write_file("/hog", hog, b"x").unwrap();
            hog += BLOCK_SIZE as u64;
        }
        assert_eq!(f.superblock().free_blocks_count, 2);
        // Data block, then the double-indirect block; no room for the
        // indirect block below it.
        let at = ((DIRECT_BLOCKS + PTRS_PER_BLOCK) * BLOCK_SIZE) as u64;
        assert_eq!(f.write_file("/f", at, b"x"), Err(FsError::NoSpace));
        assert_eq!(f.stat("/f").unwrap().size, 0);
        f.unlink("/f").unwrap();
        assert_eq!(f.superblock().free_blocks_count, 2);
    }

    #[test]
    fn reads_near_the_end_of_the_offset_space_are_empty() {
        let mut f = fs();
        f.create("/a").unwrap();
        f.write_file("/a", 0, b"bytes").unwrap();
        assert_eq!(f.read_file("/a", u64::MAX - 2, 16), Ok(Vec::new()));
        assert_eq!(f.read_file("/a", 2, usize::MAX), Ok(b"tes".to_vec()));
    }

    #[test]
    fn fills_until_no_space() {
        let mut f = ExtFs::mkfs(MemDisk::with_capacity_bytes(40 << 20)).unwrap();
        f.create("/fill").unwrap();
        let chunk = vec![7u8; BLOCK_SIZE];
        let mut written = 0u64;
        let err = loop {
            match f.write_file("/fill", written, &chunk) {
                Ok(()) => written += BLOCK_SIZE as u64,
                Err(e) => break e,
            }
        };
        assert_eq!(err, FsError::NoSpace);
        assert!(written > 20 << 20, "only wrote {written} bytes");
        // The filesystem remains consistent: reads still work.
        assert_eq!(f.read_file("/fill", 0, 8).unwrap(), vec![7u8; 8]);
    }
}
