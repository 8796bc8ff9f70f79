//! Semantics reconstruction: raw block accesses → file-level operations.
//!
//! Middle-boxes only see "disk sectors, raw data blocks, and inodes
//! information" (paper §III-C); monitoring and replication policies speak
//! files and directories. The [`Reconstructor`] bridges that gap:
//!
//! 1. **Attach time** — a [`FsView`] (dumpe2fs equivalent) fixes the
//!    metadata geometry, and a walk from the root inode builds the initial
//!    inode→path and block→owner maps.
//! 2. **Run time** — every intercepted write is classified; inode-table
//!    writes update sizes and block pointers, directory-block writes bind
//!    names, indirect-block writes extend block ownership. The maps live
//!    in hash tables "for fast searching" exactly as §IV describes; the
//!    directory table is kept per directory *block*, the unit a write
//!    replaces, so a directory costs what its written block holds, not
//!    what the directory holds.
//! 3. **Query** — each I/O yields [`FsAccess`] rows (the paper's Table I)
//!    and higher-level [`FsEvent`]s (create/unlink) for the monitor's
//!    analysis phase.

// Parses tenant-written bytes, so it must not abort; its one copy is the
// bounded stash of blocks written before their inode, not a forwarded payload.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use std::hash::RandomState;
use std::rc::Rc;

use storm_block::BlockDevice;
use storm_extfs::{
    block_pointers, dirents, Dirent, FileType, FsView, Inode, Region, BLOCK_SIZE, INODE_SIZE,
    ROOT_INO, SECTORS_PER_BLOCK,
};
use storm_sim::IdMap;

/// Read or write, as carried by the SCSI command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsOp {
    /// Data read from the volume.
    Read,
    /// Data written to the volume.
    Write,
}

impl std::fmt::Display for FsOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsOp::Read => write!(f, "read"),
            FsOp::Write => write!(f, "write"),
        }
    }
}

/// What a block access touched, in file-level terms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FsTargetKind {
    /// Contents of a regular file (or symlink target data).
    File {
        /// Full path (mount-prefixed), or `inode-N` if the name is not
        /// yet known.
        path: String,
    },
    /// A directory's entry block (Table I prints these as `<dir>/.`).
    Dir {
        /// Full path.
        path: String,
    },
    /// Filesystem metadata (`inode_group_N`, `superblock`, bitmaps…).
    Meta {
        /// Metadata kind label.
        kind: String,
    },
    /// An indirect pointer block of a file.
    Indirect {
        /// Owning file's path.
        path: String,
    },
    /// Not yet classifiable: a data block whose owning inode has not been
    /// written back yet (fresh allocations). The monitor's analysis phase
    /// re-classifies these via [`Reconstructor::reclassify`] once the
    /// inode-table write has been observed.
    Unknown {
        /// The filesystem block in question.
        block: u64,
    },
}

impl std::fmt::Display for FsTargetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsTargetKind::File { path } => write!(f, "{path}"),
            FsTargetKind::Dir { path } => write!(f, "{path}/."),
            FsTargetKind::Meta { kind } => write!(f, "META: {kind}"),
            FsTargetKind::Indirect { path } => write!(f, "INDIRECT: {path}"),
            FsTargetKind::Unknown { block } => write!(f, "UNKNOWN block {block}"),
        }
    }
}

/// One reconstructed access row (a Table I line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsAccess {
    /// Read or write.
    pub op: FsOp,
    /// What was accessed.
    pub target: FsTargetKind,
    /// Bytes in this (merged) access.
    pub bytes: usize,
}

impl std::fmt::Display for FsAccess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {}", self.op, self.target, self.bytes)
    }
}

/// A higher-level filesystem event inferred from metadata writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsEvent {
    /// A name appeared in a directory.
    Created {
        /// Full path.
        path: String,
        /// Entry type.
        file_type: FileType,
    },
    /// A name disappeared from a directory.
    Unlinked {
        /// Full path.
        path: String,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockRole {
    FileData(u32),
    DirData(u32),
    Indirect(u32),
    DoubleIndirect(u32),
}

#[derive(Debug, Clone, Copy, Default)]
struct InodeLite {
    mode: u16,
    links: u16,
    block: [u32; 15],
}

/// One known name of a directory: the inode it binds and the directory
/// block its dirent lives in.
#[derive(Debug, Clone, Copy)]
struct Child {
    ino: u32,
    block: u64,
}

/// [`Child::block`] of a name that left its block in the write being
/// applied and has not turned up again yet; never outlives
/// [`Reconstructor::update_directory`].
const LEFT: u64 = u64::MAX;

/// The reconstruction engine.
#[derive(Debug)]
pub struct Reconstructor {
    view: FsView,
    mount: String,
    inodes: IdMap<u32, InodeLite, RandomState>,
    paths: IdMap<u32, String, RandomState>,
    /// Directory inode → name → what the name binds and where it lives.
    children: IdMap<u32, IdMap<Rc<str>, Child, RandomState>, RandomState>,
    /// Directory block → the `(name, inode)` pairs it held when last
    /// written, in block order (`.`/`..` left out): what the next write
    /// of that block is diffed against. Names are shared with `children`.
    held: IdMap<u64, Vec<(Rc<str>, u32)>, RandomState>,
    owner: IdMap<u64, BlockRole, RandomState>,
    events: Vec<FsEvent>,
    /// Recent data-region writes whose owner was unknown at write time.
    /// Metadata usually lands *after* the data it points to (allocate,
    /// write data/indirect content, then write the inode), so when a role
    /// arrives late the block's content is replayed from here.
    recent_writes: IdMap<u64, Vec<u8>, RandomState>,
    recent_order: std::collections::VecDeque<u64>,
    /// When set, directory writes go to the whole-directory table the
    /// per-block one replaced, kept as the reference it is checked against.
    #[cfg(test)]
    reference: Option<std::collections::BTreeMap<u32, std::collections::BTreeMap<String, u32>>>,
}

/// Bound on the deferred-content cache (4096 blocks = 16 MiB).
const RECENT_CAP: usize = 4096;

impl Reconstructor {
    /// Builds the initial system view from an attached device. `mount` is
    /// the path prefix the tenant mounts the volume at (e.g. `/mnt/box`).
    ///
    /// # Errors
    ///
    /// Propagates [`storm_extfs::FsError`] from reading the volume.
    pub fn from_device<D: BlockDevice>(
        dev: &mut D,
        mount: impl Into<String>,
    ) -> Result<Reconstructor, storm_extfs::FsError> {
        let view = FsView::from_device(dev)?;
        let mut r = Reconstructor {
            view,
            mount: mount.into(),
            inodes: IdMap::default(),
            paths: IdMap::default(),
            children: IdMap::default(),
            held: IdMap::default(),
            owner: IdMap::default(),
            events: Vec::new(),
            recent_writes: IdMap::default(),
            recent_order: std::collections::VecDeque::new(),
            #[cfg(test)]
            reference: None,
        };
        r.paths.insert(ROOT_INO, r.mount.clone());
        r.walk(dev, ROOT_INO)?;
        r.events.clear(); // bootstrap discoveries are not runtime events
        Ok(r)
    }

    /// The layout view.
    pub fn view(&self) -> &FsView {
        &self.view
    }

    /// Current path of inode `ino`, if known.
    pub fn path_of(&self, ino: u32) -> Option<&str> {
        self.paths.get(&ino).map(String::as_str)
    }

    /// Number of blocks with known owners (hash-table size, paper §IV).
    pub fn tracked_blocks(&self) -> usize {
        self.owner.len()
    }

    /// Drains inferred create/unlink events.
    pub fn take_events(&mut self) -> Vec<FsEvent> {
        std::mem::take(&mut self.events)
    }

    /// Analysis-phase re-classification: rows recorded while a block's
    /// owner was unknown (data written before its inode) resolve once the
    /// metadata has been observed. Known rows also refresh their path
    /// (renames).
    pub fn reclassify(&self, access: &FsAccess) -> FsAccess {
        match &access.target {
            FsTargetKind::Unknown { block } => FsAccess {
                op: access.op,
                target: self.classify(*block),
                bytes: access.bytes,
            },
            _ => access.clone(),
        }
    }

    fn read_block<D: BlockDevice>(dev: &mut D, bno: u64) -> Result<Vec<u8>, storm_extfs::FsError> {
        let mut buf = vec![0u8; BLOCK_SIZE];
        dev.read(bno * SECTORS_PER_BLOCK, &mut buf)?;
        Ok(buf)
    }

    fn read_inode<D: BlockDevice>(
        &self,
        dev: &mut D,
        ino: u32,
    ) -> Result<Inode, storm_extfs::FsError> {
        let (block, off) = self.view.inode_location(ino);
        let buf = Self::read_block(dev, block)?;
        let (slots, _) = buf.as_chunks();
        Ok(Inode::from_bytes(&slots[off / INODE_SIZE]))
    }

    /// Registers `ino` and, for a directory, everything its entries name.
    /// An inode is walked once: the tenant writes the image, and a
    /// directory that names one of its own ancestors (or a file with two
    /// links) must not send the walk round again — `inodes` is the
    /// visited set, so the recursion is bounded by the inode count.
    fn walk<D: BlockDevice>(&mut self, dev: &mut D, ino: u32) -> Result<(), storm_extfs::FsError> {
        if self.inodes.contains_key(&ino) {
            return Ok(());
        }
        let inode = self.read_inode(dev, ino)?;
        self.register_inode(ino, &InodeLite::from(&inode));
        if inode.is_dir() {
            for b in inode.block[..12].iter().copied().filter(|&b| b != 0) {
                let buf = Self::read_block(dev, b as u64)?;
                self.update_directory(ino, b as u64, &buf);
                for e in dirents(&buf).filter(|e| !e.is_dot()) {
                    self.walk(dev, e.inode)?;
                }
            }
        } else {
            // Resolve indirect pointers so data blocks map to this file.
            if inode.block[12] != 0 {
                let buf = Self::read_block(dev, inode.block[12] as u64)?;
                self.absorb_indirect(ino, &buf);
            }
            if inode.block[13] != 0 {
                let outer = Self::read_block(dev, inode.block[13] as u64)?;
                for p in block_pointers(&outer) {
                    self.owner.insert(p as u64, BlockRole::Indirect(ino));
                    let buf = Self::read_block(dev, p as u64)?;
                    self.absorb_indirect(ino, &buf);
                }
            }
        }
        Ok(())
    }

    fn register_inode(&mut self, ino: u32, new: &InodeLite) {
        // Retire owners of blocks this inode no longer points at (truncate
        // frees blocks whose stale attribution would otherwise linger).
        if let Some(old) = self.inodes.get(&ino).copied() {
            for &b in &old.block {
                if b != 0 && !new.block.contains(&b) {
                    self.owner.remove(&(b as u64));
                }
            }
        }
        for (slot, &b) in new.block.iter().enumerate() {
            if b == 0 {
                continue;
            }
            let role = match slot {
                0..=11 => data_role(new.mode, ino),
                12 => BlockRole::Indirect(ino),
                _ => BlockRole::DoubleIndirect(ino),
            };
            self.assign_role(b as u64, role);
        }
        self.inodes.insert(ino, *new);
    }

    /// Assigns a role to a block, replaying any cached content that was
    /// written before the role was known.
    fn assign_role(&mut self, bno: u64, role: BlockRole) {
        if self.owner.insert(bno, role) == Some(role) {
            return;
        }
        if let Some(content) = self.recent_writes.remove(&bno) {
            self.absorb_block(bno, role, &content);
        }
    }

    /// Applies the content of whole block `bno`, whose role is known, to
    /// the view: names for a directory block, roles for the blocks an
    /// indirect block points at.
    fn absorb_block(&mut self, bno: u64, role: BlockRole, content: &[u8]) {
        match role {
            BlockRole::DirData(ino) => self.update_directory(ino, bno, content),
            BlockRole::Indirect(ino) => self.absorb_indirect(ino, content),
            BlockRole::DoubleIndirect(ino) => {
                for p in block_pointers(content) {
                    self.assign_role(p as u64, BlockRole::Indirect(ino));
                }
            }
            BlockRole::FileData(_) => {}
        }
    }

    fn absorb_indirect(&mut self, ino: u32, data: &[u8]) {
        let role = data_role(self.inodes.get(&ino).map_or(0, |i| i.mode), ino);
        for p in block_pointers(data) {
            self.assign_role(p as u64, role);
        }
    }

    fn remember_write(&mut self, bno: u64, content: &[u8]) {
        if self.recent_writes.insert(bno, content.to_vec()).is_none() {
            self.recent_order.push_back(bno);
            while self.recent_order.len() > RECENT_CAP {
                if let Some(old) = self.recent_order.pop_front() {
                    self.recent_writes.remove(&old);
                }
            }
        }
    }

    fn display_path(&self, ino: u32) -> String {
        self.paths
            .get(&ino)
            .cloned()
            .unwrap_or_else(|| format!("{}/inode-{ino}", self.mount))
    }

    fn classify(&self, bno: u64) -> FsTargetKind {
        match self.view.classify_block(bno) {
            Region::Superblock => FsTargetKind::Meta {
                kind: "superblock".into(),
            },
            Region::GroupDescTable => FsTargetKind::Meta {
                kind: "group_desc_table".into(),
            },
            Region::BlockBitmap { group } => FsTargetKind::Meta {
                kind: format!("block_bitmap_{group}"),
            },
            Region::InodeBitmap { group } => FsTargetKind::Meta {
                kind: format!("inode_bitmap_{group}"),
            },
            Region::InodeTable { group, .. } => FsTargetKind::Meta {
                kind: format!("inode_group_{group}"),
            },
            Region::Beyond => FsTargetKind::Unknown { block: bno },
            Region::Data => match self.owner.get(&bno) {
                Some(BlockRole::FileData(ino)) => FsTargetKind::File {
                    path: self.display_path(*ino),
                },
                Some(BlockRole::DirData(ino)) => FsTargetKind::Dir {
                    path: self.display_path(*ino),
                },
                Some(BlockRole::Indirect(ino)) | Some(BlockRole::DoubleIndirect(ino)) => {
                    FsTargetKind::Indirect {
                        path: self.display_path(*ino),
                    }
                }
                None => FsTargetKind::Unknown { block: bno },
            },
        }
    }

    /// Observes one intercepted I/O. `lba` is the starting 512-byte
    /// sector; for writes, `data` carries the payload (used to update the
    /// system view); for reads pass `None`.
    ///
    /// Returns Table-I style access rows, one per contiguous
    /// same-classification run. `lba` and `len` come off the wire: an
    /// access of no bytes, or one running past the last addressable
    /// sector, yields no rows and touches no state.
    pub fn observe(
        &mut self,
        op: FsOp,
        lba: u64,
        len: usize,
        data: Option<&[u8]>,
    ) -> Vec<FsAccess> {
        let more = (len as u64).div_ceil(512).checked_sub(1);
        let Some(last_sector) = more.and_then(|more| lba.checked_add(more)) else {
            return Vec::new();
        };
        // Update phase first (writes refresh the view), then classify.
        if let (FsOp::Write, Some(data)) = (op, data) {
            self.update_from_write(lba, data);
        }
        let mut rows: Vec<FsAccess> = Vec::new();
        // Bytes of the access not yet attributed, and how many of them
        // the block at hand can take.
        let mut left = len;
        let mut room = BLOCK_SIZE - (lba % SECTORS_PER_BLOCK) as usize * 512;
        for bno in lba / SECTORS_PER_BLOCK..=last_sector / SECTORS_PER_BLOCK {
            let target = self.classify(bno);
            let bytes = left.min(room);
            left -= bytes;
            room = BLOCK_SIZE;
            match rows.last_mut() {
                Some(last) if last.target == target => last.bytes += bytes,
                _ => rows.push(FsAccess { op, target, bytes }),
            }
        }
        rows
    }

    /// Applies a write's contents to the tracked system view, one
    /// filesystem block's worth of `data` at a time.
    fn update_from_write(&mut self, lba: u64, mut data: &[u8]) {
        let mut bno = lba / SECTORS_PER_BLOCK;
        let mut offset_in_block = (lba % SECTORS_PER_BLOCK) as usize * 512;
        while !data.is_empty() {
            let (slice, rest) = data.split_at(data.len().min(BLOCK_SIZE - offset_in_block));
            let whole_block = slice.len() == BLOCK_SIZE;
            match self.view.classify_block(bno) {
                Region::InodeTable { .. } => {
                    self.update_inode_table(bno, offset_in_block, slice);
                }
                Region::Data if whole_block => match self.owner.get(&bno).copied() {
                    Some(role) => self.absorb_block(bno, role, slice),
                    // Owner not known yet: stash content for late role
                    // assignment.
                    None => self.remember_write(bno, slice),
                },
                _ => {}
            }
            data = rest;
            offset_in_block = 0;
            bno += 1;
        }
    }

    fn update_inode_table(&mut self, bno: u64, offset: usize, slice: &[u8]) {
        let Some(inos) = self.view.inodes_in_block(bno) else {
            return;
        };
        // Parse every whole inode slot covered by the write.
        let first_slot = offset.div_ceil(INODE_SIZE);
        let Some(whole) = slice.get(first_slot * INODE_SIZE - offset..) else {
            return;
        };
        let (slots, _) = whole.as_chunks();
        for (ino, raw) in (inos.start + first_slot as u32..).zip(slots) {
            let inode = Inode::from_bytes(raw);
            let lite = InodeLite::from(&inode);
            if lite.links == 0 && lite.mode == 0 {
                // Freed: retire block ownership.
                if let Some(old) = self.inodes.remove(&ino) {
                    for &b in &old.block {
                        if b != 0 {
                            self.owner.remove(&(b as u64));
                        }
                    }
                }
                continue;
            }
            self.register_inode(ino, &lite);
        }
    }

    /// Applies a whole-block write of directory block `bno` of `dir_ino`.
    ///
    /// The block is diffed against what it held when last written: the
    /// entries both versions share at the front and at the back cost one
    /// comparison each, and only the span between them — usually the one
    /// record an operation added or dropped — reaches the hash tables.
    /// A name of that span that is bound to the same inode elsewhere in
    /// the directory (another block, or further along in this one) has
    /// moved: no event. Everything else that came is a create, everything
    /// else that went an unlink, for a directory of any number of blocks.
    fn update_directory(&mut self, dir_ino: u32, bno: u64, block: &[u8]) {
        #[cfg(test)]
        if self.reference.is_some() {
            return tests::reference_update_directory(self, dir_ino, block);
        }
        let new: Vec<Dirent<'_>> = dirents(block).filter(|e| !e.is_dot()).collect();
        let mut old = self.held.remove(&bno).unwrap_or_default();
        let same =
            |(was, is): &(&(Rc<str>, u32), &Dirent<'_>)| was.1 == is.inode && *was.0 == *is.name;
        let head = old.iter().zip(&new).take_while(same).count();
        let tail = old[head..]
            .iter()
            .rev()
            .zip(new[head..].iter().rev())
            .take_while(same)
            .count();
        let went = head..old.len() - tail;
        let came = &new[head..new.len() - tail];
        let parent_path = self.display_path(dir_ino);
        let known = self.children.entry(dir_ino).or_default();
        for (name, ino) in &old[went.clone()] {
            if let Some(child) = known.get_mut(name) {
                if child.ino == *ino && child.block == bno {
                    child.block = LEFT;
                }
            }
        }
        let mut fresh = Vec::with_capacity(came.len());
        for e in came {
            let name = match known.get_key_value(e.name) {
                Some((name, child)) if child.ino == e.inode => name.clone(),
                _ => {
                    let path = format!("{parent_path}/{}", e.name);
                    self.paths.insert(e.inode, path.clone());
                    self.events.push(FsEvent::Created {
                        path,
                        file_type: e.file_type,
                    });
                    Rc::from(e.name)
                }
            };
            let child = Child {
                ino: e.inode,
                block: bno,
            };
            known.insert(name.clone(), child);
            fresh.push((name, e.inode));
        }
        for (name, ino) in old.splice(went, fresh) {
            if known.get(&name).is_some_and(|c| c.block == LEFT) {
                known.remove(&name);
                let path = format!("{parent_path}/{name}");
                if self.paths.get(&ino) == Some(&path) {
                    self.paths.remove(&ino);
                }
                self.events.push(FsEvent::Unlinked { path });
            }
        }
        self.held.insert(bno, old);
    }
}

/// The role of a data block of `ino`, which its inode's mode decides.
fn data_role(mode: u16, ino: u32) -> BlockRole {
    if mode & 0xF000 == 0x4000 {
        BlockRole::DirData(ino)
    } else {
        BlockRole::FileData(ino)
    }
}

impl From<&Inode> for InodeLite {
    fn from(inode: &Inode) -> InodeLite {
        InodeLite {
            mode: inode.mode,
            links: inode.links_count,
            block: inode.block,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use storm_block::{AccessKind, MemDisk, RecordingDevice};
    use storm_extfs::ExtFs;
    use storm_sim::SimRng;

    /// `update_directory` as it was before the per-block table: the block
    /// rebuilt as owned entries, diffed against every name of the
    /// directory, removals honoured for single-block directories only.
    pub(super) fn reference_update_directory(r: &mut Reconstructor, dir_ino: u32, block: &[u8]) {
        let parent_path = r.display_path(dir_ino);
        let entries: Vec<(String, u32, FileType)> = dirents(block)
            .filter(|e| !e.is_dot())
            .map(|e| (e.name.to_owned(), e.inode, e.file_type))
            .collect();
        let fresh: BTreeMap<&str, u32> = entries.iter().map(|e| (e.0.as_str(), e.1)).collect();
        let children = r.reference.as_mut().expect("reference mode");
        let known = children.entry(dir_ino).or_default();
        let created: Vec<_> = entries
            .iter()
            .filter(|(name, ino, _)| known.get(name) != Some(ino))
            .collect();
        let removed: Vec<(String, u32)> = known
            .iter()
            .filter(|(name, _)| !fresh.contains_key(name.as_str()))
            .map(|(n, i)| (n.clone(), *i))
            .collect();
        for (name, ino, ft) in created {
            let path = format!("{parent_path}/{name}");
            r.paths.insert(*ino, path.clone());
            known.insert(name.clone(), *ino);
            r.events.push(FsEvent::Created {
                path,
                file_type: *ft,
            });
        }
        let dir_has_single_block = r
            .inodes
            .get(&dir_ino)
            .map(|i| i.block[1] == 0 && i.block[12] == 0)
            .unwrap_or(true);
        if dir_has_single_block {
            for (name, ino) in removed {
                let path = format!("{parent_path}/{name}");
                known.remove(&name);
                if r.paths.get(&ino).map(String::as_str) == Some(path.as_str()) {
                    r.paths.remove(&ino);
                }
                r.events.push(FsEvent::Unlinked { path });
            }
        }
    }

    /// Switches a bootstrapped reconstructor to the reference directory
    /// table, seeded with the names the bootstrap walk found.
    fn into_reference(mut r: Reconstructor) -> Reconstructor {
        let seeded = r
            .children
            .sorted()
            .into_iter()
            .map(|(dir, names)| {
                let names = names.sorted().into_iter();
                (*dir, names.map(|(n, c)| (n.to_string(), c.ino)).collect())
            })
            .collect();
        r.reference = Some(seeded);
        r
    }

    fn tracked_names(r: &Reconstructor) -> usize {
        r.children
            .sorted()
            .iter()
            .map(|(_, names)| names.len())
            .sum()
    }

    /// Builds a populated fs, returns (device, reconstructor bootstrapped
    /// at this point).
    fn setup() -> (ExtFs<RecordingDevice<MemDisk>>, Reconstructor) {
        let dev = RecordingDevice::new(MemDisk::with_capacity_bytes(128 << 20));
        let mut fs = ExtFs::mkfs(dev).unwrap();
        for d in 0..10 {
            fs.mkdir(&format!("/name{d}")).unwrap();
            for i in 1..=10 {
                fs.create(&format!("/name{d}/{i}.img")).unwrap();
            }
        }
        fs.write_file("/name1/1.img", 0, &vec![1u8; 8192]).unwrap();
        fs.sync().unwrap();
        fs.device_mut().take_log();
        let recon = Reconstructor::from_device(fs.device_mut().inner_mut(), "/mnt/box").unwrap();
        (fs, recon)
    }

    /// Replays a recording log through the reconstructor, applying the
    /// analysis-phase re-classification at the end (as the monitor does).
    fn replay(recon: &mut Reconstructor, log: Vec<storm_block::AccessRecord>) -> Vec<FsAccess> {
        let mut rows = Vec::new();
        for rec in log {
            let (op, data) = match rec.kind {
                AccessKind::Read => (FsOp::Read, None),
                AccessKind::Write => (FsOp::Write, Some(&rec.data[..])),
            };
            rows.extend(recon.observe(op, rec.lba, rec.len_bytes(), data));
        }
        rows.iter().map(|r| recon.reclassify(r)).collect()
    }

    #[test]
    fn bootstrap_knows_existing_tree() {
        let (_fs, recon) = setup();
        assert_eq!(recon.path_of(ROOT_INO), Some("/mnt/box"));
        assert!(recon.tracked_blocks() > 10);
    }

    #[test]
    fn a_directory_that_names_its_ancestor_is_walked_once() {
        let mut fs = ExtFs::mkfs(MemDisk::with_capacity_bytes(32 << 20)).unwrap();
        fs.mkdir("/sub").unwrap();
        fs.create("/sub/loop").unwrap();
        fs.mkdir("/sub/deeper").unwrap();
        fs.create("/sub/deeper/leaf").unwrap();
        fs.mkdir("/other").unwrap();
        fs.create("/other/data").unwrap();
        fs.write_file("/other/data", 0, &vec![3u8; 8192]).unwrap();
        fs.sync().unwrap();
        let dev = fs.device_mut();
        let clean = Reconstructor::from_device(dev, "/mnt/box").unwrap();
        let ino_of = |path: &str| {
            let found = clean.paths.sorted().into_iter().find(|(_, p)| *p == path);
            *found.unwrap().0
        };
        let sub = ino_of("/mnt/box/sub");
        let (&bno, _) = clean
            .owner
            .sorted()
            .into_iter()
            .find(|(_, role)| **role == BlockRole::DirData(sub))
            .unwrap();
        // Point /sub/loop back at the root: root → sub → root → ...
        let mut block = Reconstructor::read_block(dev, bno).unwrap();
        let at = dirents(&block).find(|e| e.name == "loop").unwrap().offset;
        block[at..at + 4].copy_from_slice(&ROOT_INO.to_le_bytes());
        dev.write(bno * SECTORS_PER_BLOCK, &block).unwrap();

        let looped = Reconstructor::from_device(dev, "/mnt/box").unwrap();
        for path in [
            "/mnt/box/sub/deeper/leaf",
            "/mnt/box/other",
            "/mnt/box/other/data",
        ] {
            assert_eq!(looped.path_of(ino_of(path)), Some(path));
        }
        // Only the inode /sub/loop used to name is out of the picture.
        assert_eq!(looped.inodes.len(), clean.inodes.len() - 1);
        assert_eq!(looped.tracked_blocks(), clean.tracked_blocks());
    }

    #[test]
    fn reconstructs_file_write_with_path() {
        let (mut fs, mut recon) = setup();
        fs.write_file("/name9/7.img", 0, &vec![7u8; 16384]).unwrap();
        fs.sync().unwrap();
        let rows = replay(&mut recon, fs.device_mut().take_log());
        let file_writes: Vec<&FsAccess> = rows
            .iter()
            .filter(|r| {
                r.op == FsOp::Write
                    && matches!(&r.target, FsTargetKind::File { path } if path == "/mnt/box/name9/7.img")
            })
            .collect();
        let total: usize = file_writes.iter().map(|r| r.bytes).sum();
        assert_eq!(total, 16384, "rows: {rows:?}");
    }

    #[test]
    fn reconstructs_reads_of_directories_and_files() {
        let (mut fs, mut recon) = setup();
        let _ = fs.readdir("/name1").unwrap();
        let _ = fs.read_file_to_end("/name1/1.img").unwrap();
        let rows = replay(&mut recon, fs.device_mut().take_log());
        assert!(
            rows.iter().any(|r| matches!(
                &r.target,
                FsTargetKind::Dir { path } if path == "/mnt/box/name1"
            )),
            "rows: {rows:?}"
        );
        assert!(rows.iter().any(|r| r.op == FsOp::Read
            && matches!(&r.target, FsTargetKind::File { path } if path == "/mnt/box/name1/1.img")));
        // Metadata reads show up as inode-group rows (Table I rows 2-34).
        assert!(rows.iter().any(
            |r| matches!(&r.target, FsTargetKind::Meta { kind } if kind.starts_with("inode_group"))
        ));
    }

    #[test]
    fn new_file_creation_is_detected() {
        let (mut fs, mut recon) = setup();
        fs.create("/name0/fresh.bin").unwrap();
        fs.write_file("/name0/fresh.bin", 0, &vec![3u8; 4096])
            .unwrap();
        fs.sync().unwrap();
        let rows = replay(&mut recon, fs.device_mut().take_log());
        let events = recon.take_events();
        assert!(
            events.contains(&FsEvent::Created {
                path: "/mnt/box/name0/fresh.bin".into(),
                file_type: FileType::Regular
            }),
            "events: {events:?}"
        );
        // The data write is attributed to the new path.
        assert!(rows.iter().any(|r| r.op == FsOp::Write
            && matches!(&r.target, FsTargetKind::File { path } if path == "/mnt/box/name0/fresh.bin")));
    }

    #[test]
    fn unlink_is_detected() {
        let (mut fs, mut recon) = setup();
        fs.unlink("/name2/3.img").unwrap();
        fs.sync().unwrap();
        let _ = replay(&mut recon, fs.device_mut().take_log());
        let events = recon.take_events();
        assert!(
            events.contains(&FsEvent::Unlinked {
                path: "/mnt/box/name2/3.img".into()
            }),
            "events: {events:?}"
        );
    }

    #[test]
    fn rename_produces_create_and_unlink() {
        let (mut fs, mut recon) = setup();
        fs.rename("/name3/4.img", "/name4/moved.img").unwrap();
        fs.sync().unwrap();
        let _ = replay(&mut recon, fs.device_mut().take_log());
        let events = recon.take_events();
        assert!(events.iter().any(
            |e| matches!(e, FsEvent::Created { path, .. } if path == "/mnt/box/name4/moved.img")
        ));
        assert!(events
            .iter()
            .any(|e| matches!(e, FsEvent::Unlinked { path } if path == "/mnt/box/name3/4.img")));
    }

    #[test]
    fn large_file_indirect_blocks_tracked() {
        let (mut fs, mut recon) = setup();
        fs.create("/name5/big.dat").unwrap();
        fs.sync().unwrap();
        let _ = replay(&mut recon, fs.device_mut().take_log());
        // 80 blocks: goes through the single-indirect block.
        fs.write_file("/name5/big.dat", 0, &vec![5u8; 80 * BLOCK_SIZE])
            .unwrap();
        fs.sync().unwrap();
        let rows = replay(&mut recon, fs.device_mut().take_log());
        let attributed: usize = rows
            .iter()
            .filter(|r| {
                r.op == FsOp::Write
                    && matches!(&r.target, FsTargetKind::File { path } if path == "/mnt/box/name5/big.dat")
            })
            .map(|r| r.bytes)
            .sum();
        assert_eq!(
            attributed,
            80 * BLOCK_SIZE,
            "indirect data must be attributed"
        );
        // Now read it back: reads of indirect region resolve too.
        let _ = fs.read_file_to_end("/name5/big.dat").unwrap();
        let rows = replay(&mut recon, fs.device_mut().take_log());
        let read_bytes: usize = rows
            .iter()
            .filter(|r| {
                r.op == FsOp::Read
                    && matches!(&r.target, FsTargetKind::File { path } if path == "/mnt/box/name5/big.dat")
            })
            .map(|r| r.bytes)
            .sum();
        assert!(read_bytes >= 80 * BLOCK_SIZE);
    }

    #[test]
    fn display_formats_match_table_style() {
        let row = FsAccess {
            op: FsOp::Read,
            target: FsTargetKind::Dir {
                path: "/mnt/box".into(),
            },
            bytes: 4096,
        };
        assert_eq!(row.to_string(), "read /mnt/box/. 4096");
        let row = FsAccess {
            op: FsOp::Write,
            target: FsTargetKind::Meta {
                kind: "inode_group_0".into(),
            },
            bytes: 4096,
        };
        assert_eq!(row.to_string(), "write META: inode_group_0 4096");
    }

    #[test]
    fn observe_merges_contiguous_runs() {
        let (mut fs, mut recon) = setup();
        fs.write_file("/name1/2.img", 0, &vec![2u8; 32768]).unwrap();
        fs.sync().unwrap();
        let log = fs.device_mut().take_log();
        // Collapse the multi-block file write into one logical observe.
        let big = log
            .iter()
            .find(|r| r.kind == AccessKind::Write && r.len_bytes() == 32768);
        if let Some(rec) = big {
            let rows = recon.observe(FsOp::Write, rec.lba, rec.len_bytes(), Some(&rec.data));
            // Contiguous blocks of the same file merge into one row.
            assert_eq!(rows.len(), 1, "rows: {rows:?}");
            assert_eq!(rows[0].bytes, 32768);
        }
    }

    #[test]
    fn empty_and_unaddressable_accesses_yield_no_rows_and_touch_nothing() {
        let (_fs, mut recon) = setup();
        let tracked = recon.tracked_blocks();
        for lba in [0, 8, 1 << 40] {
            assert_eq!(recon.observe(FsOp::Read, lba, 0, None), vec![]);
            assert_eq!(recon.observe(FsOp::Write, lba, 0, Some(&[])), vec![]);
        }
        // The last sector lies beyond u64: refused, not wrapped.
        assert_eq!(recon.observe(FsOp::Read, u64::MAX, 1024, None), vec![]);
        let block = vec![0u8; BLOCK_SIZE];
        assert_eq!(
            recon.observe(FsOp::Write, u64::MAX - 3, BLOCK_SIZE, Some(&block)),
            vec![]
        );
        // The last addressable sector itself is an access like any other:
        // far beyond the volume, so unclassifiable.
        let rows = recon.observe(FsOp::Write, u64::MAX - 7, BLOCK_SIZE, Some(&block));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].bytes, BLOCK_SIZE);
        assert!(matches!(rows[0].target, FsTargetKind::Unknown { .. }));
        assert_eq!(recon.tracked_blocks(), tracked);
        assert!(recon.recent_writes.is_empty() && recon.take_events().is_empty());
    }

    #[test]
    fn unaligned_access_splits_its_bytes_at_block_boundaries() {
        let (_fs, mut recon) = setup();
        // Sectors 7..=9 of the volume: the last sector of block 0 (the
        // superblock) and the first two of block 1 (the descriptor table).
        let rows = recon.observe(FsOp::Read, 7, 1300, None);
        let got: Vec<(String, usize)> = rows
            .iter()
            .map(|r| (r.target.to_string(), r.bytes))
            .collect();
        assert_eq!(
            got,
            vec![
                ("META: superblock".to_string(), 512),
                ("META: group_desc_table".to_string(), 788)
            ]
        );
    }

    /// A directory of 300 files spans two blocks: unlinks are reported
    /// from either, and the tables track the live names, not every name
    /// ever seen.
    #[test]
    fn multi_block_directory_reports_unlinks_and_stays_bounded() {
        let dev = RecordingDevice::new(MemDisk::with_capacity_bytes(64 << 20));
        let mut fs = ExtFs::mkfs(dev).unwrap();
        fs.mkdir("/mail").unwrap();
        let name = |i: usize| format!("/mail/message-{i:05}");
        for i in 0..300 {
            fs.create(&name(i)).unwrap();
        }
        fs.sync().unwrap();
        fs.device_mut().take_log();
        let mut recon = Reconstructor::from_device(fs.device_mut().inner_mut(), "/mnt").unwrap();
        let dir = fs.stat("/mail").unwrap();
        assert!(
            dir.size > BLOCK_SIZE as u64,
            "the directory must span two blocks"
        );
        assert_eq!(tracked_names(&recon), 301);

        let (first, last) = (
            fs.stat(&name(0)).unwrap().ino,
            fs.stat(&name(299)).unwrap().ino,
        );
        fs.unlink(&name(0)).unwrap();
        fs.unlink(&name(299)).unwrap();
        fs.sync().unwrap();
        let _ = replay(&mut recon, fs.device_mut().take_log());
        assert_eq!(
            recon.take_events(),
            vec![
                FsEvent::Unlinked {
                    path: "/mnt/mail/message-00000".into()
                },
                FsEvent::Unlinked {
                    path: "/mnt/mail/message-00299".into()
                },
            ]
        );
        assert_eq!(recon.path_of(first), None);
        assert_eq!(recon.path_of(last), None);

        let mut live: std::collections::VecDeque<usize> = (1..299).collect();
        for fresh in 300..1300 {
            fs.create(&name(fresh)).unwrap();
            live.push_back(fresh);
            fs.unlink(&name(live.pop_front().unwrap())).unwrap();
            fs.sync().unwrap();
            let _ = replay(&mut recon, fs.device_mut().take_log());
        }
        let live = fs.readdir("/mail").unwrap().len();
        assert_eq!(live, 298);
        assert!(fs.stat("/mail").unwrap().size > BLOCK_SIZE as u64);
        assert_eq!(tracked_names(&recon), live + 1);
        assert_eq!(
            recon.paths.len(),
            live + 2,
            "root, /mail and the live files"
        );
        let held: usize = recon.held.sorted().iter().map(|(_, v)| v.len()).sum();
        assert_eq!(held, live + 1);
        let events = recon.take_events();
        assert_eq!(events.len(), 2000);
        assert!(events
            .chunks(2)
            .all(|pair| matches!(pair, [FsEvent::Created { .. }, FsEvent::Unlinked { .. }])));
    }

    /// One directory block holding `entries`, each in a minimal record
    /// and the last padded to the end of the block.
    fn dir_block(entries: &[(&str, u32)]) -> Vec<u8> {
        let mut block = vec![0u8; BLOCK_SIZE];
        let mut off = 0;
        for (i, (name, ino)) in entries.iter().enumerate() {
            let rec_len = if i + 1 == entries.len() {
                BLOCK_SIZE - off
            } else {
                (8 + name.len()).div_ceil(4) * 4
            };
            block[off..off + 4].copy_from_slice(&ino.to_le_bytes());
            block[off + 4..off + 6].copy_from_slice(&(rec_len as u16).to_le_bytes());
            block[off + 6] = name.len() as u8;
            block[off + 7] = FileType::Regular.to_byte();
            block[off + 8..off + 8 + name.len()].copy_from_slice(name.as_bytes());
            off += rec_len;
        }
        block
    }

    #[test]
    fn a_name_that_turns_up_elsewhere_in_its_directory_is_a_move() {
        let (_fs, mut recon) = setup();
        let dir = 9_000;
        recon.paths.insert(dir, "/mnt/box/d".into());
        let (b1, b2) = (50_000, 50_001);
        recon.update_directory(dir, b1, &dir_block(&[("a", 101), ("b", 102), ("c", 103)]));
        recon.update_directory(dir, b2, &dir_block(&[("x", 201)]));
        assert_eq!(recon.take_events().len(), 4);

        // Reordered inside its block: nothing happened.
        recon.update_directory(dir, b1, &dir_block(&[("c", 103), ("a", 101), ("b", 102)]));
        assert_eq!(recon.take_events(), vec![]);

        // Copied into another block first, dropped from its own second.
        recon.update_directory(dir, b2, &dir_block(&[("x", 201), ("b", 102)]));
        recon.update_directory(dir, b1, &dir_block(&[("c", 103), ("a", 101)]));
        assert_eq!(recon.take_events(), vec![]);
        assert_eq!(recon.path_of(102), Some("/mnt/box/d/b"));
        let b = recon.children.get(&dir).and_then(|names| names.get("b"));
        assert_eq!(b.map(|c| c.block), Some(b2));

        // It now lives in `b2`: dropping it there is the unlink.
        recon.update_directory(dir, b2, &dir_block(&[("x", 201)]));
        assert_eq!(
            recon.take_events(),
            vec![FsEvent::Unlinked {
                path: "/mnt/box/d/b".into()
            }]
        );
        assert_eq!(recon.path_of(102), None);

        // The same name bound to another inode is a new file, wherever
        // the old binding still sits; the old block dropping its stale
        // copy later is not an unlink of the new one.
        recon.update_directory(dir, b2, &dir_block(&[("x", 201), ("a", 301)]));
        assert_eq!(
            recon.take_events(),
            vec![FsEvent::Created {
                path: "/mnt/box/d/a".into(),
                file_type: FileType::Regular
            }]
        );
        recon.update_directory(dir, b1, &dir_block(&[("c", 103)]));
        assert_eq!(recon.take_events(), vec![]);
        assert_eq!(recon.path_of(301), Some("/mnt/box/d/a"));
        assert_eq!(tracked_names(&recon), 100 + 10 + 3);
    }

    /// Random create / unlink / rename / mkdir / write sequences over
    /// single-block directories, replayed into the per-block table and
    /// into the whole-directory reference: same events in the same
    /// order, same rows, same paths.
    #[test]
    fn per_block_table_matches_the_reference_on_single_block_directories() {
        for seed in 0..12 {
            let mut rng = SimRng::seed_from_u64(seed);
            let (mut fs, recon) = setup();
            let mut model = recon;
            let reference = Reconstructor::from_device(fs.device_mut().inner_mut(), "/mnt/box");
            let mut reference = into_reference(reference.unwrap());
            let mut dirs: Vec<String> = (0..10).map(|d| format!("/name{d}")).collect();
            let mut files: Vec<String> = (0..10)
                .flat_map(|d| (1..=10).map(move |i| format!("/name{d}/{i}.img")))
                .collect();
            for step in 0..150 {
                let dir = rng.pick(&dirs).clone();
                match rng.below(6) {
                    0 | 1 => {
                        let path = format!("{dir}/new-{step}");
                        fs.create(&path).unwrap();
                        files.push(path);
                    }
                    2 if !files.is_empty() => {
                        let gone = files.swap_remove(rng.below(files.len() as u64) as usize);
                        fs.unlink(&gone).unwrap();
                    }
                    3 if !files.is_empty() => {
                        let at = rng.below(files.len() as u64) as usize;
                        let to = format!("{dir}/moved-{step}");
                        fs.rename(&files[at], &to).unwrap();
                        files[at] = to;
                    }
                    4 => {
                        let path = format!("{dir}/sub-{step}");
                        fs.mkdir(&path).unwrap();
                        dirs.push(path);
                    }
                    _ if !files.is_empty() => {
                        let len = rng.range(1, 3 * BLOCK_SIZE as u64) as usize;
                        let file: &String = rng.pick(&files);
                        fs.write_file(file, 0, &vec![step as u8; len]).unwrap();
                    }
                    _ => {}
                }
                if rng.chance(0.5) {
                    fs.sync().unwrap();
                }
                let log = fs.device_mut().take_log();
                assert_eq!(
                    replay(&mut model, log.clone()),
                    replay(&mut reference, log),
                    "seed {seed} step {step}"
                );
                assert_eq!(
                    model.take_events(),
                    reference.take_events(),
                    "seed {seed} step {step}"
                );
            }
            let paths = model.paths.sorted();
            assert_eq!(paths, reference.paths.sorted(), "seed {seed}");
            assert!(paths.len() > 100);
            for (dir, names) in reference.reference.as_ref().unwrap() {
                let ours: BTreeMap<String, u32> = model
                    .children
                    .get(dir)
                    .map(IdMap::sorted)
                    .unwrap_or_default()
                    .into_iter()
                    .map(|(n, c)| (n.to_string(), c.ino))
                    .collect();
                assert_eq!(&ours, names, "seed {seed} directory {dir}");
            }
        }
    }
}
