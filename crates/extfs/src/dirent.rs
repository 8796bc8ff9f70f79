//! Directory entries (variable-length ext2 dirents).

// Parses tenant-written bytes, so it must not abort; `write_dirent` is the
// guest filesystem's writer, not a forwarded payload.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

/// File type byte stored in directory entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileType {
    /// Regular file.
    Regular,
    /// Directory.
    Directory,
    /// Symbolic link.
    Symlink,
}

impl FileType {
    /// ext2 `file_type` encoding.
    pub fn to_byte(self) -> u8 {
        match self {
            FileType::Regular => 1,
            FileType::Directory => 2,
            FileType::Symlink => 7,
        }
    }

    /// Decodes the ext2 `file_type` byte.
    pub fn from_byte(b: u8) -> Option<FileType> {
        match b {
            1 => Some(FileType::Regular),
            2 => Some(FileType::Directory),
            7 => Some(FileType::Symlink),
            _ => None,
        }
    }
}

/// An owned directory entry ([`crate::ExtFs::readdir`]'s result row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Inode number.
    pub inode: u32,
    /// Entry type.
    pub file_type: FileType,
    /// File name.
    pub name: String,
}

/// Longest permitted file name.
pub const MAX_NAME_LEN: usize = 255;

/// On-disk size of an entry with an `n`-byte name (4-byte aligned).
pub fn rec_len_for(name_len: usize) -> usize {
    (8 + name_len).div_ceil(4) * 4
}

/// Serializes one dirent into `buf` with the given record length.
///
/// # Panics
///
/// Panics if `rec_len` cannot hold the name or exceeds `buf`.
pub fn write_dirent(buf: &mut [u8], inode: u32, file_type: FileType, name: &str, rec_len: usize) {
    assert!(rec_len >= rec_len_for(name.len()), "rec_len too small");
    assert!(rec_len <= buf.len(), "rec_len beyond buffer");
    assert!(name.len() <= MAX_NAME_LEN, "name too long");
    buf[..rec_len].fill(0);
    buf[0..4].copy_from_slice(&inode.to_le_bytes());
    buf[4..6].copy_from_slice(&(rec_len as u16).to_le_bytes());
    buf[6] = name.len() as u8;
    buf[7] = file_type.to_byte();
    buf[8..8 + name.len()].copy_from_slice(name.as_bytes());
}

/// One well-formed record of a directory block, live or not
/// (`inode == 0` is a deleted placeholder whose space can be reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawDirent<'a> {
    /// Byte offset of the record in its block.
    pub offset: usize,
    /// Record length: the next record starts at `offset + rec_len`.
    pub rec_len: usize,
    /// Inode number (0 = deleted placeholder).
    pub inode: u32,
    /// The undecoded `file_type` byte.
    pub type_byte: u8,
    /// The name bytes (`name_len` of them).
    pub name: &'a [u8],
}

/// A live directory entry borrowed from its block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dirent<'a> {
    /// Byte offset of the record in its block.
    pub offset: usize,
    /// Record length.
    pub rec_len: usize,
    /// Inode number (never 0).
    pub inode: u32,
    /// Entry type.
    pub file_type: FileType,
    /// File name (never empty).
    pub name: &'a str,
}

impl Dirent<'_> {
    /// Whether this is `.` or `..`, which name no child of the directory.
    pub fn is_dot(&self) -> bool {
        self.name == "." || self.name == ".."
    }
}

/// Walks every well-formed record of a directory block in place.
///
/// The walk ends at the first record that is not well formed — fewer
/// than 8 bytes left, `rec_len < 8`, a record overrunning the block, or
/// a name overrunning its record — because the semantics-reconstruction
/// engine walks blocks sniffed off the wire: whatever a tenant writes,
/// this terminates (each step advances by at least 8 bytes), indexes
/// nothing out of range and allocates nothing.
pub fn raw_dirents(block: &[u8]) -> impl Iterator<Item = RawDirent<'_>> {
    let mut offset = 0usize;
    std::iter::from_fn(move || {
        let [i0, i1, i2, i3, r0, r1, name_len, type_byte, tail @ ..] = block.get(offset..)? else {
            return None;
        };
        let rec_len = u16::from_le_bytes([*r0, *r1]) as usize;
        let name = tail.get(..*name_len as usize)?;
        if rec_len < 8 + name.len() || rec_len > 8 + tail.len() {
            return None;
        }
        let rec = RawDirent {
            offset,
            rec_len,
            inode: u32::from_le_bytes([*i0, *i1, *i2, *i3]),
            type_byte: *type_byte,
            name,
        };
        offset += rec_len;
        Some(rec)
    })
}

/// The live entries of a directory block: the [`raw_dirents`] that bind
/// a non-empty UTF-8 name of a known type to a non-zero inode. Other
/// well-formed records are skipped, not fatal.
pub fn dirents(block: &[u8]) -> impl Iterator<Item = Dirent<'_>> {
    raw_dirents(block).filter_map(|r| {
        if r.inode == 0 || r.name.is_empty() {
            return None;
        }
        Some(Dirent {
            offset: r.offset,
            rec_len: r.rec_len,
            inode: r.inode,
            file_type: FileType::from_byte(r.type_byte)?,
            name: std::str::from_utf8(r.name).ok()?,
        })
    })
}

/// The inode and type of the first live entry of `block` named `name`:
/// what `dirents(block).find(|e| e.name == name)` yields, but compared as
/// bytes, so no record's name is UTF-8-checked on the way. A non-UTF-8
/// name never equals a `&str`, so the first hit is the same record.
pub fn lookup(block: &[u8], name: &str) -> Option<(u32, FileType)> {
    raw_dirents(block)
        .filter(|r| r.inode != 0 && !r.name.is_empty() && r.name == name.as_bytes())
        .find_map(|r| Some((r.inode, FileType::from_byte(r.type_byte)?)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::BLOCK_SIZE;
    use proptest::prelude::*;

    /// The allocating parser `dirents` replaced, kept as the reference
    /// its tolerance rules are checked against.
    fn parse_dirents_reference(block: &[u8]) -> Vec<DirEntry> {
        let mut out = Vec::new();
        let mut off = 0usize;
        while off + 8 <= block.len() {
            let inode = u32::from_le_bytes(block[off..off + 4].try_into().expect("4 bytes"));
            let rec_len =
                u16::from_le_bytes(block[off + 4..off + 6].try_into().expect("2 bytes")) as usize;
            let name_len = block[off + 6] as usize;
            if rec_len < 8 || off + rec_len > block.len() || 8 + name_len > rec_len {
                break;
            }
            if inode != 0 && name_len > 0 {
                if let (Some(ft), Ok(name)) = (
                    FileType::from_byte(block[off + 7]),
                    std::str::from_utf8(&block[off + 8..off + 8 + name_len]),
                ) {
                    out.push(DirEntry {
                        inode,
                        file_type: ft,
                        name: name.to_owned(),
                    });
                }
            }
            off += rec_len;
        }
        out
    }

    fn owned(block: &[u8]) -> Vec<DirEntry> {
        dirents(block)
            .map(|e| DirEntry {
                inode: e.inode,
                file_type: e.file_type,
                name: e.name.to_owned(),
            })
            .collect()
    }

    fn names(block: &[u8]) -> Vec<&str> {
        dirents(block).map(|e| e.name).collect()
    }

    /// A block of packed valid records (as many of `entries` as fit), the
    /// last one padded to the end of the block.
    fn packed_block(entries: &[(u32, u8)]) -> Vec<u8> {
        let mut block = vec![0u8; BLOCK_SIZE];
        let mut off = 0;
        let mut last = None;
        for &(inode, name_len) in entries {
            let name = "n".repeat(name_len as usize % 40 + 1);
            let rec_len = rec_len_for(name.len());
            if off + rec_len > BLOCK_SIZE {
                break;
            }
            write_dirent(&mut block[off..], inode, FileType::Regular, &name, rec_len);
            last = Some(off);
            off += rec_len;
        }
        if let Some(at) = last {
            let padded = (BLOCK_SIZE - at) as u16;
            block[at + 4..at + 6].copy_from_slice(&padded.to_le_bytes());
        }
        block
    }

    #[test]
    fn single_entry_fills_block() {
        let mut block = vec![0u8; BLOCK_SIZE];
        write_dirent(&mut block, 2, FileType::Directory, ".", BLOCK_SIZE);
        let got: Vec<_> = dirents(&block).collect();
        assert_eq!(
            got,
            vec![Dirent {
                offset: 0,
                rec_len: BLOCK_SIZE,
                inode: 2,
                file_type: FileType::Directory,
                name: "."
            }]
        );
    }

    #[test]
    fn packed_entries_parse_in_order() {
        let mut block = vec![0u8; BLOCK_SIZE];
        let r1 = rec_len_for(1);
        let r2 = rec_len_for(2);
        write_dirent(&mut block, 2, FileType::Directory, ".", r1);
        write_dirent(&mut block[r1..], 5, FileType::Directory, "..", r2);
        let rest = BLOCK_SIZE - r1 - r2;
        write_dirent(&mut block[r1 + r2..], 12, FileType::Regular, "1.img", rest);
        assert_eq!(names(&block), vec![".", "..", "1.img"]);
        let spans: Vec<_> = raw_dirents(&block).map(|r| (r.offset, r.rec_len)).collect();
        assert_eq!(spans, vec![(0, r1), (r1, r2), (r1 + r2, rest)]);
    }

    #[test]
    fn deleted_entries_are_skipped_but_still_raw_records() {
        let mut block = vec![0u8; BLOCK_SIZE];
        let r1 = rec_len_for(5);
        write_dirent(&mut block, 0, FileType::Regular, "gone!", r1); // inode 0
        write_dirent(
            &mut block[r1..],
            9,
            FileType::Regular,
            "live",
            BLOCK_SIZE - r1,
        );
        assert_eq!(names(&block), vec!["live"]);
        let raw: Vec<_> = raw_dirents(&block).map(|r| (r.inode, r.name)).collect();
        assert_eq!(raw, vec![(0, &b"gone!"[..]), (9, &b"live"[..])]);
    }

    #[test]
    fn malformed_records_stop_parsing_safely() {
        let mut block = vec![0u8; 64];
        block[0..4].copy_from_slice(&7u32.to_le_bytes());
        block[4..6].copy_from_slice(&4u16.to_le_bytes()); // rec_len < 8
        assert_eq!(raw_dirents(&block).count(), 0);
        // rec_len points past the end.
        block[4..6].copy_from_slice(&1000u16.to_le_bytes());
        assert_eq!(raw_dirents(&block).count(), 0);
        // The name overruns its record.
        block[4..6].copy_from_slice(&12u16.to_le_bytes());
        block[6] = 5;
        assert_eq!(raw_dirents(&block).count(), 0);
        // Fewer than eight bytes: no record header fits.
        assert_eq!(raw_dirents(&block[..7]).count(), 0);
    }

    #[test]
    fn rec_len_alignment() {
        assert_eq!(rec_len_for(1), 12);
        assert_eq!(rec_len_for(4), 12);
        assert_eq!(rec_len_for(5), 16);
        assert_eq!(rec_len_for(0), 8);
    }

    #[test]
    fn file_type_round_trip() {
        for ft in [FileType::Regular, FileType::Directory, FileType::Symlink] {
            assert_eq!(FileType::from_byte(ft.to_byte()), Some(ft));
        }
        assert_eq!(FileType::from_byte(0), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Arbitrary bytes: the walk terminates, stays in range and sees
        /// what the reference parser saw.
        #[test]
        fn arbitrary_blocks_match_the_reference(
            block in prop::collection::vec(any::<u8>(), 0..BLOCK_SIZE + 1),
        ) {
            prop_assert_eq!(owned(&block), parse_dirents_reference(&block));
        }

        /// A valid block with a few bytes overwritten: short and
        /// overrunning `rec_len`s, `name_len` beyond the record, zero
        /// inodes, non-UTF-8 names and unknown type bytes all sit one
        /// mutation away.
        #[test]
        fn mutated_valid_blocks_match_the_reference(
            entries in prop::collection::vec((0u32..4, any::<u8>()), 1..200),
            pokes in prop::collection::vec((0usize..BLOCK_SIZE, any::<u8>()), 0..12),
            cut in 0usize..BLOCK_SIZE + 1,
        ) {
            let mut block = packed_block(&entries);
            for (at, byte) in pokes {
                block[at] = byte;
            }
            prop_assert_eq!(owned(&block), parse_dirents_reference(&block));
            // Whatever the walk yields lies inside the block it was given.
            let block = &block[..cut];
            let mut end = 0;
            for r in raw_dirents(block) {
                prop_assert_eq!(r.offset, end);
                prop_assert!(r.rec_len >= 8 + r.name.len());
                end = r.offset + r.rec_len;
                prop_assert!(end <= block.len());
            }
            prop_assert_eq!(owned(block), parse_dirents_reference(block));
        }

        /// `lookup` against the `dirents(..).find` it replaced, on blocks
        /// of records drawn from deleted ones, unknown and known types,
        /// empty names, `.`/`..`, repeated names and non-UTF-8 names, each
        /// queried by every name a `&str` can carry.
        #[test]
        fn lookup_matches_find_over_dirents(
            records in prop::collection::vec((0u32..3, 0usize..5, 0usize..NAMES.len()), 0..60),
            cut in 0usize..BLOCK_SIZE + 1,
        ) {
            let mut block = vec![0u8; BLOCK_SIZE];
            let mut off = 0;
            for (inode, ty, name) in records {
                let name = NAMES[name];
                let rec_len = rec_len_for(name.len());
                if off + rec_len > BLOCK_SIZE {
                    break;
                }
                block[off..off + 4].copy_from_slice(&inode.to_le_bytes());
                block[off + 4..off + 6].copy_from_slice(&(rec_len as u16).to_le_bytes());
                block[off + 6] = name.len() as u8;
                block[off + 7] = [0, 1, 2, 7, 9][ty];
                block[off + 8..off + 8 + name.len()].copy_from_slice(name);
                off += rec_len;
            }
            let block = &block[..cut];
            for query in NAMES.iter().filter_map(|n| std::str::from_utf8(n).ok()) {
                let old = dirents(block).find(|e| e.name == query).map(|e| (e.inode, e.file_type));
                prop_assert_eq!(lookup(block, query), old, "query {:?}", query);
            }
        }
    }

    const NAMES: [&[u8]; 8] = [
        b"",
        b".",
        b"..",
        b"msg1",
        b"msg10",
        b"\xFFmsg1",
        b"\xC3",
        b"\xC3\xA9",
    ];
}
