//! The 16 KB slotted data page — veDB's unit of storage and caching.
//!
//! Layout (offsets in bytes):
//!
//! ```text
//! 0..8    page_lsn      LSN of the last REDO record applied to this page
//! 8       page_type     Free / BTreeLeaf / BTreeInternal
//! 9       level         B+Tree level (0 = leaf)
//! 10..12  n_slots       number of slot-directory entries
//! 12..14  data_tail     lowest byte offset used by cell data
//! 14..18  next_page     right-sibling page_no (leaf chain), 0 = none
//! 18..20  garbage       dead cell bytes (compaction trigger)
//! 20..24  reserved
//! 24..    slot directory: n_slots × (cell_offset u16, cell_len u16)
//! ...     free space
//! ...16384 cell data, allocated downward from the end
//! ```
//!
//! The same structure backs B+Tree leaves and internal nodes; the cell
//! payloads are opaque here (the engine's btree module defines them).

use crate::{PageStoreError, Result};

/// Page size (16 KB, as in the paper's EBP discussion).
pub const PAGE_SIZE: usize = 16 * 1024;

/// Header size before the slot directory.
pub const PAGE_HDR_SIZE: usize = 24;

const OFF_LSN: usize = 0;
const OFF_TYPE: usize = 8;
const OFF_LEVEL: usize = 9;
const OFF_NSLOTS: usize = 10;
const OFF_DATA_TAIL: usize = 12;
const OFF_NEXT: usize = 14;
const OFF_GARBAGE: usize = 18;

/// What a page holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PageType {
    /// Unformatted / free.
    Free = 0,
    /// B+Tree leaf (cells are key/row records).
    BTreeLeaf = 1,
    /// B+Tree internal node (cells are key/child pointers).
    BTreeInternal = 2,
}

impl PageType {
    /// Parse from the persisted byte.
    pub fn from_byte(b: u8) -> PageType {
        match b {
            1 => PageType::BTreeLeaf,
            2 => PageType::BTreeInternal,
            _ => PageType::Free,
        }
    }
}

/// A 16 KB slotted page.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    buf: Box<[u8]>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("lsn", &self.lsn())
            .field("type", &self.page_type())
            .field("n_slots", &self.n_slots())
            .field("free", &self.free_space())
            .finish()
    }
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// A zeroed (Free) page.
    pub fn new() -> Page {
        let mut p = Page {
            buf: vec![0u8; PAGE_SIZE].into_boxed_slice(),
        };
        p.put_u16(OFF_DATA_TAIL, PAGE_SIZE as u16);
        p
    }

    /// Format as an empty page of `ty` at B+Tree `level`.
    pub fn format(&mut self, ty: PageType, level: u8) {
        self.buf.fill(0);
        self.buf[OFF_TYPE] = ty as u8;
        self.buf[OFF_LEVEL] = level;
        self.put_u16(OFF_DATA_TAIL, PAGE_SIZE as u16);
    }

    /// Copy raw bytes (must be exactly [`PAGE_SIZE`]) into a page.
    pub fn from_bytes(bytes: &[u8]) -> Result<Page> {
        Self::from_vec(bytes.to_vec())
    }

    /// Take ownership of a raw image (must be exactly [`PAGE_SIZE`]) — the
    /// no-copy form of [`from_bytes`](Self::from_bytes) for a caller that
    /// already owns the buffer (a read reply).
    pub fn from_vec(bytes: Vec<u8>) -> Result<Page> {
        if bytes.len() != PAGE_SIZE {
            return Err(PageStoreError::BadPageImage {
                expected: PAGE_SIZE,
                got: bytes.len(),
            });
        }
        Ok(Page {
            buf: bytes.into_boxed_slice(),
        })
    }

    /// The raw page image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    fn get_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.buf[off], self.buf[off + 1]])
    }

    fn put_u16(&mut self, off: usize, v: u16) {
        self.buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    fn get_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.buf[off..off + 4].try_into().unwrap())
    }

    fn put_u32(&mut self, off: usize, v: u32) {
        self.buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// LSN of the last applied REDO record.
    pub fn lsn(&self) -> u64 {
        u64::from_le_bytes(self.buf[OFF_LSN..OFF_LSN + 8].try_into().unwrap())
    }

    /// Set the page LSN (done by REDO apply and by the engine's mutators).
    pub fn set_lsn(&mut self, lsn: u64) {
        self.buf[OFF_LSN..OFF_LSN + 8].copy_from_slice(&lsn.to_le_bytes());
    }

    /// Page type.
    pub fn page_type(&self) -> PageType {
        PageType::from_byte(self.buf[OFF_TYPE])
    }

    /// B+Tree level (0 = leaf).
    pub fn level(&self) -> u8 {
        self.buf[OFF_LEVEL]
    }

    /// Right-sibling page number (0 = none).
    pub fn next_page(&self) -> u32 {
        self.get_u32(OFF_NEXT)
    }

    /// Set the right-sibling link.
    pub fn set_next_page(&mut self, page_no: u32) {
        self.put_u32(OFF_NEXT, page_no);
    }

    /// Number of cells.
    pub fn n_slots(&self) -> usize {
        self.get_u16(OFF_NSLOTS) as usize
    }

    fn data_tail(&self) -> usize {
        self.get_u16(OFF_DATA_TAIL) as usize
    }

    /// Dead bytes from deletes/oversize updates.
    pub fn garbage(&self) -> usize {
        self.get_u16(OFF_GARBAGE) as usize
    }

    fn add_garbage(&mut self, n: usize) {
        let g = (self.garbage() + n).min(u16::MAX as usize);
        self.put_u16(OFF_GARBAGE, g as u16);
    }

    fn dir_entry(&self, idx: usize) -> (usize, usize) {
        let base = PAGE_HDR_SIZE + idx * 4;
        (self.get_u16(base) as usize, self.get_u16(base + 2) as usize)
    }

    fn set_dir_entry(&mut self, idx: usize, off: usize, len: usize) {
        let base = PAGE_HDR_SIZE + idx * 4;
        self.put_u16(base, off as u16);
        self.put_u16(base + 2, len as u16);
    }

    /// Contiguous free bytes between the slot directory and the cell data.
    pub fn free_space(&self) -> usize {
        self.data_tail() - (PAGE_HDR_SIZE + self.n_slots() * 4)
    }

    /// Free bytes recoverable by compaction.
    pub fn free_space_after_compaction(&self) -> usize {
        self.free_space() + self.garbage()
    }

    /// Can a cell of `len` bytes be inserted (counting its directory slot)?
    pub fn can_insert(&self, len: usize) -> bool {
        self.free_space_after_compaction() >= len + 4
    }

    /// Cell bytes at slot `idx`.
    pub fn get(&self, idx: usize) -> Result<&[u8]> {
        if idx >= self.n_slots() {
            return Err(PageStoreError::SlotOutOfRange {
                idx,
                n_slots: self.n_slots(),
            });
        }
        let (off, len) = self.dir_entry(idx);
        Ok(&self.buf[off..off + len])
    }

    /// Insert a cell at slot index `idx` (shifting later slots right).
    pub fn insert_at(&mut self, idx: usize, cell: &[u8]) -> Result<()> {
        let n = self.n_slots();
        if idx > n {
            return Err(PageStoreError::SlotOutOfRange { idx, n_slots: n });
        }
        if cell.len() + 4 > self.free_space() {
            if cell.len() + 4 > self.free_space_after_compaction() {
                return Err(PageStoreError::PageFull {
                    need: cell.len() + 4,
                    free: self.free_space_after_compaction(),
                });
            }
            self.compact();
        }
        // Allocate the cell.
        let new_tail = self.data_tail() - cell.len();
        self.buf[new_tail..new_tail + cell.len()].copy_from_slice(cell);
        self.put_u16(OFF_DATA_TAIL, new_tail as u16);
        // Shift directory entries [idx..n) right.
        let src = PAGE_HDR_SIZE + idx * 4;
        let end = PAGE_HDR_SIZE + n * 4;
        self.buf.copy_within(src..end, src + 4);
        self.set_dir_entry(idx, new_tail, cell.len());
        self.put_u16(OFF_NSLOTS, (n + 1) as u16);
        Ok(())
    }

    /// Replace the cell at `idx`. Shrinking reuses the cell in place;
    /// growing allocates a fresh cell (the old one becomes garbage).
    pub fn update(&mut self, idx: usize, cell: &[u8]) -> Result<()> {
        let n = self.n_slots();
        if idx >= n {
            return Err(PageStoreError::SlotOutOfRange { idx, n_slots: n });
        }
        let (off, len) = self.dir_entry(idx);
        if cell.len() <= len {
            self.buf[off..off + cell.len()].copy_from_slice(cell);
            self.set_dir_entry(idx, off, cell.len());
            self.add_garbage(len - cell.len());
            return Ok(());
        }
        if cell.len() > self.free_space() {
            if cell.len() > self.free_space_after_compaction() + len {
                return Err(PageStoreError::PageFull {
                    need: cell.len(),
                    free: self.free_space_after_compaction(),
                });
            }
            // Mark the old cell dead before compacting so its space counts.
            self.set_dir_entry(idx, 0, 0);
            self.add_garbage(len);
            self.compact();
            return self.update_fresh(idx, cell);
        }
        self.add_garbage(len);
        self.update_fresh(idx, cell)
    }

    fn update_fresh(&mut self, idx: usize, cell: &[u8]) -> Result<()> {
        let new_tail = self.data_tail() - cell.len();
        self.buf[new_tail..new_tail + cell.len()].copy_from_slice(cell);
        self.put_u16(OFF_DATA_TAIL, new_tail as u16);
        self.set_dir_entry(idx, new_tail, cell.len());
        Ok(())
    }

    /// Delete the cell at `idx` (shifting later slots left).
    pub fn delete(&mut self, idx: usize) -> Result<()> {
        let n = self.n_slots();
        if idx >= n {
            return Err(PageStoreError::SlotOutOfRange { idx, n_slots: n });
        }
        let (_, len) = self.dir_entry(idx);
        self.add_garbage(len);
        let src = PAGE_HDR_SIZE + (idx + 1) * 4;
        let end = PAGE_HDR_SIZE + n * 4;
        self.buf.copy_within(src..end, src - 4);
        self.put_u16(OFF_NSLOTS, (n - 1) as u16);
        Ok(())
    }

    /// Delete the cells at `from..`, leaving the bytes that deleting each
    /// of them with [`delete`](Self::delete), last first, would leave.
    pub fn truncate(&mut self, from: usize) -> Result<()> {
        let n = self.n_slots();
        if from > n {
            return Err(PageStoreError::SlotOutOfRange {
                idx: from,
                n_slots: n,
            });
        }
        let dead: usize = (from..n).map(|i| self.dir_entry(i).1).sum();
        self.add_garbage(dead);
        self.put_u16(OFF_NSLOTS, from as u16);
        Ok(())
    }

    /// Rewrite all live cells tightly against the end of the page.
    pub fn compact(&mut self) {
        let n = self.n_slots();
        let cells: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                let (off, len) = self.dir_entry(i);
                self.buf[off..off + len].to_vec()
            })
            .collect();
        let mut tail = PAGE_SIZE;
        for (i, cell) in cells.iter().enumerate() {
            tail -= cell.len();
            self.buf[tail..tail + cell.len()].copy_from_slice(cell);
            self.set_dir_entry(i, tail, cell.len());
        }
        self.put_u16(OFF_DATA_TAIL, tail as u16);
        self.put_u16(OFF_GARBAGE, 0);
    }

    /// Iterate over all cells.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + Clone + '_ {
        (0..self.n_slots()).map(move |i| {
            let (off, len) = self.dir_entry(i);
            &self.buf[off..off + len]
        })
    }
}

// Helper so `PAGE_SIZE as u16` reads as intent: 16384 fits in u16
// only because data_tail == 16384 means "empty"; keep the cast explicit.

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_page_is_empty() {
        let p = Page::new();
        assert_eq!(p.n_slots(), 0);
        assert_eq!(p.page_type(), PageType::Free);
        assert_eq!(p.free_space(), PAGE_SIZE - PAGE_HDR_SIZE);
        assert_eq!(p.lsn(), 0);
    }

    #[test]
    fn format_sets_type_and_level() {
        let mut p = Page::new();
        p.format(PageType::BTreeInternal, 2);
        assert_eq!(p.page_type(), PageType::BTreeInternal);
        assert_eq!(p.level(), 2);
        assert_eq!(p.n_slots(), 0);
    }

    #[test]
    fn insert_get_ordered() {
        let mut p = Page::new();
        p.format(PageType::BTreeLeaf, 0);
        p.insert_at(0, b"bb").unwrap();
        p.insert_at(0, b"aa").unwrap();
        p.insert_at(2, b"cc").unwrap();
        p.insert_at(1, b"ab").unwrap();
        let cells: Vec<&[u8]> = p.iter().collect();
        assert_eq!(cells, vec![b"aa".as_ref(), b"ab", b"bb", b"cc"]);
        assert_eq!(p.get(2).unwrap(), b"bb");
        assert!(p.get(4).is_err());
    }

    #[test]
    fn update_shrink_grow() {
        let mut p = Page::new();
        p.format(PageType::BTreeLeaf, 0);
        p.insert_at(0, b"0123456789").unwrap();
        p.insert_at(1, b"keep").unwrap();
        p.update(0, b"abc").unwrap(); // shrink in place
        assert_eq!(p.get(0).unwrap(), b"abc");
        assert_eq!(p.garbage(), 7);
        p.update(0, b"a-longer-replacement").unwrap(); // grow
        assert_eq!(p.get(0).unwrap(), b"a-longer-replacement");
        assert_eq!(p.get(1).unwrap(), b"keep");
        assert!(p.garbage() >= 10);
    }

    #[test]
    fn delete_shifts_slots() {
        let mut p = Page::new();
        p.format(PageType::BTreeLeaf, 0);
        for (i, cell) in [b"a", b"b", b"c"].iter().enumerate() {
            p.insert_at(i, *cell).unwrap();
        }
        p.delete(1).unwrap();
        let cells: Vec<&[u8]> = p.iter().collect();
        assert_eq!(cells, vec![b"a".as_ref(), b"c"]);
        assert!(p.delete(2).is_err());
    }

    #[test]
    fn fill_until_full_then_compact_recovers() {
        let mut p = Page::new();
        p.format(PageType::BTreeLeaf, 0);
        let cell = vec![7u8; 100];
        let mut n = 0;
        while p.can_insert(cell.len()) {
            p.insert_at(n, &cell).unwrap();
            n += 1;
        }
        assert!(
            n >= 150,
            "a 16KB page should hold >150 104-byte cells, got {n}"
        );
        assert!(matches!(
            p.insert_at(0, &cell),
            Err(PageStoreError::PageFull { .. })
        ));
        // Delete half; compaction makes room again.
        for i in (0..n).rev().step_by(2) {
            p.delete(i).unwrap();
        }
        assert!(p.can_insert(cell.len()));
        p.insert_at(0, &cell).unwrap(); // triggers auto-compaction
        assert_eq!(p.get(0).unwrap(), &cell[..]);
    }

    #[test]
    fn roundtrip_bytes() {
        let mut p = Page::new();
        p.format(PageType::BTreeLeaf, 0);
        p.insert_at(0, b"persist me").unwrap();
        p.set_lsn(42);
        p.set_next_page(7);
        let q = Page::from_bytes(p.as_bytes()).unwrap();
        assert_eq!(q.lsn(), 42);
        assert_eq!(q.next_page(), 7);
        assert_eq!(q.get(0).unwrap(), b"persist me");
        assert!(Page::from_bytes(&[0u8; 100]).is_err());
    }

    #[test]
    fn update_grow_when_fragmented_compacts() {
        let mut p = Page::new();
        p.format(PageType::BTreeLeaf, 0);
        let big = vec![1u8; 4000];
        p.insert_at(0, &big).unwrap();
        p.insert_at(1, &big).unwrap();
        p.insert_at(2, &big).unwrap();
        p.insert_at(3, &big).unwrap();
        // Free space is now tiny; shrink slot 1 massively, then grow slot 0.
        p.update(1, b"small").unwrap();
        let bigger = vec![2u8; 5000];
        p.update(0, &bigger).unwrap();
        assert_eq!(p.get(0).unwrap(), &bigger[..]);
        assert_eq!(p.get(1).unwrap(), b"small");
        assert_eq!(p.get(2).unwrap(), &big[..]);
    }
}
