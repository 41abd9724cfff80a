//! Physiological REDO records and their application to pages.
//!
//! veDB follows the log-is-database principle (§III): the DBEngine never
//! writes dirty pages back — it ships REDO records, and PageStore
//! "constantly replays transactions from the REDO logs to keep pages up to
//! date". A [`RedoRecord`] describes one page-level mutation; applying the
//! full record stream to an empty store reconstructs every page exactly.
//!
//! A B+Tree split logs each half as one record, as InnoDB logs it as one
//! list-copy record for the new page and one list-truncate record for the
//! old (`MLOG_LIST_END_COPY_CREATED`, `MLOG_LIST_END_DELETE`): a
//! [`PageOp::Build`] formats the new page and loads the moved cells, and a
//! [`PageOp::Truncate`] cuts them off the old one. Each leaves the bytes
//! the per-cell `Format`/`SetNextPage`/`InsertAt`… and `Delete`…/`SetNextPage`
//! sequences it replaces would leave.
//!
//! Records carry a **back-link** (`prev_same_segment`): the LSN of the
//! previous record shipped to the same PageStore segment. A replica that
//! receives a record whose back-link does not match the last record it saw
//! knows it missed something and gossips with its peers to fill the gap
//! (§III "PageStore").
//!
//! Encoding is a hand-rolled little-endian format (no serde data format is
//! available offline), read back through the workspace's one byte reader
//! ([`vedb_sim::bytes::Reader`]); [`encode_record`]/[`decode_record`]
//! round-trip and are also reused by the engine's WAL framing.

use vedb_astore::{Lsn, PageId};
use vedb_sim::bytes::Reader;

use crate::page::{Page, PageType, PAGE_HDR_SIZE, PAGE_SIZE};
use crate::{PageStoreError, Result};

/// One page-level mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageOp {
    /// (Re)format the page as empty with the given type/level.
    Format {
        /// New page type.
        ty: PageType,
        /// B+Tree level.
        level: u8,
    },
    /// Insert a cell at a slot index.
    InsertAt {
        /// Slot index.
        slot: u16,
        /// Cell bytes.
        cell: Vec<u8>,
    },
    /// Replace the cell at a slot index.
    Update {
        /// Slot index.
        slot: u16,
        /// New cell bytes.
        cell: Vec<u8>,
    },
    /// Delete the cell at a slot index.
    Delete {
        /// Slot index.
        slot: u16,
    },
    /// Set the right-sibling leaf link.
    SetNextPage {
        /// New sibling page number.
        page_no: u32,
    },
    /// Format the page, set its sibling link and load `cells` into slots
    /// `0..` in order: the new half of a split (or a new root) in one
    /// record.
    Build {
        /// New page type.
        ty: PageType,
        /// B+Tree level.
        level: u8,
        /// New sibling page number.
        next_page: u32,
        /// The cells, in slot order.
        cells: CellList,
    },
    /// Delete slots `from..` and set the sibling link: the old half of a
    /// split in one record.
    Truncate {
        /// First slot deleted.
        from: u16,
        /// New sibling page number.
        next_page: u32,
    },
}

/// The cells of a [`PageOp::Build`], in slot order: one flat buffer of
/// `[len u32][cell]` entries, so a record of many cells is one allocation.
/// Well-formed by construction: [`from_cells`](Self::from_cells) writes
/// whole entries and decoding rejects a buffer that does not split into them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellList {
    buf: Vec<u8>,
}

impl CellList {
    /// The list of `cells`, in one allocation of the exact size.
    pub fn from_cells<'a, I>(cells: I) -> CellList
    where
        I: IntoIterator<Item = &'a [u8]>,
        I::IntoIter: Clone,
    {
        let cells = cells.into_iter();
        let bytes = cells.clone().map(|c| 4 + c.len()).sum();
        let mut buf = Vec::with_capacity(bytes);
        for cell in cells {
            put_u32(&mut buf, cell.len() as u32);
            buf.extend_from_slice(cell);
        }
        CellList { buf }
    }

    /// The cells, in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let mut r = Reader::new(&self.buf, "cell list");
        std::iter::from_fn(move || {
            let len = r.u32().ok()?;
            r.take(len as usize).ok()
        })
    }

    /// The flat entry buffer, as encoded.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Take a flat entry buffer read back from the log, checking that it
    /// splits into whole entries.
    fn from_vec(buf: Vec<u8>) -> Result<CellList> {
        let list = CellList { buf };
        let whole: usize = list.iter().map(|c| 4 + c.len()).sum();
        if whole != list.buf.len() {
            return Err(PageStoreError::Codec("cell list truncated".into()));
        }
        Ok(list)
    }
}

/// A REDO record: one mutation of one page by one transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedoRecord {
    /// LSN assigned by the log (byte offset in the REDO stream).
    pub lsn: Lsn,
    /// Back-link: LSN of the previous record shipped to the same PageStore
    /// segment (0 for the first).
    pub prev_same_segment: Lsn,
    /// The mutating transaction.
    pub txn_id: u64,
    /// Target page.
    pub page: PageId,
    /// The mutation.
    pub op: PageOp,
}

impl RedoRecord {
    /// Apply to `page` if not already applied (LSN test makes replay
    /// idempotent).
    pub fn apply(&self, page: &mut Page) -> Result<()> {
        if self.lsn <= page.lsn() {
            return Ok(()); // already applied
        }
        match &self.op {
            PageOp::Format { ty, level } => page.format(*ty, *level),
            PageOp::InsertAt { slot, cell } => page.insert_at(*slot as usize, cell)?,
            PageOp::Update { slot, cell } => page.update(*slot as usize, cell)?,
            PageOp::Delete { slot } => page.delete(*slot as usize)?,
            PageOp::SetNextPage { page_no } => page.set_next_page(*page_no),
            PageOp::Build {
                ty,
                level,
                next_page,
                cells,
            } => {
                // An entry's 4-byte length prefix is the size of the cell's
                // slot-directory entry.
                let need = cells.as_bytes().len();
                let free = PAGE_SIZE - PAGE_HDR_SIZE;
                if need > free {
                    return Err(PageStoreError::PageFull { need, free });
                }
                page.format(*ty, *level);
                page.set_next_page(*next_page);
                for (slot, cell) in cells.iter().enumerate() {
                    page.insert_at(slot, cell)?;
                }
            }
            PageOp::Truncate { from, next_page } => {
                page.truncate(*from as usize)?;
                page.set_next_page(*next_page);
            }
        }
        page.set_lsn(self.lsn);
        Ok(())
    }

    /// Bytes [`encode_record`] writes for this record, without encoding it.
    pub fn encoded_len(&self) -> usize {
        const HEADER: usize = 8 + 8 + 8 + 4 + 4 + 1;
        HEADER
            + match &self.op {
                PageOp::Format { .. } => 2,
                PageOp::InsertAt { cell, .. } | PageOp::Update { cell, .. } => 2 + 4 + cell.len(),
                PageOp::Delete { .. } => 2,
                PageOp::SetNextPage { .. } => 4,
                PageOp::Build { cells, .. } => 1 + 1 + 4 + 4 + cells.as_bytes().len(),
                PageOp::Truncate { .. } => 2 + 4,
            }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encode a record (appends to `out`, returns encoded length).
pub fn encode_record(rec: &RedoRecord, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    put_u64(out, rec.lsn);
    put_u64(out, rec.prev_same_segment);
    put_u64(out, rec.txn_id);
    put_u32(out, rec.page.space_no);
    put_u32(out, rec.page.page_no);
    match &rec.op {
        PageOp::Format { ty, level } => {
            out.push(0);
            out.push(*ty as u8);
            out.push(*level);
        }
        PageOp::InsertAt { slot, cell } => {
            out.push(1);
            put_u16(out, *slot);
            put_u32(out, cell.len() as u32);
            out.extend_from_slice(cell);
        }
        PageOp::Update { slot, cell } => {
            out.push(2);
            put_u16(out, *slot);
            put_u32(out, cell.len() as u32);
            out.extend_from_slice(cell);
        }
        PageOp::Delete { slot } => {
            out.push(3);
            put_u16(out, *slot);
        }
        PageOp::SetNextPage { page_no } => {
            out.push(4);
            put_u32(out, *page_no);
        }
        PageOp::Build {
            ty,
            level,
            next_page,
            cells,
        } => {
            out.push(5);
            out.push(*ty as u8);
            out.push(*level);
            put_u32(out, *next_page);
            put_u32(out, cells.as_bytes().len() as u32);
            out.extend_from_slice(cells.as_bytes());
        }
        PageOp::Truncate { from, next_page } => {
            out.push(6);
            put_u16(out, *from);
            put_u32(out, *next_page);
        }
    }
    out.len() - start
}

/// Decode one record from `buf`; returns the record and bytes consumed.
pub fn decode_record(buf: &[u8]) -> Result<(RedoRecord, usize)> {
    let mut r = Reader::new(buf, "record");
    let lsn = r.u64()?;
    let prev = r.u64()?;
    let txn_id = r.u64()?;
    let space_no = r.u32()?;
    let page_no = r.u32()?;
    let op = match r.u8()? {
        0 => PageOp::Format {
            ty: PageType::from_byte(r.u8()?),
            level: r.u8()?,
        },
        1 => {
            let slot = r.u16()?;
            let len = r.u32()? as usize;
            PageOp::InsertAt {
                slot,
                cell: r.take(len)?.to_vec(),
            }
        }
        2 => {
            let slot = r.u16()?;
            let len = r.u32()? as usize;
            PageOp::Update {
                slot,
                cell: r.take(len)?.to_vec(),
            }
        }
        3 => PageOp::Delete { slot: r.u16()? },
        4 => PageOp::SetNextPage { page_no: r.u32()? },
        5 => {
            let ty = PageType::from_byte(r.u8()?);
            let level = r.u8()?;
            let next_page = r.u32()?;
            let len = r.u32()? as usize;
            PageOp::Build {
                ty,
                level,
                next_page,
                cells: CellList::from_vec(r.take(len)?.to_vec())?,
            }
        }
        6 => PageOp::Truncate {
            from: r.u16()?,
            next_page: r.u32()?,
        },
        tag => return Err(PageStoreError::Codec(format!("unknown op tag {tag}"))),
    };
    Ok((
        RedoRecord {
            lsn,
            prev_same_segment: prev,
            txn_id,
            page: PageId::new(space_no, page_no),
            op,
        },
        r.pos(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<RedoRecord> {
        vec![
            RedoRecord {
                lsn: 10,
                prev_same_segment: 0,
                txn_id: 1,
                page: PageId::new(1, 5),
                op: PageOp::Format {
                    ty: PageType::BTreeLeaf,
                    level: 0,
                },
            },
            RedoRecord {
                lsn: 20,
                prev_same_segment: 10,
                txn_id: 1,
                page: PageId::new(1, 5),
                op: PageOp::InsertAt {
                    slot: 0,
                    cell: b"hello".to_vec(),
                },
            },
            RedoRecord {
                lsn: 30,
                prev_same_segment: 20,
                txn_id: 2,
                page: PageId::new(1, 5),
                op: PageOp::Update {
                    slot: 0,
                    cell: b"world!".to_vec(),
                },
            },
            RedoRecord {
                lsn: 40,
                prev_same_segment: 30,
                txn_id: 2,
                page: PageId::new(1, 5),
                op: PageOp::SetNextPage { page_no: 6 },
            },
            RedoRecord {
                lsn: 50,
                prev_same_segment: 40,
                txn_id: 3,
                page: PageId::new(1, 5),
                op: PageOp::Delete { slot: 0 },
            },
        ]
    }

    /// A split's two records: page 5's upper half onto page 6, then cut.
    fn split_records() -> Vec<RedoRecord> {
        vec![
            RedoRecord {
                lsn: 60,
                prev_same_segment: 50,
                txn_id: 4,
                page: PageId::new(1, 6),
                op: PageOp::Build {
                    ty: PageType::BTreeLeaf,
                    level: 0,
                    next_page: 9,
                    cells: CellList::from_cells([b"k2".as_slice(), b"", b"k3-long"]),
                },
            },
            RedoRecord {
                lsn: 70,
                prev_same_segment: 60,
                txn_id: 4,
                page: PageId::new(1, 5),
                op: PageOp::Truncate {
                    from: 1,
                    next_page: 6,
                },
            },
        ]
    }

    #[test]
    fn codec_roundtrip_all_ops() {
        for rec in sample_records().into_iter().chain(split_records()) {
            let mut buf = Vec::new();
            let n = encode_record(&rec, &mut buf);
            assert_eq!(n, buf.len());
            let (dec, used) = decode_record(&buf).unwrap();
            assert_eq!(used, n);
            assert_eq!(dec, rec);
        }
    }

    #[test]
    fn codec_concatenated_stream() {
        let recs = sample_records();
        let mut buf = Vec::new();
        for rec in &recs {
            encode_record(rec, &mut buf);
        }
        let mut pos = 0;
        let mut out = Vec::new();
        while pos < buf.len() {
            let (rec, used) = decode_record(&buf[pos..]).unwrap();
            out.push(rec);
            pos += used;
        }
        assert_eq!(out, recs);
    }

    /// Redo comes back from storage after a crash and may be torn: for
    /// every `PageOp`, every strict prefix of a record is an error.
    #[test]
    fn truncated_record_rejected() {
        for rec in sample_records().into_iter().chain(split_records()) {
            let mut buf = Vec::new();
            encode_record(&rec, &mut buf);
            assert_eq!(decode_record(&buf).unwrap(), (rec.clone(), buf.len()));
            for cut in 0..buf.len() {
                let got = decode_record(&buf[..cut]);
                assert_eq!(got, Err(PageStoreError::Codec("record truncated".into())));
            }
        }
    }

    #[test]
    fn encoded_len_is_what_encode_writes() {
        for rec in sample_records().into_iter().chain(split_records()) {
            let mut buf = Vec::new();
            assert_eq!(encode_record(&rec, &mut buf), rec.encoded_len(), "{rec:?}");
        }
    }

    /// A cell list read back from the log must split into whole entries.
    #[test]
    fn torn_cell_list_rejected() {
        let mut buf = Vec::new();
        encode_record(&split_records()[0], &mut buf);
        // Claim one byte fewer of entries: the last entry is cut short.
        let entries = (4 + 2) + 4 + (4 + 7);
        let at = buf.len() - entries - 4;
        assert_eq!(buf[at..at + 4], (entries as u32).to_le_bytes());
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
        buf[at..at + 4].copy_from_slice(&(len - 1).to_le_bytes());
        buf.pop();
        assert_eq!(
            decode_record(&buf),
            Err(PageStoreError::Codec("cell list truncated".into()))
        );
    }

    /// Apply `ops` to `page` in order, the `i`-th at LSN `first + i`.
    fn apply_all(page: &mut Page, first: Lsn, ops: Vec<PageOp>) {
        for (i, op) in ops.into_iter().enumerate() {
            let rec = RedoRecord {
                lsn: first + i as Lsn,
                prev_same_segment: 0,
                txn_id: 1,
                page: PageId::new(1, 1),
                op,
            };
            rec.apply(page).unwrap();
        }
    }

    /// A page of `ty` at `level` linked to page 77, filled with cells of
    /// uneven lengths, some updated and deleted on the way so the page
    /// carries garbage, a grown cell and stale directory entries.
    fn full_page(ty: PageType, level: u8) -> Page {
        let mut page = Page::new();
        let mut ops = vec![
            PageOp::Format { ty, level },
            PageOp::SetNextPage { page_no: 77 },
        ];
        for i in 0..40u16 {
            let cell = vec![i as u8; 20 + usize::from(i % 7) * 9];
            ops.push(PageOp::InsertAt { slot: i, cell });
        }
        ops.push(PageOp::Update {
            slot: 3,
            cell: vec![0xEE; 90],
        });
        ops.push(PageOp::Delete { slot: 39 });
        ops.push(PageOp::Delete { slot: 10 });
        apply_all(&mut page, 1, ops);
        page
    }

    /// The reference for split logging: the per-cell sequence a split used
    /// to log, and the `Build`/`Truncate` pair it logs now, leave the same
    /// bytes on both pages at the same page LSN — for a leaf split, an
    /// append split (a leaf cut at its end: a `Build` of no cell and a
    /// `Truncate` that cuts nothing), an internal split and a root split.
    #[test]
    fn build_and_truncate_equal_the_per_cell_sequence() {
        for (ty, level, append) in [
            (PageType::BTreeLeaf, 0, false),
            (PageType::BTreeLeaf, 0, true),
            (PageType::BTreeInternal, 1, false),
        ] {
            let is_leaf = ty == PageType::BTreeLeaf;
            let target = full_page(ty, level);
            let n = target.n_slots();
            let mid = if append { n } else { n / 2 };
            let (next_link, new_no) = (77, 8);
            let moved: Vec<Vec<u8>> = (mid..n).map(|i| target.get(i).unwrap().to_vec()).collect();

            // The old log: format the sibling, chain it if a leaf, insert
            // each moved cell; delete each from the target, last first,
            // and chain the target to the sibling if a leaf.
            let mut new_ops = vec![PageOp::Format { ty, level }];
            if is_leaf {
                new_ops.push(PageOp::SetNextPage { page_no: next_link });
            }
            for (i, cell) in moved.iter().enumerate() {
                new_ops.push(PageOp::InsertAt {
                    slot: i as u16,
                    cell: cell.clone(),
                });
            }
            let mut old_ops: Vec<PageOp> = (mid..n)
                .rev()
                .map(|i| PageOp::Delete { slot: i as u16 })
                .collect();
            if is_leaf {
                old_ops.push(PageOp::SetNextPage { page_no: new_no });
            }
            let (new_last, old_last) = (
                100 + new_ops.len() as Lsn - 1,
                200 + old_ops.len() as Lsn - 1,
            );
            let (mut new_per_cell, mut old_per_cell) = (Page::new(), target.clone());
            apply_all(&mut new_per_cell, 100, new_ops);
            apply_all(&mut old_per_cell, 200, old_ops);

            let (mut new_built, mut old_cut) = (Page::new(), target.clone());
            apply_all(
                &mut new_built,
                new_last,
                vec![PageOp::Build {
                    ty,
                    level,
                    next_page: if is_leaf { next_link } else { 0 },
                    cells: CellList::from_cells(moved.iter().map(Vec::as_slice)),
                }],
            );
            apply_all(
                &mut old_cut,
                old_last,
                vec![PageOp::Truncate {
                    from: mid as u16,
                    next_page: if is_leaf { new_no } else { target.next_page() },
                }],
            );
            assert_eq!(
                new_built.as_bytes(),
                new_per_cell.as_bytes(),
                "{ty:?} sibling, append {append}"
            );
            assert_eq!(
                old_cut.as_bytes(),
                old_per_cell.as_bytes(),
                "{ty:?} target, append {append}"
            );
            assert_eq!(new_built.n_slots(), n - mid);
            assert_eq!(old_cut.n_slots(), mid);

            // A root split over this page: a new internal root holding
            // the −∞ cell and the separator.
            let sep = target.get(n / 2).unwrap().to_vec();
            let cells = [b"\0\0\x05\0\0\0".to_vec(), sep];
            let mut root_ops = vec![PageOp::Format {
                ty: PageType::BTreeInternal,
                level: level + 1,
            }];
            for (i, cell) in cells.iter().enumerate() {
                root_ops.push(PageOp::InsertAt {
                    slot: i as u16,
                    cell: cell.clone(),
                });
            }
            let (mut root_per_cell, mut root_built) = (Page::new(), Page::new());
            apply_all(&mut root_per_cell, 300, root_ops);
            apply_all(
                &mut root_built,
                302,
                vec![PageOp::Build {
                    ty: PageType::BTreeInternal,
                    level: level + 1,
                    next_page: 0,
                    cells: CellList::from_cells(cells.iter().map(Vec::as_slice)),
                }],
            );
            assert_eq!(
                root_built.as_bytes(),
                root_per_cell.as_bytes(),
                "{ty:?} root"
            );
        }
    }

    #[test]
    fn build_or_truncate_out_of_range_is_an_error() {
        let mut page = full_page(PageType::BTreeLeaf, 0);
        let n = page.n_slots();
        let cut = RedoRecord {
            lsn: 500,
            prev_same_segment: 0,
            txn_id: 1,
            page: PageId::new(1, 1),
            op: PageOp::Truncate {
                from: n as u16 + 1,
                next_page: 0,
            },
        };
        let before = page.clone();
        assert!(matches!(
            cut.apply(&mut page),
            Err(PageStoreError::SlotOutOfRange { .. })
        ));
        let big = vec![0u8; PAGE_SIZE / 2];
        let build = RedoRecord {
            op: PageOp::Build {
                ty: PageType::BTreeLeaf,
                level: 0,
                next_page: 0,
                cells: CellList::from_cells([big.as_slice(), &big]),
            },
            ..cut
        };
        assert!(matches!(
            build.apply(&mut page),
            Err(PageStoreError::PageFull { .. })
        ));
        assert_eq!(page, before, "a failed record leaves the page as it was");
    }

    #[test]
    fn apply_replays_to_expected_page() {
        let mut page = Page::new();
        for rec in sample_records() {
            rec.apply(&mut page).unwrap();
        }
        assert_eq!(page.lsn(), 50);
        assert_eq!(page.n_slots(), 0); // inserted then deleted
        assert_eq!(page.next_page(), 6);
        assert_eq!(page.page_type(), PageType::BTreeLeaf);
    }

    #[test]
    fn apply_is_idempotent() {
        let mut page = Page::new();
        let recs = sample_records();
        for rec in &recs[..2] {
            rec.apply(&mut page).unwrap();
        }
        let snapshot = page.clone();
        // Re-applying already-applied records is a no-op.
        for rec in &recs[..2] {
            rec.apply(&mut page).unwrap();
        }
        assert_eq!(page, snapshot);
        assert_eq!(page.get(0).unwrap(), b"hello");
    }
}
