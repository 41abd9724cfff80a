//! Physiological REDO records and their application to pages.
//!
//! veDB follows the log-is-database principle (§III): the DBEngine never
//! writes dirty pages back — it ships REDO records, and PageStore
//! "constantly replays transactions from the REDO logs to keep pages up to
//! date". A [`RedoRecord`] describes one page-level mutation; applying the
//! full record stream to an empty store reconstructs every page exactly.
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

use crate::page::{Page, PageType};
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
    /// Apply-worker partition for this record under a pool of `workers`:
    /// page-id affinity keeps every record of one page on the same worker,
    /// which is what lets the parallel applier preserve per-page LSN order
    /// while applying independent pages concurrently.
    pub fn apply_partition(&self, workers: usize) -> usize {
        self.page.page_no as usize % workers.max(1)
    }

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
        }
        page.set_lsn(self.lsn);
        Ok(())
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

    #[test]
    fn codec_roundtrip_all_ops() {
        for rec in sample_records() {
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
        for rec in sample_records() {
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
