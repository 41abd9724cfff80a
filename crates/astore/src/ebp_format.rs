//! On-media record format for Extended-Buffer-Pool page images.
//!
//! The DBEngine writes evicted pages into EBP segments with one-sided RDMA,
//! so the AStore server never sees a structured "put" — but it must still be
//! able to *scan* its local PMem during EBP recovery (§V-E: "each AStore
//! server scans pages stored in local PMem, compares their LSNs with the one
//! in memory, discards those with older LSNs, then returns the valid page
//! IDs along with their position"). Every page image is therefore prefixed
//! with a self-validating header, and the writer chains a zeroed header
//! *after* each record as a terminator, so a scan walks records until the
//! first invalid header.

use vedb_sim::bytes::Reader;

use crate::{Lsn, PageId};

/// Magic marking a valid EBP page record.
pub const EBP_MAGIC: u32 = 0xEB9A_6E01;

/// Size of the record header in bytes.
pub const RECORD_HDR_SIZE: usize = 32;

/// A decoded EBP record header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EbpRecordHeader {
    /// The cached page's identity.
    pub page: PageId,
    /// LSN the page image was current as of.
    pub lsn: Lsn,
    /// Payload (page image) length in bytes.
    pub len: u32,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Encode a record header.
pub fn encode_header(h: &EbpRecordHeader) -> [u8; RECORD_HDR_SIZE] {
    let mut buf = [0u8; RECORD_HDR_SIZE];
    buf[0..4].copy_from_slice(&EBP_MAGIC.to_le_bytes());
    buf[4..8].copy_from_slice(&h.page.space_no.to_le_bytes());
    buf[8..12].copy_from_slice(&h.page.page_no.to_le_bytes());
    buf[12..16].copy_from_slice(&h.len.to_le_bytes());
    buf[16..24].copy_from_slice(&h.lsn.to_le_bytes());
    let ck = fnv1a(&buf[0..24]);
    buf[24..32].copy_from_slice(&ck.to_le_bytes());
    buf
}

/// Decode and validate a record header; `None` for anything that is not a
/// well-formed record (including the all-zero terminator).
pub fn decode_header(buf: &[u8]) -> Option<EbpRecordHeader> {
    let mut r = Reader::new(buf, "ebp header");
    let body = r.take(RECORD_HDR_SIZE - 8).ok()?;
    let ck_stored = r.u64().ok()?;
    let mut r = Reader::new(body, "ebp header");
    if r.u32().ok()? != EBP_MAGIC || fnv1a(body) != ck_stored {
        return None;
    }
    let page = PageId::new(r.u32().ok()?, r.u32().ok()?);
    let len = r.u32().ok()?;
    let lsn = r.u64().ok()?;
    Some(EbpRecordHeader { page, lsn, len })
}

/// Total on-media size of a record with `payload_len` bytes of page image.
pub fn record_size(payload_len: usize) -> usize {
    RECORD_HDR_SIZE + payload_len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = EbpRecordHeader {
            page: PageId::new(3, 77),
            lsn: 123_456,
            len: 16 * 1024,
        };
        let enc = encode_header(&h);
        assert_eq!(decode_header(&enc), Some(h));
    }

    #[test]
    fn zero_terminator_is_invalid() {
        assert_eq!(decode_header(&[0u8; RECORD_HDR_SIZE]), None);
    }

    #[test]
    fn corrupted_header_rejected() {
        let h = EbpRecordHeader {
            page: PageId::new(1, 2),
            lsn: 9,
            len: 100,
        };
        let mut enc = encode_header(&h);
        enc[5] ^= 0xFF; // flip a bit in space_no
        assert_eq!(decode_header(&enc), None);
        let mut enc2 = encode_header(&h);
        enc2[25] ^= 0x01; // corrupt the checksum itself
        assert_eq!(decode_header(&enc2), None);
    }

    #[test]
    fn short_buffer_rejected() {
        let h = EbpRecordHeader {
            page: PageId::new(1, 2),
            lsn: 9,
            len: 100,
        };
        let enc = encode_header(&h);
        assert_eq!(decode_header(&enc[..31]), None);
    }

    #[test]
    fn record_size_adds_header() {
        assert_eq!(record_size(16 * 1024), 16 * 1024 + RECORD_HDR_SIZE);
    }
}
