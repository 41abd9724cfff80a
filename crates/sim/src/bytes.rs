//! The workspace's one little-endian byte reader.
//!
//! Every format read back from storage or the wire — WAL frames and their
//! records, redo records, the meta page, rows, push-down fragments, the EBP
//! record header and AStore's superblock, slot meta, ring header and io-meta
//! — is decoded through a [`Reader`]. Those bytes may be torn by a crash or
//! damaged in flight, so a read past the end is a [`Truncated`] error naming
//! the format, never a panic; each crate turns it into its own codec error
//! ("row truncated", "meta truncated", ...).

use std::fmt;

/// A read ran past the end of its input; names the format being read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated(pub &'static str);

impl fmt::Display for Truncated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} truncated", self.0)
    }
}

/// A little-endian cursor over a byte slice. The methods are `#[inline]`:
/// the row decoder calls them once per column, across the crate boundary.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
    len: usize,
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`; `what` names the format in errors.
    #[inline]
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        Reader {
            rest: buf,
            len: buf.len(),
            what,
        }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let (head, tail) = self.rest.split_at_checked(n).ok_or(Truncated(self.what))?;
        self.rest = tail;
        Ok(head)
    }

    /// The next `N` bytes as an array.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<&'a [u8; N], Truncated> {
        let (head, tail) = self.rest.split_first_chunk().ok_or(Truncated(self.what))?;
        self.rest = tail;
        Ok(head)
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        self.array().map(|&[b]| b)
    }

    /// The next little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, Truncated> {
        self.array().map(|b| u16::from_le_bytes(*b))
    }

    /// The next little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        self.array().map(|b| u32::from_le_bytes(*b))
    }

    /// The next little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        self.array().map(|b| u64::from_le_bytes(*b))
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn pos(&self) -> usize {
        self.len - self.rest.len()
    }

    /// The bytes not yet consumed.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_little_endian_in_order_and_counts_what_it_took() {
        let buf = [7, 1, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 9, 9];
        let mut r = Reader::new(&buf, "test");
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(1));
        assert_eq!(r.u32(), Ok(2));
        assert_eq!(r.u64(), Ok(3));
        assert_eq!(r.pos(), 15);
        assert_eq!(r.rest(), &[9, 9]);
        assert_eq!(r.array::<2>(), Ok(&[9, 9]));
        assert_eq!(r.take(0), Ok(&[][..]));
    }

    #[test]
    fn a_read_past_the_end_names_the_format_and_consumes_nothing() {
        let mut r = Reader::new(&[1, 2, 3], "meta");
        assert_eq!(r.u32(), Err(Truncated("meta")));
        assert_eq!(r.take(4), Err(Truncated("meta")));
        assert_eq!(r.take(usize::MAX), Err(Truncated("meta")));
        assert_eq!(r.pos(), 0);
        assert_eq!(r.u16(), Ok(0x0201));
        assert_eq!(Truncated("meta").to_string(), "meta truncated");
    }
}
