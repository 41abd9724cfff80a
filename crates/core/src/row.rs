//! Values, rows, and their encodings.
//!
//! Two encodings exist:
//!
//! * **Row encoding** ([`encode_row`]/[`decode_row`]) — compact tagged
//!   little-endian, used for cell payloads in B+Tree leaves.
//! * **Key encoding** ([`encode_key`]) — *memcomparable*: byte-wise
//!   comparison of encoded keys equals typed comparison of the values, so
//!   B+Tree pages can binary-search raw bytes. Integers flip the sign bit
//!   and go big-endian; strings are terminated with `0x00 0x01`-escaped
//!   framing; NULL is not allowed in keys.

use std::hash::Hasher;

use vedb_sim::bytes::Reader;

use crate::{EngineError, Result};

/// A single column value.
#[derive(Debug, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer (all integer column widths map here).
    Int(i64),
    /// Double-precision float.
    Double(f64),
    /// UTF-8 string (CHAR/VARCHAR).
    Str(String),
}

impl Value {
    /// Integer accessor (panics on type mismatch — workload code constructs
    /// rows and knows its schema).
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            other => panic!("expected Int, got {other:?}"),
        }
    }

    /// Double accessor; integers widen.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::Double(v) => *v,
            Value::Int(v) => *v as f64,
            other => panic!("expected numeric, got {other:?}"),
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("expected Str, got {other:?}"),
        }
    }

    /// Is this NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl Clone for Value {
    fn clone(&self) -> Value {
        match self {
            Value::Null => Value::Null,
            Value::Int(v) => Value::Int(*v),
            Value::Double(v) => Value::Double(*v),
            Value::Str(s) => Value::Str(s.clone()),
        }
    }

    /// A string copied over a string reuses the destination's buffer, so a
    /// row buffer refilled per input row allocates once per string column.
    fn clone_from(&mut self, src: &Value) {
        match (self, src) {
            (Value::Str(dst), Value::Str(s)) => dst.clone_from(s),
            (dst, src) => *dst = src.clone(),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        use Value::*;
        match (self, other) {
            (Null, Null) => Some(std::cmp::Ordering::Equal),
            (Null, _) => Some(std::cmp::Ordering::Less),
            (_, Null) => Some(std::cmp::Ordering::Greater),
            (Int(a), Int(b)) => a.partial_cmp(b),
            (Double(a), Double(b)) => a.partial_cmp(b),
            (Int(a), Double(b)) => (*a as f64).partial_cmp(b),
            (Double(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.partial_cmp(b),
            _ => None,
        }
    }
}

/// A row: one value per column, in schema order.
pub type Row = Vec<Value>;

/// Encode a row into `out`.
pub fn encode_row(row: &Row, out: &mut Vec<u8>) {
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        encode_value(v, out);
    }
}

/// Encode one value as [`encode_row`] does: a tag, then the payload. The
/// encoding is prefix-free, so concatenated values make a canonical
/// (hashable, byte-comparable) key.
pub(crate) fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Double(d) => {
            out.push(2);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Is `encode_value(a) == encode_value(b)`? The same variant holding the
/// same payload: an `Int` equal to an `Int`, a `Double` with the same bits (so
/// `0.0` is not `-0.0`, and a NaN is itself), a `Str` equal to a `Str`, or two
/// NULLs. `Int(1)` is not `Double(1.0)`. This is what makes two join or group
/// keys one key; no bytes are built to decide it.
pub(crate) fn same_encoding(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

/// The [`FxHasher`](vedb_sim::FxHasher) hash of a run of values, tag and
/// payload of each: values [`same_encoding`] one by one hash alike, so a key
/// can be found by this hash and told apart from a colliding one by
/// [`same_encoding`].
pub(crate) fn hash_values<'a>(vals: impl IntoIterator<Item = &'a Value>) -> u64 {
    let mut h = vedb_sim::FxHasher::default();
    for v in vals {
        match v {
            Value::Null => h.write_u64(0),
            Value::Int(i) => {
                h.write_u64(1);
                h.write_u64(*i as u64);
            }
            Value::Double(d) => {
                h.write_u64(2);
                h.write_u64(d.to_bits());
            }
            Value::Str(s) => {
                h.write_u64(3);
                h.write_usize(s.len());
                h.write(s.as_bytes());
            }
        }
    }
    h.finish()
}

/// The columns of a row that somebody reads: every column, or the indexes
/// in a bitmask. Operators hand the set to whatever produces their input, so
/// a decoder builds only what is read (see [`decode_cols`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColSet {
    /// Bit `i % 8` of byte `i / 8` is column `i`, no trailing zero byte;
    /// `None` is every column, whatever the row's width.
    bits: Option<Vec<u8>>,
}

impl ColSet {
    /// Every column.
    pub fn all() -> ColSet {
        ColSet { bits: None }
    }

    /// No column.
    pub fn none() -> ColSet {
        ColSet {
            bits: Some(Vec::new()),
        }
    }

    /// Is column `i` in the set?
    pub fn contains(&self, i: usize) -> bool {
        match &self.bits {
            None => true,
            Some(bits) => bits.get(i / 8).is_some_and(|b| b >> (i % 8) & 1 == 1),
        }
    }

    /// Add column `i`.
    pub fn insert(&mut self, i: usize) {
        if let Some(bits) = &mut self.bits {
            if bits.len() <= i / 8 {
                bits.resize(i / 8 + 1, 0);
            }
            bits[i / 8] |= 1 << (i % 8);
        }
    }

    /// This set with `cols` added.
    pub fn with(mut self, cols: impl IntoIterator<Item = usize>) -> ColSet {
        for i in cols {
            self.insert(i);
        }
        self
    }

    /// The set's columns from `from` up, renumbered from zero: what a row
    /// appended at offset `from` contributes to the columns read.
    pub fn from_offset(&self, from: usize) -> ColSet {
        match &self.bits {
            None => ColSet::all(),
            Some(bits) => {
                let upper = (from..bits.len() * 8).filter(|i| self.contains(*i));
                ColSet::none().with(upper.map(|i| i - from))
            }
        }
    }

    /// The bitmask (see the field), `None` for every column.
    pub(crate) fn mask(&self) -> Option<&[u8]> {
        self.bits.as_deref()
    }

    /// The set a [`mask`](ColSet::mask) describes.
    pub(crate) fn from_mask(mask: &[u8]) -> ColSet {
        let keep = mask
            .iter()
            .rposition(|b| *b != 0)
            .map_or(0, |last| last + 1);
        ColSet {
            bits: Some(mask[..keep].to_vec()),
        }
    }
}

/// Decode a row from `buf` (must contain exactly one row).
pub fn decode_row(buf: &[u8]) -> Result<Row> {
    let mut row = Vec::new();
    decode_cols(buf, &ColSet::all(), &mut row)?;
    Ok(row)
}

/// Decode the one row in `buf` into the caller's `row`, building only the
/// columns in `need`: the row keeps its width and every other column is a
/// placeholder [`Value::Null`] that, by the demanded-columns contract, nobody
/// reads (a slot already holding one is not written). The whole buffer is validated whatever `need` is — tags, lengths,
/// UTF-8 and the absence of a tail — so the outcome (`Ok` or
/// [`EngineError::Codec`]) never depends on it. `row`'s buffers are reused.
pub fn decode_cols(buf: &[u8], need: &ColSet, row: &mut Row) -> Result<()> {
    match need.mask() {
        None => decode_with(buf, row, |_| true),
        Some(_) => decode_with(buf, row, |i| need.contains(i)),
    }
}

#[inline]
fn decode_with(buf: &[u8], row: &mut Row, need: impl Fn(usize) -> bool) -> Result<()> {
    let mut r = Reader::new(buf, "row");
    let n = r.u16()? as usize;
    row.reserve_exact(n.saturating_sub(row.len()));
    row.resize(n, Value::Null);
    for (i, slot) in row.iter_mut().enumerate() {
        let wanted = need(i);
        let value = match r.u8()? {
            0 => Value::Null,
            1 => Value::Int(i64::from_le_bytes(*r.array()?)),
            2 => Value::Double(f64::from_le_bytes(*r.array()?)),
            3 => {
                let len = r.u32()? as usize;
                let s = r.take(len)?;
                let s =
                    std::str::from_utf8(s).map_err(|_| EngineError::Codec("bad utf8".into()))?;
                match slot {
                    // The previous row's string buffer takes this row's text.
                    Value::Str(old) if wanted => {
                        old.clear();
                        old.push_str(s);
                        continue;
                    }
                    _ if wanted => Value::Str(s.to_owned()),
                    _ => Value::Null,
                }
            }
            t => return Err(EngineError::Codec(format!("bad value tag {t}"))),
        };
        if wanted {
            *slot = value;
        } else if !slot.is_null() {
            // An undemanded slot is left alone once it holds the placeholder.
            *slot = Value::Null;
        }
    }
    if !r.rest().is_empty() {
        return Err(EngineError::Codec("bytes after the row".into()));
    }
    Ok(())
}

/// Memcomparable encoding of a (composite) key, read in place from its
/// parts (a slice of values, or a row's key columns), into one buffer of
/// the exact size.
///
/// # Panics
/// Panics on NULL or Double key parts (neither appears in any key of the
/// evaluated schemas; Doubles lack a total order).
pub fn encode_key<'a, I>(parts: I) -> Vec<u8>
where
    I: IntoIterator<Item = &'a Value>,
    I::IntoIter: Clone,
{
    let parts = parts.into_iter();
    let len = parts
        .clone()
        .map(|v| match v {
            Value::Str(s) => 3 + s.len() + s.bytes().filter(|&b| b == 0).count(),
            _ => 9,
        })
        .sum();
    let mut out = Vec::with_capacity(len);
    for v in parts {
        match v {
            Value::Int(i) => {
                out.push(1);
                // Flip the sign bit so byte order == numeric order.
                out.extend_from_slice(&((*i as u64) ^ (1u64 << 63)).to_be_bytes());
            }
            Value::Str(s) => {
                out.push(2);
                // Escape 0x00 as 0x00 0xFF; terminate with 0x00 0x00 so a
                // shorter string sorts before its extensions.
                for &b in s.as_bytes() {
                    if b == 0 {
                        out.extend_from_slice(&[0x00, 0xFF]);
                    } else {
                        out.push(b);
                    }
                }
                out.extend_from_slice(&[0x00, 0x00]);
            }
            other => panic!("unsupported key part: {other:?}"),
        }
    }
    debug_assert_eq!(out.len(), len, "key size");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn row_roundtrip() {
        let row: Row = vec![
            Value::Int(-42),
            Value::Str("hello world".into()),
            Value::Double(3.25),
            Value::Null,
            Value::Str(String::new()),
        ];
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        assert_eq!(decode_row(&buf).unwrap(), row);
    }

    #[test]
    fn row_truncated_rejected() {
        let row: Row = vec![Value::Int(5)];
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        assert!(decode_row(&buf[..buf.len() - 1]).is_err());
        assert!(decode_row(&[]).is_err());
    }

    #[test]
    fn row_with_a_tail_rejected() {
        let mut buf = Vec::new();
        encode_row(&vec![Value::Int(5), Value::Str("x".into())], &mut buf);
        buf.push(0);
        for need in [ColSet::all(), ColSet::none(), ColSet::none().with([1])] {
            let got = decode_cols(&buf, &need, &mut Row::new());
            assert!(matches!(got, Err(EngineError::Codec(_))), "{got:?}");
        }
    }

    #[test]
    fn bad_utf8_in_a_column_nobody_reads_is_still_a_codec_error() {
        let mut buf = Vec::new();
        encode_row(&vec![Value::Int(5), Value::Str("xy".into())], &mut buf);
        let last = buf.len() - 1;
        buf[last] = 0xFF;
        let got = decode_cols(&buf, &ColSet::none().with([0]), &mut Row::new());
        assert!(matches!(got, Err(EngineError::Codec(_))), "{got:?}");
    }

    #[test]
    fn col_set_algebra() {
        let set = ColSet::none().with([1, 9, 12]);
        assert!([1, 9, 12].iter().all(|i| set.contains(*i)));
        assert!([0, 8, 13, 500].iter().all(|i| !set.contains(*i)));
        assert_eq!(set.from_offset(9), ColSet::none().with([0, 3]));
        assert_eq!(set.from_offset(13), ColSet::none());
        assert_eq!(ColSet::from_mask(set.mask().unwrap()), set);
        assert_eq!(ColSet::from_mask(&[0b10, 0, 0]), ColSet::none().with([1]));
        let all = ColSet::all().with([3]);
        assert!(all.contains(70_000) && all.from_offset(4) == ColSet::all());
    }

    /// Bytes of a row: equal bytes are equal values, NaN bits included.
    fn bytes(row: &Row) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_row(row, &mut buf);
        buf
    }

    /// `(kind, pick, bits)` → a value, mostly from pools whose encodings are
    /// easy to confuse: an `Int` equal to an integral `Double`, NaNs of two
    /// payloads and signs, `0.0` and `-0.0`, strings that are empty, hold
    /// `\0` or share a prefix. Kinds 2 and 4 take arbitrary bits.
    fn edge_value((kind, pick, bits): (u8, usize, u64)) -> Value {
        const INTS: [i64; 6] = [0, 1, -1, 2, i64::MIN, 1 << 53];
        const DOUBLES: [f64; 9] = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            2.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001),
            (1u64 << 53) as f64,
        ];
        const STRS: [&str; 8] = ["", "a", "ab", "abc", "a\0", "a\0b", "\0", "b"];
        match kind {
            0 => Value::Null,
            1 => Value::Int(INTS[pick % INTS.len()]),
            2 => Value::Int(bits as i64),
            3 => Value::Double(DOUBLES[pick % DOUBLES.len()]),
            4 => Value::Double(f64::from_bits(bits)),
            _ => Value::Str(STRS[pick % STRS.len()].into()),
        }
    }

    fn encoded<'a>(vals: impl IntoIterator<Item = &'a Value>) -> Vec<u8> {
        let mut out = Vec::new();
        vals.into_iter().for_each(|v| encode_value(v, &mut out));
        out
    }

    proptest! {
        #[test]
        fn same_encoding_is_equal_bytes_and_equal_bytes_hash_alike(
            a in proptest::collection::vec((0u8..6, 0usize..9, any::<u64>()), 0..6),
            fresh in proptest::collection::vec((0u8..6, 0usize..9, any::<u64>()), 6..7),
            keep in any::<u8>(),
        ) {
            // `b` keeps some of `a`'s values and draws the others afresh.
            let a: Vec<Value> = a.into_iter().map(edge_value).collect();
            let b: Vec<Value> = a
                .iter()
                .zip(fresh)
                .enumerate()
                .map(|(i, (v, f))| if keep >> i & 1 == 1 { v.clone() } else { edge_value(f) })
                .collect();
            for (x, y) in a.iter().zip(&b) {
                let same = encoded([x]) == encoded([y]);
                prop_assert_eq!(same_encoding(x, y), same, "{:?} vs {:?}", x, y);
                if same {
                    prop_assert_eq!(hash_values([x]), hash_values([y]));
                }
            }
            if encoded(&a) == encoded(&b) {
                prop_assert_eq!(hash_values(&a), hash_values(&b));
            }
        }

        #[test]
        fn any_demanded_set_decodes_like_the_full_row(
            cols in proptest::collection::vec((0u8..4, any::<u64>(), 0usize..4), 0..12),
            mask in any::<u16>(),
            everything in 0u8..4,
        ) {
            let text = ["", "a", "h\u{e9}llo w\u{f6}rld \u{2713}", "nul\0inside"];
            let row: Row = cols
                .into_iter()
                .map(|(kind, bits, s)| match kind {
                    0 => Value::Null,
                    1 => Value::Int(bits as i64),
                    2 => Value::Double(f64::from_bits(bits)),
                    _ => Value::Str(text[s].into()),
                })
                .collect();
            let need = match everything {
                0 => ColSet::all(),
                _ => ColSet::none().with((0..16).filter(|i| mask >> i & 1 == 1)),
            };
            let buf = bytes(&row);
            prop_assert_eq!(bytes(&decode_row(&buf).unwrap()), buf.clone());

            // Into a buffer that held another row: demanded columns are the
            // full decode's, the rest NULL, the width kept.
            let mut got = vec![Value::Str("stale".into()); 5];
            decode_cols(&buf, &need, &mut got).unwrap();
            let masked = row.iter().enumerate().map(|(i, v)| match need.contains(i) {
                true => v.clone(),
                false => Value::Null,
            });
            prop_assert_eq!(bytes(&got), bytes(&masked.collect()));

            // A cut buffer is a codec error under every demanded set, as it
            // is for the full decode.
            for cut in 0..buf.len() {
                let full = decode_row(&buf[..cut]);
                let pruned = decode_cols(&buf[..cut], &need, &mut got);
                prop_assert!(matches!(full, Err(EngineError::Codec(_))), "{cut}: {full:?}");
                prop_assert!(matches!(pruned, Err(EngineError::Codec(_))), "{cut}: {pruned:?}");
            }
        }
    }

    #[test]
    fn key_order_matches_int_order() {
        let vals = [-1_000_000i64, -1, 0, 1, 7, 1_000_000];
        let keys: Vec<Vec<u8>> = vals.iter().map(|v| encode_key(&[Value::Int(*v)])).collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn key_order_matches_string_order() {
        let vals = ["", "a", "ab", "b", "ba"];
        let keys: Vec<Vec<u8>> = vals
            .iter()
            .map(|v| encode_key(&[Value::Str(v.to_string())]))
            .collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "{:?} !< {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn composite_key_order() {
        // (1, "b") < (2, "a"); (1, "a") < (1, "ab")
        let k = |i: i64, s: &str| encode_key(&[Value::Int(i), Value::Str(s.into())]);
        assert!(k(1, "b") < k(2, "a"));
        assert!(k(1, "a") < k(1, "ab"));
        assert!(k(1, "") < k(1, "a"));
    }

    #[test]
    fn string_with_nul_bytes_sorts_correctly() {
        let k = |s: &[u8]| encode_key(&[Value::Str(String::from_utf8(s.to_vec()).unwrap())]);
        assert!(k(b"a") < k(b"a\x00"));
        assert!(k(b"a\x00") < k(b"a\x01"));
    }

    #[test]
    fn value_comparisons() {
        assert!(Value::Int(3) < Value::Int(5));
        assert!(Value::Int(3) < Value::Double(3.5));
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Str("a".into()) < Value::Str("b".into()));
        assert_eq!(Value::Int(3).partial_cmp(&Value::Str("x".into())), None);
    }
}
