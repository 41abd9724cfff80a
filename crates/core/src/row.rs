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

use crate::{EngineError, Result};

/// A single column value.
#[derive(Debug, Clone, PartialEq)]
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

/// Decode a row from `buf` (must contain exactly one row).
pub fn decode_row(buf: &[u8]) -> Result<Row> {
    let err = || EngineError::Codec("row truncated".into());
    if buf.len() < 2 {
        return Err(err());
    }
    let n = u16::from_le_bytes([buf[0], buf[1]]) as usize;
    let mut pos = 2;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = *buf.get(pos).ok_or_else(err)?;
        pos += 1;
        match tag {
            0 => row.push(Value::Null),
            1 => {
                let b = buf.get(pos..pos + 8).ok_or_else(err)?;
                row.push(Value::Int(i64::from_le_bytes(b.try_into().unwrap())));
                pos += 8;
            }
            2 => {
                let b = buf.get(pos..pos + 8).ok_or_else(err)?;
                row.push(Value::Double(f64::from_le_bytes(b.try_into().unwrap())));
                pos += 8;
            }
            3 => {
                let b = buf.get(pos..pos + 4).ok_or_else(err)?;
                let len = u32::from_le_bytes(b.try_into().unwrap()) as usize;
                pos += 4;
                let s = buf.get(pos..pos + len).ok_or_else(err)?;
                row.push(Value::Str(
                    String::from_utf8(s.to_vec())
                        .map_err(|_| EngineError::Codec("bad utf8".into()))?,
                ));
                pos += len;
            }
            t => return Err(EngineError::Codec(format!("bad value tag {t}"))),
        }
    }
    Ok(row)
}

/// Memcomparable encoding of a (composite) key.
///
/// # Panics
/// Panics on NULL or Double key parts (neither appears in any key of the
/// evaluated schemas; Doubles lack a total order).
pub fn encode_key(parts: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(parts.len() * 9);
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
