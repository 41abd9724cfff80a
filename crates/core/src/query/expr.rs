//! Scalar expressions: evaluation and wire codec.
//!
//! Expressions are evaluated against a row (column indexes into the row).
//! Booleans are represented as `Value::Int(0|1)`; any comparison involving
//! NULL yields false (SQL-ish enough for the evaluated workloads). The
//! binary codec exists because push-down plan fragments are *serialized*
//! and sent to storage servers (§VI-A), and we reproduce that faithfully.

use std::borrow::Cow;

use crate::row::{ColSet, Row, Value};
use crate::{EngineError, Result};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference (index into the input row).
    Col(usize),
    /// Literal.
    Lit(Value),
    /// Comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical AND.
    And(Box<Expr>, Box<Expr>),
    /// Logical OR.
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// SQL LIKE limited to `%substr%`, `prefix%`, `%suffix` patterns.
    Like(Box<Expr>, String),
}

impl Expr {
    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Lit(Value::Int(v))
    }

    /// String literal.
    pub fn str(v: &str) -> Expr {
        Expr::Lit(Value::Str(v.to_string()))
    }

    /// Double literal.
    pub fn dbl(v: f64) -> Expr {
        Expr::Lit(Value::Double(v))
    }

    /// Comparison builder.
    pub fn cmp(op: CmpOp, a: Expr, b: Expr) -> Expr {
        Expr::Cmp(op, Box::new(a), Box::new(b))
    }

    /// `a = b`.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Self::cmp(CmpOp::Eq, a, b)
    }

    /// `a AND b`.
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::And(Box::new(a), Box::new(b))
    }

    /// `a OR b`.
    pub fn or(a: Expr, b: Expr) -> Expr {
        Expr::Or(Box::new(a), Box::new(b))
    }

    /// `a BETWEEN lo AND hi` (inclusive).
    pub fn between(a: Expr, lo: Expr, hi: Expr) -> Expr {
        Self::and(
            Self::cmp(CmpOp::Ge, a.clone(), lo),
            Self::cmp(CmpOp::Le, a, hi),
        )
    }

    /// `a * b`.
    ///
    /// A builder constructor taking two operands, not `std::ops::Mul` —
    /// the std trait would force `Expr * Expr` syntax on plan-building
    /// code that consistently uses named constructors.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, Box::new(a), Box::new(b))
    }

    /// Add every column this expression reads to `into`.
    pub fn cols(&self, into: &mut ColSet) {
        match self {
            Expr::Col(i) => into.insert(*i),
            Expr::Lit(_) => {}
            Expr::Not(a) | Expr::Like(a, _) => a.cols(into),
            Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) | Expr::Arith(_, a, b) => {
                a.cols(into);
                b.cols(into);
            }
        }
    }

    /// Evaluate against `row`, borrowing: a column or a literal is handed
    /// back as a reference into `row` or the expression, so no `Value` and
    /// no `String` is copied per column read. Only arithmetic, comparisons
    /// and `LIKE` make a value, and none of those is a string.
    pub fn eval_ref<'a>(&'a self, row: &'a Row) -> Result<Cow<'a, Value>> {
        Ok(match self {
            Expr::Col(i) => Cow::Borrowed(column(row, *i)?),
            Expr::Lit(v) => Cow::Borrowed(v),
            Expr::Arith(op, a, b) => {
                Cow::Owned(a.with_value(row, |x| b.with_value(row, |y| arith(*op, x, y)))?)
            }
            _ => Cow::Owned(Value::Int(self.eval_bool(row)? as i64)),
        })
    }

    /// `f` of this expression's value over `row`. A column or a literal is
    /// read in place — no [`Cow`] is built, which is most of what a
    /// comparison of two leaves would otherwise cost per row; anything else
    /// goes through [`Expr::eval_ref`].
    #[inline]
    pub(super) fn with_value<T>(
        &self,
        row: &Row,
        f: impl FnOnce(&Value) -> Result<T>,
    ) -> Result<T> {
        match self {
            Expr::Col(i) => f(column(row, *i)?),
            Expr::Lit(v) => f(v),
            _ => f(&*self.eval_ref(row)?),
        }
    }

    /// Evaluate against `row` into an owned value.
    pub fn eval(&self, row: &Row) -> Result<Value> {
        self.eval_ref(row).map(Cow::into_owned)
    }

    /// Evaluate as a boolean predicate: an `Int` is true when nonzero, a
    /// `Double` when not `0.0`, a string always, NULL never.
    pub fn eval_bool(&self, row: &Row) -> Result<bool> {
        match self {
            Expr::Cmp(op, a, b) => {
                a.with_value(row, |x| b.with_value(row, |y| Ok(compare(*op, x, y))))
            }
            Expr::And(a, b) => Ok(a.eval_bool(row)? && b.eval_bool(row)?),
            Expr::Or(a, b) => Ok(a.eval_bool(row)? || b.eval_bool(row)?),
            Expr::Not(a) => Ok(!a.eval_bool(row)?),
            Expr::Like(e, pattern) => {
                e.with_value(row, |v| Ok(matches!(v, Value::Str(s) if like(s, pattern))))
            }
            Expr::Col(_) | Expr::Lit(_) | Expr::Arith(..) => self.with_value(row, |v| {
                Ok(match v {
                    Value::Int(v) => *v != 0,
                    Value::Null => false,
                    Value::Double(v) => *v != 0.0,
                    Value::Str(_) => true,
                })
            }),
        }
    }
}

/// Column `i` of `row`; past the row's end it is an error.
#[inline]
fn column(row: &Row, i: usize) -> Result<&Value> {
    row.get(i)
        .ok_or_else(|| EngineError::Query(format!("column {i} out of range")))
}

/// `a op b`; any comparison involving NULL is false.
fn compare(op: CmpOp, a: &Value, b: &Value) -> bool {
    if a.is_null() || b.is_null() {
        return false;
    }
    a.partial_cmp(b).is_some_and(|ord| match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    })
}

/// `a op b`: NULL if either side is NULL or an integer is divided by zero;
/// two integers stay integers, checked — an overflow is an error, as MySQL
/// reports a BIGINT out of range — and anything else is a double. A string
/// operand is an error.
fn arith(op: ArithOp, a: &Value, b: &Value) -> Result<Value> {
    Ok(match (a, b) {
        (Value::Int(x), Value::Int(y)) => {
            let (x, y) = (*x, *y);
            let (r, sym) = match op {
                ArithOp::Add => (x.checked_add(y), '+'),
                ArithOp::Sub => (x.checked_sub(y), '-'),
                ArithOp::Mul => (x.checked_mul(y), '*'),
                ArithOp::Div if y == 0 => return Ok(Value::Null),
                ArithOp::Div => (x.checked_div(y), '/'),
            };
            let out_of_range = || EngineError::Query(format!("BIGINT out of range: {x} {sym} {y}"));
            Value::Int(r.ok_or_else(out_of_range)?)
        }
        (Value::Null, _) | (_, Value::Null) => Value::Null,
        (Value::Str(_), _) | (_, Value::Str(_)) => {
            return Err(EngineError::Query("arithmetic on a string".into()))
        }
        (x, y) => {
            let (x, y) = (x.as_f64(), y.as_f64());
            Value::Double(match op {
                ArithOp::Add => x + y,
                ArithOp::Sub => x - y,
                ArithOp::Mul => x * y,
                ArithOp::Div => x / y,
            })
        }
    })
}

/// `s LIKE pattern` for the four supported shapes: `%infix%`, `prefix%`,
/// `%suffix` and an exact string (`%` alone matches every string).
fn like(s: &str, pattern: &str) -> bool {
    match (pattern.strip_prefix('%'), pattern.strip_suffix('%')) {
        (Some(""), _) => true,
        (Some(rest), Some(_)) => s.contains(&rest[..rest.len() - 1]),
        (Some(suffix), None) => s.ends_with(suffix),
        (None, Some(prefix)) => s.starts_with(prefix),
        (None, None) => s == pattern,
    }
}

/// A literal on the wire: the length of a one-value row, then the row,
/// written straight into `out`.
fn encode_literal(v: &Value, out: &mut Vec<u8>) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&1u16.to_le_bytes());
    crate::row::encode_value(v, out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Bounds-checked read of the next byte of a fragment's wire bytes.
pub(super) fn take_u8(buf: &[u8], pos: &mut usize) -> Result<u8> {
    Ok(take(buf, pos, 1)?[0])
}

/// Bounds-checked read of the next little-endian `u32`.
pub(super) fn take_u32(buf: &[u8], pos: &mut usize) -> Result<u32> {
    let b = take(buf, pos, 4)?;
    Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
}

/// Bounds-checked read of the next `len` bytes.
pub(super) fn take<'a>(buf: &'a [u8], pos: &mut usize, len: usize) -> Result<&'a [u8]> {
    let end = pos.checked_add(len).filter(|end| *end <= buf.len());
    let end = end.ok_or_else(|| EngineError::Codec("fragment truncated".into()))?;
    let bytes = &buf[*pos..end];
    *pos = end;
    Ok(bytes)
}

/// Inverse of [`encode_literal`]: a row of other than one value is a codec
/// error.
fn decode_literal(buf: &[u8], pos: &mut usize) -> Result<Value> {
    let len = take_u32(buf, pos)? as usize;
    let row = crate::row::decode_row(take(buf, pos, len)?)?;
    let [v] = <[Value; 1]>::try_from(row)
        .map_err(|row| EngineError::Codec(format!("a literal of {} values, not one", row.len())))?;
    Ok(v)
}

/// Encode an expression (push-down fragment wire format).
pub fn encode_expr(e: &Expr, out: &mut Vec<u8>) {
    match e {
        Expr::Col(i) => {
            out.push(0);
            out.extend_from_slice(&(*i as u32).to_le_bytes());
        }
        Expr::Lit(v) => {
            out.push(1);
            encode_literal(v, out);
        }
        Expr::Cmp(op, a, b) => {
            out.push(2);
            out.push(*op as u8);
            encode_expr(a, out);
            encode_expr(b, out);
        }
        Expr::And(a, b) => {
            out.push(3);
            encode_expr(a, out);
            encode_expr(b, out);
        }
        Expr::Or(a, b) => {
            out.push(4);
            encode_expr(a, out);
            encode_expr(b, out);
        }
        Expr::Not(a) => {
            out.push(5);
            encode_expr(a, out);
        }
        Expr::Arith(op, a, b) => {
            out.push(6);
            out.push(*op as u8);
            encode_expr(a, out);
            encode_expr(b, out);
        }
        Expr::Like(a, p) => {
            out.push(7);
            encode_expr(a, out);
            out.extend_from_slice(&(p.len() as u32).to_le_bytes());
            out.extend_from_slice(p.as_bytes());
        }
    }
}

/// Decode an expression.
pub fn decode_expr(buf: &[u8], pos: &mut usize) -> Result<Expr> {
    let operand = |pos: &mut usize| decode_expr(buf, pos).map(Box::new);
    Ok(match take_u8(buf, pos)? {
        0 => Expr::Col(take_u32(buf, pos)? as usize),
        1 => Expr::Lit(decode_literal(buf, pos)?),
        2 => {
            let op = match take_u8(buf, pos)? {
                0 => CmpOp::Eq,
                1 => CmpOp::Ne,
                2 => CmpOp::Lt,
                3 => CmpOp::Le,
                4 => CmpOp::Gt,
                5 => CmpOp::Ge,
                t => return Err(EngineError::Codec(format!("bad cmp op {t}"))),
            };
            Expr::Cmp(op, operand(pos)?, operand(pos)?)
        }
        3 => Expr::And(operand(pos)?, operand(pos)?),
        4 => Expr::Or(operand(pos)?, operand(pos)?),
        5 => Expr::Not(operand(pos)?),
        6 => {
            let op = match take_u8(buf, pos)? {
                0 => ArithOp::Add,
                1 => ArithOp::Sub,
                2 => ArithOp::Mul,
                3 => ArithOp::Div,
                t => return Err(EngineError::Codec(format!("bad arith op {t}"))),
            };
            Expr::Arith(op, operand(pos)?, operand(pos)?)
        }
        7 => {
            let a = operand(pos)?;
            let len = take_u32(buf, pos)? as usize;
            let p = String::from_utf8(take(buf, pos, len)?.to_vec())
                .map_err(|_| EngineError::Codec("bad utf8 in LIKE".into()))?;
            Expr::Like(a, p)
        }
        t => return Err(EngineError::Codec(format!("bad expr tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn row() -> Row {
        vec![
            Value::Int(10),
            Value::Str("hello".into()),
            Value::Double(2.5),
            Value::Null,
        ]
    }

    #[test]
    fn eval_comparisons() {
        let r = row();
        assert!(Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::int(10))
            .eval_bool(&r)
            .unwrap());
        assert!(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(11))
            .eval_bool(&r)
            .unwrap());
        assert!(!Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(10))
            .eval_bool(&r)
            .unwrap());
        assert!(Expr::cmp(CmpOp::Ge, Expr::col(2), Expr::dbl(2.5))
            .eval_bool(&r)
            .unwrap());
        // NULL comparisons are false.
        assert!(!Expr::cmp(CmpOp::Eq, Expr::col(3), Expr::col(3))
            .eval_bool(&r)
            .unwrap());
        // Int/Double cross comparisons work.
        assert!(Expr::cmp(CmpOp::Lt, Expr::col(2), Expr::int(3))
            .eval_bool(&r)
            .unwrap());
    }

    #[test]
    fn eval_logic_and_arith() {
        let r = row();
        let e = Expr::and(
            Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(5)),
            Expr::Not(Box::new(Expr::cmp(CmpOp::Eq, Expr::col(1), Expr::str("x")))),
        );
        assert!(e.eval_bool(&r).unwrap());
        let m = Expr::mul(Expr::col(0), Expr::col(2)).eval(&r).unwrap();
        assert_eq!(m, Value::Double(25.0));
        let d = Expr::Arith(ArithOp::Div, Box::new(Expr::int(7)), Box::new(Expr::int(0)))
            .eval(&r)
            .unwrap();
        assert!(d.is_null());
        assert!(Expr::between(Expr::col(0), Expr::int(5), Expr::int(15))
            .eval_bool(&r)
            .unwrap());
    }

    #[test]
    fn eval_like() {
        let r = row();
        assert!(Expr::Like(Box::new(Expr::col(1)), "%ell%".into())
            .eval_bool(&r)
            .unwrap());
        assert!(Expr::Like(Box::new(Expr::col(1)), "he%".into())
            .eval_bool(&r)
            .unwrap());
        assert!(Expr::Like(Box::new(Expr::col(1)), "%lo".into())
            .eval_bool(&r)
            .unwrap());
        assert!(!Expr::Like(Box::new(Expr::col(1)), "%xyz%".into())
            .eval_bool(&r)
            .unwrap());
        assert!(Expr::Like(Box::new(Expr::col(1)), "hello".into())
            .eval_bool(&r)
            .unwrap());
        // `%` alone matches every string, and only strings.
        let any = |c| Expr::Like(Box::new(Expr::col(c)), "%".into()).eval_bool(&r);
        assert!(any(1).unwrap() && !any(0).unwrap() && !any(3).unwrap());
    }

    fn int_arith(op: ArithOp, x: i64, y: i64) -> Result<Value> {
        Expr::Arith(op, Box::new(Expr::int(x)), Box::new(Expr::int(y))).eval(&Row::new())
    }

    fn out_of_range(got: Result<Value>) -> bool {
        matches!(got, Err(EngineError::Query(m)) if m.starts_with("BIGINT out of range"))
    }

    #[test]
    fn add_overflow_is_an_error() {
        assert_eq!(
            int_arith(ArithOp::Add, i64::MAX - 1, 1).unwrap(),
            Value::Int(i64::MAX)
        );
        assert!(out_of_range(int_arith(ArithOp::Add, i64::MAX, 1)));
        assert!(out_of_range(int_arith(ArithOp::Add, i64::MIN, -1)));
    }

    #[test]
    fn sub_overflow_is_an_error() {
        assert_eq!(
            int_arith(ArithOp::Sub, i64::MIN + 1, 1).unwrap(),
            Value::Int(i64::MIN)
        );
        assert!(out_of_range(int_arith(ArithOp::Sub, i64::MIN, 1)));
        assert!(out_of_range(int_arith(ArithOp::Sub, 0, i64::MIN)));
    }

    #[test]
    fn mul_overflow_is_an_error() {
        assert_eq!(
            int_arith(ArithOp::Mul, i64::MIN, 1).unwrap(),
            Value::Int(i64::MIN)
        );
        assert!(out_of_range(int_arith(ArithOp::Mul, i64::MAX, 2)));
        assert!(out_of_range(int_arith(ArithOp::Mul, i64::MIN, -1)));
    }

    #[test]
    fn div_overflow_is_an_error_and_division_by_zero_null() {
        assert_eq!(
            int_arith(ArithOp::Div, i64::MIN, 1).unwrap(),
            Value::Int(i64::MIN)
        );
        assert_eq!(int_arith(ArithOp::Div, -7, 2).unwrap(), Value::Int(-3));
        assert!(out_of_range(int_arith(ArithOp::Div, i64::MIN, -1)));
        assert!(int_arith(ArithOp::Div, i64::MIN, 0).unwrap().is_null());
    }

    #[test]
    fn arithmetic_on_a_string_is_an_error_unless_null() {
        let r = row();
        let add = |a, b| Expr::Arith(ArithOp::Add, Box::new(a), Box::new(b)).eval(&r);
        assert!(matches!(
            add(Expr::col(1), Expr::int(1)),
            Err(EngineError::Query(_))
        ));
        assert!(matches!(
            add(Expr::dbl(1.0), Expr::col(1)),
            Err(EngineError::Query(_))
        ));
        assert!(add(Expr::col(3), Expr::col(1)).unwrap().is_null());
    }

    /// What went wrong, as the reference and the evaluator each report it.
    #[derive(Debug, Clone, PartialEq)]
    enum Fault {
        /// A column past the row's end, and which.
        Column(usize),
        /// Integer arithmetic out of `i64`'s range.
        Overflow,
        /// Arithmetic with a string operand.
        StringArith,
    }

    /// The evaluator's error as a [`Fault`]; any other error fails the test.
    fn fault(e: EngineError) -> Fault {
        let EngineError::Query(m) = &e else {
            panic!("not a query error: {e:?}")
        };
        if let Some(i) = m.strip_prefix("column ") {
            let i = i.strip_suffix(" out of range").expect("column error");
            Fault::Column(i.parse().expect("column index"))
        } else if m.starts_with("BIGINT out of range") {
            Fault::Overflow
        } else if m == "arithmetic on a string" {
            Fault::StringArith
        } else {
            panic!("unknown query error {m:?}")
        }
    }

    /// The by-value evaluator this module had before evaluation borrowed —
    /// every column read a clone — with two fixes: checked integer
    /// arithmetic and a string operand as an error, where it overflowed or
    /// panicked. Operands are evaluated left before right, and the first
    /// fault is the answer.
    fn by_value(e: &Expr, row: &Row) -> std::result::Result<Value, Fault> {
        Ok(match e {
            Expr::Col(i) => row.get(*i).cloned().ok_or(Fault::Column(*i))?,
            Expr::Lit(v) => v.clone(),
            Expr::Cmp(op, a, b) => {
                let (va, vb) = (by_value(a, row)?, by_value(b, row)?);
                let r = match va.partial_cmp(&vb) {
                    None => false,
                    Some(ord) => match op {
                        CmpOp::Eq => ord.is_eq(),
                        CmpOp::Ne => ord.is_ne(),
                        CmpOp::Lt => ord.is_lt(),
                        CmpOp::Le => ord.is_le(),
                        CmpOp::Gt => ord.is_gt(),
                        CmpOp::Ge => ord.is_ge(),
                    },
                };
                let r = r && !va.is_null() && !vb.is_null();
                Value::Int(r as i64)
            }
            Expr::And(a, b) => {
                Value::Int((by_value_bool(a, row)? && by_value_bool(b, row)?) as i64)
            }
            Expr::Or(a, b) => Value::Int((by_value_bool(a, row)? || by_value_bool(b, row)?) as i64),
            Expr::Not(a) => Value::Int(!by_value_bool(a, row)? as i64),
            Expr::Arith(op, a, b) => {
                let (va, vb) = (by_value(a, row)?, by_value(b, row)?);
                match (va, vb) {
                    (Value::Int(x), Value::Int(y)) => match op {
                        ArithOp::Add => Value::Int(x.checked_add(y).ok_or(Fault::Overflow)?),
                        ArithOp::Sub => Value::Int(x.checked_sub(y).ok_or(Fault::Overflow)?),
                        ArithOp::Mul => Value::Int(x.checked_mul(y).ok_or(Fault::Overflow)?),
                        ArithOp::Div => {
                            if y == 0 {
                                Value::Null
                            } else {
                                Value::Int(x.checked_div(y).ok_or(Fault::Overflow)?)
                            }
                        }
                    },
                    (x, y) if !x.is_null() && !y.is_null() => {
                        if matches!(x, Value::Str(_)) || matches!(y, Value::Str(_)) {
                            return Err(Fault::StringArith);
                        }
                        let (x, y) = (x.as_f64(), y.as_f64());
                        Value::Double(match op {
                            ArithOp::Add => x + y,
                            ArithOp::Sub => x - y,
                            ArithOp::Mul => x * y,
                            ArithOp::Div => x / y,
                        })
                    }
                    _ => Value::Null,
                }
            }
            Expr::Like(e, pattern) => {
                let v = by_value(e, row)?;
                let s = match &v {
                    Value::Str(s) => s.as_str(),
                    _ => return Ok(Value::Int(0)),
                };
                let m = match (pattern.starts_with('%'), pattern.ends_with('%')) {
                    (true, true) => s.contains(&pattern[1..pattern.len() - 1]),
                    (false, true) => s.starts_with(&pattern[..pattern.len() - 1]),
                    (true, false) => s.ends_with(&pattern[1..]),
                    (false, false) => s == pattern,
                };
                Value::Int(m as i64)
            }
        })
    }

    fn by_value_bool(e: &Expr, row: &Row) -> std::result::Result<bool, Fault> {
        Ok(match by_value(e, row)? {
            Value::Int(v) => v != 0,
            Value::Null => false,
            Value::Double(v) => v != 0.0,
            Value::Str(_) => true,
        })
    }

    /// Random rows and expression trees, one bounded draw at a time.
    struct Draws<'a>(std::slice::Iter<'a, u32>);

    impl Draws<'_> {
        fn below(&mut self, bound: usize) -> usize {
            self.0.next().copied().unwrap_or(0) as usize % bound
        }

        fn value(&mut self) -> Value {
            let ints = [
                0,
                1,
                -1,
                2,
                -7,
                i64::MIN,
                i64::MAX,
                i64::MIN + 1,
                i64::MAX - 1,
            ];
            let doubles = [0.0, -0.0, 2.5, -2.0, f64::NAN, f64::INFINITY, 1e300];
            let strs = ["", "a", "ab", "ba", "xab", "b%"];
            match self.below(4) {
                0 => Value::Null,
                1 => Value::Int(ints[self.below(ints.len())]),
                2 => Value::Double(doubles[self.below(doubles.len())]),
                _ => Value::Str(strs[self.below(strs.len())].into()),
            }
        }

        fn cmp_op(&mut self) -> CmpOp {
            let ops = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ];
            ops[self.below(ops.len())]
        }

        fn arith_op(&mut self) -> ArithOp {
            let ops = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div];
            ops[self.below(ops.len())]
        }

        /// A column or a literal; one column in three is one of the two
        /// past the end of a row `width` wide.
        fn leaf(&mut self, width: usize) -> Expr {
            match self.below(3) {
                0 => Expr::Col(self.below(width.max(1))),
                1 => Expr::Col(width + self.below(2)),
                _ => Expr::Lit(self.value()),
            }
        }

        /// A tree at most `depth` high over a row `width` wide, its leaves
        /// [`Draws::leaf`]s.
        fn expr(&mut self, depth: usize, width: usize) -> Expr {
            if depth == 0 || self.below(4) == 0 {
                return self.leaf(width);
            }
            let operand = |d: &mut Self| Box::new(d.expr(depth - 1, width));
            match self.below(6) {
                0 => Expr::Cmp(self.cmp_op(), operand(self), operand(self)),
                1 => Expr::And(operand(self), operand(self)),
                2 => Expr::Or(operand(self), operand(self)),
                3 => Expr::Not(operand(self)),
                4 => Expr::Arith(self.arith_op(), operand(self), operand(self)),
                _ => {
                    let core = ["a", "b", "ab", "xa"][self.below(4)];
                    let pattern = match self.below(4) {
                        0 => format!("%{core}%"),
                        1 => format!("{core}%"),
                        2 => format!("%{core}"),
                        _ => core.to_string(),
                    };
                    Expr::Like(operand(self), pattern)
                }
            }
        }
    }

    /// A result as comparable text: a value's encoded bytes (so NaN and -0.0
    /// compare by bits), or its fault.
    fn bits(got: std::result::Result<&Value, &Fault>) -> String {
        match got {
            Ok(v) => {
                let mut bytes = Vec::new();
                crate::row::encode_value(v, &mut bytes);
                format!("{bytes:?}")
            }
            Err(f) => format!("{f:?}"),
        }
    }

    /// What `e` evaluates to over `row` by [`Expr::eval_ref`], [`Expr::eval`]
    /// and [`Expr::eval_bool`] must be what the reference says, the same
    /// fault included.
    fn agrees(e: &Expr, row: &Row) -> std::result::Result<(), TestCaseError> {
        let want = by_value(e, row);
        let got = e.eval_ref(row).map_err(fault);
        prop_assert_eq!(
            bits(got.as_deref()),
            bits(want.as_ref()),
            "{:?} over {:?}",
            e,
            row
        );
        let owned = e.eval(row).map_err(fault);
        prop_assert_eq!(bits(owned.as_ref()), bits(want.as_ref()));
        let truth = e.eval_bool(row).map_err(fault);
        prop_assert_eq!(truth, by_value_bool(e, row), "{:?} over {:?}", e, row);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn borrowing_eval_equals_the_by_value_reference(
            draws in proptest::collection::vec(any::<u32>(), 1..80),
        ) {
            let mut d = Draws(draws.iter());
            let row: Row = (0..d.below(6)).map(|_| d.value()).collect();
            // A comparison and an arithmetic over two leaves, either or
            // both of them maybe past the row (drawn first, so the draws
            // have not run out).
            let (a, b) = (Box::new(d.leaf(row.len())), Box::new(d.leaf(row.len())));
            agrees(&Expr::Cmp(d.cmp_op(), a.clone(), b.clone()), &row)?;
            agrees(&Expr::Arith(d.arith_op(), a, b), &row)?;
            agrees(&d.expr(4, row.len()), &row)?;
            // A column past the row's end is that column's error in both.
            let past = Expr::col(row.len());
            prop_assert_eq!(past.eval_ref(&row).map_err(fault).err(), Some(Fault::Column(row.len())));
            prop_assert_eq!(by_value(&past, &row).err(), Some(Fault::Column(row.len())));
        }
    }

    #[test]
    fn codec_roundtrip() {
        let exprs = [
            Expr::col(3),
            Expr::int(-42),
            Expr::str("abc"),
            Expr::dbl(1.5),
            Expr::and(
                Expr::or(
                    Expr::cmp(CmpOp::Ne, Expr::col(0), Expr::int(1)),
                    Expr::Like(Box::new(Expr::col(1)), "%x%".into()),
                ),
                Expr::Not(Box::new(Expr::mul(Expr::col(2), Expr::dbl(2.0)))),
            ),
        ];
        for e in exprs {
            let mut buf = Vec::new();
            encode_expr(&e, &mut buf);
            let mut pos = 0;
            let dec = decode_expr(&buf, &mut pos).unwrap();
            assert_eq!(pos, buf.len());
            assert_eq!(dec, e);
        }
    }

    #[test]
    fn truncated_expr_rejected() {
        let mut buf = Vec::new();
        encode_expr(&Expr::and(Expr::col(1), Expr::col(2)), &mut buf);
        let mut pos = 0;
        assert!(decode_expr(&buf[..buf.len() - 2], &mut pos).is_err());
    }
}
