//! The workspace's one JSON codec: a value tree, its parser and its writer.
//!
//! The workspace deliberately has no serde. [`RunReport`](crate::RunReport)
//! builds a [`Json`] tree and [`render`]s it; `report_diff`, `report_flame`
//! and the benchmark harness read artifacts back with [`parse_json`]. Objects
//! are `BTreeMap`-keyed, which is what fixes the byte order, and [`render`]
//! has one layout rule, so `render(parse_json(bytes)) == bytes` holds for
//! every file this writer produced — the property the committed-artifact
//! test checks.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number. Reports carry integers below 2^53 and short decimals, all
    /// of which an `f64` holds exactly or round-trips through its shortest
    /// decimal form.
    Num(f64),
    /// String
    Str(String),
    /// Array
    Arr(Vec<Json>),
    /// Object, key-sorted.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member lookup on an object, `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric value, `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, `None` otherwise.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Object map, `None` otherwise.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

/// Append `s` to `out` as a quoted JSON string.
fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serialise `v` as a document ending in a newline. One layout rule: a
/// container whose members are all scalars prints on one line, any other
/// prints one member per line, indented two spaces per level. Numbers print
/// in `f64`'s shortest round-trip form.
pub fn render(v: &Json) -> String {
    let mut out = String::new();
    render_into(v, 0, &mut out);
    out.push('\n');
    out
}

fn render_into(v: &Json, depth: usize, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            let _ = write!(out, "{n}");
        }
        Json::Str(s) => escape(s, out),
        Json::Arr(a) => render_members('[', ']', a.iter().map(|m| (None, m)), depth, out),
        Json::Obj(m) => render_members('{', '}', m.iter().map(|(k, m)| (Some(k), m)), depth, out),
    }
}

fn render_members<'a>(
    open: char,
    close: char,
    members: impl Iterator<Item = (Option<&'a String>, &'a Json)> + Clone,
    depth: usize,
    out: &mut String,
) {
    let inline = members.clone().all(|(_, m)| m.is_scalar());
    out.push(open);
    for (i, (key, member)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if !inline {
            let _ = write!(out, "\n{:1$}", "", 2 * (depth + 1));
        } else if i > 0 {
            out.push(' ');
        }
        if let Some(key) = key {
            escape(key, out);
            out.push_str(": ");
        }
        render_into(member, depth + 1, out);
    }
    if !inline {
        let _ = write!(out, "\n{:1$}", "", 2 * depth);
    }
    out.push(close);
}

/// Parse a JSON document. Errors carry a byte offset for context.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let val = parse_value(b, pos)?;
                map.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(arr));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = b.get(*pos).copied().ok_or("truncated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        *pos += 4;
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("unsupported escape at byte {pos}")),
                }
            }
            c => {
                // Multi-byte UTF-8 passes through unchanged.
                let start = *pos - 1;
                let len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = b.get(start..start + len).ok_or("truncated utf-8")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|_| "bad utf-8")?);
                *pos = start + len;
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while let Some(&c) = b.get(*pos) {
        if matches!(c, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
            *pos += 1;
        } else {
            break;
        }
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_report_shapes() {
        let doc = parse_json(
            r#"{
  "schema": "vedb-bench-report/v4",
  "trials": [
    {
      "params": {"clients": 64, "policy": "group"},
      "result": {"p99_ns": 80, "throughput_per_s": 5000.5}
    }
  ],
  "counters": {"core.commits": 100}
}"#,
        )
        .unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("vedb-bench-report/v4")
        );
        let Some(Json::Arr(trials)) = doc.get("trials") else {
            panic!("trials is an array")
        };
        assert_eq!(
            trials[0]
                .get("result")
                .and_then(|r| r.get("p99_ns"))
                .and_then(Json::as_f64),
            Some(80.0)
        );
        let esc = parse_json(r#"{"a": "x\"y\n", "b": [1, -2.5e1, true, null]}"#).unwrap();
        assert_eq!(esc.get("a").and_then(Json::as_str), Some("x\"y\n"));
        assert_eq!(
            esc.get("b"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-25.0),
                Json::Bool(true),
                Json::Null
            ]))
        );
        assert!(parse_json("{\"unterminated\": ").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn render_has_one_layout_rule_and_round_trips() {
        let doc = Json::obj([
            ("empty", Json::obj::<&str>([])),
            ("flat", Json::obj([("a", 1u64.into()), ("b", 2.5.into())])),
            (
                "nested",
                Json::Arr(vec![
                    Json::obj([("k\"\\\n", "v\t\u{1}".into())]),
                    Json::Arr(vec![Json::Null, Json::Bool(true), (-3i64).into()]),
                ]),
            ),
        ]);
        let text = render(&doc);
        assert_eq!(
            text,
            "{\n  \"empty\": {},\n  \"flat\": {\"a\": 1, \"b\": 2.5},\n  \"nested\": [\n    \
             {\"k\\\"\\\\\\n\": \"v\\t\\u0001\"},\n    [null, true, -3]\n  ]\n}\n"
        );
        let back = parse_json(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(render(&back), text);
    }

    #[test]
    fn numbers_print_in_shortest_round_trip_form() {
        for (n, text) in [
            (1770.0, "1770"),
            (4.1, "4.1"),
            (223366.66666666666, "223366.66666666666"),
            (9007199254740992.0, "9007199254740992"),
            (-0.5, "-0.5"),
        ] {
            assert_eq!(render(&Json::Num(n)), format!("{text}\n"));
            assert_eq!(parse_json(text).unwrap(), Json::Num(n));
        }
    }
}
