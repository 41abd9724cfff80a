//! Source sanitizer: the front half of every lint.
//!
//! `vedb-lint` deliberately avoids a full Rust parser (the workspace builds
//! offline; there is no `syn` to link against). Instead each file is
//! *sanitized*: comments and string/char literals are blanked out —
//! byte-for-byte, so line/column positions survive — and `// vedb-lint:`
//! directives are collected while doing so. Lints then run cheap token
//! scans over the sanitized text and can trust that every `Instant` or
//! `.unwrap()` they see is real code, not prose or a log message.
//!
//! The sanitizer also erases `#[cfg(test)]` items (a `mod tests { .. }`
//! block, a test-only `fn`, or a test-only `use`): test code may use wall
//! clocks, panics and unordered iteration freely — determinism invariants
//! protect the product code.

/// One `// vedb-lint: allow(<lint>, "<reason>")` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// 1-based line the directive sits on. A directive suppresses findings
    /// on its own line and, when it is the only thing on its line, on the
    /// next line — so both trailing and preceding-line styles work.
    pub line: usize,
    /// Lint name inside `allow(..)`.
    pub lint: String,
    /// The mandatory human-written reason; empty when the author forgot it
    /// (which is itself reported as a `bad-suppression` diagnostic).
    pub reason: String,
    /// Whether anything other than whitespace precedes the comment on its
    /// line (trailing style).
    pub trailing: bool,
}

/// A sanitized source file.
#[derive(Debug, Clone)]
pub struct Scanned {
    /// Path label used in diagnostics.
    pub path: String,
    /// Source with comments, strings and `#[cfg(test)]` items blanked out.
    /// Identical length and line structure to the original.
    pub code: String,
    /// All `vedb-lint:` directives found in comments.
    pub suppressions: Vec<Suppression>,
    /// Lines whose directive was malformed (missing reason, bad syntax).
    pub bad_directives: Vec<(usize, String)>,
}

impl Scanned {
    /// Is `lint` suppressed at `line`? (Directive on the same line, or
    /// alone on the line directly above.)
    pub fn is_suppressed(&self, lint: &str, line: usize) -> Option<&Suppression> {
        self.suppressions
            .iter()
            .find(|s| s.lint == lint && (s.line == line || (!s.trailing && s.line + 1 == line)))
    }
}

/// 1-based line number of byte offset `pos` in `src`.
pub fn line_of(src: &str, pos: usize) -> usize {
    src.as_bytes()[..pos]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

fn blank(out: &mut [u8], from: usize, to: usize) {
    for b in &mut out[from..to] {
        if *b != b'\n' {
            *b = b' ';
        }
    }
}

/// Parse a `vedb-lint: allow(name, "reason")` directive from comment text.
/// Returns `Ok(Some((lint, reason)))`, `Ok(None)` when the comment is not a
/// directive at all, and `Err(msg)` for a malformed directive.
fn parse_directive(comment: &str) -> Result<Option<(String, String)>, String> {
    let Some(idx) = comment.find("vedb-lint:") else {
        return Ok(None);
    };
    let rest = comment[idx + "vedb-lint:".len()..].trim();
    let Some(args) = rest
        .strip_prefix("allow(")
        .and_then(|r| r.rfind(')').map(|e| &r[..e]))
    else {
        return Err(format!("malformed vedb-lint directive: `{}`", rest.trim()));
    };
    let Some((name, reason_part)) = args.split_once(',') else {
        return Err(format!(
            "vedb-lint allow({}) is missing its mandatory reason — write \
             `vedb-lint: allow({}, \"why this is sound\")`",
            args.trim(),
            args.trim()
        ));
    };
    let name = name.trim().to_string();
    let reason = reason_part.trim();
    let reason = reason
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .unwrap_or("")
        .trim()
        .to_string();
    if name.is_empty() || reason.is_empty() {
        return Err(format!(
            "vedb-lint allow({name}) has an empty reason — suppressions must \
             say why the finding is sound"
        ));
    }
    Ok(Some((name, reason)))
}

/// Sanitize `src`, collecting directives along the way.
pub fn scan(path: &str, src: &str) -> Scanned {
    let bytes = src.as_bytes();
    let mut out = bytes.to_vec();
    let mut suppressions = Vec::new();
    let mut bad_directives = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let next = bytes.get(i + 1).copied().unwrap_or(0);
        match b {
            b'/' if next == b'/' => {
                let end = src[i..].find('\n').map(|n| i + n).unwrap_or(bytes.len());
                let comment = &src[i..end];
                let line = line_of(src, i);
                let trailing = !src[..i].rsplit('\n').next().unwrap_or("").trim().is_empty();
                match parse_directive(comment) {
                    Ok(Some((lint, reason))) => suppressions.push(Suppression {
                        line,
                        lint,
                        reason,
                        trailing,
                    }),
                    Ok(None) => {}
                    Err(msg) => bad_directives.push((line, msg)),
                }
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if next == b'*' => {
                // Nested block comments, as in real Rust.
                let start = i;
                let mut depth = 1;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let comment = &src[start..i];
                match parse_directive(comment) {
                    Ok(Some((lint, reason))) => suppressions.push(Suppression {
                        line: line_of(src, start),
                        lint,
                        reason,
                        trailing: true,
                    }),
                    Ok(None) => {}
                    Err(msg) => bad_directives.push((line_of(src, start), msg)),
                }
                blank(&mut out, start, i);
            }
            b'"' => {
                // String literal (the `b` / `r#` prefix bytes stay as-is;
                // they are harmless identifiers once the payload is blank).
                let start = i;
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                blank(&mut out, start + 1, i.saturating_sub(1).max(start + 1));
            }
            b'r' if next == b'#' || next == b'"' => {
                // Raw string r"..." / r#"..."# / r##"..."## …
                let start = i;
                let mut j = i + 1;
                let mut hashes = 0;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if bytes.get(j) == Some(&b'"') {
                    let closer: String = std::iter::once('"')
                        .chain(std::iter::repeat_n('#', hashes))
                        .collect();
                    let body_start = j + 1;
                    let end = src[body_start..]
                        .find(&closer)
                        .map(|n| body_start + n + closer.len())
                        .unwrap_or(bytes.len());
                    blank(&mut out, start + 1, end);
                    i = end;
                } else {
                    // `r#ident` raw identifier or plain `r` — skip the ident.
                    i = j;
                    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                    {
                        i += 1;
                    }
                }
            }
            b'\'' => {
                // Char literal vs lifetime. `'a` (lifetime) has no closing
                // quote within a couple of chars; `'x'` / `'\n'` do.
                if next == b'\\' {
                    // '\x' escape: find closing quote.
                    let start = i;
                    i += 2;
                    while i < bytes.len() && bytes[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                    blank(&mut out, start + 1, (i.saturating_sub(1)).max(start + 1));
                } else if bytes.get(i + 2) == Some(&b'\'') {
                    blank(&mut out, i + 1, i + 2);
                    i += 3;
                } else {
                    i += 1; // lifetime: leave as-is
                }
                continue;
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                // Skip identifiers wholesale so `b"..."` prefixes or idents
                // containing quote-ish bytes can't confuse the scanner.
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                continue;
            }
            _ => i += 1,
        }
    }
    let mut code = String::from_utf8(out).unwrap_or_else(|_| src.to_string());
    erase_cfg_test(&mut code);
    Scanned {
        path: path.to_string(),
        code,
        suppressions,
        bad_directives,
    }
}

/// Blank every `#[cfg(test)]`-guarded item (and everything it encloses).
fn erase_cfg_test(code: &mut String) {
    let mut search_from = 0;
    loop {
        let hay = code.clone();
        let Some(rel) = hay[search_from..].find("#[cfg(test)]") else {
            break;
        };
        let attr_start = search_from + rel;
        let mut j = attr_start + "#[cfg(test)]".len();
        let bytes = hay.as_bytes();
        // Skip further attributes and whitespace up to the item.
        // Then blank to either the end of the item's brace block or the
        // terminating semicolon, whichever comes first at depth 0.
        let mut depth = 0usize;
        let mut end = bytes.len();
        while j < bytes.len() {
            match bytes[j] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = j + 1;
                        break;
                    }
                }
                b';' if depth == 0 => {
                    end = j + 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        // SAFETY of positions: all offsets come from the same string.
        let replaced: String = hay[attr_start..end]
            .chars()
            .map(|c| if c == '\n' { '\n' } else { ' ' })
            .collect();
        code.replace_range(attr_start..end, &replaced);
        search_from = end.min(code.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let s = scan(
            "x.rs",
            "let a = \"Instant::now()\"; // Instant in prose\nlet b = 1;\n",
        );
        assert!(!s.code.contains("Instant"));
        assert!(s.code.contains("let b = 1;"));
    }

    #[test]
    fn directive_with_reason_parses() {
        let s = scan(
            "x.rs",
            "foo(); // vedb-lint: allow(no-wall-clock, \"real-time dwell\")\n",
        );
        assert_eq!(s.suppressions.len(), 1);
        assert_eq!(s.suppressions[0].lint, "no-wall-clock");
        assert_eq!(s.suppressions[0].reason, "real-time dwell");
        assert!(s.suppressions[0].trailing);
    }

    #[test]
    fn directive_without_reason_is_reported() {
        let s = scan("x.rs", "// vedb-lint: allow(no-wall-clock)\nfoo();\n");
        assert!(s.suppressions.is_empty());
        assert_eq!(s.bad_directives.len(), 1);
    }

    #[test]
    fn cfg_test_blocks_are_erased() {
        let src =
            "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let s = scan("x.rs", src);
        assert!(s.code.contains("x.unwrap()"));
        assert!(!s.code.contains("y.unwrap()"));
        assert!(!s.code.contains("mod tests"));
    }

    #[test]
    fn lifetimes_survive_char_literals() {
        let s = scan("x.rs", "fn f<'a>(x: &'a str) -> char { 'q' }\n");
        assert!(s.code.contains("<'a>"));
        assert!(!s.code.contains('q'));
    }

    #[test]
    fn preceding_line_suppression_covers_next_line() {
        let s = scan(
            "x.rs",
            "// vedb-lint: allow(no-panic-in-runtime, \"checked above\")\nx.unwrap();\n",
        );
        assert!(s.is_suppressed("no-panic-in-runtime", 2).is_some());
        assert!(s.is_suppressed("no-panic-in-runtime", 3).is_none());
    }
}
