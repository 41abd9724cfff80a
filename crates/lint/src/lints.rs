//! The token-scan lints, 1–4 and 6 (the fifth, lock-order, lives in
//! [`crate::lockgraph`]).
//!
//! Each lint is a named pass over a [`Scanned`] file. Scoping is by path:
//! a lint only fires in the modules its invariant protects (see
//! `DESIGN.md` "Determinism invariants"). Findings carry the lint name so
//! `// vedb-lint: allow(<name>, "<reason>")` can suppress them with a
//! written justification.

use crate::scan::Scanned;
use crate::{Diagnostic, Severity};

/// Lint names, kept in one place so suppressions, fixtures and docs agree.
pub const NO_WALL_CLOCK: &str = "no-wall-clock";
/// See [`NO_WALL_CLOCK`].
pub const NO_UNSEEDED_RNG: &str = "no-unseeded-rng";
/// See [`NO_WALL_CLOCK`].
pub const ORDERED_SERIALIZATION: &str = "ordered-serialization";
/// See [`NO_WALL_CLOCK`].
pub const NO_PANIC_IN_RUNTIME: &str = "no-panic-in-runtime";
/// See [`NO_WALL_CLOCK`].
pub const NO_GLOBAL_STATE: &str = "no-global-state";
/// See [`NO_WALL_CLOCK`].
pub const LOCK_ORDER: &str = "lock-order";
/// Emitted for malformed / reason-less suppression comments.
pub const BAD_SUPPRESSION: &str = "bad-suppression";

/// Is `path` inside the sim's clock internals, where wall-clock reads are
/// the implementation of virtual time itself?
fn is_clock_internal(path: &str) -> bool {
    path.contains("crates/sim/src/time.rs")
}

/// Product modules (`crates/*/src`): unordered iteration here can reach a
/// device, an RPC, an eviction choice, an LSN, a result row or a report byte.
fn is_product_path(path: &str) -> bool {
    let p = path.replace('\\', "/");
    p.contains("crates/") && p.contains("/src/")
}

/// Server-side request paths where a panic kills a storage node (or the
/// engine's commit path) instead of surfacing a typed, retryable error.
fn is_runtime_path(path: &str) -> bool {
    let p = path.replace('\\', "/");
    p.contains("crates/astore/src/server.rs")
        || p.contains("crates/pagestore/src/server")
        || p.contains("crates/pagestore/src/redo.rs")
        || p.contains("crates/blobstore/src/")
        || p.contains("crates/core/src/db.rs")
        || p.contains("crates/core/src/wal.rs")
        || p.contains("crates/core/src/recovery.rs")
}

/// Find every occurrence of identifier `word` in `code` (word-boundary
/// match on sanitized text), returning byte offsets.
fn find_ident(code: &str, word: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut hits = Vec::new();
    let mut from = 0;
    while let Some(rel) = code[from..].find(word) {
        let at = from + rel;
        let before_ok = at == 0 || {
            let b = bytes[at - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let after = at + word.len();
        let after_ok = after >= bytes.len() || {
            let b = bytes[after];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        if before_ok && after_ok {
            hits.push(at);
        }
        from = at + word.len();
    }
    hits
}

fn diag(s: &Scanned, lint: &str, line: usize, msg: String, out: &mut Vec<Diagnostic>) {
    if s.is_suppressed(lint, line).is_some() {
        return;
    }
    out.push(Diagnostic {
        severity: Severity::Error,
        lint: lint.to_string(),
        path: s.path.clone(),
        line,
        message: msg,
    });
}

/// Report malformed suppression directives (missing/empty reasons).
pub fn check_suppression_syntax(s: &Scanned, out: &mut Vec<Diagnostic>) {
    for (line, msg) in &s.bad_directives {
        out.push(Diagnostic {
            severity: Severity::Error,
            lint: BAD_SUPPRESSION.to_string(),
            path: s.path.clone(),
            line: *line,
            message: msg.clone(),
        });
    }
}

/// Lint 1 — **no-wall-clock**: `std::time::Instant`, `SystemTime` and
/// `std::thread::sleep` are forbidden outside the sim's clock internals.
/// Every latency in a report must come from the virtual clock; one stray
/// wall-clock read silently couples results to host load.
/// (`std::time::Duration` is fine: it is a value type, not a clock.)
pub fn no_wall_clock(s: &Scanned, out: &mut Vec<Diagnostic>) {
    if is_clock_internal(&s.path) {
        return;
    }
    for word in ["Instant", "SystemTime"] {
        for at in find_ident(&s.code, word) {
            let line = crate::scan::line_of(&s.code, at);
            diag(
                s,
                NO_WALL_CLOCK,
                line,
                format!(
                    "`{word}` reads the wall clock; all runtime timing must flow \
                     from the virtual clock (`SimCtx::now`)"
                ),
                out,
            );
        }
    }
    for at in find_ident(&s.code, "sleep") {
        // Only thread::sleep — `sleep` as a local name is unusual but legal.
        let prefix = &s.code[..at];
        let tail: String = prefix
            .chars()
            .rev()
            .take(24)
            .collect::<String>()
            .chars()
            .rev()
            .collect();
        if tail.trim_end().ends_with("thread::") {
            let line = crate::scan::line_of(&s.code, at);
            diag(
                s,
                NO_WALL_CLOCK,
                line,
                "`thread::sleep` blocks on the wall clock; use virtual-time \
                 waits (`SimCtx::wait_until` / `advance`) on simulated paths"
                    .to_string(),
                out,
            );
        }
    }
}

/// Lint 2 — **no-unseeded-rng**: `thread_rng()` / `rand::random` are
/// forbidden everywhere. Randomness must flow from the seeded `SimCtx`
/// RNG so two runs with the same seed are byte-identical.
pub fn no_unseeded_rng(s: &Scanned, out: &mut Vec<Diagnostic>) {
    for word in ["thread_rng", "from_entropy", "OsRng"] {
        for at in find_ident(&s.code, word) {
            let line = crate::scan::line_of(&s.code, at);
            diag(
                s,
                NO_UNSEEDED_RNG,
                line,
                format!(
                    "`{word}` draws OS entropy; all randomness must come from \
                     the seeded `SimCtx` RNG (xoshiro256++)"
                ),
                out,
            );
        }
    }
    // `rand::random` / `rand::random::<T>()` path form.
    for at in find_ident(&s.code, "random") {
        let prefix = &s.code[..at];
        if prefix.trim_end().ends_with("rand::") {
            let line = crate::scan::line_of(&s.code, at);
            diag(
                s,
                NO_UNSEEDED_RNG,
                line,
                "`rand::random` is seeded from OS entropy; use the seeded \
                 `SimCtx` RNG"
                    .to_string(),
                out,
            );
        }
    }
}

/// Lint 3 — **ordered-serialization**: in every non-test module under
/// `crates/*/src`, iterating a `HashMap`/`HashSet` is flagged unless the
/// statement shows an ordering step (`sort`/`BTreeMap` collect). Hash
/// iteration order is arbitrary and changes across runs: it breaks
/// byte-determinism of `BENCH_*.json` on the report path, and on a runtime
/// path it decides which RPC goes first, which page is evicted, which
/// partial sum is added first.
pub fn ordered_serialization(s: &Scanned, out: &mut Vec<Diagnostic>) {
    if !is_product_path(&s.path) {
        return;
    }
    const ITER_METHODS: [&str; 9] = [
        ".iter()",
        ".iter_mut()",
        ".keys()",
        ".into_keys()",
        ".values()",
        ".values_mut()",
        ".into_values()",
        ".drain(",
        ".into_iter()",
    ];
    // A lock guard between a collection and its iteration hides nothing:
    // `map.lock().iter()` reads as `map.iter()`, and a line holding only a
    // guard as a blank one.
    const GUARDS: [&str; 3] = [".lock()", ".read()", ".write()"];
    let hash_vars = collect_hash_idents(&s.code);
    let lines: Vec<String> = s
        .code
        .lines()
        .map(|l| GUARDS.iter().fold(l.to_string(), |l, g| l.replace(g, "")))
        .collect();
    for (i, line_text) in lines.iter().enumerate() {
        let is_for = line_text.contains("for ") && line_text.contains(" in ");
        // The nearest code above (comments are blank lines by now).
        let prev = lines[..i]
            .iter()
            .rev()
            .map(|l| l.trim())
            .find(|l| !l.is_empty());
        let prev = prev.unwrap_or("");
        let iterated = hash_vars.iter().find(|var| {
            let direct_iter = ITER_METHODS.iter().any(|m| {
                line_text.contains(&format!("{var}{m}"))
                    // Receiver on the previous line: `map⏎.into_iter()`.
                    || (line_text.trim_start().starts_with(m) && ends_with_ident(prev, var))
            });
            let for_loop = is_for && {
                // `for x in map` / `for (k, v) in &map` / `in map {`
                line_text
                    .split(" in ")
                    .nth(1)
                    .map(|rhs| {
                        let rhs = rhs.trim_start_matches(['&', ' ']);
                        let rhs = rhs.strip_prefix("mut ").unwrap_or(rhs);
                        rhs == **var
                            || rhs.starts_with(&format!("{var} "))
                            || rhs.starts_with(&format!("{var}."))
                            || rhs.starts_with(&format!("self.{var}"))
                    })
                    .unwrap_or(false)
            };
            direct_iter || for_loop
        });
        let Some(var) = iterated else {
            continue;
        };
        // Statement context: from the statement's head (the receiver line
        // above a `.method()` chain, whose `let` may name an ordered type)
        // up to its `;` (a `for` header is its own statement) plus the two
        // lines after it, so both `.iter()\n.map(..)\n.sorted..` chains and
        // collect-then-`sort()` are seen together.
        let head = i - lines[..=i]
            .iter()
            .rev()
            .take_while(|l| l.trim().is_empty() || l.trim_start().starts_with('.'))
            .count()
            .min(i);
        let stmt_len = lines[i..]
            .iter()
            .position(|l| l.contains(';'))
            .filter(|_| !is_for)
            .unwrap_or(0);
        let stmt: String = lines[head..(i + stmt_len + 3).min(lines.len())].join(" ");
        let ordered = stmt.contains(".sort")
            || stmt.contains("BTreeMap")
            || stmt.contains("BTreeSet")
            || stmt.contains("sorted");
        if !ordered {
            diag(
                s,
                ORDERED_SERIALIZATION,
                i + 1,
                format!(
                    "iteration over hash collection `{var}`; hash order is \
                     nondeterministic — sort the result, or hold the data in a \
                     `BTreeMap`"
                ),
                out,
            );
        }
    }
}

/// Does `text` end with the identifier `ident` (not a longer one)?
fn ends_with_ident(text: &str, ident: &str) -> bool {
    text.strip_suffix(ident)
        .is_some_and(|head| !head.ends_with(|c: char| c.is_alphanumeric() || c == '_'))
}

/// Identifiers declared (let-binding, struct field, or fn param) with a
/// `HashMap`/`HashSet` type in this file, or with a `type` alias of one.
/// Also catches `= HashMap::new()` / `with_capacity` initializers.
fn collect_hash_idents(code: &str) -> Vec<String> {
    let is_hash = |text: &str| text.contains("HashMap") || text.contains("HashSet");
    // `[pub] type Name[<..>] = ..HashMap..;`
    let aliases: Vec<&str> = code
        .lines()
        .filter_map(|line| {
            let (lhs, rhs) = line.split_once("type ")?.1.split_once('=')?;
            let name = lhs.split('<').next()?.trim();
            (is_hash(rhs) && !name.is_empty()).then_some(name)
        })
        .collect();
    let is_hash_type = |text: &str| {
        is_hash(text)
            || text
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .any(|w| aliases.contains(&w))
    };
    let mut vars = Vec::new();
    for line in code.lines() {
        let t = line.trim();
        if !is_hash_type(t) {
            continue;
        }
        // `let [mut] name: Hash... =` / `let [mut] name = Hash...`
        if let Some(rest) = t.strip_prefix("let ") {
            let rest = rest.strip_prefix("mut ").unwrap_or(rest);
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                vars.push(name);
                continue;
            }
        }
        // `name: HashMap<..>` field / param declarations — several on one
        // line in a short `fn` signature. A declaration's type runs up to
        // the next declaration's colon.
        let colons: Vec<usize> = t
            .match_indices(':')
            .map(|(at, _)| at)
            .filter(|&at| !t[..at].ends_with(':') && !t[at + 1..].starts_with(':'))
            .collect();
        for (n, &colon) in colons.iter().enumerate() {
            let ty = &t[colon..colons.get(n + 1).copied().unwrap_or(t.len())];
            if is_hash_type(ty) {
                let head = t[..colon].trim_end();
                let name = head
                    .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .map_or(head, |at| &head[at + 1..]);
                if !name.is_empty() {
                    vars.push(name.to_string());
                }
            }
        }
    }
    vars.sort();
    vars.dedup();
    vars
}

/// Lint 4 — **no-panic-in-runtime**: `unwrap()` / `expect()` / `panic!` are
/// forbidden in server-side request paths. A panic there takes down a
/// simulated storage node mid-request (and in production would crash a
/// real server); failures must surface as typed errors the retry layer can
/// classify.
pub fn no_panic_in_runtime(s: &Scanned, out: &mut Vec<Diagnostic>) {
    if !is_runtime_path(&s.path) {
        return;
    }
    for (needle, what) in [
        (".unwrap()", "unwrap()"),
        (".expect(", "expect()"),
        ("panic!(", "panic!"),
        ("unimplemented!(", "unimplemented!"),
        ("todo!(", "todo!"),
    ] {
        let mut from = 0;
        while let Some(rel) = s.code[from..].find(needle) {
            let at = from + rel;
            from = at + needle.len();
            let line = crate::scan::line_of(&s.code, at);
            diag(
                s,
                NO_PANIC_IN_RUNTIME,
                line,
                format!(
                    "`{what}` in a server-side request path can kill the node \
                     mid-request; return a typed error (or justify the invariant \
                     with an allow-reason)"
                ),
                out,
            );
        }
    }
}

/// Type names whose `static` is state one process shares: every atomic
/// (`Atomic*`) and these.
const SHARED_STATE_TYPES: [&str; 10] = [
    "Mutex",
    "RwLock",
    "Cell",
    "RefCell",
    "UnsafeCell",
    "OnceLock",
    "OnceCell",
    "Lazy",
    "LazyLock",
    "LazyCell",
];

/// Lint 6 — **no-global-state**: in every non-test module under
/// `crates/*/src`, a `static` of an atomic, lock, cell, once-cell or lazy
/// type, any `static mut`, and `thread_local!` are flagged. Every piece of
/// state has one owner (a `Db`, a registry, a deployment): a process-global
/// leaks between two deployments in one process, so two figures or two
/// tests run side by side would see each other's writes. A `static` of a
/// plain value, a `const`, and a `OnceLock` *field* are fine. The type is
/// read from the declaration, so a `static` of a user type that wraps a
/// lock is not seen.
pub fn no_global_state(s: &Scanned, out: &mut Vec<Diagnostic>) {
    if !is_product_path(&s.path) {
        return;
    }
    let mut hits = Vec::new();
    for at in find_ident(&s.code, "static") {
        // `'static` is a lifetime, not an item.
        if s.code[..at].ends_with('\'') {
            continue;
        }
        let rest = s.code[at + "static".len()..].trim_start();
        if rest.starts_with("mut ") {
            hits.push((at, "`static mut`".to_string()));
            continue;
        }
        // The declared type: from the colon after the name to the `=`.
        let Some(ty) = rest
            .split_once(':')
            .and_then(|(_, tail)| tail.split([';', '=']).next())
        else {
            continue;
        };
        let shared = ty
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .find(|w| w.starts_with("Atomic") || SHARED_STATE_TYPES.contains(w));
        if let Some(word) = shared {
            hits.push((at, format!("a `static` of `{word}`")));
        }
    }
    for at in find_ident(&s.code, "thread_local") {
        if s.code[at + "thread_local".len()..].starts_with('!') {
            hits.push((at, "`thread_local!`".to_string()));
        }
    }
    hits.sort();
    for (at, what) in hits {
        let line = crate::scan::line_of(&s.code, at);
        diag(
            s,
            NO_GLOBAL_STATE,
            line,
            format!(
                "{what} is process-global state; give it an owner (a field \
                 of the `Db`, registry or deployment that uses it)"
            ),
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    #[test]
    fn hash_ident_collection() {
        let code = "let mut dur_of: HashMap<u64, u64> = HashMap::new();\n\
                    open: HashMap<u64, Vec<u64>>,\n\
                    fn f(groups: HashMap<u64, u64>, n: usize, mut tails: &HashSet<u64>) {\n\
                    let plain = 3;\n";
        let vars = collect_hash_idents(code);
        assert_eq!(vars, ["dur_of", "groups", "open", "tails"]);
        let aliased = "pub(crate) type Index<V> = FxHashMap<u64, V>;\n\
                       struct T { by_page: Mutex<Index<u8>>, pages: Vec<Indexed> }\n\
                       let mut fresh = Index::default();\n";
        assert_eq!(collect_hash_idents(aliased), ["by_page", "fresh"]);
    }

    #[test]
    fn wall_clock_duration_is_allowed() {
        let s = scan("crates/core/src/x.rs", "use std::time::Duration;\n");
        let mut out = Vec::new();
        no_wall_clock(&s, &mut out);
        assert!(out.is_empty());
    }
}
