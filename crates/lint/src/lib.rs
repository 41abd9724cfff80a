//! `vedb-lint` — determinism & crash-safety static analysis for the veDB
//! workspace.
//!
//! The simulator's headline property is *byte-determinism*: one seed, one
//! report. That property is easy to break with one stray `Instant::now()`
//! or an iterated `HashMap` in product code, and such regressions are
//! invisible to `cargo test` (the test may pass 99 runs out of 100). This
//! crate turns the determinism rules — and two crash-safety rules that are
//! equally invisible to tests — into a CI gate:
//!
//! | lint | invariant |
//! |------|-----------|
//! | `no-wall-clock` | all runtime timing flows from the virtual clock |
//! | `no-unseeded-rng` | all randomness flows from the seeded `SimCtx` RNG |
//! | `ordered-serialization` | hash iteration in `crates/*/src` is order-stable |
//! | `no-panic-in-runtime` | server request paths return typed errors |
//! | `lock-order` | the lock-acquisition graph is acyclic and reviewed |
//! | `no-global-state` | no mutable `static` or `thread_local!` in `crates/*/src` |
//!
//! Findings are suppressed site-by-site with
//! `// vedb-lint: allow(<lint>, "<reason>")`; the reason is mandatory and
//! a missing one is itself a diagnostic (`bad-suppression`).
//!
//! Run it exactly like CI does:
//!
//! ```text
//! cargo run -p vedb-lint -- crates/ src/ examples/
//! ```

use std::fmt;
use std::path::{Path, PathBuf};

pub mod lints;
pub mod lockgraph;
pub mod scan;

/// How bad a finding is. Everything the gate emits today is an error —
/// the variant exists so a future `Warning` tier doesn't change the
/// diagnostic format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the gate.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding, rendered rustc-style: `error[lint]: msg\n  --> file:line`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Severity tier.
    pub severity: Severity,
    /// Which lint fired (e.g. `no-wall-clock`).
    pub lint: String,
    /// File the finding is in.
    pub path: String,
    /// 1-based line (0 = file-level, e.g. a stale golden entry).
    pub line: usize,
    /// Human-readable explanation with the fix direction.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}[{}]: {}", self.severity, self.lint, self.message)?;
        if self.line > 0 {
            write!(f, "  --> {}:{}", self.path, self.line)
        } else {
            write!(f, "  --> {}", self.path)
        }
    }
}

/// Options for a whole-tree run.
pub struct RunOptions {
    /// Path of the lock-order golden file.
    pub golden_path: String,
    /// When set, rewrite the golden file from the tree instead of
    /// diffing against it.
    pub write_golden: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            golden_path: "crates/lint/lock_order.golden".to_string(),
            write_golden: false,
        }
    }
}

/// Run the five token lints (plus suppression-syntax checking) over one
/// already-scanned file. Lock-order edges are extracted separately because
/// they need the whole tree. This is the entry point the fixture tests use.
pub fn analyze_scanned(s: &scan::Scanned, out: &mut Vec<Diagnostic>) {
    lints::check_suppression_syntax(s, out);
    lints::no_wall_clock(s, out);
    lints::no_unseeded_rng(s, out);
    lints::ordered_serialization(s, out);
    lints::no_panic_in_runtime(s, out);
    lints::no_global_state(s, out);
}

/// Convenience wrapper for tests: scan + analyze one source string.
pub fn analyze_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let s = scan::scan(path, src);
    let mut out = Vec::new();
    analyze_scanned(&s, &mut out);
    out
}

/// Should this path be linted at all? Skips build output, vendored shims,
/// the lint crate's own fixtures, and integration-test trees (tests may
/// use wall clocks and panics freely).
fn lintable(path: &Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    if !p.ends_with(".rs") {
        return false;
    }
    let skip = [
        "/target/",
        "/vendor/",
        "/fixtures/",
        "/tests/",
        "/benches/",
        "crates/lint/",
    ];
    !skip.iter().any(|s| p.contains(s))
}

/// Collect every lintable `.rs` file under `roots` (each may be a file or
/// a directory), sorted for deterministic output.
pub fn collect_files(roots: &[String]) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for root in roots {
        let root = Path::new(root);
        if root.is_file() {
            if lintable(root) {
                files.push(root.to_path_buf());
            }
            continue;
        }
        if root.is_dir() {
            walk(root, &mut files)?;
        }
    }
    files.sort();
    files.dedup();
    Ok(files)
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(
                name.as_ref(),
                "target" | "vendor" | ".git" | "fixtures" | "tests" | "benches"
            ) {
                continue;
            }
            walk(&path, files)?;
        } else if lintable(&path) {
            files.push(path);
        }
    }
    Ok(())
}

/// Whole-tree run: lint every file under `roots`, then check the
/// lock-order graph against the golden file. Returns all diagnostics
/// (empty = gate passes). When `opts.write_golden` is set the golden file
/// is rewritten and lock-order diffing is skipped (cycles still fail).
pub fn run(roots: &[String], opts: &RunOptions) -> std::io::Result<Vec<Diagnostic>> {
    let files = collect_files(roots)?;
    let mut diags = Vec::new();
    let mut scans = Vec::new();
    let mut edges = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(file)?;
        let label = file.to_string_lossy().replace('\\', "/");
        let label = label.strip_prefix("./").unwrap_or(&label).to_string();
        let s = scan::scan(&label, &src);
        analyze_scanned(&s, &mut diags);
        edges.extend(lockgraph::extract_edges(&s));
        scans.push(s);
    }
    let graph = lockgraph::build_graph(&edges);
    if opts.write_golden {
        std::fs::write(&opts.golden_path, lockgraph::render_golden(&graph))?;
        // Even a freshly written golden must not contain a cycle.
        for cyc in lockgraph::find_cycles(&graph) {
            diags.push(Diagnostic {
                severity: Severity::Error,
                lint: lints::LOCK_ORDER.to_string(),
                path: opts.golden_path.clone(),
                line: 0,
                message: format!("lock-order cycle: {}", cyc.join(" -> ")),
            });
        }
    } else {
        let golden_text = std::fs::read_to_string(&opts.golden_path).unwrap_or_default();
        let golden = lockgraph::parse_golden(&golden_text);
        lockgraph::diff_against_golden(&graph, &golden, &opts.golden_path, &scans, &mut diags);
    }
    // Unused suppressions are drift: the code they excused is gone.
    for s in &scans {
        for sup in &s.suppressions {
            if sup.lint == lints::LOCK_ORDER {
                // Lock-order suppressions waive *edges*, which only show up
                // when new; an edge already in the golden file leaves its
                // suppression intentionally dormant.
                continue;
            }
            let used = diags_would_hit(s, sup);
            if !used {
                diags.push(Diagnostic {
                    severity: Severity::Error,
                    lint: lints::BAD_SUPPRESSION.to_string(),
                    path: s.path.clone(),
                    line: sup.line,
                    message: format!(
                        "unused suppression for `{}` — the finding it excused is \
                         gone; delete the directive",
                        sup.lint
                    ),
                });
            }
        }
    }
    diags.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(diags)
}

/// Would `sup` suppress at least one finding? Re-runs the single lint it
/// names over the file and checks for a hit on the covered lines.
fn diags_would_hit(s: &scan::Scanned, sup: &scan::Suppression) -> bool {
    // Build an unsuppressed view of the same file: same code, no directives.
    let bare = scan::Scanned {
        path: s.path.clone(),
        code: s.code.clone(),
        suppressions: Vec::new(),
        bad_directives: Vec::new(),
    };
    let mut out = Vec::new();
    match sup.lint.as_str() {
        lint if lint == lints::NO_WALL_CLOCK => lints::no_wall_clock(&bare, &mut out),
        lint if lint == lints::NO_UNSEEDED_RNG => lints::no_unseeded_rng(&bare, &mut out),
        lint if lint == lints::ORDERED_SERIALIZATION => {
            lints::ordered_serialization(&bare, &mut out)
        }
        lint if lint == lints::NO_PANIC_IN_RUNTIME => lints::no_panic_in_runtime(&bare, &mut out),
        lint if lint == lints::NO_GLOBAL_STATE => lints::no_global_state(&bare, &mut out),
        _ => return true, // unknown lint names are caught elsewhere; don't double-report
    }
    out.iter()
        .any(|d| d.line == sup.line || (!sup.trailing && sup.line + 1 == d.line))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostic_renders_rustc_style() {
        let d = Diagnostic {
            severity: Severity::Error,
            lint: "no-wall-clock".into(),
            path: "crates/core/src/db.rs".into(),
            line: 42,
            message: "msg".into(),
        };
        let text = d.to_string();
        assert!(text.starts_with("error[no-wall-clock]: msg"));
        assert!(text.contains("--> crates/core/src/db.rs:42"));
    }

    #[test]
    fn analyze_source_flags_wall_clock() {
        let diags = analyze_source(
            "crates/core/src/db.rs",
            "fn f() { let t = Instant::now(); }\n",
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].lint, "no-wall-clock");
    }

    #[test]
    fn suppressed_finding_is_quiet() {
        let diags = analyze_source(
            "crates/core/src/db.rs",
            "// vedb-lint: allow(no-wall-clock, \"test clock\")\nfn f() { let t = Instant::now(); }\n",
        );
        assert!(diags.is_empty());
    }
}
