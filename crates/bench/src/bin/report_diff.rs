//! What moved between two `BENCH_<figure>.json` reports.
//!
//! ```text
//! report_diff <old.json> <new.json>
//! ```
//!
//! The gate on a committed artifact is `cmp`; this explains a failed one.
//! Prints one line per path whose value differs (old, new, relative change
//! for numbers) — see [`vedb_bench::diff::walk`]. Exit codes: 0 the two
//! documents are the same tree, 1 something differs, 2 usage/parse error.

use std::process::ExitCode;

use vedb_bench::diff::{parse_json, walk, Json};

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [old, new] = args.as_slice() else {
        eprintln!("usage: report_diff <old.json> <new.json>");
        return ExitCode::from(2);
    };
    let (old_doc, new_doc) = match (load(old), load(new)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("report_diff: {e}");
            return ExitCode::from(2);
        }
    };
    let lines = walk(&old_doc, &new_doc);
    for line in &lines {
        println!("{line}");
    }
    println!("report_diff: {old} -> {new}: {} paths differ", lines.len());
    if lines.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
