//! Flamegraph export: turn a `BENCH_<figure>.json` report into
//! inferno-compatible folded stacks, or a `vedb-top` one-screen summary.
//!
//! ```text
//! report_flame <report.json> [-o <out.folded>]   folded stacks (stdout or file)
//! report_flame --top <report.json>               one-screen saturation summary
//! ```
//!
//! The folded lines feed any flamegraph renderer that understands the
//! `stack weight` format (`inferno-flamegraph`, `flamegraph.pl`); weights
//! are span self-times in virtual nanoseconds. Exit codes: 0 clean, 2
//! usage/parse error (including a document with no folded section).

use std::process::ExitCode;

use vedb_bench::diff::parse_json;
use vedb_bench::flame::{folded_lines, top_summary};

fn usage() -> ExitCode {
    eprintln!(
        "usage: report_flame <report.json> [-o <out.folded>] | report_flame --top <report.json>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut out_path = None;
    let mut top = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => top = true,
            "-o" | "--output" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => return usage(),
            },
            "--help" | "-h" => return usage(),
            p if !p.starts_with('-') && path.is_none() => path = Some(p.to_string()),
            _ => return usage(),
        }
    }
    let Some(path) = path else { return usage() };
    let doc = match std::fs::read_to_string(&path)
        .map_err(|e| format!("{path}: {e}"))
        .and_then(|text| parse_json(&text).map_err(|e| format!("{path}: {e}")))
    {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("report_flame: {e}");
            return ExitCode::from(2);
        }
    };
    let rendered = if top {
        Ok(top_summary(&doc))
    } else {
        folded_lines(&doc)
    };
    match rendered {
        Ok(text) => match out_path {
            Some(out) => {
                if let Err(e) = std::fs::write(&out, &text) {
                    eprintln!("report_flame: {out}: {e}");
                    return ExitCode::from(2);
                }
                eprintln!(
                    "report_flame: wrote {} lines to {out}",
                    text.lines().count()
                );
                ExitCode::SUCCESS
            }
            None => {
                print!("{text}");
                ExitCode::SUCCESS
            }
        },
        Err(e) => {
            eprintln!("report_flame: {e}");
            ExitCode::from(2)
        }
    }
}
