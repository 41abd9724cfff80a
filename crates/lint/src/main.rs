//! `vedb-lint` CLI.
//!
//! ```text
//! cargo run -p vedb-lint -- crates/ src/ examples/
//! cargo run -p vedb-lint -- --write-golden crates/ src/ examples/
//! cargo run -p vedb-lint -- --golden path/to/lock_order.golden crates/
//! ```
//!
//! Exit status: `0` when no unsuppressed diagnostics, `1` when findings
//! were emitted, `2` on usage/IO errors.

use std::process::ExitCode;

use vedb_lint::{run, RunOptions};

fn main() -> ExitCode {
    let mut roots: Vec<String> = Vec::new();
    let mut opts = RunOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--write-golden" => opts.write_golden = true,
            "--golden" => match args.next() {
                Some(p) => opts.golden_path = p,
                None => {
                    eprintln!("error: --golden requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: vedb-lint [--golden <file>] [--write-golden] <paths>...\n\
                     \n\
                     Lints: no-wall-clock, no-unseeded-rng, ordered-serialization,\n\
                     no-panic-in-runtime, no-global-state, lock-order.\n\
                     Suppress a finding with: // vedb-lint: allow(<lint>, \"<reason>\")"
                );
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("error: unknown flag `{arg}` (see --help)");
                return ExitCode::from(2);
            }
            _ => roots.push(arg),
        }
    }
    if roots.is_empty() {
        roots = vec!["crates".into(), "src".into(), "examples".into()];
    }
    let diags = match run(&roots, &opts) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for d in &diags {
        println!("{d}\n");
    }
    if opts.write_golden {
        eprintln!("wrote {}", opts.golden_path);
    }
    if diags.is_empty() {
        eprintln!("vedb-lint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("vedb-lint: {} unsuppressed finding(s)", diags.len());
        ExitCode::FAILURE
    }
}
