//! Every paper figure and system artifact, or the ones named:
//!
//! ```text
//! cargo bench -p vedb-bench --bench paper_figures [-- <name>...]
//! ```
//!
//! Each figure of `vedb_bench::figures::FIGURES` runs in turn; its trials
//! are printed as tables and its report is written as `BENCH_<name>.json`
//! into the workspace root or `$VEDB_BENCH_DIR`. An unknown name, or a
//! report that cannot be written, fails the run. Every artifact is a
//! function of its seed: CI `cmp`s each with the committed file.

use std::process::ExitCode;

use vedb_bench::{figures, trial_table, write_bench_report};

fn main() -> ExitCode {
    let selected = match figures::select(std::env::args().skip(1)) {
        Ok(selected) => selected,
        Err(e) => {
            eprintln!("paper_figures: {e}");
            return ExitCode::from(2);
        }
    };
    for (name, figure) in selected {
        let report = figure();
        assert_eq!(report.name, name, "a figure's report is named after it");
        print!("{}", trial_table(&report));
        if let Err(e) = write_bench_report(&report) {
            eprintln!("paper_figures: writing BENCH_{name}.json: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
