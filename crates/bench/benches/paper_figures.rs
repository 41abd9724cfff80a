//! Every paper figure and system artifact, or the ones named:
//!
//! ```text
//! cargo bench -p vedb-bench --bench paper_figures [-- <name>...]
//! ```
//!
//! The figures of `vedb_bench::figures::FIGURES` share no state, so they
//! run side by side, one per available CPU, each taking the next figure
//! not yet started. Their trials are printed as tables and their reports
//! written as `BENCH_<name>.json` (into the workspace root or
//! `$VEDB_BENCH_DIR`) in `FIGURES` order, whatever order they finish in,
//! so stdout and the files do not depend on the CPU count. An unknown
//! name, or a report that cannot be written, fails the run. Every artifact
//! is a function of its seed: CI `cmp`s each with the committed file.

use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

use vedb_bench::{figures, trial_table, write_bench_report};
use vedb_sim::RunReport;

fn main() -> ExitCode {
    let selected = match figures::select(std::env::args().skip(1)) {
        Ok(selected) => selected,
        Err(e) => {
            eprintln!("paper_figures: {e}");
            return ExitCode::from(2);
        }
    };
    let workers = thread::available_parallelism().map_or(1, |n| n.get());
    let next = AtomicUsize::new(0);
    let (done, finished) = mpsc::channel::<(usize, RunReport)>();
    thread::scope(|s| {
        for _ in 0..workers.min(selected.len()) {
            let done = done.clone();
            let (next, selected) = (&next, &selected);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(name, figure)) = selected.get(i) else {
                    break;
                };
                let report = figure();
                assert_eq!(report.name, name, "a figure's report is named after it");
                // The receiver is gone only once a write failed.
                if done.send((i, report)).is_err() {
                    break;
                }
            });
        }
        drop(done);
        // Reports that finished ahead of an earlier figure wait here.
        let mut waiting: Vec<Option<RunReport>> = selected.iter().map(|_| None).collect();
        let mut written = 0;
        for (i, report) in finished {
            waiting[i] = Some(report);
            while let Some(report) = waiting.get_mut(written).and_then(Option::take) {
                print!("{}", trial_table(&report));
                if let Err(e) = write_bench_report(&report) {
                    eprintln!("paper_figures: writing BENCH_{}.json: {e}", report.name);
                    // No figure starts after this one; those running finish.
                    next.store(selected.len(), Ordering::Relaxed);
                    return ExitCode::FAILURE;
                }
                written += 1;
            }
        }
        ExitCode::SUCCESS
    })
}
