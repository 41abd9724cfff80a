//! Every table and figure of the paper's evaluation (§VII), plus the three
//! system artifacts, as one function each.
//!
//! A figure builds its deployments, runs its sweep and returns a
//! [`RunReport`] named after itself: one [`Trial`] per measured point
//! (`params` its coordinates, `result` what came out, `paper` the paper's
//! value where the paper states one), then one trial per shape check.
//! A check is `params {check: "<slug>"}` and `result {holds: 1|0}` next to
//! the values it compared, so a check that flips is a byte that moves in
//! the committed artifact, not a panic only a local run would see.
//! Internal invariants (a counter that must be non-zero, phases that must
//! sum to their total) stay `assert!`s.
//!
//! [`FIGURES`] lists them; the `paper_figures` bench runs every one, or
//! the ones [`select`] picks from its arguments, and writes each report as
//! `BENCH_<name>.json`.

mod ebp;
mod micro;
mod oltp;
mod system;

use vedb_core::db::LogBackendKind;
use vedb_sim::{RunReport, Trial};

/// A figure: runs its experiment and returns its report.
pub type Figure = fn() -> RunReport;

/// Every figure by artifact name, in the order `paper_figures` runs them.
pub const FIGURES: &[(&str, Figure)] = &[
    ("table2", micro::table2),
    ("fig6_7", oltp::fig6_7),
    ("fig8", oltp::fig8),
    ("fig9", oltp::fig9),
    ("fig10", ebp::fig10),
    ("fig11", ebp::fig11),
    ("fig12", ebp::fig12),
    ("fig13", oltp::fig13),
    ("fig14", ebp::fig14),
    ("ablations", micro::ablations),
    ("group_commit", system::group_commit),
    ("recovery", system::recovery),
    ("tpcc_smoke", system::tpcc_smoke),
];

/// The figures `args` name, in [`FIGURES`] order, or every figure when
/// `args` names none. `--bench`, which `cargo bench` appends, is skipped;
/// an unknown name is an error that lists the known ones.
pub fn select(
    args: impl IntoIterator<Item = String>,
) -> Result<Vec<(&'static str, Figure)>, String> {
    let names: Vec<String> = args.into_iter().filter(|a| a != "--bench").collect();
    if let Some(unknown) = names.iter().find(|n| !FIGURES.iter().any(|(f, _)| f == n)) {
        let known: Vec<&str> = FIGURES.iter().map(|(f, _)| *f).collect();
        return Err(format!(
            "unknown figure `{unknown}`; the figures are: {}",
            known.join(" ")
        ));
    }
    Ok(FIGURES
        .iter()
        .filter(|(f, _)| names.is_empty() || names.iter().any(|n| n == f))
        .copied()
        .collect())
}

/// A shape check's trial: `params {check: slug}`, `result {holds}`; the
/// caller adds the values it compared.
fn check(slug: &str, holds: bool) -> Trial {
    Trial::default()
        .with_param("check", slug)
        .with_result("holds", if holds { 1.0 } else { 0.0 })
}

/// The paper's two deployments: stock veDB logs to the SSD LogStore, the
/// accelerated one to AStore.
const LOGS: [(&str, LogBackendKind); 2] = [
    ("logstore", LogBackendKind::BlobStore),
    ("astore", LogBackendKind::AStore),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    fn names(picked: &[(&'static str, Figure)]) -> Vec<&'static str> {
        picked.iter().map(|(n, _)| *n).collect()
    }

    #[test]
    fn no_names_selects_every_figure_and_cargos_bench_flag_is_ignored() {
        assert_eq!(names(&select(args(&[])).unwrap()).len(), FIGURES.len());
        assert_eq!(
            names(&select(args(&["--bench"])).unwrap()).len(),
            FIGURES.len()
        );
        // Registry order, whatever order the names came in.
        assert_eq!(
            names(&select(args(&["fig9", "--bench", "table2"])).unwrap()),
            ["table2", "fig9"]
        );
    }

    #[test]
    fn an_unknown_name_is_an_error_listing_the_known_ones() {
        let err = select(args(&["fig9", "fig7"])).unwrap_err();
        assert!(err.contains("`fig7`"), "{err}");
        for (name, _) in FIGURES {
            assert!(err.contains(name), "{err}");
        }
        assert!(select(args(&["--release"])).is_err());
    }
}
