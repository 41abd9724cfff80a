//! Every table and figure of the paper's evaluation (§VII), plus the three
//! system artifacts, as one function each.
//!
//! A figure returns a [`RunReport`] named after itself: one [`Trial`] per
//! measured point (`params` its coordinates, `result` what came out,
//! `paper` the paper's value where the paper states one), each driver
//! point on a deployment of its own ([`point`]), then one trial per shape
//! check, which finds its points by their params ([`find`]). A check is
//! `params {check: "<slug>"}` and `result {holds: 1|0}` next to the values
//! it compared, so a check that flips is a byte that moves in the
//! committed artifact, not a panic only a local run would see.
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

use std::sync::Arc;

use vedb_core::db::{Db, LogBackendKind};
use vedb_core::Catalog;
use vedb_sim::json::{render, Json};
use vedb_sim::{RunReport, SimCtx, Trial, VTime};
use vedb_workloads::driver::OpOutcome;

use crate::Deployment;

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

/// One sweep point on a deployment of its own: `open` builds and loads it,
/// then `clients` clients run `op(ctx, db, client)` for one driver trial,
/// `warmup` then `measure` ms. Returns the driver's numbers under `key`'s
/// params, and the deployment's registry as the trial left it.
pub fn point(
    key: Trial,
    clients: usize,
    (warmup, measure): (u64, u64),
    open: impl FnOnce() -> Deployment,
    op: impl Fn(&mut SimCtx, &Arc<Db>, usize) -> OpOutcome + Sync,
) -> (Trial, RunReport) {
    let (mut dep, ms) = (open(), VTime::from_millis);
    let db = Arc::clone(&dep.db);
    let r = dep.trial(clients, ms(warmup), ms(measure), |ctx, c| op(ctx, &db, c));
    let mut trial = Trial::measured(&r);
    trial.params = key.params;
    (trial, dep.report("", None))
}

/// `dep` with `schema` defined, its tables created and `load` run.
fn loaded(
    mut dep: Deployment,
    schema: impl FnOnce(&mut Catalog),
    load: impl FnOnce(&mut SimCtx, &Arc<Db>) -> vedb_core::Result<()>,
) -> Deployment {
    dep.db.define_schema(schema);
    dep.db.create_tables(&mut dep.ctx).unwrap();
    load(&mut dep.ctx, &dep.db).unwrap();
    dep
}

/// The one trial of `trials` whose params include all of `key`'s. Panics
/// naming `key`'s params when none or several do, so a check never reads a
/// neighbouring trial.
pub fn find<'a>(trials: &'a [Trial], key: &Trial) -> &'a Trial {
    &trials[position(trials, key)]
}

/// Where [`find`]'s trial sits in `trials`.
fn position(trials: &[Trial], key: &Trial) -> usize {
    let matches = |t: &Trial| key.params.iter().all(|(k, v)| t.params.get(k) == Some(v));
    let hits: Vec<usize> = (0..trials.len()).filter(|&i| matches(&trials[i])).collect();
    match hits[..] {
        [i] => i,
        _ => panic!(
            "{} trials have params {}",
            hits.len(),
            render(&Json::Obj(key.params.clone())).trim_end()
        ),
    }
}

/// The report `name`: the registry of the point `described` names, then
/// every point's trial and `checks`.
fn report(
    name: &str,
    (mut trials, mut registries): (Vec<Trial>, Vec<RunReport>),
    described: &Trial,
    checks: impl IntoIterator<Item = Trial>,
) -> RunReport {
    let mut report = registries.swap_remove(position(&trials, described));
    report.name = name.to_string();
    trials.extend(checks);
    report.trials = trials;
    report
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
