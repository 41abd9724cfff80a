//! The paper's evaluation as code, and the tools that read its reports.
//!
//! Every table and figure is a function in [`figures`] that builds one or
//! more deployments ([`Deployment`]), runs its sweep with the virtual-time
//! driver and returns a [`RunReport`] whose trials carry the paper's values
//! and the shape checks (who wins, by what factor, where the crossover
//! sits). The `paper_figures` bench prints each through [`trial_table`] and
//! writes it with [`write_bench_report`]; EXPERIMENTS.md quotes the
//! committed files.

pub mod diff;
pub mod figures;
pub mod flame;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use vedb_core::db::{Db, DbConfig, StorageFabric};
use vedb_pagestore::ApplyConfig;
use vedb_sim::json::{render, Json};
use vedb_sim::{ClusterSpec, MetricsRegistry, RunReport, SimCtx, Trial, TrialResult, VTime};
use vedb_workloads::driver::{run_trial, DriverConfig, OpOutcome};

/// One deployed engine + its private storage fabric (one "cluster" per
/// configuration, as in the paper's side-by-side deployments).
pub struct Deployment {
    /// The storage cluster.
    pub fabric: StorageFabric,
    /// The engine.
    pub db: Arc<Db>,
    /// Load-phase context; its final clock is the earliest valid trial
    /// start.
    pub ctx: SimCtx,
}

impl Deployment {
    /// Build a fabric (96 MB AStore per server, 1 MB slots) and open an
    /// engine with `cfg`.
    pub fn open(cfg: DbConfig) -> Deployment {
        Self::open_with(cfg, ClusterSpec::paper_default(), 192 << 20, 1 << 20)
    }

    /// Build with explicit cluster/capacity parameters.
    pub fn open_with(
        cfg: DbConfig,
        spec: ClusterSpec,
        astore_capacity: usize,
        slot_bytes: u64,
    ) -> Deployment {
        Self::open_with_apply(
            cfg,
            spec,
            astore_capacity,
            slot_bytes,
            ApplyConfig::default(),
        )
    }

    /// [`open_with`](Self::open_with) plus an explicit PageStore
    /// apply-pipeline configuration (worker count, checkpoint cadence) —
    /// the knob the `recovery` figure sweeps.
    pub fn open_with_apply(
        cfg: DbConfig,
        spec: ClusterSpec,
        astore_capacity: usize,
        slot_bytes: u64,
        apply: ApplyConfig,
    ) -> Deployment {
        let fabric = StorageFabric::build_with_apply(spec, astore_capacity, slot_bytes, apply);
        let mut ctx = SimCtx::new(0, 0xBEEF);
        let db = Db::open(&mut ctx, &fabric, cfg).expect("open engine");
        Deployment { fabric, db, ctx }
    }

    /// Run one trial starting at the current timeline position, then
    /// advance the timeline.
    pub fn trial(
        &mut self,
        clients: usize,
        warmup: VTime,
        measure: VTime,
        op: impl Fn(&mut SimCtx, usize) -> OpOutcome + Sync,
    ) -> TrialResult {
        let cfg = DriverConfig {
            clients,
            warmup,
            measure,
            seed: 7,
            start: self.ctx.now(),
        };
        let r = run_trial(&cfg, op);
        self.ctx.wait_until(cfg.start + warmup + measure);
        r
    }

    /// The deployment-wide metrics registry (shared by every subsystem of
    /// this cluster).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.fabric.env.metrics
    }

    /// Freeze the registry (and optionally a trial) into a [`RunReport`]
    /// named `name`.
    pub fn report(&self, name: &str, trial: Option<&TrialResult>) -> RunReport {
        RunReport::collect(name, trial, self.metrics())
    }
}

/// Directory `BENCH_<name>.json` artifacts are written to: the workspace
/// root, or the `VEDB_BENCH_DIR` environment variable when set — a relative
/// value is taken from the workspace root too, because `cargo bench` runs a
/// bench target from its package directory, not from where it was typed.
pub fn bench_report_dir() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    match std::env::var_os("VEDB_BENCH_DIR") {
        Some(d) => root.join(d),
        None => root,
    }
}

/// Print `report`'s `vedb-top` summary and write it as `BENCH_<name>.json`
/// into [`bench_report_dir`] (created if missing); returns the absolute
/// path written. The summary is rendered from the tree the file is rendered
/// from, so it is what `report_flame --top` shows for the file later.
pub fn write_bench_report(report: &RunReport) -> std::io::Result<PathBuf> {
    let doc = report.to_value();
    print!("{}", flame::top_summary(&doc));
    let dir = bench_report_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir
        .canonicalize()?
        .join(format!("BENCH_{}.json", report.name));
    std::fs::write(&path, render(&doc))?;
    println!("  wrote {}", path.display());
    Ok(path)
}

/// The report's trials as text: each run of consecutive trials with the
/// same names is one table, params then results, with the paper's value in
/// brackets after a result that has one.
pub fn trial_table(report: &RunReport) -> String {
    fn names(t: &Trial) -> (Vec<&String>, Vec<&String>) {
        (t.params.keys().collect(), t.result.keys().collect())
    }
    let number = |v: f64| {
        if v.fract() == 0.0 {
            format!("{v:.0}")
        } else {
            format!("{v:.3}")
        }
    };
    let mut out = format!("\n== {} ==\n", report.name);
    let mut rest = report.trials.as_slice();
    while let Some(first) = rest.first() {
        let n = rest.iter().take_while(|t| names(t) == names(first)).count();
        let (group, tail) = rest.split_at(n);
        rest = tail;
        let (params, results) = names(first);
        let header: Vec<String> = params
            .iter()
            .chain(&results)
            .map(|k| k.to_string())
            .collect();
        let rows: Vec<Vec<String>> = group
            .iter()
            .map(|t| {
                let p = params.iter().map(|k| match &t.params[*k] {
                    Json::Str(s) => s.clone(),
                    v => render(v).trim_end().to_string(),
                });
                let r = results.iter().map(|k| match t.paper.get(*k) {
                    Some(paper) => format!("{} [{}]", number(t.result[*k]), number(*paper)),
                    None => number(t.result[*k]),
                });
                p.chain(r).collect()
            })
            .collect();
        let widths: Vec<usize> = (0..header.len())
            .map(|i| {
                rows.iter()
                    .map(|r| r[i].len())
                    .fold(header[i].len(), usize::max)
            })
            .collect();
        for row in std::iter::once(&header).chain(&rows) {
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(out, "  {cell:>w$}");
            }
            out.push('\n');
        }
    }
    out
}
