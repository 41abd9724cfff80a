//! The Extended Buffer Pool and push-down figures: Figs 10, 11, 12 and 14.

use std::sync::Arc;

use vedb_core::db::{Db, DbConfig, LogBackendKind};
use vedb_core::ebp::EbpConfig;
use vedb_core::query::{execute, AggExpr, CmpOp, Expr, Plan, QuerySession};
use vedb_core::{Catalog, Value};
use vedb_sim::{ClusterSpec, RunReport, SimCtx, Trial, VTime};
use vedb_workloads::driver::OpOutcome;
use vedb_workloads::lookup::{self, LookupScale};
use vedb_workloads::{chbench, tpcc};

use super::{check, find, loaded, point, report};
use crate::Deployment;

/// An AStore-logged deployment with a `bp_pages` buffer pool and, when
/// `ebp_bytes` is set, an EBP of that capacity.
pub(super) fn config(bp_pages: usize, ebp_bytes: Option<u64>) -> DbConfig {
    DbConfig::builder()
        .bp_pages(bp_pages)
        .bp_shards(8)
        .log(LogBackendKind::AStore)
        .ring_segments(12)
        .ebp(ebp_bytes.map(|b| EbpConfig {
            capacity_bytes: b,
            ..Default::default()
        }))
        .build()
        .unwrap()
}

/// `config(bp_pages, ebp_bytes)` with TPC-C at `scale` plus the
/// CH-benCHmark tables loaded.
fn ch_deployment(bp_pages: usize, ebp_bytes: Option<u64>, scale: &tpcc::TpccScale) -> Deployment {
    let schema = |cat: &mut Catalog| {
        tpcc::define_schema(cat);
        chbench::extend_schema(cat);
    };
    let dep = Deployment::open(config(bp_pages, ebp_bytes));
    loaded(dep, schema, |ctx, db| {
        tpcc::load(ctx, db, scale)?;
        chbench::load_extra(ctx, db)
    })
}

/// Run each CH query of `queries` once, so evictions push pages into the
/// EBP.
fn prime(dep: &mut Deployment, queries: &[usize]) {
    for &q in queries {
        let _ = execute(
            &mut dep.ctx,
            &dep.db,
            &QuerySession::default(),
            &chbench::query(q),
        );
    }
}

/// `plan`'s average elapsed time over `runs` runs after one warm-up run.
fn timed(ctx: &mut SimCtx, db: &Arc<Db>, session: &QuerySession, plan: &Plan, runs: u64) -> VTime {
    execute(ctx, db, session, plan).unwrap();
    let t0 = ctx.now();
    for _ in 0..runs {
        execute(ctx, db, session, plan).unwrap();
    }
    (ctx.now() - t0) / runs
}

/// The CH scale of Figs 11 and 14: the order_line-heavy queries' working
/// set is far larger than a 64-page pool.
const CH_SCALE: tpcc::TpccScale = tpcc::TpccScale {
    warehouses: 8,
    districts: 4,
    customers: 60,
    items: 300,
    initial_orders: 40,
};

/// **Figure 10** — TPC-CH: the impact of analytical streams on TP
/// throughput, with and without the EBP, 32 TP clients.
///
/// Paper: adding 1 AP stream costs ~5% of TP throughput and 8 streams ~30%
/// (buffer-pool contention); with the EBP, TP throughput improves
/// consistently at every AP level. Trials are `params {ap_streams, ebp}`
/// (`ebp` 0 or 1) with the driver's numbers for the TP clients; the
/// registry sections describe `{ap_streams: 8, ebp: 1}`.
pub fn fig10() -> RunReport {
    const TP_CLIENTS: usize = 32;
    /// AP queries cheap enough to loop as a stream.
    const AP_SET: [usize; 5] = [1, 4, 6, 12, 22];
    let scale = tpcc::TpccScale::bench();
    let session = QuerySession::default();
    let key = |ap_streams: usize, ebp: bool| {
        Trial::default()
            .with_param("ap_streams", ap_streams as f64)
            .with_param("ebp", ebp as u64)
    };
    let points: (Vec<Trial>, Vec<RunReport>) = [0usize, 1, 8]
        .into_iter()
        .flat_map(|ap_streams| [false, true].map(|ebp| (ap_streams, ebp)))
        .map(|(ap_streams, ebp)| {
            point(
                key(ap_streams, ebp),
                TP_CLIENTS + ap_streams,
                (30, 200),
                // bp_pages small on purpose: AP scans thrash it (the Fig 10 story).
                || ch_deployment(96, ebp.then_some(256 << 20), &scale),
                // Clients 0..TP_CLIENTS run TPC-C; the rest run AP query
                // streams, whose completions are not TP throughput.
                |ctx, db, client| {
                    if client < TP_CLIENTS {
                        return tpcc::run_transaction(ctx, db, &scale);
                    }
                    let q = AP_SET[ctx.rng().gen_range(0..AP_SET.len())];
                    let _ = execute(ctx, db, &session, &chbench::query(q));
                    OpOutcome::Skip
                },
            )
        })
        .unzip();

    let tps = |ap_streams, ebp| find(&points.0, &key(ap_streams, ebp)).result["throughput_per_s"];
    let (alone, one, off, on) = (tps(0, false), tps(1, false), tps(8, false), tps(8, true));
    let checks = [
        check("eight_ap_streams_depress_tp_5pct", off < alone * 0.95)
            .with_result("cost_1_stream_pct", (1.0 - one / alone.max(1.0)) * 100.0)
            .with_result("cost_8_streams_pct", (1.0 - off / alone.max(1.0)) * 100.0)
            .with_paper("cost_1_stream_pct", 5.0)
            .with_paper("cost_8_streams_pct", 30.0),
        check("ebp_improves_tp_under_8_streams", on > off)
            .with_result("no_ebp_tps", off)
            .with_result("ebp_tps", on),
    ];
    report("fig10", points, &key(8, true), checks)
}

/// **Figure 11** — EBP speedup on CH-benCHmark analytical queries, for two
/// buffer-pool sizes (64 and 128 pages stand for the paper's 16 GB and
/// 32 GB).
///
/// Paper: queries whose working set exceeds the buffer pool (Q7 et al.)
/// gain up to ~3.5× from the EBP; queries with a tiny working set (Q16)
/// barely change; the gain shrinks when the buffer pool doubles. Protocol
/// follows §VII-B: one warm-up run, then the average of three timed runs,
/// EBP off vs on. Trials are `params {query, bp_pages, ebp}` (`ebp` the
/// EBP-on capacity in bytes) and `result {elapsed_ns, speedup}`: the
/// EBP-on average and the EBP-off time over it. The paper states Fig 11
/// as bounds (Q7 > 3×, Q16 ≈ 1×), not values, so no trial carries
/// `paper`. The registry sections describe the 64-page EBP-on deployment.
pub fn fig11() -> RunReport {
    /// The queries Fig. 11 plots (its x-axis is a query subset with
    /// runtime below the paper's cut-off).
    const QUERIES: [usize; 8] = [1, 4, 6, 7, 12, 16, 17, 22];
    const EBP_BYTES: u64 = 512 << 20;
    let run = |bp_pages: usize, ebp: bool| {
        let mut dep = ch_deployment(bp_pages, ebp.then_some(EBP_BYTES), &CH_SCALE);
        if ebp {
            prime(&mut dep, &[1, 12]);
        }
        let session = QuerySession::default();
        let elapsed: Vec<VTime> = QUERIES
            .iter()
            .map(|&q| timed(&mut dep.ctx, &dep.db, &session, &chbench::query(q), 3))
            .collect();
        (elapsed, dep.report("fig11", None))
    };
    let [(off_64, _), (on_64, mut report), (off_128, _), (on_128, _)] =
        [(64, false), (64, true), (128, false), (128, true)].map(|(bp, ebp)| run(bp, ebp));
    let key = |q: usize, bp: usize| {
        Trial::default()
            .with_param("query", q as f64)
            .with_param("bp_pages", bp as f64)
    };
    let mut trials = Vec::new();
    for (bp, off, on) in [(64, off_64, on_64), (128, off_128, on_128)] {
        for ((&q, off), on) in QUERIES.iter().zip(off).zip(on) {
            trials.push(
                key(q, bp)
                    .with_param("ebp", EBP_BYTES as f64)
                    .with_result("elapsed_ns", on.as_nanos() as f64)
                    .with_result(
                        "speedup",
                        off.as_nanos() as f64 / on.as_nanos().max(1) as f64,
                    ),
            );
        }
    }

    let speedup = |q| find(&trials, &key(q, 64)).result["speedup"];
    let (q7, q16) = (speedup(7), speedup(16));
    let checks = [
        check("q7_gains_over_1_5x", q7 > 1.5).with_result("q7_speedup", q7),
        check("q16_gains_less_than_q7", q16 < q7)
            .with_result("q7_speedup", q7)
            .with_result("q16_speedup", q16),
    ];
    trials.extend(checks);
    report.trials = trials;
    report
}

/// **Figure 12** — EBP size on the internal lookup workload: point lookups
/// over a table ~20× the buffer pool with a mid-90s buffer-pool hit rate,
/// 16 clients. EBP sizes double, 8 MB standing for the paper's 256 GB.
///
/// Paper: even the smallest EBP cuts average response time by ~45% and
/// P99 by >50%, with diminishing returns as the EBP doubles (only so much
/// data is eligible for caching). Trials are `params {ebp_mb, clients}`
/// (`ebp_mb` 0: no EBP); the registry sections describe `{ebp_mb: 64,
/// clients: 16}`.
pub fn fig12() -> RunReport {
    let scale = LookupScale {
        rows: 20_000,
        hot_fraction: 0.95,
        hot_region: 0.06,
    };
    let key = |ebp_mb: u64| {
        Trial::default()
            .with_param("ebp_mb", ebp_mb)
            .with_param("clients", 16.0)
    };
    let open = |ebp_mb: u64| {
        let cfg = config(128, (ebp_mb > 0).then_some(ebp_mb << 20));
        let dep = Deployment::open_with(cfg, ClusterSpec::paper_default(), 1 << 30, 2 << 20);
        let mut dep = loaded(dep, lookup::define_schema, |ctx, db| {
            lookup::load(ctx, db, scale)
        });
        // Warm pass: stream the cold region through the BP so evictions
        // populate the EBP.
        let (db, mut warm_ctx) = (&dep.db, dep.ctx.fork());
        for i in (1..=scale.rows).step_by(3) {
            let _ = db.get_by_pk(&mut warm_ctx, None, "operations", &[Value::Int(i)]);
        }
        dep.ctx.wait_until(warm_ctx.now());
        dep
    };
    let op = |ctx: &mut SimCtx, db: &Arc<Db>, _| lookup::lookup_op(ctx, db, scale);
    let points: (Vec<Trial>, Vec<RunReport>) = [0u64, 8, 16, 32, 64]
        .into_iter()
        .map(|ebp_mb| point(key(ebp_mb), 16, (30, 200), || open(ebp_mb), op))
        .unzip();

    let v = |ebp_mb, k: &str| find(&points.0, &key(ebp_mb)).result[k];
    let cut = |k: &str| (1.0 - v(8, k) / v(0, k).max(1.0)) * 100.0;
    let first_gain = (v(0, "mean_ns") - v(8, "mean_ns")).max(0.0);
    let later_gain = (v(8, "mean_ns") - v(64, "mean_ns")).max(0.0);
    let checks = [
        check(
            "smallest_ebp_cuts_mean_25pct",
            v(8, "mean_ns") <= v(0, "mean_ns") * 0.75,
        )
        .with_result("mean_cut_pct", cut("mean_ns"))
        .with_paper("mean_cut_pct", 45.0),
        check("smallest_ebp_cuts_p99", v(8, "p99_ns") < v(0, "p99_ns"))
            .with_result("p99_cut_pct", cut("p99_ns"))
            .with_paper("p99_cut_pct", 50.0),
        check("doubling_the_ebp_diminishes", later_gain < first_gain)
            .with_result("first_gain_ns", first_gain)
            .with_result("later_gain_ns", later_gain),
    ];
    report("fig12", points, &key(64), checks)
}

/// The optimizer's default plan for CH query `q`: a nested-loop join where
/// the paper describes one (Q16's item × supplier, Q20's stock ×
/// supplier), the push-down-friendly hash plan otherwise. Switching to the
/// hash plan is the "plan change" effect.
fn default_plan(q: usize) -> Plan {
    match q {
        16 => Plan::NestLoopJoin {
            left: Box::new(Plan::scan("item")),
            right: Box::new(Plan::scan_where(
                "supplier",
                Expr::cmp(CmpOp::Gt, Expr::col(3), Expr::dbl(100.0)),
            )),
            on: Expr::eq(Expr::col(0), Expr::col(3)),
            project: None,
        }
        .agg(vec![4], vec![AggExpr::count_star()]),
        20 => {
            let filtered =
                Plan::scan_where("stock", Expr::cmp(CmpOp::Gt, Expr::col(2), Expr::int(40)))
                    .project(vec![
                        Expr::col(0),
                        Expr::col(1),
                        Expr::mul(Expr::col(0), Expr::col(1)),
                    ]);
            Plan::NestLoopJoin {
                left: Box::new(filtered),
                right: Box::new(Plan::scan("supplier")),
                on: Expr::eq(Expr::col(2), Expr::col(3)),
                project: None,
            }
            .agg(vec![5], vec![AggExpr::count_star()])
        }
        _ => chbench::query(q),
    }
}

/// **Figure 14** — push-down over the 22 CH-benCHmark queries, three runs
/// per query as in the paper: *baseline* (no push-down, the default
/// plan), *plan-change only* (the push-down-friendly hash plan, executed
/// in the engine) and *PQ + EBP* (push-down on, the EBP hosting the hot
/// pages). One deployment, 64-page buffer pool, 512 MB EBP.
///
/// Paper: Q1, 6, 11, 13, 15, 20, 22 gain 4–24×; the geometric mean is
/// ≈2.8× for PQ+EBP and ≈2× when re-baselined on the plan-change-only
/// runs. Trials are `params {query}` with the three times (average of two
/// runs after a warm-up) and both speedups over the baseline.
pub fn fig14() -> RunReport {
    let mut dep = ch_deployment(64, Some(512 << 20), &CH_SCALE);
    prime(&mut dep, &[1, 12, 22]);
    let (local, pq) = (QuerySession::default(), QuerySession::with_pushdown());
    let db = Arc::clone(&dep.db);
    let mut trials: Vec<Trial> = (1..=22usize)
        .map(|q| {
            let ctx = &mut dep.ctx;
            let t_base = timed(ctx, &db, &local, &default_plan(q), 2).as_nanos() as f64;
            let t_plan = timed(ctx, &db, &local, &chbench::query(q), 2).as_nanos() as f64;
            let t_pq = timed(ctx, &db, &pq, &chbench::query(q), 2).as_nanos() as f64;
            Trial::default()
                .with_param("query", q as f64)
                .with_result("baseline_ns", t_base)
                .with_result("plan_only_ns", t_plan)
                .with_result("pq_ebp_ns", t_pq)
                .with_result("plan_speedup", t_base / t_plan.max(1.0))
                .with_result("pq_speedup", t_base / t_pq.max(1.0))
        })
        .collect();

    let geomean = |f: &dyn Fn(&Trial) -> f64| {
        (trials.iter().map(|t| f(t).ln()).sum::<f64>() / trials.len() as f64).exp()
    };
    let g_pq = geomean(&|t| t.result["pq_speedup"]);
    let g_beyond_plan = geomean(&|t| t.result["pq_speedup"] / t.result["plan_speedup"]);
    let winners: Vec<f64> = chbench::PUSHDOWN_WINNERS
        .iter()
        .map(|&q| {
            find(&trials, &Trial::default().with_param("query", q as f64)).result["pq_speedup"]
        })
        .collect();
    let winners_2x = winners.iter().filter(|s| **s > 2.0).count();
    let checks = [
        check("four_marquee_queries_gain_2x", winners_2x >= 4)
            .with_result("marquee_queries", winners.len() as f64)
            .with_result("marquee_queries_over_2x", winners_2x as f64),
        check("geomean_pq_speedup_over_1_5x", g_pq > 1.5)
            .with_result("geomean_pq_speedup", g_pq)
            .with_paper("geomean_pq_speedup", 2.8),
        check("pq_gains_1_2x_beyond_plan_change", g_beyond_plan > 1.2)
            .with_result("geomean_beyond_plan_change", g_beyond_plan)
            .with_paper("geomean_beyond_plan_change", 2.0),
    ];
    trials.extend(checks);
    let mut report = dep.report("fig14", None);
    report.trials = trials;
    report
}
