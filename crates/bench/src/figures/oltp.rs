//! Client sweeps of the paper's OLTP workloads, stock veDB (LogStore log)
//! against veDB+AStore: Figs 6/7, 8, 9 and 13.

use std::sync::Arc;

use vedb_core::db::{Db, DbConfig, LogBackendKind};
use vedb_core::ebp::EbpConfig;
use vedb_core::Catalog;
use vedb_sim::{ClusterSpec, RunReport, SimCtx, Trial, VTime};
use vedb_workloads::driver::OpOutcome;
use vedb_workloads::sysbench::{self, SysbenchScale};
use vedb_workloads::tpcc::{self, TpccScale};
use vedb_workloads::{ads, orders};

use super::{check, LOGS};
use crate::Deployment;

/// A deployment whose buffer pool (4096 pages, 16 shards) holds the data,
/// logging to `log`, with `schema` defined and its tables created.
fn open(log: LogBackendKind, ring_segments: usize, schema: fn(&mut Catalog)) -> Deployment {
    let mut dep = Deployment::open(
        DbConfig::builder()
            .bp_pages(4096)
            .bp_shards(16)
            .log(log)
            .ring_segments(ring_segments)
            .build()
            .unwrap(),
    );
    dep.db.define_schema(schema);
    dep.db.create_tables(&mut dep.ctx).unwrap();
    dep
}

/// One driver trial of `op` per client count, `params {log, clients}`.
fn sweep(
    dep: &mut Deployment,
    log: &str,
    clients: &[usize],
    (warmup_ms, measure_ms): (u64, u64),
    op: impl Fn(&mut SimCtx, &Arc<Db>) -> OpOutcome + Sync,
) -> Vec<Trial> {
    let db = Arc::clone(&dep.db);
    clients
        .iter()
        .map(|&n| {
            let r = dep.trial(
                n,
                VTime::from_millis(warmup_ms),
                VTime::from_millis(measure_ms),
                |ctx, _| op(ctx, &db),
            );
            Trial::measured(&r)
                .with_param("log", log)
                .with_param("clients", n as f64)
        })
        .collect()
}

/// **Figures 6 + 7** — TPC-C throughput and P95 latency vs concurrency.
///
/// Paper: with AStore throughput peaks at ~90k TPS at 64 clients, +30%
/// over the ~68k TPS baseline, which peaks later, at 128 clients; P95 is
/// consistently lower with AStore (~50% at 32 clients), and the gap
/// narrows beyond 64 clients as the workload turns CPU-bound. Trials are
/// `params {log, clients}`, nine client counts per log; the registry
/// sections describe the AStore deployment over its sweep.
pub fn fig6_7() -> RunReport {
    // Warehouse count sized so the top of the client sweep sits near the
    // spec's ~10 terminals/warehouse ratio (the paper loads 1000 warehouses
    // for up to 512 clients; scaled down proportionally).
    let scale = TpccScale {
        warehouses: 48,
        districts: 4,
        customers: 40,
        items: 200,
        initial_orders: 15,
    };
    let clients = [1usize, 2, 4, 8, 16, 32, 64, 128, 256];
    let run = |(name, log): (&str, LogBackendKind)| {
        let mut dep = open(log, 8, tpcc::define_schema);
        tpcc::load(&mut dep.ctx, &dep.db, &scale).unwrap();
        let trials = sweep(&mut dep, name, &clients, (20, 150), |ctx, db| {
            tpcc::run_transaction(ctx, db, &scale)
        });
        (dep, trials)
    };
    let (_, mut trials) = run(LOGS[0]);
    let (dep, astore) = run(LOGS[1]);

    let peak = |s: &[Trial]| {
        s.iter()
            .map(|t| t.result["throughput_per_s"])
            .fold(0.0, f64::max)
    };
    let (base_peak, astore_peak) = (peak(&trials), peak(&astore));
    let at32 = 5;
    let (base_p95, astore_p95) = (trials[at32].result["p95_ns"], astore[at32].result["p95_ns"]);
    let checks = [
        check(
            "astore_peak_tps_10pct_above_logstore",
            astore_peak > base_peak * 1.1,
        )
        .with_result("logstore_peak_tps", base_peak)
        .with_result("astore_peak_tps", astore_peak)
        .with_paper("logstore_peak_tps", 68_000.0)
        .with_paper("astore_peak_tps", 90_000.0),
        check("astore_p95_lower_at_32_clients", astore_p95 < base_p95)
            .with_result("logstore_p95_ns", base_p95)
            .with_result("astore_p95_ns", astore_p95)
            .with_result(
                "p95_reduction_pct",
                (1.0 - astore_p95 / base_p95.max(1.0)) * 100.0,
            )
            .with_paper("p95_reduction_pct", 50.0),
    ];
    trials.extend(astore);
    trials.extend(checks);
    let mut report = dep.report("fig6_7", None);
    report.trials = trials;
    report
}

/// **Figure 8** — the internal batched order-processing workload.
///
/// Paper: for the single 2 KB insert (8a), veDB+AStore exceeds 10k TPS
/// with only 8 clients while stock veDB reaches 3,339 TPS (>3×); the full
/// batched order transaction (8b) reaches the 10k-TPS target at 64 clients
/// with AStore, while stock veDB needs more than 512. Trials are `params
/// {workload, log, clients}`; the registry sections describe the last
/// deployment, AStore under 8b.
pub fn fig8() -> RunReport {
    let clients = [1usize, 8, 16, 64, 128, 256];
    let mut trials = Vec::new();
    let mut report = None;
    type Op = fn(&mut SimCtx, &Arc<Db>) -> OpOutcome;
    let workloads: [(&str, Op); 2] = [
        ("single_insert", orders::single_insert),
        ("order_batch", orders::order_batch),
    ];
    for (workload, op) in workloads {
        for (name, log) in LOGS {
            let mut dep = open(log, 12, orders::define_schema);
            orders::load(&mut dep.ctx, &dep.db).unwrap();
            let series = sweep(&mut dep, name, &clients, (20, 120), op);
            trials.extend(
                series
                    .into_iter()
                    .map(|t| t.with_param("workload", workload)),
            );
            report = Some(dep.report("fig8", None));
        }
    }

    // Series 0..4: 8a logstore, 8a astore, 8b logstore, 8b astore.
    let tps =
        |series: usize, i: usize| trials[series * clients.len() + i].result["throughput_per_s"];
    let (at8, at64) = (1, 3);
    let base_best = (0..clients.len()).map(|i| tps(2, i)).fold(0.0, f64::max);
    let checks = [
        check(
            "single_insert_astore_2x_at_8_clients",
            tps(1, at8) > tps(0, at8) * 2.0,
        )
        .with_result("logstore_tps", tps(0, at8))
        .with_result("astore_tps", tps(1, at8))
        .with_paper("logstore_tps", 3_339.0)
        .with_paper("astore_tps", 10_000.0),
        check(
            "order_batch_astore_at_64_rivals_logstore_best",
            tps(3, at64) > base_best * 0.9,
        )
        .with_result("astore_tps", tps(3, at64))
        .with_result("logstore_best_tps", base_best)
        .with_paper("astore_tps", 10_000.0),
    ];
    trials.extend(checks);
    let mut report = report.expect("fig8 ran a deployment");
    report.trials = trials;
    report
}

/// **Figure 9** — the internal advertisement workload, duplicated onto
/// both deployments as the paper's shadow-traffic test did, 16 clients.
///
/// Paper: average latency ~20× lower with AStore; P99 ~150 ms → ~5 ms;
/// worst case ~500 ms → ~20 ms. Trials are `params {log, clients}`; the
/// registry sections describe the AStore deployment.
pub fn fig9() -> RunReport {
    let mut trials = Vec::new();
    let mut report = None;
    for (name, log) in LOGS {
        let mut dep = open(log, 12, ads::define_schema);
        ads::load(&mut dep.ctx, &dep.db).unwrap();
        trials.extend(sweep(&mut dep, name, &[16], (30, 250), ads::ad_op));
        report = Some(dep.report("fig9", None));
    }

    let v = |i: usize, k: &str| trials[i].result[k];
    let ratio = |k: &str| v(0, k) / v(1, k).max(1.0);
    let checks = [
        check("astore_mean_3x_lower", ratio("mean_ns") > 3.0)
            .with_result("logstore_mean_ns", v(0, "mean_ns"))
            .with_result("astore_mean_ns", v(1, "mean_ns"))
            .with_result("ratio", ratio("mean_ns"))
            .with_paper("ratio", 20.0),
        check("astore_p99_lower", v(1, "p99_ns") < v(0, "p99_ns"))
            .with_result("logstore_p99_ns", v(0, "p99_ns"))
            .with_result("astore_p99_ns", v(1, "p99_ns"))
            .with_paper("logstore_p99_ns", 150e6)
            .with_paper("astore_p99_ns", 5e6),
        check("astore_max_lower", v(1, "max_ns") < v(0, "max_ns"))
            .with_result("logstore_max_ns", v(0, "max_ns"))
            .with_result("astore_max_ns", v(1, "max_ns"))
            .with_result("ratio", ratio("max_ns"))
            .with_paper("logstore_max_ns", 500e6)
            .with_paper("astore_max_ns", 20e6)
            .with_paper("ratio", 25.0),
    ];
    trials.extend(checks);
    let mut report = report.expect("fig9 ran a deployment");
    report.trials = trials;
    report
}

/// Table III rows, scaled: (cores, stock BP pages, AStore BP pages, EBP MB).
const TABLE3: [(usize, usize, usize, u64); 2] = [(32, 640, 256, 24), (8, 128, 64, 6)];

/// **Table III + Figure 13** — cost-equalized sysbench.
///
/// PMem is ~1/3 the price of DRAM, so veDB+AStore trades buffer-pool DRAM
/// for 3× as much EBP PMem (100 GB BP → 40 GB BP + 180 GB EBP, and so on
/// down the Table III rows). Paper: substantial QPS gains below 64
/// clients, shrinking as concurrency grows (EBP index maintenance
/// contention), roughly vanishing by 256. Trials are `params {cores, log,
/// bp_pages, ebp_mb, clients}`; the registry sections describe the last
/// deployment (8 cores, AStore).
pub fn fig13() -> RunReport {
    let scale = SysbenchScale { rows: 10_000 };
    let clients = [1usize, 8, 32, 128, 256];
    let mut trials = Vec::new();
    let mut report = None;
    let (mut low, mut high) = (Vec::new(), Vec::new());
    for (cores, stock_bp, astore_bp, ebp_mb) in TABLE3 {
        for ((name, log), bp, ebp) in [(LOGS[0], stock_bp, 0), (LOGS[1], astore_bp, ebp_mb)] {
            let mut dep = Deployment::open_with(
                DbConfig::builder()
                    .bp_pages(bp)
                    .bp_shards(8)
                    .log(log)
                    .ring_segments(12)
                    .ebp((ebp > 0).then(|| EbpConfig {
                        capacity_bytes: ebp << 20,
                        ..Default::default()
                    }))
                    .build()
                    .unwrap(),
                ClusterSpec::paper_default().with_engine_cores(cores),
                1 << 30,
                2 << 20,
            );
            dep.db.define_schema(sysbench::define_schema);
            dep.db.create_tables(&mut dep.ctx).unwrap();
            sysbench::load(&mut dep.ctx, &dep.db, scale).unwrap();
            let series = sweep(&mut dep, name, &clients, (15, 100), |ctx, db| {
                sysbench::transaction(ctx, db, scale)
            });
            trials.extend(series.into_iter().map(|t| {
                t.with_param("cores", cores as f64)
                    .with_param("bp_pages", bp as f64)
                    .with_param("ebp_mb", ebp)
            }));
            report = Some(dep.report("fig13", None));
        }
        let (stock, accel) = trials[trials.len() - 2 * clients.len()..].split_at(clients.len());
        for ((s, a), n) in stock.iter().zip(accel).zip(clients) {
            let tps = |t: &Trial| t.result["throughput_per_s"];
            let gain = (tps(a) / tps(s).max(1.0) - 1.0) * 100.0;
            if n <= 32 {
                low.push(gain);
            }
            if n >= 128 {
                high.push(gain);
            }
        }
    }

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (low, high) = (avg(&low), avg(&high));
    let checks = [
        check("gain_above_10pct_up_to_32_clients", low > 10.0).with_result("gain_pct", low),
        check("gain_shrinks_from_128_clients", high < low)
            .with_result("low_gain_pct", low)
            .with_result("high_gain_pct", high),
    ];
    trials.extend(checks);
    let mut report = report.expect("fig13 ran a deployment");
    report.trials = trials;
    report
}
