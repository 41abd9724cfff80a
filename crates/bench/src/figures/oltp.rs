//! Client sweeps of the paper's OLTP workloads, stock veDB (LogStore log)
//! against veDB+AStore: Figs 6/7, 8, 9 and 13.

use std::sync::Arc;

use vedb_core::db::{Db, DbConfig, LogBackendKind};
use vedb_core::ebp::EbpConfig;
use vedb_sim::{ClusterSpec, RunReport, SimCtx, Trial};
use vedb_workloads::driver::OpOutcome;
use vedb_workloads::sysbench::{self, SysbenchScale};
use vedb_workloads::tpcc::{self, TpccScale};
use vedb_workloads::{ads, orders};

use super::{check, find, loaded, point, report, LOGS};
use crate::Deployment;

/// A deployment whose buffer pool (4096 pages, 16 shards) holds the data,
/// logging to `log`.
fn open(log: LogBackendKind, ring_segments: usize) -> Deployment {
    Deployment::open(
        DbConfig::builder()
            .bp_pages(4096)
            .bp_shards(16)
            .log(log)
            .ring_segments(ring_segments)
            .build()
            .unwrap(),
    )
}

/// `params {log, clients}`.
fn key(log: &str, clients: usize) -> Trial {
    Trial::default()
        .with_param("log", log)
        .with_param("clients", clients as f64)
}

/// One [`point`] of `op` per client count `n`, under `key(n)`, each on a
/// deployment `open` builds.
fn sweep(
    clients: &[usize],
    key: impl Fn(usize) -> Trial,
    window: (u64, u64),
    open: impl Fn() -> Deployment,
    op: impl Fn(&mut SimCtx, &Arc<Db>) -> OpOutcome + Sync,
) -> Vec<(Trial, RunReport)> {
    clients
        .iter()
        .map(|&n| point(key(n), n, window, &open, |ctx, db, _| op(ctx, db)))
        .collect()
}

/// **Figures 6 + 7** — TPC-C throughput and P95 latency vs concurrency.
///
/// Paper: with AStore throughput peaks at ~90k TPS at 64 clients, +30%
/// over the ~68k TPS baseline, which peaks later, at 128 clients; P95 is
/// consistently lower with AStore (~50% at 32 clients), and the gap
/// narrows beyond 64 clients as the workload turns CPU-bound. Trials are
/// `params {log, clients}`, nine client counts per log; the registry
/// sections describe `{log: astore, clients: 256}`.
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
    let mut points = (Vec::new(), Vec::new());
    for (name, log) in LOGS {
        points.extend(sweep(
            &clients,
            |n| key(name, n),
            (20, 150),
            || {
                loaded(open(log, 8), tpcc::define_schema, |c, db| {
                    tpcc::load(c, db, &scale)
                })
            },
            |ctx, db| tpcc::run_transaction(ctx, db, &scale),
        ));
    }

    let at = |log: &str, n: usize| &find(&points.0, &key(log, n)).result;
    let peak = |log: &str| {
        clients
            .iter()
            .map(|&n| at(log, n)["throughput_per_s"])
            .fold(0.0, f64::max)
    };
    let (base_peak, astore_peak) = (peak("logstore"), peak("astore"));
    let (base_p95, astore_p95) = (at("logstore", 32)["p95_ns"], at("astore", 32)["p95_ns"]);
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
    report("fig6_7", points, &key("astore", 256), checks)
}

/// **Figure 8** — the internal batched order-processing workload.
///
/// Paper: for the single 2 KB insert (8a), veDB+AStore exceeds 10k TPS
/// with only 8 clients while stock veDB reaches 3,339 TPS (>3×); the full
/// batched order transaction (8b) reaches the 10k-TPS target at 64 clients
/// with AStore, while stock veDB needs more than 512. Trials are `params
/// {workload, log, clients}`; the registry sections describe `{workload:
/// order_batch, log: astore, clients: 256}`.
pub fn fig8() -> RunReport {
    let clients = [1usize, 8, 16, 64, 128, 256];
    let key = |workload: &str, log: &str, n: usize| key(log, n).with_param("workload", workload);
    let mut points = (Vec::new(), Vec::new());
    type Op = fn(&mut SimCtx, &Arc<Db>) -> OpOutcome;
    let workloads: [(&str, Op); 2] = [
        ("single_insert", orders::single_insert),
        ("order_batch", orders::order_batch),
    ];
    for (workload, op) in workloads {
        for (name, log) in LOGS {
            points.extend(sweep(
                &clients,
                |n| key(workload, name, n),
                (20, 120),
                || loaded(open(log, 12), orders::define_schema, orders::load),
                op,
            ));
        }
    }

    let tps = |workload: &str, log: &str, n: usize| {
        find(&points.0, &key(workload, log, n)).result["throughput_per_s"]
    };
    let insert = |log: &str| tps("single_insert", log, 8);
    let base_best = clients
        .iter()
        .map(|&n| tps("order_batch", "logstore", n))
        .fold(0.0, f64::max);
    let batch_64 = tps("order_batch", "astore", 64);
    let checks = [
        check(
            "single_insert_astore_2x_at_8_clients",
            insert("astore") > insert("logstore") * 2.0,
        )
        .with_result("logstore_tps", insert("logstore"))
        .with_result("astore_tps", insert("astore"))
        .with_paper("logstore_tps", 3_339.0)
        .with_paper("astore_tps", 10_000.0),
        check(
            "order_batch_astore_at_64_rivals_logstore_best",
            batch_64 > base_best * 0.9,
        )
        .with_result("astore_tps", batch_64)
        .with_result("logstore_best_tps", base_best)
        .with_paper("astore_tps", 10_000.0),
    ];
    report("fig8", points, &key("order_batch", "astore", 256), checks)
}

/// **Figure 9** — the internal advertisement workload, duplicated onto
/// both deployments as the paper's shadow-traffic test did, 16 clients.
///
/// Paper: average latency ~20× lower with AStore; P99 ~150 ms → ~5 ms;
/// worst case ~500 ms → ~20 ms. Trials are `params {log, clients}`; the
/// registry sections describe `{log: astore, clients: 16}`.
pub fn fig9() -> RunReport {
    let points: (Vec<Trial>, Vec<RunReport>) = LOGS
        .into_iter()
        .map(|(name, log)| {
            let deployment = || loaded(open(log, 12), ads::define_schema, ads::load);
            point(key(name, 16), 16, (30, 250), deployment, |ctx, db, _| {
                ads::ad_op(ctx, db)
            })
        })
        .unzip();

    let v = |log: &str, k: &str| find(&points.0, &key(log, 16)).result[k];
    let (base, astore) = (|k: &str| v("logstore", k), |k: &str| v("astore", k));
    let ratio = |k: &str| base(k) / astore(k).max(1.0);
    let checks = [
        check("astore_mean_3x_lower", ratio("mean_ns") > 3.0)
            .with_result("logstore_mean_ns", base("mean_ns"))
            .with_result("astore_mean_ns", astore("mean_ns"))
            .with_result("ratio", ratio("mean_ns"))
            .with_paper("ratio", 20.0),
        check("astore_p99_lower", astore("p99_ns") < base("p99_ns"))
            .with_result("logstore_p99_ns", base("p99_ns"))
            .with_result("astore_p99_ns", astore("p99_ns"))
            .with_paper("logstore_p99_ns", 150e6)
            .with_paper("astore_p99_ns", 5e6),
        check("astore_max_lower", astore("max_ns") < base("max_ns"))
            .with_result("logstore_max_ns", base("max_ns"))
            .with_result("astore_max_ns", astore("max_ns"))
            .with_result("ratio", ratio("max_ns"))
            .with_paper("logstore_max_ns", 500e6)
            .with_paper("astore_max_ns", 20e6)
            .with_paper("ratio", 25.0),
    ];
    report("fig9", points, &key("astore", 16), checks)
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
/// bp_pages, ebp_mb, clients}`; the registry sections describe `{cores: 8,
/// log: astore, clients: 256}`.
pub fn fig13() -> RunReport {
    let scale = SysbenchScale { rows: 10_000 };
    let clients = [1usize, 8, 32, 128, 256];
    let key = |cores: usize, log: &str, n: usize| key(log, n).with_param("cores", cores as f64);
    let mut points = (Vec::new(), Vec::new());
    for (cores, stock_bp, astore_bp, ebp_mb) in TABLE3 {
        for ((name, log), bp, ebp) in [(LOGS[0], stock_bp, 0), (LOGS[1], astore_bp, ebp_mb)] {
            let open = || {
                let cfg = DbConfig::builder()
                    .bp_pages(bp)
                    .bp_shards(8)
                    .log(log)
                    .ring_segments(12)
                    .ebp((ebp > 0).then(|| EbpConfig {
                        capacity_bytes: ebp << 20,
                        ..Default::default()
                    }));
                let spec = ClusterSpec::paper_default().with_engine_cores(cores);
                let dep = Deployment::open_with(cfg.build().unwrap(), spec, 1 << 30, 2 << 20);
                loaded(dep, sysbench::define_schema, |ctx, db| {
                    sysbench::load(ctx, db, scale)
                })
            };
            let row_key = |n| {
                key(cores, name, n)
                    .with_param("bp_pages", bp as f64)
                    .with_param("ebp_mb", ebp)
            };
            points.extend(sweep(&clients, row_key, (15, 100), open, |ctx, db| {
                sysbench::transaction(ctx, db, scale)
            }));
        }
    }

    let tps = |cores, log: &str, n| find(&points.0, &key(cores, log, n)).result["throughput_per_s"];
    // The AStore gain over stock veDB, averaged over both Table III rows
    // and the client counts `pick` keeps.
    let gain = |pick: fn(usize) -> bool| {
        let gains: Vec<f64> = TABLE3
            .iter()
            .flat_map(|&(cores, ..)| clients.iter().map(move |&n| (cores, n)))
            .filter(|&(_, n)| pick(n))
            .map(|(c, n)| (tps(c, "astore", n) / tps(c, "logstore", n).max(1.0) - 1.0) * 100.0)
            .collect();
        gains.iter().sum::<f64>() / gains.len().max(1) as f64
    };
    let (low, high) = (gain(|n| n <= 32), gain(|n| n >= 128));
    let checks = [
        check("gain_above_10pct_up_to_32_clients", low > 10.0).with_result("gain_pct", low),
        check("gain_shrinks_from_128_clients", high < low)
            .with_result("low_gain_pct", low)
            .with_result("high_gain_pct", high),
    ];
    report("fig13", points, &key(8, "astore", 256), checks)
}
