//! **Figures 6 + 7** — TPC-C throughput and P95 latency vs concurrency,
//! veDB with and without AStore.
//!
//! Paper shapes: with AStore throughput peaks ~90k TPS at 64 clients
//! (+30% over the ~68k TPS baseline, which peaks later, at 128 clients);
//! P95 latency is consistently lower with AStore (up to ~50% at 32
//! clients), and the gap narrows beyond 64 clients as the workload turns
//! CPU-bound.

use vedb_bench::{fmt_tps, paper_note, print_table, write_bench_report, Deployment};
use vedb_core::db::{DbConfig, LogBackendKind};
use vedb_sim::{Trial, VTime};
use vedb_workloads::tpcc::{self, TpccScale};

fn main() {
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
    let clients = vec![1usize, 2, 4, 8, 16, 32, 64, 128, 256];
    // Per deployment, one trial per client count.
    let mut series: Vec<Vec<Trial>> = Vec::new();

    for (slug, log) in [
        ("fig6_7_tpcc_vedb", LogBackendKind::BlobStore),
        ("fig6_7_tpcc_astore", LogBackendKind::AStore),
    ] {
        let mut dep = Deployment::open(
            DbConfig::builder()
                .bp_pages(4096)
                .bp_shards(16)
                .log(log)
                .ring_segments(8)
                .build()
                .unwrap(),
        );
        dep.db.define_schema(tpcc::define_schema);
        dep.db.create_tables(&mut dep.ctx).unwrap();
        tpcc::load(&mut dep.ctx, &dep.db, &scale).unwrap();

        let mut trials = Vec::new();
        for &n in &clients {
            let db = std::sync::Arc::clone(&dep.db);
            let r = dep.trial(
                n,
                VTime::from_millis(20),
                VTime::from_millis(150),
                |ctx, _| tpcc::run_transaction(ctx, &db, &scale),
            );
            trials.push(Trial::measured(&r).with_param("clients", n as f64));
        }
        // Export the run's observability snapshot: one trial per point, the
        // registry sections accumulated over the full sweep.
        let mut report = dep.report(slug, None);
        report.trials = trials;
        let _ = write_bench_report(&report);
        series.push(report.trials);
    }
    let tps = |s: usize, i: usize| series[s][i].result["throughput_per_s"];
    let p95 = |s: usize, i: usize| series[s][i].result["p95_ns"];

    let rows: Vec<Vec<String>> = clients
        .iter()
        .enumerate()
        .map(|(i, n)| {
            vec![
                n.to_string(),
                fmt_tps(tps(0, i)),
                fmt_tps(tps(1, i)),
                format!("{:+.0}%", (tps(1, i) / tps(0, i) - 1.0) * 100.0),
            ]
        })
        .collect();
    print_table(
        "Fig 6: TPC-C throughput (TPS) vs clients",
        &["clients", "veDB", "veDB+AStore", "gain"],
        &rows,
    );
    paper_note("peaks ~68k TPS (veDB, @128 clients) vs ~90k TPS (AStore, @64 clients), +30%");

    let rows: Vec<Vec<String>> = clients
        .iter()
        .enumerate()
        .map(|(i, n)| {
            vec![
                n.to_string(),
                format!("{:.2}", p95(0, i) / 1e6),
                format!("{:.2}", p95(1, i) / 1e6),
                format!("{:.0}%", (1.0 - p95(1, i) / p95(0, i).max(1.0)) * 100.0),
            ]
        })
        .collect();
    print_table(
        "Fig 7: TPC-C P95 latency (ms) vs clients",
        &["clients", "veDB", "veDB+AStore", "reduction"],
        &rows,
    );
    paper_note("AStore consistently lower; ~50% reduction at 32 clients; gap narrows past 64");

    // Shape assertions.
    let peak = |s: usize| (0..clients.len()).map(|i| tps(s, i)).fold(0.0f64, f64::max);
    let peak_vedb = peak(0);
    let peak_astore = peak(1);
    assert!(
        peak_astore > peak_vedb * 1.1,
        "AStore peak TPS ({peak_astore:.0}) must exceed baseline ({peak_vedb:.0}) by >10%"
    );
    let mid = 5; // 32 clients
    assert!(
        p95(1, mid) < p95(0, mid),
        "AStore P95 must be lower at 32 clients"
    );
    println!(
        "\nshape-check: OK (AStore peak {peak_astore:.0} > baseline peak {peak_vedb:.0}; lower P95 at 32 clients)"
    );
}
