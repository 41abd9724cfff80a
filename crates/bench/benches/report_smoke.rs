//! **Smoke-scale report run** — a small TPC-C trial on the full veDB
//! stack (AStore log + Extended Buffer Pool), exported as
//! `BENCH_tpcc_smoke.json`. CI runs this target to produce the artifact
//! it uploads and to check that every subsystem actually publishes into
//! the registry; the scale is deliberately tiny so it finishes in
//! seconds.

use vedb_bench::{fmt_tps, write_bench_report, Deployment};
use vedb_core::db::{DbConfig, LogBackendKind};
use vedb_core::ebp::EbpConfig;
use vedb_sim::VTime;
use vedb_workloads::tpcc::{self, TpccScale};

fn main() {
    let scale = TpccScale::bench();
    // A buffer pool smaller than the loaded tables (same shape as Fig 10),
    // so evictions spill into the EBP and the ebp_* counters exercise both
    // the write and the hit path.
    let mut dep = Deployment::open(
        DbConfig::builder()
            .bp_pages(96)
            .bp_shards(8)
            .log(LogBackendKind::AStore)
            .ring_segments(12)
            .ebp(EbpConfig {
                capacity_bytes: 256 << 20,
                ..Default::default()
            })
            .build()
            .unwrap(),
    );
    dep.db.define_schema(tpcc::define_schema);
    dep.db.create_tables(&mut dep.ctx).unwrap();
    tpcc::load(&mut dep.ctx, &dep.db, &scale).unwrap();

    // Trace the trial (not the load) so the report's `profile` section
    // carries commit-phase attribution. The ring must hold the whole
    // measurement window: ~1K commits x ~50 spans fits in 2^18.
    dep.metrics().trace().set_capacity(1 << 18);
    dep.metrics().trace().enable();

    // Single client: the smoke run doubles as the determinism fixture (a
    // one-client virtual-time trial is reproducible bit for bit), and it
    // sidesteps the engine's known EBP-under-concurrent-writers races.
    let db = std::sync::Arc::clone(&dep.db);
    let r = dep.trial(
        1,
        VTime::from_millis(5),
        VTime::from_millis(200),
        |ctx, _| tpcc::run_transaction(ctx, &db, &scale),
    );
    println!(
        "smoke TPC-C: {} TPS, p95 {:.2} ms",
        fmt_tps(r.throughput()),
        r.latency.p95().as_millis_f64()
    );

    let report = dep.report("tpcc_smoke", Some(&r));
    // The artifact must prove each subsystem reported in: these are the
    // counters EXPERIMENTS.md documents as the health check.
    for key in [
        "pmem.flushes",
        "pmem.bytes_persisted",
        "rdma.chain_writes",
        "rdma.rpc_calls",
        "astore.appends",
        "core.wal_flushes",
        "core.ebp_writes",
        "core.bp_misses",
        "core.txn_commits",
        "pagestore.records_applied",
    ] {
        assert!(
            report.counter(key) > 0,
            "expected non-zero counter {key} in smoke report"
        );
    }
    assert!(
        report.trials[0].result["throughput_per_s"] > 0.0,
        "smoke run committed nothing"
    );

    // Phase accounting must close the loop: the commit_phases breakdown
    // sums to the end-to-end commit time (within 1% for ring-eviction
    // slack; by construction it is exact when nothing was evicted).
    let profile = &report.profile;
    assert!(profile.spans > 0, "trace captured no spans");
    let commit_total = profile.ops["core/commit"].total_ns;
    let phase_sum: u64 = profile.commit_phases.values().map(|p| p.total_ns).sum();
    assert!(commit_total > 0, "no commit spans in profile");
    let drift = commit_total.abs_diff(phase_sum);
    assert!(
        drift * 100 <= commit_total,
        "commit_phases sum {phase_sum} deviates >1% from commit total {commit_total}"
    );
    assert!(
        profile.commit_phases.contains_key("wal/flush"),
        "commit path must attribute a wal/flush phase"
    );

    // Saturation attribution: every cluster device must have
    // been discovered via its `.lanes` gauge and seen traffic, lock
    // acquisition must attribute to labelled tables, and the traced window
    // must fold into flamegraph stacks.
    assert!(
        !report.resources.is_empty(),
        "no resources discovered in smoke report"
    );
    for dev in ["engine.nic", "astore-0.pmem", "astore-0.nic"] {
        let r = report
            .resources
            .get(dev)
            .unwrap_or_else(|| panic!("resource {dev} missing from report"));
        assert!(r.ops > 0, "resource {dev} saw no traffic");
        assert_eq!(r.wait.count, r.ops, "{dev} wait samples != ops");
        assert_eq!(r.service.count, r.ops, "{dev} service samples != ops");
    }
    assert!(
        !profile.locks.tables.is_empty(),
        "lock contention profile attributed no tables"
    );
    assert!(
        profile.locks.tables.contains_key("warehouse"),
        "TPC-C lock profile must name the warehouse table"
    );
    assert!(
        !profile.folded.is_empty(),
        "traced run produced no folded stacks"
    );

    write_bench_report(&report).expect("write BENCH_tpcc_smoke.json");
}
