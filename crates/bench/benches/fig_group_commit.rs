//! **Group-commit consolidation** (ISSUE 8) — flushes-per-commit and
//! commit latency vs concurrency, `FlushPolicy::PerCommit` vs
//! `FlushPolicy::Group`, exported as `BENCH_group_commit.json`.
//!
//! The workload is deliberately commit-dominated: each client inserts one
//! row into a private key range and commits, so there is no lock
//! contention and the measured latency is the commit path (§V-B). The
//! cluster pins each AStore server to a **single-lane log DIMM**
//! (`pmem_lanes: 1`) — the classic group-commit regime where the log
//! device serializes flushes; both policies run on the same spec so the
//! comparison is apples-to-apples. Expected shape: under `PerCommit`,
//! `core.wal_flushes` ≈ `core.txn_commits` and every flush's two PMem
//! writes (frame + io-meta) queue behind all in-flight committers, so
//! p50 grows with concurrency; under `Group` the ratio falls well below
//! 1, the log device stays unsaturated, and carried committers pay only
//! the bounded dwell + one batched append.
//!
//! The artifact's `trials` are the 2 policies × 7 client counts, each with
//! its own `wal_flushes` / `txn_commits` deltas (so flushes-per-commit is
//! derivable exactly). Its registry sections (`counters`, `gauges`,
//! `op_latencies`, `resources`, `profile`) describe the **Group**
//! deployment over its whole sweep; the PerCommit deployment is in the
//! trials only.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vedb_bench::{fmt_tps, print_table, write_bench_report, Deployment};
use vedb_core::catalog::ColumnType;
use vedb_core::db::{Db, DbConfig, LogBackendKind};
use vedb_core::{FlushPolicy, Value};
use vedb_sim::{ClusterSpec, SimCtx, Trial, VTime};
use vedb_workloads::driver::OpOutcome;

fn define_schema(cat: &mut vedb_core::Catalog) {
    cat.define("commits")
        .col("id", ColumnType::Int)
        .col("payload", ColumnType::Str)
        .pk(&["id"])
        .build();
}

/// One commit-sized transaction: insert a row in the client's private key
/// range, commit. No shared rows → no lock waits → latency is WAL flush.
fn commit_op(ctx: &mut SimCtx, db: &Arc<Db>, client: usize, seqs: &[AtomicU64]) -> OpOutcome {
    let seq = seqs[client].fetch_add(1, Ordering::Relaxed);
    let id = (client as i64) * 10_000_000 + seq as i64;
    let mut txn = db.begin();
    let r = db.insert(
        ctx,
        &mut txn,
        "commits",
        vec![Value::Int(id), Value::Str(format!("payload-{id}"))],
    );
    match r {
        Ok(()) => match db.commit(ctx, &mut txn) {
            Ok(()) => OpOutcome::Committed,
            Err(_) => OpOutcome::Aborted,
        },
        Err(_) => {
            let _ = db.abort(ctx, &mut txn);
            OpOutcome::Aborted
        }
    }
}

/// Table I cluster, except each AStore server's PMem is one log DIMM
/// lane — flushes serialize at the device, as on a real WAL device.
fn log_bound_spec() -> ClusterSpec {
    let mut spec = ClusterSpec::paper_default();
    spec.model.pmem_lanes = 1;
    spec
}

/// One deployment under `policy`, one trial per client count.
fn sweep(policy: FlushPolicy, clients: &[usize]) -> (Deployment, Vec<Trial>) {
    let policy_name = match policy {
        FlushPolicy::PerCommit => "percommit",
        FlushPolicy::Group { .. } => "group",
    };
    let mut dep = Deployment::open_with(
        DbConfig::builder()
            .bp_pages(4096)
            .bp_shards(16)
            .log(LogBackendKind::AStore)
            .ring_segments(12)
            .flush_policy(policy)
            .build()
            .unwrap(),
        log_bound_spec(),
        192 << 20,
        1 << 20,
    );
    dep.db.define_schema(define_schema);
    dep.db.create_tables(&mut dep.ctx).unwrap();

    let flushes = dep.metrics().counter("core", "wal_flushes");
    let commits = dep.metrics().counter("core", "txn_commits");
    let seqs: Vec<AtomicU64> = (0..clients.iter().max().copied().unwrap_or(1))
        .map(|_| AtomicU64::new(0))
        .collect();

    let mut trials = Vec::new();
    for &n in clients {
        let db = Arc::clone(&dep.db);
        let seqs = &seqs;
        let (f0, c0) = (flushes.get(), commits.get());
        let r = dep.trial(
            n,
            VTime::from_millis(5),
            VTime::from_millis(60),
            |ctx, client| commit_op(ctx, &db, client, seqs),
        );
        trials.push(
            Trial::measured(&r)
                .with_param("policy", policy_name)
                .with_param("clients", n as f64)
                .with_result("wal_flushes", (flushes.get() - f0) as f64)
                .with_result("txn_commits", (commits.get() - c0) as f64),
        );
    }
    (dep, trials)
}

/// Backend flushes per commit over one trial, warm-up included (both
/// counters run through it).
fn flushes_per_commit(t: &Trial) -> f64 {
    t.result["wal_flushes"] / t.result["txn_commits"].max(1.0)
}

fn main() {
    let clients = vec![1usize, 2, 4, 8, 16, 32, 64];
    let group_policy = FlushPolicy::Group {
        max_batch_bytes: 64 * 1024,
        max_wait: VTime::from_micros(100),
    };

    let (_pc_dep, pc) = sweep(FlushPolicy::PerCommit, &clients);
    let (gr_dep, gr) = sweep(group_policy, &clients);

    let us = |t: &Trial, key: &str| format!("{:.0}us", t.result[key] / 1e3);
    let rows: Vec<Vec<String>> = clients
        .iter()
        .enumerate()
        .map(|(i, n)| {
            vec![
                n.to_string(),
                fmt_tps(pc[i].result["throughput_per_s"]),
                fmt_tps(gr[i].result["throughput_per_s"]),
                format!("{:.2}", flushes_per_commit(&pc[i])),
                format!("{:.2}", flushes_per_commit(&gr[i])),
                us(&pc[i], "p50_ns"),
                us(&gr[i], "p50_ns"),
                us(&pc[i], "p99_ns"),
                us(&gr[i], "p99_ns"),
            ]
        })
        .collect();
    print_table(
        "Group commit: PerCommit vs Group{64KB,100us}",
        &[
            "clients", "tps(pc)", "tps(gr)", "f/c(pc)", "f/c(gr)", "p50(pc)", "p50(gr)", "p99(pc)",
            "p99(gr)",
        ],
        &rows,
    );

    // The acceptance assertions, on the values the artifact carries.
    let mut report = gr_dep.report("group_commit", None);
    report.trials = pc.into_iter().chain(gr).collect();
    let (pc, gr) = report.trials.split_at(clients.len());
    let flushes = report.counter("core.wal_flushes");
    let commits = report.counter("core.txn_commits");
    assert!(
        (flushes as f64) < commits as f64 * 0.5,
        "group sweep must consolidate: {flushes} flushes / {commits} commits"
    );
    let doorbells = report.counter("rdma.doorbells");
    let wrs = report.counter("rdma.wrs");
    assert!(
        doorbells > 0 && doorbells < wrs,
        "doorbell batching must show: {doorbells} doorbells / {wrs} WRs"
    );
    for (i, &n) in clients.iter().enumerate() {
        if n >= 8 {
            assert!(
                gr[i].result["p50_ns"] < pc[i].result["p50_ns"],
                "group p50 must beat per-commit at {n} clients: {}ns vs {}ns",
                gr[i].result["p50_ns"],
                pc[i].result["p50_ns"]
            );
            assert!(
                flushes_per_commit(&gr[i]) < 0.5,
                "flushes-per-commit must fall below 0.5 at {n} clients, got {:.2}",
                flushes_per_commit(&gr[i])
            );
        }
    }
    println!(
        "\nshape-check: OK ({flushes} flushes / {commits} commits = {:.2} per commit; \
         {doorbells} doorbells / {wrs} WRs)",
        flushes as f64 / commits as f64
    );

    write_bench_report(&report).expect("write BENCH_group_commit.json");
}
