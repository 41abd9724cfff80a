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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vedb_bench::{fmt_tps, print_table, write_bench_report, Deployment};
use vedb_core::catalog::ColumnType;
use vedb_core::db::{Db, DbConfig, LogBackendKind};
use vedb_core::{FlushPolicy, Value};
use vedb_sim::{ClusterSpec, SimCtx, VTime};
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

struct Cell {
    tput: f64,
    p50: VTime,
    p99: VTime,
    flushes_per_commit: f64,
}

/// Table I cluster, except each AStore server's PMem is one log DIMM
/// lane — flushes serialize at the device, as on a real WAL device.
fn log_bound_spec() -> ClusterSpec {
    let mut spec = ClusterSpec::paper_default();
    spec.model.pmem_lanes = 1;
    spec
}

fn sweep(policy: FlushPolicy, clients: &[usize]) -> (Deployment, Vec<Cell>) {
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

    let mut cells = Vec::new();
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
        let (df, dc) = (flushes.get() - f0, (commits.get() - c0).max(1));
        cells.push(Cell {
            tput: r.throughput(),
            p50: r.latency.p50(),
            p99: r.latency.p99(),
            flushes_per_commit: df as f64 / dc as f64,
        });
    }
    (dep, cells)
}

fn main() {
    let clients = vec![1usize, 2, 4, 8, 16, 32, 64];
    let group_policy = FlushPolicy::Group {
        max_batch_bytes: 64 * 1024,
        max_wait: VTime::from_micros(100),
    };

    let (_pc_dep, pc) = sweep(FlushPolicy::PerCommit, &clients);
    let (gr_dep, gr) = sweep(group_policy, &clients);

    let rows: Vec<Vec<String>> = clients
        .iter()
        .enumerate()
        .map(|(i, n)| {
            vec![
                n.to_string(),
                fmt_tps(pc[i].tput),
                fmt_tps(gr[i].tput),
                format!("{:.2}", pc[i].flushes_per_commit),
                format!("{:.2}", gr[i].flushes_per_commit),
                format!("{:.0}us", pc[i].p50.as_micros_f64()),
                format!("{:.0}us", gr[i].p50.as_micros_f64()),
                format!("{:.0}us", pc[i].p99.as_micros_f64()),
                format!("{:.0}us", gr[i].p99.as_micros_f64()),
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

    // Publish the sweep into the Group deployment's registry so the
    // exported JSON carries the cross-policy comparison (gauges are the
    // report's vehicle for bench-computed series). Times in ns, ratios
    // scaled ×1000.
    let g = gr_dep.metrics();
    for (i, &n) in clients.iter().enumerate() {
        g.gauge("bench", format!("tps_percommit_{n}"))
            .set(pc[i].tput as i64);
        g.gauge("bench", format!("tps_group_{n}"))
            .set(gr[i].tput as i64);
        g.gauge("bench", format!("p50ns_percommit_{n}"))
            .set(pc[i].p50.as_nanos() as i64);
        g.gauge("bench", format!("p50ns_group_{n}"))
            .set(gr[i].p50.as_nanos() as i64);
        g.gauge("bench", format!("p99ns_percommit_{n}"))
            .set(pc[i].p99.as_nanos() as i64);
        g.gauge("bench", format!("p99ns_group_{n}"))
            .set(gr[i].p99.as_nanos() as i64);
        g.gauge("bench", format!("fpc1000_percommit_{n}"))
            .set((pc[i].flushes_per_commit * 1000.0) as i64);
        g.gauge("bench", format!("fpc1000_group_{n}"))
            .set((gr[i].flushes_per_commit * 1000.0) as i64);
    }

    // The acceptance assertions (also enforced on the exported JSON by
    // CI's report_diff gate).
    let flushes = gr_dep
        .report("group_commit", None)
        .counter("core.wal_flushes");
    let commits = gr_dep
        .report("group_commit", None)
        .counter("core.txn_commits");
    assert!(
        (flushes as f64) < commits as f64 * 0.5,
        "group sweep must consolidate: {flushes} flushes / {commits} commits"
    );
    let doorbells = gr_dep
        .report("group_commit", None)
        .counter("rdma.doorbells");
    let wrs = gr_dep.report("group_commit", None).counter("rdma.wrs");
    assert!(
        doorbells > 0 && doorbells < wrs,
        "doorbell batching must show: {doorbells} doorbells / {wrs} WRs"
    );
    for (i, &n) in clients.iter().enumerate() {
        if n >= 8 {
            assert!(
                gr[i].p50 < pc[i].p50,
                "group p50 must beat per-commit at {n} clients: {:?} vs {:?}",
                gr[i].p50,
                pc[i].p50
            );
            assert!(
                gr[i].flushes_per_commit < 0.5,
                "flushes-per-commit must fall below 0.5 at {n} clients, got {:.2}",
                gr[i].flushes_per_commit
            );
        }
    }
    println!(
        "\nshape-check: OK ({flushes} flushes / {commits} commits = {:.2} per commit; \
         {doorbells} doorbells / {wrs} WRs)",
        flushes as f64 / commits as f64
    );

    let report = gr_dep.report("group_commit", None);
    write_bench_report(&report).expect("write BENCH_group_commit.json");
}
