//! The system artifacts — not paper figures, the acceptance experiments of
//! the commit path, the apply pipeline and the report pipeline itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vedb_astore::PageId;
use vedb_core::catalog::ColumnType;
use vedb_core::db::{Db, DbConfig, LogBackendKind};
use vedb_core::ebp::EbpConfig;
use vedb_core::{FlushPolicy, Value};
use vedb_pagestore::page::PageType;
use vedb_pagestore::redo::{PageOp, RedoRecord};
use vedb_pagestore::{PageStore, PageStoreServer, CHECKPOINT_EVERY_RECORDS};
use vedb_rdma::RpcFabric;
use vedb_sim::{ClusterSpec, RunReport, SimCtx, SimEnv, Trial, VTime};
use vedb_workloads::driver::OpOutcome;
use vedb_workloads::tpcc::{self, TpccScale};

use super::check;
use crate::Deployment;

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

/// One deployment under `policy`, one trial per client count, on the
/// Table I cluster except that each AStore server's PMem is one log DIMM
/// lane — flushes serialize at the device, as on a real WAL device.
fn commit_sweep(policy: FlushPolicy, clients: &[usize]) -> (Deployment, Vec<Trial>) {
    let policy_name = match policy {
        FlushPolicy::PerCommit => "percommit",
        FlushPolicy::Group { .. } => "group",
    };
    let mut spec = ClusterSpec::paper_default();
    spec.model.pmem_lanes = 1;
    let mut dep = Deployment::open_with(
        DbConfig::builder()
            .bp_pages(4096)
            .bp_shards(16)
            .log(LogBackendKind::AStore)
            .ring_segments(12)
            .flush_policy(policy)
            .build()
            .unwrap(),
        spec,
        192 << 20,
        1 << 20,
    );
    dep.db.define_schema(|cat| {
        cat.define("commits")
            .col("id", ColumnType::Int)
            .col("payload", ColumnType::Str)
            .pk(&["id"])
            .build();
    });
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

/// **Group-commit consolidation** — flushes per commit and commit latency
/// vs concurrency, `FlushPolicy::PerCommit` vs `FlushPolicy::Group`.
///
/// The workload is commit-dominated: each client inserts one row into a
/// private key range and commits, so there is no lock contention and the
/// measured latency is the commit path (§V-B), on single-lane log DIMMs
/// (the classic group-commit regime). Expected shape: under `PerCommit`,
/// `core.wal_flushes` ≈ `core.txn_commits` and p50 grows with concurrency;
/// under `Group` the ratio falls well below 1 and carried committers pay
/// only the bounded dwell + one batched append. Trials are the 2 policies
/// × 7 client counts, each with its own `wal_flushes` / `txn_commits`
/// deltas; the registry sections describe the Group deployment over its
/// whole sweep.
pub fn group_commit() -> RunReport {
    let clients = [1usize, 2, 4, 8, 16, 32, 64];
    let group_policy = FlushPolicy::Group {
        max_batch_bytes: 64 * 1024,
        max_wait: VTime::from_micros(100),
    };
    let (_, pc) = commit_sweep(FlushPolicy::PerCommit, &clients);
    let (gr_dep, gr) = commit_sweep(group_policy, &clients);

    let mut report = gr_dep.report("group_commit", None);
    let flushes = report.counter("core.wal_flushes");
    let commits = report.counter("core.txn_commits");
    let doorbells = report.counter("rdma.doorbells");
    let wrs = report.counter("rdma.wrs");
    let mut checks = vec![
        check(
            "group_sweep_consolidates",
            (flushes as f64) < commits as f64 * 0.5,
        )
        .with_result("wal_flushes", flushes as f64)
        .with_result("txn_commits", commits as f64),
        check("doorbells_batch_wrs", doorbells > 0 && doorbells < wrs)
            .with_result("doorbells", doorbells as f64)
            .with_result("wrs", wrs as f64),
    ];
    // From 8 clients up, per client count.
    let from_8 = || pc.iter().zip(&gr).zip(clients).filter(|(_, n)| *n >= 8);
    checks.extend(from_8().map(|((p, g), n)| {
        check(
            "group_p50_below_percommit",
            g.result["p50_ns"] < p.result["p50_ns"],
        )
        .with_param("clients", n as f64)
        .with_result("percommit_p50_ns", p.result["p50_ns"])
        .with_result("group_p50_ns", g.result["p50_ns"])
    }));
    checks.extend(from_8().map(|((_, g), n)| {
        let per_commit = g.result["wal_flushes"] / g.result["txn_commits"].max(1.0);
        check("group_flushes_per_commit_below_half", per_commit < 0.5)
            .with_param("clients", n as f64)
            .with_result("flushes_per_commit", per_commit)
    }));
    report.trials = pc.into_iter().chain(gr).chain(checks).collect();
    report
}

/// Pages the synthetic log touches: 32 pages of one segment, so the
/// partitioner has independent work for every worker.
const LOG_PAGES: u32 = 32;

/// An `n`-record redo stream interleaved round-robin across [`LOG_PAGES`]
/// pages: each page is formatted, seeded with one cell, then updated in
/// place (updates never grow, so the stream is valid at any length).
fn make_log(n: usize) -> Vec<RedoRecord> {
    let mut records = Vec::with_capacity(n);
    let mut seeded = [false; LOG_PAGES as usize];
    let mut lsn = 0u64;
    let rec = |lsn: u64, page_no: u32, op: PageOp| RedoRecord {
        lsn,
        prev_same_segment: 0,
        txn_id: 1,
        page: PageId {
            space_no: 1,
            page_no,
        },
        op,
    };
    let mut i = 0usize;
    while records.len() < n {
        let p = (i % LOG_PAGES as usize) as u32;
        i += 1;
        if !seeded[p as usize] {
            seeded[p as usize] = true;
            lsn += 1;
            records.push(rec(
                lsn,
                p,
                PageOp::Format {
                    ty: PageType::BTreeLeaf,
                    level: 0,
                },
            ));
            lsn += 1;
            records.push(rec(
                lsn,
                p,
                PageOp::InsertAt {
                    slot: 0,
                    cell: vec![0xA5; 64],
                },
            ));
            continue;
        }
        lsn += 1;
        records.push(rec(
            lsn,
            p,
            PageOp::Update {
                slot: 0,
                cell: vec![(lsn & 0xFF) as u8; 64],
            },
        ));
    }
    records.truncate(n);
    records
}

/// Records per ship in [`restart_after`]: one commit-sized batch.
const SHIP_BATCH: usize = 128;

/// Ship an `n`-record log to a raw PageStore cluster (no engine) in
/// [`SHIP_BATCH`]-record ships, so the background checkpointer trips
/// repeatedly, then crash-restart one replica and measure the rebuild: its
/// virtual latency and the records it replayed. Returns the cluster with
/// the trial.
fn restart_after(n: usize) -> (Arc<SimEnv>, Trial) {
    let env = ClusterSpec::paper_default().build();
    let servers: Vec<Arc<PageStoreServer>> = env
        .storage_nodes
        .iter()
        .enumerate()
        .map(|(i, node)| PageStoreServer::new(200 + i as u32, Arc::clone(node), env.model.clone()))
        .collect();
    let rpc = Arc::new(RpcFabric::new(env.model.clone(), Arc::clone(&env.faults)));
    let ps = PageStore::new(rpc, servers);
    let mut ctx = SimCtx::new(1, 2024);
    for chunk in make_log(n).chunks(SHIP_BATCH) {
        ps.ship(&mut ctx, chunk).expect("ship");
    }
    // Let any in-flight background checkpoint settle before the crash.
    ctx.advance(VTime::from_millis(5));

    let victim = Arc::clone(&ps.servers()[0]);
    let t0 = ctx.now();
    let replayed = victim.restart(&mut ctx).expect("restart");
    let trial = Trial::default()
        .with_param("workload", "crash_restart")
        .with_param("log_records", n as f64)
        .with_result("restart_ns", ctx.now().saturating_sub(t0).as_nanos() as f64)
        .with_result("replayed_records", replayed as f64);
    (env, trial)
}

/// **Recovery** — what a crash-restart of the shipped apply pipeline
/// costs as the log grows.
///
/// A raw PageStore cluster takes a 2 000-, 8 000- and 24 000-record log in
/// commit-sized ships, then one replica crash-restarts. The background
/// checkpointer snapshots a segment every [`CHECKPOINT_EVERY_RECORDS`]
/// accepted records, so the restart installs the last snapshot and replays
/// only the redo past it: `replayed_records` stays within one checkpoint
/// interval plus one ship at every length (`checkpoints_bound_replay`),
/// and `restart_ns` at 24 000 records stays within 1.5× its value at
/// 2 000 (`restart_flat_in_log_length`). Trials are the three restarts
/// (`restart_ns`, `replayed_records`); the registry sections describe the
/// 24 000-record cluster.
pub fn recovery() -> RunReport {
    let sweep = [2_000usize, 8_000, 24_000];
    let runs: Vec<(Arc<SimEnv>, Trial)> = sweep.iter().map(|&n| restart_after(n)).collect();
    let bound = (CHECKPOINT_EVERY_RECORDS as usize + SHIP_BATCH) as f64;
    let mut checks: Vec<Trial> = runs
        .iter()
        .zip(sweep)
        .map(|((_, t), n)| {
            let replayed = t.result["replayed_records"];
            check("checkpoints_bound_replay", replayed <= bound)
                .with_param("log_records", n as f64)
                .with_result("replayed_records", replayed)
                .with_result("bound_records", bound)
        })
        .collect();
    let restart_ns = |i: usize| runs[i].1.result["restart_ns"];
    let (short, long) = (restart_ns(0), restart_ns(sweep.len() - 1));
    checks.push(
        check("restart_flat_in_log_length", long <= 1.5 * short)
            .with_result("restart_ns_2000", short)
            .with_result("restart_ns_24000", long),
    );

    let mut report = RunReport::collect("recovery", None, &runs[sweep.len() - 1].0.metrics);
    report.trials = runs.into_iter().map(|(_, t)| t).chain(checks).collect();
    report
}

/// **TPC-C smoke** — one traced single-client TPC-C trial on the full
/// stack (AStore log + EBP), at a scale that finishes in seconds. It is
/// the report pipeline's own acceptance run: the asserts below are the
/// invariants every report relies on (each subsystem publishes, commit
/// phases sum to the commit total, every resource acquisition samples its
/// wait and service), not shape checks. One client makes it the
/// determinism fixture, and sidesteps the engine's known
/// EBP-under-concurrent-writers races.
pub fn tpcc_smoke() -> RunReport {
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
    let db = Arc::clone(&dep.db);
    let r = dep.trial(
        1,
        VTime::from_millis(5),
        VTime::from_millis(200),
        |ctx, _| tpcc::run_transaction(ctx, &db, &scale),
    );
    let report = dep.report("tpcc_smoke", Some(&r));

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
        assert!(report.counter(key) > 0, "counter {key} is zero");
    }
    assert!(
        report.trials[0].result["throughput_per_s"] > 0.0,
        "nothing committed"
    );
    // The read path's conservation law: every miss is served by exactly
    // one EBP hit or one PageStore read. A page a tree allocates is
    // created, not missed.
    assert_eq!(
        report.counter("core.bp_misses"),
        report.counter("core.ebp_hits") + report.counter("pagestore.page_reads"),
        "a buffer-pool miss was served by other than one EBP hit or one page read"
    );
    assert!(report.counter("core.bp_allocs") > 0, "no page was created");

    // The commit phases sum to the end-to-end commit time (within 1% for
    // ring-eviction slack; exact when nothing was evicted).
    let profile = &report.profile;
    assert!(profile.spans > 0, "trace captured no spans");
    // Fault-free, no read ends on an error: every span finishes, and no
    // span outlives its parent's record.
    assert_eq!(profile.orphans, 0, "orphaned spans");
    assert_eq!(profile.abandoned, 0, "abandoned spans");
    let commit_total = profile.ops["core/commit"].total_ns;
    let phase_sum: u64 = profile.commit_phases.values().map(|p| p.total_ns).sum();
    assert!(commit_total > 0, "no commit spans in profile");
    assert!(
        commit_total.abs_diff(phase_sum) * 100 <= commit_total,
        "commit_phases sum {phase_sum} deviates >1% from commit total {commit_total}"
    );
    assert!(profile.commit_phases.contains_key("wal/flush"));

    // Every cluster device was discovered via its `.lanes` gauge and saw
    // traffic, each acquisition sampled once per histogram, lock waits
    // attribute to labelled tables, and the trace folds into stacks.
    for dev in ["engine.nic", "astore-0.pmem", "astore-0.nic"] {
        let r = &report.resources[dev];
        assert!(r.ops > 0, "resource {dev} saw no traffic");
        assert_eq!(r.wait.count, r.ops, "{dev} wait samples != ops");
        assert_eq!(r.service.count, r.ops, "{dev} service samples != ops");
    }
    assert!(profile.locks.tables.contains_key("warehouse"));
    assert!(
        !profile.folded.is_empty(),
        "traced run produced no folded stacks"
    );
    report
}
