//! The system artifacts — not paper figures, the acceptance experiments of
//! the commit path, the apply pipeline and the report pipeline itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vedb_astore::PageId;
use vedb_core::catalog::ColumnType;
use vedb_core::db::{Db, DbConfig, LogBackendKind};
use vedb_core::{Catalog, FlushPolicy, Value};
use vedb_pagestore::page::PageType;
use vedb_pagestore::redo::{PageOp, RedoRecord};
use vedb_pagestore::{PageStore, PageStoreServer, CHECKPOINT_EVERY_RECORDS};
use vedb_rdma::RpcFabric;
use vedb_sim::{ClusterSpec, RunReport, SimCtx, Trial, VTime};
use vedb_workloads::driver::{self, OpOutcome};
use vedb_workloads::tpcc::{self, TpccScale};

use super::ebp::config;
use super::{check, find, loaded, point, position, report};
use crate::Deployment;

/// One commit-sized transaction: insert a row in the client's private key
/// range, commit. No shared rows → no lock waits → latency is WAL flush.
fn commit_op(ctx: &mut SimCtx, db: &Arc<Db>, client: usize, seqs: &[AtomicU64]) -> OpOutcome {
    let seq = seqs[client].fetch_add(1, Ordering::Relaxed);
    let id = (client as i64) * 10_000_000 + seq as i64;
    driver::outcome(db.transact(ctx, |ctx, txn| {
        let row = vec![Value::Int(id), Value::Str(format!("payload-{id}"))];
        db.insert(ctx, txn, "commits", row)?;
        Ok(true)
    }))
}

/// `params {policy, clients}`.
fn key(policy: &str, clients: usize) -> Trial {
    Trial::default()
        .with_param("policy", policy)
        .with_param("clients", clients as f64)
}

/// One [`point`] per client count under `policy`, each on a deployment of
/// the Table I cluster except that each AStore server's PMem is one log
/// DIMM lane — flushes serialize at the device, as on a real WAL device.
/// Each trial carries its deployment's `wal_flushes` and `txn_commits`,
/// the two flushes of its `create_tables` included.
fn commit_sweep(policy: FlushPolicy, clients: &[usize]) -> Vec<(Trial, RunReport)> {
    let policy_name = match policy {
        FlushPolicy::PerCommit => "percommit",
        FlushPolicy::Group { .. } => "group",
    };
    let open = || {
        let mut spec = ClusterSpec::paper_default();
        spec.model.pmem_lanes = 1;
        let cfg = DbConfig::builder()
            .bp_pages(4096)
            .bp_shards(16)
            .log(LogBackendKind::AStore)
            .ring_segments(12)
            .flush_policy(policy);
        let dep = Deployment::open_with(cfg.build().unwrap(), spec, 192 << 20, 1 << 20);
        let schema = |cat: &mut Catalog| {
            cat.define("commits")
                .col("id", ColumnType::Int)
                .col("payload", ColumnType::Str)
                .pk(&["id"])
                .build();
        };
        loaded(dep, schema, |_, _| Ok(()))
    };
    clients
        .iter()
        .map(|&n| {
            let seqs: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            let (trial, registry) =
                point(key(policy_name, n), n, (5, 60), open, |ctx, db, client| {
                    commit_op(ctx, db, client, &seqs)
                });
            let count = |k| registry.counter(k) as f64;
            let trial = trial
                .with_result("wal_flushes", count("core.wal_flushes"))
                .with_result("txn_commits", count("core.txn_commits"));
            (trial, registry)
        })
        .collect()
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
/// only the bounded dwell + one batched append. Trials are `params {policy,
/// clients}`, 2 policies × 7 client counts, each with its deployment's
/// `wal_flushes` / `txn_commits`; the registry sections describe
/// `{policy: group, clients: 64}`.
pub fn group_commit() -> RunReport {
    let clients = [1usize, 2, 4, 8, 16, 32, 64];
    let group_policy = FlushPolicy::Group {
        max_batch_bytes: 64 * 1024,
        max_wait: VTime::from_micros(100),
    };
    let mut points: (Vec<Trial>, Vec<RunReport>) = commit_sweep(FlushPolicy::PerCommit, &clients)
        .into_iter()
        .unzip();
    points.extend(commit_sweep(group_policy, &clients));

    let at = |policy: &str, n: usize| &find(&points.0, &key(policy, n)).result;
    let group_sum = |k: &str| clients.iter().map(|&n| at("group", n)[k]).sum::<f64>();
    let (flushes, commits) = (group_sum("wal_flushes"), group_sum("txn_commits"));
    let peak = &points.1[position(&points.0, &key("group", 64))];
    let (doorbells, wrs) = (peak.counter("rdma.doorbells"), peak.counter("rdma.wrs"));
    let mut checks = vec![
        check("group_sweep_consolidates", flushes < commits * 0.5)
            .with_result("wal_flushes", flushes)
            .with_result("txn_commits", commits),
        check("doorbells_batch_wrs", doorbells > 0 && doorbells < wrs)
            .with_result("doorbells", doorbells as f64)
            .with_result("wrs", wrs as f64),
    ];
    // From 8 clients up, per client count.
    let from_8 = clients.into_iter().filter(|&n| n >= 8);
    checks.extend(from_8.clone().map(|n| {
        let (p, g) = (at("percommit", n), at("group", n));
        check("group_p50_below_percommit", g["p50_ns"] < p["p50_ns"])
            .with_param("clients", n as f64)
            .with_result("percommit_p50_ns", p["p50_ns"])
            .with_result("group_p50_ns", g["p50_ns"])
    }));
    checks.extend(from_8.map(|n| {
        let g = at("group", n);
        let per_commit = g["wal_flushes"] / g["txn_commits"].max(1.0);
        check("group_flushes_per_commit_below_half", per_commit < 0.5)
            .with_param("clients", n as f64)
            .with_result("flushes_per_commit", per_commit)
    }));
    report("group_commit", points, &key("group", 64), checks)
}

/// Pages the synthetic log touches: 32 pages of one segment, so the four
/// apply partitions all have independent work.
const LOG_PAGES: u32 = 32;

/// An `n`-record redo stream interleaved round-robin across [`LOG_PAGES`]
/// pages: each page is formatted, seeded with one cell, then updated in
/// place (updates never grow, so the stream is valid at any length).
fn make_log(n: usize) -> Vec<RedoRecord> {
    let pages = LOG_PAGES as usize;
    let records = (0..n).map(|i| {
        let lsn = i as u64 + 1;
        // The first two records of each page, page by page, then updates.
        let (page_no, op) = match i {
            i if i >= 2 * pages => {
                let cell = vec![(lsn & 0xFF) as u8; 64];
                ((i - 2 * pages) % pages, PageOp::Update { slot: 0, cell })
            }
            i if i % 2 == 0 => {
                let (ty, level) = (PageType::BTreeLeaf, 0);
                (i / 2, PageOp::Format { ty, level })
            }
            i => (
                i / 2,
                PageOp::InsertAt {
                    slot: 0,
                    cell: vec![0xA5; 64],
                },
            ),
        };
        let page = PageId::new(1, page_no as u32);
        let (prev_same_segment, txn_id) = (0, 1);
        RedoRecord {
            lsn,
            prev_same_segment,
            txn_id,
            page,
            op,
        }
    });
    records.collect()
}

/// Records per ship in [`restart_after`]: one commit-sized batch.
const SHIP_BATCH: usize = 128;

/// Ship an `n`-record log to a raw PageStore cluster (no engine) in
/// [`SHIP_BATCH`]-record ships, so the background checkpointer trips
/// repeatedly, then crash-restart one replica and measure the rebuild: its
/// virtual latency and the records it replayed. Returns the trial with
/// the cluster's registry.
fn restart_after(n: usize) -> (Trial, RunReport) {
    let env = ClusterSpec::paper_default().build();
    let servers: Vec<Arc<PageStoreServer>> = env
        .storage_nodes
        .iter()
        .enumerate()
        .filter_map(|(i, node)| {
            let ssd = node.ssd.clone()?;
            Some(PageStoreServer::new(
                200 + i as u32,
                Arc::clone(node),
                ssd,
                env.model.clone(),
            ))
        })
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
    (trial, RunReport::collect("", None, &env.metrics))
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
    let points: (Vec<Trial>, Vec<RunReport>) = sweep.iter().map(|&n| restart_after(n)).unzip();
    let key = |n: usize| Trial::default().with_param("log_records", n as f64);
    let at = |n: usize| &find(&points.0, &key(n)).result;
    let bound = (CHECKPOINT_EVERY_RECORDS as usize + SHIP_BATCH) as f64;
    let mut checks: Vec<Trial> = sweep
        .iter()
        .map(|&n| {
            let replayed = at(n)["replayed_records"];
            check("checkpoints_bound_replay", replayed <= bound)
                .with_param("log_records", n as f64)
                .with_result("replayed_records", replayed)
                .with_result("bound_records", bound)
        })
        .collect();
    let (short, long) = (at(2_000)["restart_ns"], at(24_000)["restart_ns"]);
    checks.push(
        check("restart_flat_in_log_length", long <= 1.5 * short)
            .with_result("restart_ns_2000", short)
            .with_result("restart_ns_24000", long),
    );
    report("recovery", points, &key(24_000), checks)
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
    let open = || {
        // A buffer pool smaller than the loaded tables (same shape as Fig
        // 10), so evictions spill into the EBP and the ebp_* counters
        // exercise both the write and the hit path.
        let dep = Deployment::open(config(96, Some(256 << 20)));
        let dep = loaded(dep, tpcc::define_schema, |c, db| tpcc::load(c, db, &scale));
        // Trace the trial (not the load) so the report's `profile` section
        // carries commit-phase attribution. The ring must hold the whole
        // measurement window: ~1K commits x ~50 spans fits in 2^18.
        dep.metrics().trace().set_capacity(1 << 18);
        dep.metrics().trace().enable();
        dep
    };
    let op = |ctx: &mut SimCtx, db: &Arc<Db>, _| tpcc::run_transaction(ctx, db, &scale);
    let (trial, mut report) = point(Trial::default(), 1, (5, 200), open, op);
    report.name = "tpcc_smoke".into();
    report.trials = vec![trial];

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
