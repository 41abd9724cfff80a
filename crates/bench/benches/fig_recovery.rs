//! **Recovery figure** (ISSUE 10) — parallel redo apply + background
//! checkpointing vs serial replay, exported as `BENCH_recovery.json`.
//!
//! Two phases:
//!
//! * **Phase A — crash-restart sweep.** A raw PageStore cluster is shipped
//!   a multi-page redo stream of increasing length, one replica is
//!   crash-restarted, and the virtual time `restart` takes to rebuild the
//!   volatile half (page images, apply watermark) is measured. The serial
//!   configuration (1 apply worker, checkpointing off) replays the whole
//!   retained log on one lane; the parallel configuration (8 workers,
//!   checkpoint every 512 records) restores from the last completed
//!   checkpoint and replays only the tail, fanning independent pages
//!   across the worker pool. Expected shape: serial recovery grows
//!   linearly with log length, parallel recovery stays near-flat because
//!   checkpoints bound the replayed tail and the pool divides it.
//!
//! * **Phase B — steady-state apply lag.** Two engine deployments run the
//!   same write-heavy TPC-C trial (8 clients); the only difference is the
//!   apply pipeline. With a warm buffer pool the engine rarely reads
//!   through to the PageStore, so a serial, never-checkpointing store
//!   accumulates unapplied redo without bound, while the background
//!   checkpointer keeps the parallel store's `apply_lag_records` bounded
//!   by the checkpoint cadence.
//!
//! The artifact's `trials` are the 2 configurations × 3 log lengths of
//! phase A (`restart_ns`, `replayed_records`) and the two TPC-C rows of
//! phase B (the driver's numbers plus `apply_lag_records`). Its registry
//! sections describe phase B's **parallel** deployment; the shape
//! assertions below read the trials.

use std::sync::Arc;

use vedb_astore::PageId;
use vedb_bench::{fmt_tps, print_table, write_bench_report, Deployment};
use vedb_core::db::{DbConfig, LogBackendKind};
use vedb_pagestore::page::PageType;
use vedb_pagestore::redo::{PageOp, RedoRecord};
use vedb_pagestore::{ApplyConfig, PageStore, PageStoreConfig, PageStoreServer};
use vedb_rdma::RpcFabric;
use vedb_sim::{ClusterSpec, SimCtx, Trial, VTime};
use vedb_workloads::tpcc::{self, TpccScale};

/// Serial baseline: one apply worker, no background checkpoints — crash
/// recovery is a full single-lane log replay.
fn serial_cfg() -> ApplyConfig {
    ApplyConfig {
        workers: 1,
        checkpoint_every_records: 0,
    }
}

/// The tentpole configuration: 8-way partitioned apply plus a background
/// checkpoint every 512 accepted records per segment.
fn parallel_cfg() -> ApplyConfig {
    ApplyConfig {
        workers: 8,
        checkpoint_every_records: 512,
    }
}

/// A raw PageStore cluster (no engine) with an explicit apply config.
fn store_with(apply: ApplyConfig) -> Arc<PageStore> {
    let env = ClusterSpec::paper_default().build();
    let servers: Vec<Arc<PageStoreServer>> = env
        .storage_nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            PageStoreServer::with_apply(
                200 + i as u32,
                Arc::clone(n),
                env.model.clone(),
                apply.clone(),
            )
        })
        .collect();
    let rpc = Arc::new(RpcFabric::new(env.model.clone(), Arc::clone(&env.faults)));
    PageStore::new(PageStoreConfig::default(), rpc, servers)
}

/// Pages the synthetic log touches: 32 pages of one segment, so the
/// partitioner has independent work for every worker.
const LOG_PAGES: u32 = 32;

/// Build an `n`-record redo stream interleaved round-robin across
/// [`LOG_PAGES`] pages: each page is formatted, seeded with one cell, then
/// updated in place (updates never grow, so the stream is valid at any
/// length).
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

/// Ship an `n`-record log in commit-sized batches (so the background
/// checkpointer sees its trigger repeatedly), then crash-restart one
/// replica and measure the rebuild: its virtual latency and the records it
/// replayed (checkpoints shrink this).
fn restart_after(config: &str, apply: ApplyConfig, n: usize) -> Trial {
    let ps = store_with(apply);
    let mut ctx = SimCtx::new(1, 2024);
    let log = make_log(n);
    for chunk in log.chunks(128) {
        ps.ship(&mut ctx, chunk).expect("ship");
    }
    // Let any in-flight background checkpoint settle before the crash.
    ctx.advance(VTime::from_millis(5));

    let victim = Arc::clone(&ps.servers()[0]);
    let t0 = ctx.now();
    let replayed = victim.restart(&mut ctx).expect("restart");
    Trial::default()
        .with_param("workload", "crash_restart")
        .with_param("config", config)
        .with_param("log_records", n as f64)
        .with_result("restart_ns", ctx.now().saturating_sub(t0).as_nanos() as f64)
        .with_result("replayed_records", replayed as f64)
}

/// Phase B: run the write-heavy TPC-C trial on a deployment with `apply`;
/// the trial carries `apply_lag_records` as it stood at the end.
fn tpcc_lag(config: &str, apply: ApplyConfig) -> (Deployment, Trial) {
    let scale = TpccScale::bench();
    let mut dep = Deployment::open_with_apply(
        DbConfig::builder()
            .bp_pages(4096)
            .bp_shards(16)
            .log(LogBackendKind::AStore)
            .ring_segments(12)
            .build()
            .unwrap(),
        ClusterSpec::paper_default(),
        192 << 20,
        1 << 20,
        apply,
    );
    dep.db.define_schema(tpcc::define_schema);
    dep.db.create_tables(&mut dep.ctx).unwrap();
    tpcc::load(&mut dep.ctx, &dep.db, &scale).unwrap();

    let db = Arc::clone(&dep.db);
    let r = dep.trial(
        8,
        VTime::from_millis(5),
        VTime::from_millis(60),
        |ctx, _| tpcc::run_transaction(ctx, &db, &scale),
    );
    let lag = dep.metrics().gauge("pagestore", "apply_lag_records").get();
    let trial = Trial::measured(&r)
        .with_param("workload", "tpcc")
        .with_param("config", config)
        .with_param("clients", 8.0)
        .with_result("apply_lag_records", lag as f64);
    (dep, trial)
}

fn main() {
    // ---- Phase A: crash-restart sweep ------------------------------------
    let sweep = [2_000usize, 8_000, 24_000];
    let serial: Vec<Trial> = sweep
        .iter()
        .map(|&n| restart_after("serial", serial_cfg(), n))
        .collect();
    let parallel: Vec<Trial> = sweep
        .iter()
        .map(|&n| restart_after("parallel", parallel_cfg(), n))
        .collect();

    let us = |t: &Trial| format!("{:.0}us", t.result["restart_ns"] / 1e3);
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .enumerate()
        .map(|(i, n)| {
            vec![
                n.to_string(),
                us(&serial[i]),
                us(&parallel[i]),
                serial[i].result["replayed_records"].to_string(),
                parallel[i].result["replayed_records"].to_string(),
                format!(
                    "{:.1}x",
                    serial[i].result["restart_ns"] / parallel[i].result["restart_ns"].max(1.0)
                ),
            ]
        })
        .collect();
    print_table(
        "Crash restart: serial full replay vs parallel apply + checkpoints",
        &[
            "log(records)",
            "serial",
            "parallel",
            "replayed(s)",
            "replayed(p)",
            "speedup",
        ],
        &rows,
    );

    // ---- Phase B: steady-state apply lag under write-heavy TPC-C ---------
    let (_sdep, stpcc) = tpcc_lag("serial", serial_cfg());
    let (pdep, ptpcc) = tpcc_lag("parallel", parallel_cfg());
    let (slag, plag) = (
        stpcc.result["apply_lag_records"],
        ptpcc.result["apply_lag_records"],
    );
    print_table(
        "TPC-C (8 clients): steady-state apply lag",
        &["config", "tps", "apply_lag_records"],
        &[
            vec![
                "serial/no-ckpt".into(),
                fmt_tps(stpcc.result["throughput_per_s"]),
                slag.to_string(),
            ],
            vec![
                "parallel+ckpt".into(),
                fmt_tps(ptpcc.result["throughput_per_s"]),
                plag.to_string(),
            ],
        ],
    );

    // ---- The acceptance assertions, on the values the artifact carries ---
    for (i, &n) in sweep.iter().enumerate() {
        assert!(
            parallel[i].result["restart_ns"] < serial[i].result["restart_ns"],
            "parallel recovery must beat serial at {n} records: {} vs {}",
            us(&parallel[i]),
            us(&serial[i])
        );
        assert!(
            parallel[i].result["replayed_records"] < serial[i].result["replayed_records"],
            "checkpoints must shrink the replayed tail at {n} records"
        );
    }
    assert!(
        plag < slag,
        "background checkpointer must bound steady-state lag: parallel {plag} vs serial {slag}"
    );
    println!(
        "\nshape-check: OK (24k-record restart {} -> {}; lag {slag} -> {plag})",
        us(&serial[2]),
        us(&parallel[2])
    );

    let mut report = pdep.report("recovery", None);
    report.trials = serial
        .into_iter()
        .chain(parallel)
        .chain([stpcc, ptpcc])
        .collect();
    write_bench_report(&report).expect("write BENCH_recovery.json");
}
