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
//! The cross-configuration numbers are published as counters under the
//! `recovery` component of the parallel deployment's registry, so CI can
//! gate the exported JSON with `report_diff --assert-counter-lt
//! recovery.parallel_us_24000 recovery.serial_us_24000` and
//! `--assert-counter-lt recovery.lag_parallel recovery.lag_serial`.

use std::sync::Arc;

use vedb_astore::PageId;
use vedb_bench::{fmt_tps, print_table, write_bench_report, Deployment};
use vedb_core::db::{DbConfig, LogBackendKind};
use vedb_pagestore::page::PageType;
use vedb_pagestore::redo::{PageOp, RedoRecord};
use vedb_pagestore::{ApplyConfig, PageStore, PageStoreConfig, PageStoreServer};
use vedb_rdma::RpcFabric;
use vedb_sim::{ClusterSpec, SimCtx, VTime};
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

struct RestartCell {
    /// Virtual restart latency of one replica.
    time: VTime,
    /// Records replayed by that restart (checkpoints shrink this).
    replayed: usize,
}

/// Ship an `n`-record log in commit-sized batches (so the background
/// checkpointer sees its trigger repeatedly), then crash-restart one
/// replica and measure the rebuild.
fn restart_after(apply: ApplyConfig, n: usize) -> RestartCell {
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
    RestartCell {
        time: ctx.now().saturating_sub(t0),
        replayed,
    }
}

/// Phase B: run the write-heavy TPC-C trial on a deployment with `apply`
/// and return (throughput, apply_lag_records at end of trial).
fn tpcc_lag(apply: ApplyConfig) -> (Deployment, f64, i64) {
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
    (dep, r.throughput(), lag)
}

fn main() {
    // ---- Phase A: crash-restart sweep ------------------------------------
    let sweep = [2_000usize, 8_000, 24_000];
    let mut serial_cells = Vec::new();
    let mut parallel_cells = Vec::new();
    for &n in &sweep {
        serial_cells.push(restart_after(serial_cfg(), n));
        parallel_cells.push(restart_after(parallel_cfg(), n));
    }

    let rows: Vec<Vec<String>> = sweep
        .iter()
        .enumerate()
        .map(|(i, n)| {
            vec![
                n.to_string(),
                format!("{:.0}us", serial_cells[i].time.as_micros_f64()),
                format!("{:.0}us", parallel_cells[i].time.as_micros_f64()),
                serial_cells[i].replayed.to_string(),
                parallel_cells[i].replayed.to_string(),
                format!(
                    "{:.1}x",
                    serial_cells[i].time.as_nanos() as f64
                        / parallel_cells[i].time.as_nanos().max(1) as f64
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
    let (_sdep, stps, slag) = tpcc_lag(serial_cfg());
    let (pdep, ptps, plag) = tpcc_lag(parallel_cfg());
    print_table(
        "TPC-C (8 clients): steady-state apply lag",
        &["config", "tps", "apply_lag_records"],
        &[
            vec!["serial/no-ckpt".into(), fmt_tps(stps), slag.to_string()],
            vec!["parallel+ckpt".into(), fmt_tps(ptps), plag.to_string()],
        ],
    );

    // ---- Publish the cross-config numbers on the exported registry -------
    let reg = pdep.metrics();
    for (i, &n) in sweep.iter().enumerate() {
        reg.counter("recovery", format!("serial_us_{n}"))
            .add(serial_cells[i].time.as_nanos() / 1_000);
        reg.counter("recovery", format!("parallel_us_{n}"))
            .add(parallel_cells[i].time.as_nanos() / 1_000);
        reg.counter("recovery", format!("serial_replayed_{n}"))
            .add(serial_cells[i].replayed as u64);
        reg.counter("recovery", format!("parallel_replayed_{n}"))
            .add(parallel_cells[i].replayed as u64);
    }
    reg.counter("recovery", "lag_serial")
        .add(slag.max(0) as u64);
    reg.counter("recovery", "lag_parallel")
        .add(plag.max(0) as u64);

    // ---- The acceptance assertions (also enforced by CI's report_diff) ---
    for (i, &n) in sweep.iter().enumerate() {
        assert!(
            parallel_cells[i].time < serial_cells[i].time,
            "parallel recovery must beat serial at {n} records: {:?} vs {:?}",
            parallel_cells[i].time,
            serial_cells[i].time
        );
        assert!(
            parallel_cells[i].replayed < serial_cells[i].replayed,
            "checkpoints must shrink the replayed tail at {n} records"
        );
    }
    assert!(
        plag < slag,
        "background checkpointer must bound steady-state lag: parallel {plag} vs serial {slag}"
    );
    println!(
        "\nshape-check: OK (24k-record restart {:.0}us -> {:.0}us; lag {slag} -> {plag})",
        serial_cells[2].time.as_micros_f64(),
        parallel_cells[2].time.as_micros_f64()
    );

    let report = pdep.report("recovery", None);
    write_bench_report(&report).expect("write BENCH_recovery.json");
}
