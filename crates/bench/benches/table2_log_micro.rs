//! **Table II** — log-writing micro-benchmark.
//!
//! "We develop a micro benchmark tool that continuously writes 4KB pages
//! to either AStore or the regular LogStore in a single thread and
//! measures the latency, I/OPS, and bandwidth." Paper numbers:
//! W/O PMem 0.638 ms / 1,527 IOPS / 5.97 MB/s; W/ PMem 0.086 ms / 11,465
//! IOPS / 44.79 MB/s (~7× across the board).
//!
//! Exported as `BENCH_table2.json`: one trial per store with the paper's
//! row next to it — the 4 KB log-write latencies are what
//! `LatencyModel::paper_default()` is calibrated against, and this is where
//! that calibration can be read. The registry sections cover both runs
//! (they share one fabric).

use std::sync::Arc;

use vedb_astore::layout::SegmentClass;
use vedb_astore::{AppendOpts, SegmentOpts};
use vedb_bench::{paper_note, print_table, write_bench_report};
use vedb_blobstore::{BlobGroup, BlobGroupConfig};
use vedb_core::db::StorageFabric;
use vedb_sim::{ClusterSpec, RunReport, SimCtx, Trial, VTime};

const WRITES: usize = 2_000;
const SIZE: usize = 4096;

fn main() {
    let fabric = StorageFabric::build(ClusterSpec::paper_default(), 512 << 20, 16 << 20);

    // Baseline: BlobGroup over the SSD blob store (TCP RPC path).
    let mut ctx = SimCtx::new(1, 7);
    let group = BlobGroup::create(
        &mut ctx,
        BlobGroupConfig::default(),
        &fabric.blob_servers,
        Arc::clone(&fabric.rpc),
    )
    .unwrap();
    let t0 = ctx.now();
    for _ in 0..WRITES {
        group.append(&mut ctx, &[7u8; SIZE]).unwrap();
    }
    let ssd = summarize("logstore", ctx.now() - t0)
        .with_paper("avg_write_ns", 638_000.0)
        .with_paper("iops", 1_527.0)
        .with_paper("bandwidth_kb_s", 5_970.0);

    // AStore: SegmentRing-style appends over PMem + one-sided RDMA.
    let mut ctx = SimCtx::new(2, 7);
    let ep = vedb_rdma::RdmaEndpoint::new(
        fabric.env.model.clone(),
        Arc::clone(&fabric.env.faults),
        Arc::clone(&fabric.env.engine_nic),
    );
    let client = vedb_astore::AStoreClient::connect(
        &mut ctx,
        Arc::clone(&fabric.cm),
        ep,
        Arc::clone(&fabric.env.engine_cpu),
        fabric.env.model.clone(),
        99,
        VTime::from_millis(50),
    );
    let mut seg = client
        .create_segment_with(&mut ctx, SegmentOpts::new(SegmentClass::Log))
        .unwrap();
    let t0 = ctx.now();
    for _ in 0..WRITES {
        if client.segment_len(seg) + SIZE as u64 > client.segment_capacity(seg) {
            seg = client
                .create_segment_with(&mut ctx, SegmentOpts::new(SegmentClass::Log))
                .unwrap();
        }
        client
            .append_with(&mut ctx, seg, &[7u8; SIZE], AppendOpts::new())
            .unwrap();
    }
    let pmem = summarize("astore", ctx.now() - t0)
        .with_paper("avg_write_ns", 86_000.0)
        .with_paper("iops", 11_465.0)
        .with_paper("bandwidth_kb_s", 44_790.0);

    let row = |name: &str, t: &Trial| {
        vec![
            name.to_string(),
            format!("{:.3}", t.result["avg_write_ns"] / 1e6),
            format!("{:.0}", t.result["iops"]),
            format!("{:.2}", t.result["bandwidth_kb_s"] / 1e3),
        ]
    };
    let ratio = |key: &str| pmem.result[key] / ssd.result[key];
    let speedup = 1.0 / ratio("avg_write_ns");
    print_table(
        "Table II: log writing micro-benchmark (4KB, single thread)",
        &[
            "config",
            "avg write latency (ms)",
            "avg IOPS",
            "avg bandwidth (MB/s)",
        ],
        &[
            row("W/O PMem", &ssd),
            row("W/  PMem", &pmem),
            vec![
                "speedup".into(),
                format!("{speedup:.1}x"),
                format!("{:.1}x", ratio("iops")),
                format!("{:.1}x", ratio("bandwidth_kb_s")),
            ],
        ],
    );
    paper_note("W/O 0.638ms / 1527 IOPS / 5.97 MB/s; W/ 0.086ms / 11465 IOPS / 44.79 MB/s (~7x)");

    assert!(
        speedup >= 4.0,
        "PMem log writes must be several times faster (got {speedup:.1}x)"
    );

    let mut report = RunReport::collect("table2", None, &fabric.env.metrics);
    report.trials = vec![ssd, pmem];
    write_bench_report(&report).expect("write BENCH_table2.json");
}

/// Average latency, IOPS and bandwidth of WRITES appends to `store` that
/// took `total`.
fn summarize(store: &str, total: VTime) -> Trial {
    let iops = WRITES as f64 / total.as_secs_f64();
    Trial::default()
        .with_param("store", store)
        .with_result("avg_write_ns", total.as_nanos() as f64 / WRITES as f64)
        .with_result("iops", iops)
        .with_result("bandwidth_kb_s", iops * SIZE as f64 / 1e3)
}
