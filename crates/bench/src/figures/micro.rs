//! Single-stream device micro-benchmarks: Table II and the design
//! ablations (DESIGN.md §8).

use std::sync::Arc;

use vedb_astore::layout::SegmentClass;
use vedb_astore::{AStoreClient, AppendOpts, SegmentOpts, ROUTE_REFRESH};
use vedb_blobstore::{BlobGroup, BlobGroupConfig};
use vedb_core::db::StorageFabric;
use vedb_core::ebp::{Ebp, EbpConfig};
use vedb_pagestore::page::{Page, PageType};
use vedb_rdma::RdmaEndpoint;
use vedb_sim::{ClusterSpec, RunReport, SimCtx, Trial, VTime};

use super::check;

/// An AStore client of the engine node, id `id`.
fn astore_client(f: &StorageFabric, ctx: &mut SimCtx, id: u64) -> Arc<AStoreClient> {
    let ep = RdmaEndpoint::new(
        f.env.model.clone(),
        Arc::clone(&f.env.faults),
        Arc::clone(&f.env.engine_nic),
    );
    AStoreClient::connect(
        ctx,
        Arc::clone(&f.cm),
        ep,
        Arc::clone(&f.env.engine_cpu),
        f.env.model.clone(),
        id,
        ROUTE_REFRESH,
    )
}

/// **Table II** — the log-writing micro-benchmark: "continuously writes
/// 4KB pages to either AStore or the regular LogStore in a single thread
/// and measures the latency, I/OPS, and bandwidth". One trial per store
/// with the paper's row as its `paper`: W/O PMem 0.638 ms / 1,527 IOPS /
/// 5.97 MB/s, W/ PMem 0.086 ms / 11,465 IOPS / 44.79 MB/s (≈7×). These
/// latencies are what `LatencyModel::paper_default()` is calibrated
/// against. The registry sections cover both stores (one fabric).
pub fn table2() -> RunReport {
    const WRITES: usize = 2_000;
    const SIZE: usize = 4096;
    let summarize = |store: &str, total: VTime| {
        let iops = WRITES as f64 / total.as_secs_f64();
        Trial::default()
            .with_param("store", store)
            .with_result("avg_write_ns", total.as_nanos() as f64 / WRITES as f64)
            .with_result("iops", iops)
            .with_result("bandwidth_kb_s", iops * SIZE as f64 / 1e3)
    };
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

    // AStore: log-segment appends over PMem + one-sided RDMA.
    let mut ctx = SimCtx::new(2, 7);
    let client = astore_client(&fabric, &mut ctx, 99);
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

    let speedup = ssd.result["avg_write_ns"] / pmem.result["avg_write_ns"];
    let faster = check("pmem_log_writes_4x_faster", speedup >= 4.0)
        .with_result("speedup", speedup)
        .with_paper("speedup", 638.0 / 86.0);
    let mut report = RunReport::collect("table2", None, &fabric.env.metrics);
    report.trials = vec![ssd, pmem, faster];
    report
}

/// **Ablations** of the design choices DESIGN.md §8 calls out, each a few
/// trials of virtual-time cost and one check:
///
/// 1. chained-WR persistent write (2×WRITE + READ-flush, one doorbell) vs
///    separate work requests vs a two-sided RPC write;
/// 2. SegmentRing appends vs BlobGroup appends for the log;
/// 3. EBP priority vs flat policy under a scan-heavy eviction storm;
/// 4. log-segment replication factor 3 vs 1.
///
/// The registry sections cover all four (one fabric).
pub fn ablations() -> RunReport {
    let f = StorageFabric::build(ClusterSpec::paper_default(), 256 << 20, 4 << 20);
    let mut trials = write_chain(&f);
    trials.extend(ring_vs_blob_group(&f));
    trials.extend(ebp_policy(&f));
    trials.extend(replication(&f));
    let mut report = RunReport::collect("ablations", None, &f.env.metrics);
    report.trials = trials;
    report
}

/// One ablation variant's average latency.
fn avg(ablation: &str, variant: &str, avg: VTime) -> Trial {
    Trial::default()
        .with_param("ablation", ablation)
        .with_param("variant", variant)
        .with_result("avg_ns", avg.as_nanos() as f64)
}

/// Ablation 1: the write chain vs alternatives, 4KB persistent writes.
fn write_chain(f: &StorageFabric) -> Vec<Trial> {
    const N: usize = 500;
    let data = vec![7u8; 4096];
    let meta = [0u8; 8];

    let mut ctx = SimCtx::new(1, 3);
    let server = &f.astore_servers[0];
    let mr = server.mr();
    let ep = RdmaEndpoint::new(
        f.env.model.clone(),
        Arc::clone(&f.env.faults),
        Arc::clone(&f.env.engine_nic),
    );
    // Reserve scratch space straight on the device for the ablation.
    let mut alloc_ctx = SimCtx::new(9, 3);
    let off = server
        .handle_alloc(&mut alloc_ctx, 900_001, SegmentClass::Log)
        .unwrap();
    let meta_off = server.io_meta_offset(off);

    // (a) chained: one doorbell, 2 WRITEs + flush READ.
    let t0 = ctx.now();
    for _ in 0..N {
        ep.write_chain(&mut ctx, &mr, &[(off, &data), (meta_off, &meta)])
            .unwrap();
    }
    let chained = (ctx.now() - t0) / N as u64;

    // (b) separate one-sided WRs + explicit flush read.
    let t0 = ctx.now();
    for _ in 0..N {
        ep.write(&mut ctx, &mr, off, &data).unwrap();
        ep.write(&mut ctx, &mr, meta_off, &meta).unwrap();
        let _ = ep.read(&mut ctx, &mr, off, 64).unwrap();
    }
    let separate = (ctx.now() - t0) / N as u64;

    // (c) two-sided RPC write through the server CPU.
    let t0 = ctx.now();
    for _ in 0..N {
        f.rpc
            .call(&mut ctx, server.node(), server.res(), data.len(), 16, |c| {
                let done = server
                    .res()
                    .pmem
                    .as_ref()
                    .unwrap()
                    .acquire(c.now(), f.env.model.pmem_write_svc(data.len()));
                c.wait_until(done);
            })
            .unwrap();
    }
    let rpc = (ctx.now() - t0) / N as u64;

    vec![
        avg("write_chain", "chained", chained),
        avg("write_chain", "separate_wrs", separate),
        avg("write_chain", "rpc", rpc),
        check(
            "chained_beats_separate_beats_rpc",
            chained < separate && separate < rpc,
        ),
    ]
}

/// Ablation 2: SegmentRing vs BlobGroup 8 KB appends (the §V-A comparison).
fn ring_vs_blob_group(f: &StorageFabric) -> Vec<Trial> {
    const N: usize = 300;
    let mut ctx = SimCtx::new(2, 3);
    let client = astore_client(f, &mut ctx, 910);
    let ring = vedb_astore::SegmentRing::create(&mut ctx, client, 8).unwrap();
    let payload = vec![5u8; 8 * 1024];

    let t0 = ctx.now();
    for _ in 0..N {
        ring.append(&mut ctx, &payload).unwrap();
    }
    let ring_avg = (ctx.now() - t0) / N as u64;

    let group = BlobGroup::create(
        &mut ctx,
        BlobGroupConfig::default(),
        &f.blob_servers,
        Arc::clone(&f.rpc),
    )
    .unwrap();
    let t0 = ctx.now();
    for _ in 0..N {
        group.append(&mut ctx, &payload).unwrap();
    }
    let blob_avg = (ctx.now() - t0) / N as u64;

    vec![
        avg("log_append_8kb", "segment_ring", ring_avg),
        avg("log_append_8kb", "blob_group", blob_avg),
        check(
            "segment_ring_3x_cheaper_than_blob_group",
            ring_avg.as_nanos() * 3 < blob_avg.as_nanos(),
        ),
    ]
}

/// Ablation 3: hot push-down pages surviving an eviction storm, EBP
/// priority vs flat policy.
fn ebp_policy(f: &StorageFabric) -> Vec<Trial> {
    let mut trials = Vec::new();
    let mut survival = Vec::new();
    for (name, client_id) in [("flat", 920), ("priority", 921)] {
        let mut ctx = SimCtx::new(3, 3);
        let client = astore_client(f, &mut ctx, client_id);
        let mut cfg = EbpConfig {
            capacity_bytes: 64 * 16 * 1024, // 64 pages
            shards: 1,
            ..Default::default()
        };
        if name == "priority" {
            cfg.space_priority.insert(7, 10); // space 7 = the push-down table
        }
        let ebp = Ebp::new(client, cfg);
        let mut page = Page::new();
        page.format(PageType::BTreeLeaf, 0);
        // Cache 32 hot push-down pages, then storm 200 cold pages through.
        for i in 0..32 {
            ebp.write_page(&mut ctx, vedb_astore::PageId::new(7, i), &page, 10)
                .unwrap();
        }
        for i in 0..200 {
            ebp.write_page(&mut ctx, vedb_astore::PageId::new(1, i), &page, 10)
                .unwrap();
        }
        let survived = (0..32)
            .filter(|i| ebp.contains(vedb_astore::PageId::new(7, *i)))
            .count();
        survival.push(survived);
        trials.push(
            Trial::default()
                .with_param("ablation", "ebp_policy")
                .with_param("variant", name)
                .with_result("hot_pages_retained", survived as f64),
        );
    }
    trials.push(check(
        "priority_policy_protects_hot_pages",
        survival[1] > survival[0],
    ));
    trials
}

/// Ablation 4: 4 KB AStore append latency, log replication factor 3 vs 1.
fn replication(f: &StorageFabric) -> Vec<Trial> {
    const N: usize = 300;
    let mut ctx = SimCtx::new(4, 3);
    let client = astore_client(f, &mut ctx, 930);
    let payload = vec![9u8; 4096];
    let mut trials = Vec::new();
    let mut lat = Vec::new();
    for replication in [1usize, 3] {
        let seg = client
            .create_segment_with(
                &mut ctx,
                SegmentOpts::new(SegmentClass::Log).with_replication(replication),
            )
            .unwrap();
        let t0 = ctx.now();
        let mut appends = 0;
        for _ in 0..N {
            if client.segment_len(seg) + payload.len() as u64 > client.segment_capacity(seg) {
                break;
            }
            client
                .append_with(&mut ctx, seg, &payload, AppendOpts::new())
                .unwrap();
            appends += 1;
        }
        assert_eq!(appends, N, "a {replication}-replica segment filled up");
        let avg_lat = (ctx.now() - t0) / appends as u64;
        lat.push(avg_lat);
        trials.push(avg(
            "replication",
            &format!("{replication}_replicas"),
            avg_lat,
        ));
    }
    trials.push(check("triplicated_appends_not_cheaper", lat[1] >= lat[0]));
    trials
}
