//! Layer probes: a minimal fixture per layer and 2 000+ timed calls into
//! its public functions, with inputs of the size the workloads produce
//! (512 B and 2.5 KiB log records, 16 KiB pages, 16-record ships). Each
//! probe reports the *median* speed-normalised host time of one call, so a
//! background burst inside a few calls (a checkpoint, a segment roll) does
//! not move it. The fixtures are the same in every traced run, whatever the
//! workload.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use vedb_astore::{AStoreClient, AppendOpts, PageId, SegmentClass, SegmentOpts};
use vedb_bench::Deployment;
use vedb_blobstore::{BlobGroup, BlobGroupConfig};
use vedb_core::db::{DbConfig, LogBackendKind, StorageFabric};
use vedb_core::FlushPolicy;
use vedb_pagestore::{PageOp, PageType, RedoRecord};
use vedb_pmem::PmemDevice;
use vedb_rdma::{RdmaEndpoint, RemoteMr, RpcFabric};
use vedb_sim::{ClusterSpec, MetricsRegistry, Resource, RunReport, SimCtx, VTime};
use vedb_workloads::orders;

use crate::harness::{factor, median, Kernel, Sensitivity};

const CALLS: usize = 2000;
/// Calls between two kernel runs.
const BATCH: usize = 250;

const SMALL_RECORD: usize = 512;
const WIDE_RECORD: usize = 2560;
const PAGE: usize = 16 << 10;

/// Median speed-normalised nanoseconds of one call of `f`. A sample times
/// `inner` back-to-back calls (for calls too short to time alone).
fn timed(kernel: &mut Kernel, samples: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut ns: Vec<f64> = Vec::with_capacity(samples);
    let mut k_prev = kernel.run_core();
    while ns.len() < samples {
        let start = ns.len();
        for _ in 0..BATCH.min(samples - start) {
            let t = Instant::now();
            for _ in 0..inner {
                f();
            }
            ns.push(t.elapsed().as_nanos() as f64 / inner as f64);
        }
        let k = kernel.run_core();
        let speed = factor(Sensitivity::CORE_ONLY, k_prev, k);
        k_prev = k;
        for s in &mut ns[start..] {
            *s *= speed;
        }
    }
    median(&ns)
}

/// Run every probe. `_us`/`_ns`/`_ms` values are speed-normalised host time.
pub fn run(kernel: &mut Kernel, seed: u64) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let fabric = StorageFabric::build(ClusterSpec::paper_default(), 512 << 20, 16 << 20);
    pmem(kernel, &fabric, &mut m);
    rdma(kernel, &fabric, seed, &mut m);
    astore(kernel, &fabric, seed, &mut m);
    pagestore(kernel, &fabric, seed, &mut m);
    blobstore(kernel, &fabric, seed, &mut m);
    sim(kernel, &fabric, &mut m);
    m.insert("workloads.driver_2c_us_per_op".into(), driver_two_clients());
    m
}

fn probe_device(fabric: &StorageFabric) -> Arc<PmemDevice> {
    let node = &fabric.env.astore_nodes[0];
    Arc::new(PmemDevice::new(
        "probe.pmem",
        64 << 20,
        false,
        Arc::clone(node.pmem.as_ref().expect("astore node has pmem")),
        fabric.env.model.clone(),
    ))
}

fn pmem(kernel: &mut Kernel, fabric: &StorageFabric, m: &mut BTreeMap<String, f64>) {
    let dev = probe_device(fabric);
    let record = vec![7u8; WIDE_RECORD];
    let mut now = VTime::ZERO;
    let mut slot = 0u64;
    let ns = timed(kernel, CALLS, 1, || {
        slot = (slot + 1) % 4096;
        now = dev
            .write(now, slot * PAGE as u64, &record)
            .expect("in bounds");
        now = dev.flush(now);
    });
    m.insert("pmem.write_flush_us".into(), ns / 1e3);
    let ns = timed(kernel, CALLS, 1, || {
        slot = (slot + 1) % 4096;
        let (bytes, done) = dev.read(now, slot * PAGE as u64, PAGE).expect("in bounds");
        black_box(bytes);
        now = done;
    });
    m.insert("pmem.read_us".into(), ns / 1e3);
}

fn rdma(kernel: &mut Kernel, fabric: &StorageFabric, seed: u64, m: &mut BTreeMap<String, f64>) {
    let env = &fabric.env;
    let node = &env.astore_nodes[0];
    let dev = probe_device(fabric);
    let len = dev.capacity();
    let mr = RemoteMr::register(0, Arc::clone(node), dev, 0, len);
    let ep = RdmaEndpoint::new(
        env.model.clone(),
        Arc::clone(&env.faults),
        Arc::clone(&env.engine_nic),
    );
    let mut ctx = SimCtx::new(11, seed);
    let record = vec![7u8; WIDE_RECORD];
    let io_meta = [1u8; 16];
    let mut slot = 0u64;
    // The shape of an AStore append: payload + io-meta in one chain.
    let ns = timed(kernel, CALLS, 1, || {
        slot = (slot + 1) % 2048;
        let at = slot * PAGE as u64;
        ep.write_chain(
            &mut ctx,
            &mr,
            &[
                (at, record.as_slice()),
                (at + PAGE as u64 / 2, &io_meta[..]),
            ],
        )
        .expect("chain write");
    });
    m.insert("rdma.write_chain_us".into(), ns / 1e3);
    let ns = timed(kernel, CALLS, 1, || {
        slot = (slot + 1) % 2048;
        black_box(
            ep.read(&mut ctx, &mr, slot * PAGE as u64, PAGE)
                .expect("read"),
        );
    });
    m.insert("rdma.read_us".into(), ns / 1e3);
    let rpc = RpcFabric::new(env.model.clone(), Arc::clone(&env.faults));
    let target = &env.storage_nodes[0];
    let ns = timed(kernel, CALLS, 1, || {
        rpc.call(&mut ctx, 200, target, 1024, 16, |_| ())
            .expect("rpc");
    });
    m.insert("rdma.rpc_us".into(), ns / 1e3);
}

fn astore(kernel: &mut Kernel, fabric: &StorageFabric, seed: u64, m: &mut BTreeMap<String, f64>) {
    let env = &fabric.env;
    let mut ctx = SimCtx::new(12, seed);
    let ep = RdmaEndpoint::new(
        env.model.clone(),
        Arc::clone(&env.faults),
        Arc::clone(&env.engine_nic),
    );
    let client = AStoreClient::connect(
        &mut ctx,
        Arc::clone(&fabric.cm),
        ep,
        Arc::clone(&env.engine_cpu),
        env.model.clone(),
        99,
        VTime::from_millis(50),
    );
    // 16 MiB slots: each probe's 2 000 calls fit one segment.
    let segment = |ctx: &mut SimCtx| {
        client
            .create_segment_with(ctx, SegmentOpts::new(SegmentClass::Log))
            .expect("create segment")
    };

    let seg = segment(&mut ctx);
    let wide = vec![7u8; WIDE_RECORD];
    let ns = timed(kernel, CALLS, 1, || {
        client
            .append_with(&mut ctx, seg, &wide, AppendOpts::new())
            .expect("append");
    });
    m.insert("astore.append_us".into(), ns / 1e3);

    let seg = segment(&mut ctx);
    let small = vec![7u8; SMALL_RECORD];
    let batch: Vec<&[u8]> = (0..8).map(|_| small.as_slice()).collect();
    let ns = timed(kernel, CALLS, 1, || {
        client
            .append_batch(&mut ctx, seg, &batch)
            .expect("append batch");
    });
    m.insert("astore.append_batch8_us".into(), ns / 1e3);

    let seg = segment(&mut ctx);
    let page = vec![9u8; PAGE];
    for _ in 0..64 {
        client
            .append_with(&mut ctx, seg, &page, AppendOpts::new())
            .expect("append page");
    }
    let mut i = 0u64;
    let ns = timed(kernel, CALLS, 1, || {
        i = (i + 1) % 64;
        black_box(
            client
                .read(&mut ctx, seg, i * PAGE as u64, PAGE)
                .expect("read page"),
        );
    });
    m.insert("astore.read_page_us".into(), ns / 1e3);
}

fn pagestore(
    kernel: &mut Kernel,
    fabric: &StorageFabric,
    seed: u64,
    m: &mut BTreeMap<String, f64>,
) {
    const PAGES: u32 = 64;
    const SHIP: usize = 16;
    let ps = &fabric.pagestore;
    let mut ctx = SimCtx::new(13, seed);
    let cell = vec![5u8; 100];
    let mut lsn = 0u64;
    let mut ships = 0u32;
    // Ship `SHIP` records for the next page: the first visit formats it and
    // inserts 15 cells, later visits update them.
    let mut next_ship = |lsn: &mut u64| -> Vec<RedoRecord> {
        let page = PageId::new(900, ships % PAGES);
        let first_visit = ships < PAGES;
        ships += 1;
        (0..SHIP)
            .map(|i| {
                *lsn += 1;
                let op = match (first_visit, i) {
                    (true, 0) => PageOp::Format {
                        ty: PageType::BTreeLeaf,
                        level: 0,
                    },
                    (true, _) => PageOp::InsertAt {
                        slot: i as u16 - 1,
                        cell: cell.clone(),
                    },
                    (false, _) => PageOp::Update {
                        slot: (i % (SHIP - 1)) as u16,
                        cell: cell.clone(),
                    },
                };
                RedoRecord {
                    lsn: *lsn,
                    prev_same_segment: 0,
                    txn_id: 1,
                    page,
                    op,
                }
            })
            .collect()
    };
    let key = ps.cfg().segment_of(PageId::new(900, 0));
    let replicas = ps.replicas_of(key);

    // Ship and apply alternate, timed apart, so every apply replays exactly
    // one ship on each replica.
    let mut ship_ns = Vec::with_capacity(CALLS);
    let mut apply_ns = Vec::with_capacity(CALLS);
    let mut k_prev = kernel.run_core();
    while ship_ns.len() < CALLS {
        let start = ship_ns.len();
        for _ in 0..BATCH {
            let records = next_ship(&mut lsn);
            let t = Instant::now();
            ps.ship(&mut ctx, &records).expect("ship");
            let shipped = Instant::now();
            for r in &replicas {
                r.apply_pending(&mut ctx, key).expect("apply");
            }
            let applied = Instant::now();
            ship_ns.push((shipped - t).as_nanos() as f64);
            apply_ns.push((applied - shipped).as_nanos() as f64 / (SHIP * replicas.len()) as f64);
        }
        let k = kernel.run_core();
        let speed = factor(Sensitivity::CORE_ONLY, k_prev, k);
        k_prev = k;
        for s in ship_ns[start..].iter_mut().chain(&mut apply_ns[start..]) {
            *s *= speed;
        }
    }
    m.insert("pagestore.ship16_us".into(), median(&ship_ns) / 1e3);
    m.insert(
        "pagestore.apply_us_per_record".into(),
        median(&apply_ns) / 1e3,
    );

    let mut i = 0u32;
    let ns = timed(kernel, CALLS, 1, || {
        i = (i + 1) % PAGES;
        black_box(
            ps.read_page(&mut ctx, PageId::new(900, i), 0)
                .expect("read page"),
        );
    });
    m.insert("pagestore.read_page_us".into(), ns / 1e3);
}

fn blobstore(
    kernel: &mut Kernel,
    fabric: &StorageFabric,
    seed: u64,
    m: &mut BTreeMap<String, f64>,
) {
    let mut ctx = SimCtx::new(14, seed);
    let group = BlobGroup::create(
        &mut ctx,
        BlobGroupConfig::default(),
        &fabric.blob_servers,
        Arc::clone(&fabric.rpc),
    )
    .expect("create blob group");
    let record = vec![7u8; WIDE_RECORD];
    let ns = timed(kernel, CALLS, 1, || {
        group.append(&mut ctx, &record).expect("blob append");
    });
    m.insert("blobstore.append_us".into(), ns / 1e3);
}

fn sim(kernel: &mut Kernel, fabric: &StorageFabric, m: &mut BTreeMap<String, f64>) {
    const INNER: usize = 100;
    let reg = MetricsRegistry::detached();
    let cpu = Resource::with_metrics("probe.cpu", 4, &reg);
    let mut now = VTime::ZERO;
    let ns = timed(kernel, CALLS, INNER, || {
        now = cpu.acquire(now, VTime::from_nanos(700));
    });
    m.insert("sim.resource_acquire_ns".into(), ns);

    let counter = reg.counter("probe", "ops");
    let latency = reg.latency("probe", "op");
    let mut x = 1u64;
    let ns = timed(kernel, CALLS, INNER, || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        counter.inc();
        latency.record(VTime::from_nanos(x % 10_000_000));
    });
    m.insert("sim.metric_record_ns".into(), ns);

    reg.trace().enable();
    let ctx = SimCtx::new(15, 0);
    let ns = timed(kernel, CALLS, INNER, || {
        reg.trace().span(&ctx, "probe", "span").finish(&ctx);
    });
    m.insert("sim.span_ns".into(), ns);

    // The registry the other probes just filled: every cluster resource,
    // counter and histogram a real report carries.
    let ns = timed(kernel, 50, 1, || {
        let report = RunReport::collect("probe", None, &fabric.env.metrics);
        black_box(report.to_json());
    });
    m.insert("sim.report_json_ms".into(), ns / 1e6);
}

/// Start `n` threads only if the box has that many.
fn allow_threads(n: usize) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    if n > nproc {
        return Err(format!("refusing to start {n} threads on {nproc} CPUs"));
    }
    Ok(())
}

/// `workloads::driver::run_trial` with two OS-thread clients over a fixed
/// virtual window, group commit on: raw host microseconds per committed op.
/// Its commit count depends on thread interleaving (ROADMAP item 1), so the
/// value is ungated; 0 means the probe could not run.
fn driver_two_clients() -> f64 {
    if let Err(e) = allow_threads(2) {
        println!("  workloads.driver_2c_us_per_op skipped: {e}");
        return 0.0;
    }
    let mut dep = Deployment::open(
        DbConfig::builder()
            .bp_pages(4096)
            .bp_shards(16)
            .log(LogBackendKind::AStore)
            .ring_segments(12)
            .flush_policy(FlushPolicy::Group {
                max_batch_bytes: 64 * 1024,
                max_wait: VTime::from_micros(100),
            })
            .build()
            .expect("valid group-commit config"),
    );
    dep.db.define_schema(orders::define_schema);
    dep.db.create_tables(&mut dep.ctx).expect("create tables");
    orders::load(&mut dep.ctx, &dep.db).expect("load vendors");
    let db = Arc::clone(&dep.db);
    let t = Instant::now();
    // A multi-client trial can hit the known PageStore read/apply race and
    // panic; that must not take the traced run down with it.
    let trial = catch_unwind(AssertUnwindSafe(|| {
        dep.trial(
            2,
            VTime::from_millis(5),
            VTime::from_millis(300),
            |ctx, _| orders::single_insert(ctx, &db),
        )
    }));
    let elapsed_us = t.elapsed().as_secs_f64() * 1e6;
    match trial {
        Ok(r) if r.committed > 0 => elapsed_us / r.committed as f64,
        _ => {
            println!("  workloads.driver_2c_us_per_op: the two-client trial failed");
            0.0
        }
    }
}
