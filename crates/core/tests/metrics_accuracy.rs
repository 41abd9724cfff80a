//! End-to-end metric accuracy: counters reported through the deployment
//! registry must match ground truth computed from a fixed workload.
//!
//! Two workloads pin the numbers down:
//!
//! * **Hot-key reads, ample pool** — repeated `get_by_pk` of one row does a
//!   fixed number of page touches per read; after a warming read, misses
//!   stay flat and hits advance by exactly that stride.
//! * **Cold scans, tiny pool + EBP** — every buffer-pool miss consults the
//!   EBP exactly once, so `ebp_hits + ebp_misses == bp_misses` over any
//!   window; a second identical pass finds every page in BP or EBP, so its
//!   EBP miss delta is zero.
//! * **Redo lag books** — in a fault-free run every accepted record is
//!   either applied, queued behind an apply worker, or parked out of
//!   order: `records_accepted == records_applied + queued_records +
//!   parked_records`, and `apply_lag_records == queued + parked`.

use std::sync::Arc;

use vedb_core::catalog::ColumnType;
use vedb_core::db::{Db, DbConfig, StorageFabric};
use vedb_core::ebp::EbpConfig;
use vedb_core::Value;
use vedb_sim::{ClusterSpec, SimCtx};

fn fabric() -> StorageFabric {
    StorageFabric::build(ClusterSpec::paper_default(), 32 << 20, 256 * 1024)
}

/// Assert the fault-free redo-lag conservation equation on a registry.
fn assert_lag_books_balance(metrics: &vedb_sim::MetricsRegistry, when: &str) {
    let accepted = metrics.counter("pagestore", "records_accepted").get();
    let applied = metrics.counter("pagestore", "records_applied").get();
    let queued = metrics.gauge("pagestore", "queued_records").get();
    let parked = metrics.gauge("pagestore", "parked_records").get();
    let lag = metrics.gauge("pagestore", "apply_lag_records").get();
    assert!(queued >= 0, "{when}: queued gauge went negative: {queued}");
    assert!(parked >= 0, "{when}: parked gauge went negative: {parked}");
    assert_eq!(
        accepted,
        applied + queued as u64 + parked as u64,
        "{when}: accepted != applied + queued + parked \
         ({accepted} != {applied} + {queued} + {parked})"
    );
    assert_eq!(
        lag,
        queued + parked,
        "{when}: apply_lag_records must decompose into queued + parked"
    );
}

fn schema(cat: &mut vedb_core::Catalog) {
    cat.define("kv")
        .col("id", ColumnType::Int)
        .col("val", ColumnType::Str)
        .pk(&["id"])
        .build();
}

fn open_db(ctx: &mut SimCtx, fabric: &StorageFabric, cfg: DbConfig) -> Arc<Db> {
    let db = Db::open(ctx, fabric, cfg).unwrap();
    db.define_schema(schema);
    db.create_tables(ctx).unwrap();
    db
}

fn load(ctx: &mut SimCtx, db: &Db, rows: i64) {
    let mut txn = db.begin();
    for i in 0..rows {
        db.insert(
            ctx,
            &mut txn,
            "kv",
            vec![Value::Int(i), Value::Str(format!("v{i:-<120}"))],
        )
        .unwrap();
    }
    db.commit(ctx, &mut txn).unwrap();
}

#[test]
fn hot_key_reads_report_exact_hit_counts() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 42);
    // Pool far larger than the table: after warming, no evictions, no
    // misses, and a constant number of page hits per read.
    let db = open_db(
        &mut ctx,
        &f,
        DbConfig::builder().bp_pages(1024).build().unwrap(),
    );
    load(&mut ctx, &db, 500);

    let hits = f.env.metrics.counter("core", "bp_hits");
    let misses = f.env.metrics.counter("core", "bp_misses");
    let evictions = f.env.metrics.counter("core", "bp_evictions");

    // Warm the root-to-leaf path of the probed key.
    db.get_by_pk(&mut ctx, None, "kv", &[Value::Int(123)])
        .unwrap()
        .unwrap();

    let (h0, m0, e0) = (hits.get(), misses.get(), evictions.get());
    const N: u64 = 50;
    for _ in 0..N {
        let row = db
            .get_by_pk(&mut ctx, None, "kv", &[Value::Int(123)])
            .unwrap()
            .unwrap();
        assert_eq!(row[1], Value::Str(format!("v{:-<120}", 123)));
    }
    let dh = hits.get() - h0;
    let dm = misses.get() - m0;
    let de = evictions.get() - e0;

    assert_eq!(dm, 0, "warmed hot-key reads must not miss");
    assert_eq!(de, 0, "ample pool must not evict");
    assert_eq!(
        dh % N,
        0,
        "page touches per read must be constant, got {dh} over {N}"
    );
    let per_read = dh / N;
    assert!(
        (1..=4).contains(&per_read),
        "a point read touches the root-to-leaf path, got {per_read} pages"
    );
}

#[test]
fn cold_scans_conserve_ebp_lookups() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 42);
    // Tiny pool: the 2000-row table thrashes it, spilling into the EBP.
    let cfg = DbConfig::builder()
        .bp_pages(16)
        .bp_shards(2)
        .ebp(EbpConfig {
            capacity_bytes: 8 << 20,
            ..Default::default()
        })
        .build()
        .unwrap();
    let db = open_db(&mut ctx, &f, cfg);
    load(&mut ctx, &db, 2000);

    let bp_misses = f.env.metrics.counter("core", "bp_misses");
    let bp_evictions = f.env.metrics.counter("core", "bp_evictions");
    let ebp_hits = f.env.metrics.counter("core", "ebp_hits");
    let ebp_misses = f.env.metrics.counter("core", "ebp_misses");
    let ebp_writes = f.env.metrics.counter("core", "ebp_writes");
    let ebp_dedups = f.env.metrics.counter("core", "ebp_dedups");
    let ebp_skips = f.env.metrics.counter("core", "ebp_skips");

    let pass = |ctx: &mut SimCtx| {
        for i in 0..2000 {
            let r = db
                .get_by_pk(ctx, None, "kv", &[Value::Int(i)])
                .unwrap()
                .unwrap();
            assert_eq!(r[0], Value::Int(i));
        }
    };

    // Pass 1: misses go through the EBP lookup exactly once each.
    let (m0, h0, s0, w0, d0, k0, e0) = (
        bp_misses.get(),
        ebp_hits.get(),
        ebp_misses.get(),
        ebp_writes.get(),
        ebp_dedups.get(),
        ebp_skips.get(),
        bp_evictions.get(),
    );
    pass(&mut ctx);
    let dm = bp_misses.get() - m0;
    assert!(dm > 0, "a 2000-row scan must overflow a 16-page pool");
    assert_eq!(
        (ebp_hits.get() - h0) + (ebp_misses.get() - s0),
        dm,
        "every buffer-pool miss consults the EBP exactly once"
    );
    // Every eviction is accounted exactly once — appended as a write,
    // deduplicated against an already-cached identical image, or skipped
    // by the sink (meta page, WAL rule). Compaction may re-admit live
    // pages on top (also counted as writes), never fewer.
    assert!(
        (ebp_writes.get() - w0) + (ebp_dedups.get() - d0) + (ebp_skips.get() - k0)
            >= bp_evictions.get() - e0,
        "fewer EBP writes+dedups+skips ({}+{}+{}) than evictions ({})",
        ebp_writes.get() - w0,
        ebp_dedups.get() - d0,
        ebp_skips.get() - k0,
        bp_evictions.get() - e0
    );

    // Pass 2: every page left pass 1 resident in BP or EBP, and a
    // read-only pass never advances LSNs, so no EBP lookup can miss.
    let (m1, h1, s1) = (bp_misses.get(), ebp_hits.get(), ebp_misses.get());
    pass(&mut ctx);
    let dm2 = bp_misses.get() - m1;
    assert_eq!(
        ebp_misses.get() - s1,
        0,
        "second identical pass must be fully EBP-resident"
    );
    assert_eq!(
        ebp_hits.get() - h1,
        dm2,
        "second-pass misses must all be EBP hits"
    );
}

/// Fault-free conservation of the redo-lag books across a write/read
/// workload, at several quiesce points and mid-flight after a bare ship
/// (records accepted but possibly not yet applied — the split between
/// `queued_records` and `parked_records` is exactly what the lag gauges
/// exist to distinguish).
#[test]
fn redo_lag_books_balance_fault_free() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 42);
    let db = open_db(&mut ctx, &f, DbConfig::builder().build().unwrap());
    assert_lag_books_balance(&f.env.metrics, "after create_tables");

    load(&mut ctx, &db, 800);
    assert_lag_books_balance(&f.env.metrics, "after load");

    // A cold read pass forces replay on every touched replica.
    db.buffer_pool().clear();
    for i in (0..800).step_by(61) {
        db.get_by_pk(&mut ctx, None, "kv", &[Value::Int(i)])
            .unwrap()
            .unwrap();
    }
    assert_lag_books_balance(&f.env.metrics, "after cold reads");

    // Mid-flight: ship without forcing apply. Whatever is not yet applied
    // must sit in the queued/parked gauges, never fall off the books.
    let mut txn = db.begin();
    for i in 800..1000 {
        db.insert(
            &mut ctx,
            &mut txn,
            "kv",
            vec![Value::Int(i), Value::Str(format!("v{i:-<120}"))],
        )
        .unwrap();
    }
    db.commit(&mut ctx, &mut txn).unwrap();
    db.flush_ship(&mut ctx, true);
    assert_lag_books_balance(&f.env.metrics, "mid-flight after ship");
    let accepted = f.env.metrics.counter("pagestore", "records_accepted").get();
    assert!(accepted > 0, "workload must have shipped records");

    // Quiesce: everything applies, the lag gauges drain to zero.
    db.checkpoint(&mut ctx).unwrap();
    for server in f.pagestore.servers() {
        let key = vedb_pagestore::PsSegmentKey::of(vedb_core::db::META_PAGE);
        server.apply_pending(&mut ctx, key).unwrap();
    }
    db.buffer_pool().clear();
    for i in (0..1000).step_by(41) {
        db.get_by_pk(&mut ctx, None, "kv", &[Value::Int(i)])
            .unwrap()
            .unwrap();
    }
    assert_lag_books_balance(&f.env.metrics, "after quiesce");
}
