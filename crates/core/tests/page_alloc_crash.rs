//! A page is made by allocation, never by a read. An allocated id is handed
//! out only after the meta page logs the new `next_page`, and recovery
//! restores `next_page` from the meta page, so no allocated id names a page
//! that PageStore holds. These tests crash the engine on both sides of that
//! argument: an allocation whose records never became durable is handed
//! out again, blank and with no read; a page whose records were truncated
//! out of the log is read back from PageStore, never made blank.

use std::sync::Arc;

use vedb_astore::PageId;
use vedb_core::catalog::ColumnType;
use vedb_core::db::{Db, DbConfig, StorageFabric};
use vedb_core::recovery;
use vedb_core::Value;
use vedb_sim::{ClusterSpec, SimCtx};

fn fabric() -> StorageFabric {
    StorageFabric::build(ClusterSpec::paper_default(), 32 << 20, 256 * 1024)
}

fn schema(cat: &mut vedb_core::Catalog) {
    for name in ["accounts", "audit"] {
        cat.define(name)
            .col("id", ColumnType::Int)
            .col("owner", ColumnType::Str)
            .pk(&["id"])
            .build();
    }
}

fn open_db(ctx: &mut SimCtx, fabric: &StorageFabric, cfg: DbConfig) -> Arc<Db> {
    let db = Db::open(ctx, fabric, cfg).unwrap();
    db.define_schema(schema);
    db.create_tables(ctx).unwrap();
    db
}

/// A 1 KB owner that starts with `tag`: about fifteen rows fill a page.
fn row(id: i64, tag: &str) -> Vec<Value> {
    vec![Value::Int(id), Value::Str(format!("{tag}{id:0>1000}"))]
}

fn space_of(db: &Db, table: &str) -> u32 {
    db.with_table(table, |t| t.space_no).unwrap()
}

/// Insert rows `from..` of `table` in `txn` until the table allocates a
/// page; returns the next unused id.
fn insert_until_split(
    ctx: &mut SimCtx,
    db: &Db,
    txn: &mut vedb_core::TxnHandle,
    table: &str,
    from: i64,
    tag: &str,
) -> i64 {
    let space = space_of(db, table);
    let pages = db.space_pages(space);
    let mut id = from;
    while db.space_pages(space) == pages {
        db.insert(ctx, txn, table, row(id, tag)).unwrap();
        id += 1;
    }
    id
}

fn counter(db: &Db, name: &str) -> u64 {
    db.metrics().counter_values()[name]
}

fn holds(image: &[u8], tag: &str) -> bool {
    image.windows(tag.len()).any(|w| w == tag.as_bytes())
}

#[test]
fn an_allocation_lost_in_a_crash_is_handed_out_again_blank_and_unread() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 7);
    let cfg = DbConfig::builder().build().unwrap();
    let db = open_db(&mut ctx, &f, cfg.clone());
    let space = space_of(&db, "accounts");
    let mut txn = db.begin();
    for i in 0..4 {
        db.insert(&mut ctx, &mut txn, "accounts", row(i, "kept"))
            .unwrap();
    }
    db.commit(&mut ctx, &mut txn).unwrap();
    let durable_pages = db.space_pages(space);

    // A transaction that never commits splits the root leaf: the split
    // allocates the sibling, whose records stay in the log buffer.
    let mut doomed = db.begin();
    let doomed_end = insert_until_split(&mut ctx, &db, &mut doomed, "accounts", 100, "doomed");
    let sibling = PageId::new(space, durable_pages + 1);
    assert!(
        db.page_lsn(sibling) >= db.wal().flushed_lsn(),
        "the sibling's first record must not be durable yet"
    );
    let frame = db
        .buffer_pool()
        .peek(sibling)
        .expect("the sibling is cached");
    assert!(holds(frame.page.read().as_bytes(), "doomed"));
    drop(frame);

    let ring_ids = db.log_segment_ids();
    drop(doomed);
    drop(db); // engine crash: the log buffer is gone

    let mut ctx2 = SimCtx::new(1, 8);
    ctx2.wait_until(ctx.now());
    let (db2, _) = recovery::recover(&mut ctx2, &f, cfg, schema, &ring_ids).unwrap();
    assert_eq!(
        db2.space_pages(space),
        durable_pages,
        "the lost allocation is not in the recovered meta page"
    );

    // Warm the pool: the root leaf by a read, the meta page by an
    // allocation in another space.
    assert!(db2
        .get_by_pk(&mut ctx2, None, "accounts", &[Value::Int(0)])
        .unwrap()
        .is_some());
    let mut warm = db2.begin();
    insert_until_split(&mut ctx2, &db2, &mut warm, "audit", 0, "warm");
    db2.commit(&mut ctx2, &mut warm).unwrap();

    let (reads, misses, allocs) = (
        counter(&db2, "pagestore.page_reads"),
        counter(&db2, "core.bp_misses"),
        counter(&db2, "core.bp_allocs"),
    );
    let mut reborn = db2.begin();
    let reborn_end = insert_until_split(&mut ctx2, &db2, &mut reborn, "accounts", 200, "reborn");
    db2.commit(&mut ctx2, &mut reborn).unwrap();
    assert_eq!(
        db2.space_pages(space),
        durable_pages + 2,
        "sibling + new root"
    );
    assert_eq!(counter(&db2, "pagestore.page_reads"), reads, "nothing read");
    assert_eq!(counter(&db2, "core.bp_misses"), misses, "no miss");
    assert_eq!(counter(&db2, "core.bp_allocs"), allocs + 2);

    // The same id again: its image holds what the split after the crash
    // moved into it and nothing logged before the crash.
    let image = db2
        .buffer_pool()
        .peek(sibling)
        .expect("the sibling is cached");
    let image = image.page.read();
    assert!(holds(image.as_bytes(), "reborn"));
    assert!(!holds(image.as_bytes(), "doomed"));
    for i in 100..doomed_end {
        assert!(db2
            .get_by_pk(&mut ctx2, None, "accounts", &[Value::Int(i)])
            .unwrap()
            .is_none());
    }
    for i in (0..4).chain(200..reborn_end) {
        assert!(db2
            .get_by_pk(&mut ctx2, None, "accounts", &[Value::Int(i)])
            .unwrap()
            .is_some());
    }
}

#[test]
fn a_page_whose_records_were_truncated_is_read_back_not_made_blank() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 7);
    let cfg = DbConfig::builder().build().unwrap();
    let db = open_db(&mut ctx, &f, cfg.clone());
    let space = space_of(&db, "accounts");
    // Far more log than the ring holds: each checkpoint truncates the
    // segments PageStore has applied.
    for batch in 0..20 {
        let mut load = db.begin();
        for i in batch * 50..(batch + 1) * 50 {
            db.insert(&mut ctx, &mut load, "accounts", row(i, "kept"))
                .unwrap();
        }
        db.commit(&mut ctx, &mut load).unwrap();
        db.checkpoint(&mut ctx).unwrap();
    }
    let ring_ids = db.log_segment_ids();
    drop(db);

    let mut ctx2 = SimCtx::new(1, 8);
    ctx2.wait_until(ctx.now());
    let (db2, _) = recovery::recover(&mut ctx2, &f, cfg, schema, &ring_ids).unwrap();
    let unlogged = (1..=db2.space_pages(space))
        .filter(|&p| db2.page_lsn(PageId::new(space, p)) == 0)
        .count();
    assert!(unlogged > 0, "some pages have no record left in the log");

    let reads = counter(&db2, "pagestore.page_reads");
    for i in 0..1000 {
        let got = db2
            .get_by_pk(&mut ctx2, None, "accounts", &[Value::Int(i)])
            .unwrap()
            .unwrap_or_else(|| panic!("row {i} lost"));
        assert_eq!(got, row(i, "kept"));
    }
    assert!(counter(&db2, "pagestore.page_reads") - reads >= unlogged as u64);
}
