//! Tests for the §VIII future-work extension implemented in this
//! reproduction: local EBP re-attachment after an AStore server restart.

use std::sync::Arc;

use vedb_core::catalog::ColumnType;
use vedb_core::db::{Db, DbConfig, StorageFabric};
use vedb_core::ebp::EbpConfig;
use vedb_core::Value;
use vedb_sim::{ClusterSpec, SimCtx};

fn fabric() -> StorageFabric {
    StorageFabric::build(ClusterSpec::paper_default(), 96 << 20, 1 << 20)
}

fn open_big(ctx: &mut SimCtx, f: &StorageFabric, rows: i64) -> Arc<Db> {
    let db = Db::open(
        ctx,
        f,
        DbConfig::builder()
            .bp_pages(32)
            .ebp(EbpConfig {
                capacity_bytes: 128 << 20,
                ..Default::default()
            })
            .build()
            .unwrap(),
    )
    .unwrap();
    db.define_schema(|cat| {
        cat.define("facts")
            .col("id", ColumnType::Int)
            .col("grp", ColumnType::Int)
            .col("val", ColumnType::Double)
            .col("pad", ColumnType::Str)
            .pk(&["id"])
            .build();
    });
    db.create_tables(ctx).unwrap();
    let mut txn = db.begin();
    for i in 0..rows {
        db.insert(
            ctx,
            &mut txn,
            "facts",
            vec![
                Value::Int(i),
                Value::Int(i % 16),
                Value::Double(i as f64),
                Value::Str("p".repeat(120)),
            ],
        )
        .unwrap();
        if i % 500 == 0 {
            db.commit(ctx, &mut txn).unwrap();
            txn = db.begin();
        }
    }
    db.commit(ctx, &mut txn).unwrap();
    db.checkpoint(ctx).unwrap();
    db
}

#[test]
fn astore_server_restart_reattaches_ebp_pages() {
    let f = fabric();
    let mut ctx = SimCtx::new(0, 7);
    let db = open_big(&mut ctx, &f, 6000);
    db.scan_table(&mut ctx, "facts", |_| true).unwrap();
    let ebp = db.ebp().unwrap();
    let before = ebp.len();
    assert!(before > 10, "{before} EBP pages");

    // Find a server hosting EBP pages, power-cycle it.
    let victim = f
        .astore_servers
        .iter()
        .find(|s| {
            ebp.cached_pages(before)
                .iter()
                .any(|p| ebp.locate(*p).map(|l| l.node == s.node()).unwrap_or(false))
        })
        .expect("some server hosts EBP pages")
        .clone();
    let victim_pages: Vec<_> = ebp
        .cached_pages(before)
        .into_iter()
        .filter(|p| {
            ebp.locate(*p)
                .map(|l| l.node == victim.node())
                .unwrap_or(false)
        })
        .collect();
    assert!(!victim_pages.is_empty());

    // Power failure: the node goes unreachable and loses volatile state.
    f.env.faults.crash(victim.node());
    victim.crash();
    // Reads of its pages now miss (entries dropped lazily on access).
    let miss_page = victim_pages[0];
    assert!(ebp.read_page(&mut ctx, miss_page, 0).is_none());

    // The server restarts: PMem media survived; rebuild its volatile state
    // and re-attach its pages to the engine's EBP index.
    f.env.faults.restore(victim.node());
    victim.restart(&mut ctx).unwrap();
    let attached = ebp.reattach_server(&mut ctx, &victim).unwrap();
    assert!(
        attached > 0,
        "restart must re-attach locally persisted EBP pages"
    );
    // The page whose index entry was dropped during the outage is back.
    assert!(
        ebp.read_page(&mut ctx, miss_page, 0).is_some(),
        "re-attached pages must be readable again"
    );
}
