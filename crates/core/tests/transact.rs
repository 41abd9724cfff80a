//! `Db::transact`, the one transaction shape: the body's `Ok(true)`
//! commits, its `Ok(false)` rolls back, and its error rolls back and comes
//! back as it is, with every lock released.

use std::sync::Arc;

use vedb_core::catalog::ColumnType;
use vedb_core::db::{Db, DbConfig, StorageFabric};
use vedb_core::{EngineError, Value};
use vedb_sim::{ClusterSpec, SimCtx};

fn open() -> (StorageFabric, SimCtx, Arc<Db>) {
    let f = StorageFabric::build(ClusterSpec::paper_default(), 32 << 20, 256 * 1024);
    let mut ctx = SimCtx::new(1, 42);
    let db = Db::open(&mut ctx, &f, DbConfig::builder().build().unwrap()).unwrap();
    db.define_schema(|cat| {
        cat.define("accounts")
            .col("id", ColumnType::Int)
            .col("owner", ColumnType::Str)
            .pk(&["id"])
            .index("idx_owner", &["owner"])
            .build();
    });
    db.create_tables(&mut ctx).unwrap();
    (f, ctx, db)
}

fn account(id: i64) -> Vec<Value> {
    vec![Value::Int(id), Value::Str(format!("owner-{id}"))]
}

/// The row `id` as a point read and through the secondary index sees it.
fn visible(ctx: &mut SimCtx, db: &Db, id: i64) -> (bool, bool) {
    let by_pk = db.get_by_pk(ctx, None, "accounts", &[Value::Int(id)]);
    let owner = [Value::Str(format!("owner-{id}"))];
    let by_index = db.index_lookup(ctx, "accounts", "idx_owner", &owner, 10);
    (by_pk.unwrap().is_some(), !by_index.unwrap().is_empty())
}

#[test]
fn ok_true_commits() {
    let (f, mut ctx, db) = open();
    let commits = f.env.metrics.counter("core", "txn_commits");
    let before = commits.get();
    let r = db.transact(&mut ctx, |ctx, txn| {
        db.insert(ctx, txn, "accounts", account(1))?;
        Ok(true)
    });
    assert_eq!(r, Ok(true));
    assert_eq!(commits.get(), before + 1);
    assert_eq!(visible(&mut ctx, &db, 1), (true, true));
}

#[test]
fn ok_false_rolls_back() {
    let (f, mut ctx, db) = open();
    let aborts = f.env.metrics.counter("core", "txn_aborts");
    let before = aborts.get();
    let r = db.transact(&mut ctx, |ctx, txn| {
        db.insert(ctx, txn, "accounts", account(1))?;
        Ok(false)
    });
    assert_eq!(r, Ok(false));
    assert_eq!(aborts.get(), before + 1);
    assert_eq!(visible(&mut ctx, &db, 1), (false, false));
}

#[test]
fn a_body_error_rolls_back_returns_the_error_and_releases_the_locks() {
    let (f, mut ctx, db) = open();
    let aborts = f.env.metrics.counter("core", "txn_aborts");
    let waits = f.env.metrics.counter("core", "lock_waits");
    let before = aborts.get();
    // The second insert of the row fails after the first one wrote it.
    let r = db.transact(&mut ctx, |ctx, txn| {
        db.insert(ctx, txn, "accounts", account(1))?;
        db.insert(ctx, txn, "accounts", account(1))?;
        Ok(true)
    });
    assert!(
        matches!(&r, Err(EngineError::DuplicateKey { table }) if table == "accounts"),
        "{r:?}"
    );
    assert_eq!(aborts.get(), before + 1);
    assert_eq!(visible(&mut ctx, &db, 1), (false, false));

    // The failed transaction's row lock is gone: a second insert of the
    // row takes it at once.
    let waits_before = waits.get();
    let r = db.transact(&mut ctx, |ctx, txn| {
        db.insert(ctx, txn, "accounts", account(1))?;
        Ok(true)
    });
    assert_eq!(r, Ok(true));
    assert_eq!(waits.get(), waits_before);
    assert_eq!(visible(&mut ctx, &db, 1), (true, true));
}
