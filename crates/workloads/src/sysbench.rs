//! Sysbench-style `oltp_read_write` (Figure 13, §VII-B).
//!
//! The standard transaction profile: 10 point selects, 1 range select,
//! 1 indexed update, 1 non-indexed update, 1 delete + 1 insert, all on the
//! classic `sbtest` table (id PK, k secondary index, c/pad payload
//! columns). Used for the cost-equalized veDB vs veDB+AStore comparison of
//! Table III / Figure 13.

use std::sync::Arc;

use vedb_core::catalog::{Catalog, ColumnType};
use vedb_core::db::Db;
use vedb_core::{EngineError, Value};
use vedb_sim::SimCtx;

use crate::driver::{self, OpOutcome};

/// Rows in `sbtest`.
#[derive(Debug, Clone, Copy)]
pub struct SysbenchScale {
    /// Table size.
    pub rows: i64,
}

impl SysbenchScale {
    /// Bench scale.
    pub fn bench() -> SysbenchScale {
        SysbenchScale { rows: 20_000 }
    }

    /// Test scale.
    pub fn tiny() -> SysbenchScale {
        SysbenchScale { rows: 500 }
    }
}

/// Register the schema.
pub fn define_schema(cat: &mut Catalog) {
    cat.define("sbtest")
        .col("id", ColumnType::Int)
        .col("k", ColumnType::Int)
        .col("c", ColumnType::Str)
        .col("pad", ColumnType::Str)
        .pk(&["id"])
        .index("k_idx", &["k"])
        .build();
}

/// Load the table.
pub fn load(ctx: &mut SimCtx, db: &Arc<Db>, scale: SysbenchScale) -> vedb_core::Result<()> {
    let mut txn = db.begin();
    for id in 1..=scale.rows {
        db.insert(
            ctx,
            &mut txn,
            "sbtest",
            vec![
                Value::Int(id),
                Value::Int(id % 500),
                Value::Str(format!("{id:0>120}")),
                Value::Str("@".repeat(60)),
            ],
        )?;
        if id % 500 == 0 {
            db.commit(ctx, &mut txn)?;
            txn = db.begin();
            db.checkpoint(ctx)?;
        }
    }
    db.commit(ctx, &mut txn)?;
    db.checkpoint(ctx)?;
    Ok(())
}

/// One `oltp_read_write` transaction.
pub fn transaction(ctx: &mut SimCtx, db: &Arc<Db>, scale: SysbenchScale) -> OpOutcome {
    let r = db.transact(ctx, |ctx, txn| {
        // 10 point selects.
        for _ in 0..10 {
            let id = ctx.rng().gen_range(1..=scale.rows);
            db.get_by_pk(ctx, Some(&mut *txn), "sbtest", &[Value::Int(id)])?;
        }
        // 1 short secondary-index range.
        let k = ctx.rng().gen_range(0..500i64);
        db.index_lookup(ctx, "sbtest", "k_idx", &[Value::Int(k)], 20)?;
        // 1 indexed-column update (touches the secondary index).
        let id = ctx.rng().gen_range(1..=scale.rows);
        db.update_by_pk(ctx, txn, "sbtest", &[Value::Int(id)], |row| {
            row[1] = Value::Int((row[1].as_int() + 1) % 500);
        })?;
        // 1 non-indexed update.
        let id = ctx.rng().gen_range(1..=scale.rows);
        db.update_by_pk(ctx, txn, "sbtest", &[Value::Int(id)], |row| {
            row[2] = Value::Str(format!("{:0>120}", row[0].as_int() + 1));
        })?;
        // delete + insert of the same id (keeps the table size stable).
        let id = ctx.rng().gen_range(1..=scale.rows);
        match db.delete_by_pk(ctx, txn, "sbtest", &[Value::Int(id)]) {
            Ok(()) => {
                db.insert(
                    ctx,
                    txn,
                    "sbtest",
                    vec![
                        Value::Int(id),
                        Value::Int(id % 500),
                        Value::Str(format!("{id:0>120}")),
                        Value::Str("@".repeat(60)),
                    ],
                )?;
            }
            Err(EngineError::NotFound) => {} // raced with another delete
            Err(e) => return Err(e),
        }
        Ok(true)
    });
    match r {
        // An update raced with another client's delete of its row.
        Err(EngineError::NotFound) => OpOutcome::Aborted,
        r => driver::outcome(r),
    }
}
