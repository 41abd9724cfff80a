//! The internal batched order-processing workload (Figure 8, §VII-A).
//!
//! Characteristics from the paper:
//!
//! 1. INSERTs are wide — about 2 KB per order-flow row,
//! 2. UPDATEs hit hot rows — many concurrent updates of the same vendor's
//!    account balance,
//! 3. the customer's target is 10,000+ TPS.
//!
//! Two operations are measured: `single_insert` (one wide insert per
//! transaction) and `order_batch` (the full scenario: a batch of orders in
//! one transaction block — each order updates the vendor balance and
//! inserts the returned balance into the order-flow table).
//!
//! Order-flow ids come from the `Db`'s own counter for `order_flow`
//! ([`Db::next_id`]), 1, 2, 3, … per deployment. It is not persisted:
//! nothing inserts through this module after `recovery::recover`, and the
//! host benchmark's `commit_wide` keeps its own id.

use std::sync::Arc;

use vedb_core::catalog::{Catalog, ColumnType};
use vedb_core::db::Db;
use vedb_core::Value;
use vedb_sim::SimCtx;

use crate::driver::{self, OpOutcome};

/// Width of the order-flow payload (paper: "about 2KB").
pub const ROW_PAYLOAD: usize = 2048;

/// Number of vendors (few → hot rows).
pub const VENDORS: i64 = 8;

/// Orders batched into one transaction.
pub const BATCH: usize = 5;

/// Register the schema.
pub fn define_schema(cat: &mut Catalog) {
    cat.define("vendor_account")
        .col("v_id", ColumnType::Int)
        .col("v_balance", ColumnType::Double)
        .col("v_updates", ColumnType::Int)
        .pk(&["v_id"])
        .build();
    cat.define("order_flow")
        .col("f_id", ColumnType::Int)
        .col("f_vendor", ColumnType::Int)
        .col("f_balance", ColumnType::Double)
        .col("f_payload", ColumnType::Str)
        .pk(&["f_id"])
        .index("idx_flow_vendor", &["f_vendor"])
        .build();
}

/// Load the vendors.
pub fn load(ctx: &mut SimCtx, db: &Arc<Db>) -> vedb_core::Result<()> {
    let mut txn = db.begin();
    for v in 1..=VENDORS {
        db.insert(
            ctx,
            &mut txn,
            "vendor_account",
            vec![Value::Int(v), Value::Double(0.0), Value::Int(0)],
        )?;
    }
    db.commit(ctx, &mut txn)?;
    Ok(())
}

/// One wide (2 KB) insert per transaction — the first half of Figure 8.
pub fn single_insert(ctx: &mut SimCtx, db: &Arc<Db>) -> OpOutcome {
    let vendor = ctx.rng().skewed_index(VENDORS as u64, 0.5) as i64 + 1;
    let payload = "p".repeat(ROW_PAYLOAD);
    driver::outcome(db.transact(ctx, |ctx, txn| {
        db.insert(
            ctx,
            txn,
            "order_flow",
            vec![
                Value::Int(db.next_id("order_flow")?),
                Value::Int(vendor),
                Value::Double(0.0),
                Value::Str(payload),
            ],
        )?;
        Ok(true)
    }))
}

/// The full batched order transaction — hot-row vendor update + wide
/// insert per order, [`BATCH`] orders per transaction.
pub fn order_batch(ctx: &mut SimCtx, db: &Arc<Db>) -> OpOutcome {
    // Hot vendor: most batches hit the same merchant (paper: "often many
    // concurrent updates for the same merchant").
    let vendor = ctx.rng().skewed_index(VENDORS as u64, 0.6) as i64 + 1;
    let payload = "p".repeat(ROW_PAYLOAD);
    driver::outcome(db.transact(ctx, |ctx, txn| {
        for _ in 0..BATCH {
            let amount = ctx.rng().gen_range(1..1000) as f64 / 10.0;
            let mut new_balance = 0.0;
            db.update_by_pk(ctx, txn, "vendor_account", &[Value::Int(vendor)], |row| {
                new_balance = row[1].as_f64() + amount;
                row[1] = Value::Double(new_balance);
                row[2] = Value::Int(row[2].as_int() + 1);
            })?;
            db.insert(
                ctx,
                txn,
                "order_flow",
                vec![
                    Value::Int(db.next_id("order_flow")?),
                    Value::Int(vendor),
                    Value::Double(new_balance),
                    Value::Str(payload.clone()),
                ],
            )?;
        }
        Ok(true)
    }))
}
