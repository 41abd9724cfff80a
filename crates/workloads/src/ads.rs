//! The internal advertisement workload (Figure 9, §VII-A).
//!
//! A core data-processing library for advertising with a strict latency
//! SLO (~10 ms P99). The mix is latency-sensitive small queries — campaign
//! lookups and counter bumps — where every transaction commits quickly and
//! the tail is dominated by log-write latency, which is exactly where the
//! SSD LogStore's scheduling spikes hurt and AStore's flat one-sided
//! writes shine (~20× in the paper).

use std::sync::Arc;

use vedb_core::catalog::{Catalog, ColumnType};
use vedb_core::db::Db;
use vedb_core::Value;
use vedb_sim::SimCtx;

use crate::driver::{self, OpOutcome};

/// Campaigns in the library.
pub const CAMPAIGNS: i64 = 2000;

/// Register the schema.
pub fn define_schema(cat: &mut Catalog) {
    cat.define("campaign")
        .col("a_id", ColumnType::Int)
        .col("a_budget", ColumnType::Double)
        .col("a_spent", ColumnType::Double)
        .col("a_impressions", ColumnType::Int)
        .col("a_meta", ColumnType::Str)
        .pk(&["a_id"])
        .build();
}

/// Load the campaigns.
pub fn load(ctx: &mut SimCtx, db: &Arc<Db>) -> vedb_core::Result<()> {
    let mut txn = db.begin();
    for a in 1..=CAMPAIGNS {
        db.insert(
            ctx,
            &mut txn,
            "campaign",
            vec![
                Value::Int(a),
                Value::Double(10_000.0),
                Value::Double(0.0),
                Value::Int(0),
                Value::Str("m".repeat(200)),
            ],
        )?;
        if a % 200 == 0 {
            db.commit(ctx, &mut txn)?;
            txn = db.begin();
        }
    }
    db.commit(ctx, &mut txn)?;
    db.checkpoint(ctx)?;
    Ok(())
}

/// One ad-serving operation: 80% budget-check lookups, 20% impression
/// accounting (read + two-column update).
pub fn ad_op(ctx: &mut SimCtx, db: &Arc<Db>) -> OpOutcome {
    let a = ctx.rng().gen_range(1..=CAMPAIGNS);
    if ctx.rng().gen_bool(0.8) {
        match db.get_by_pk(ctx, None, "campaign", &[Value::Int(a)]) {
            Ok(_) => OpOutcome::Committed,
            Err(_) => OpOutcome::Aborted,
        }
    } else {
        driver::outcome(db.transact(ctx, |ctx, txn| {
            let cost = ctx.rng().gen_range(1..50) as f64 / 100.0;
            db.update_by_pk(ctx, txn, "campaign", &[Value::Int(a)], |row| {
                row[2] = Value::Double(row[2].as_f64() + cost);
                row[3] = Value::Int(row[3].as_int() + 1);
            })?;
            Ok(true)
        }))
    }
}
