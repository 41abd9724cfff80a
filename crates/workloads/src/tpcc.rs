//! TPC-C (scaled) — the TP workload of Figures 6, 7, and the TP side of
//! TPC-CH (Figure 10).
//!
//! The full schema (9 tables) and all five transaction profiles are
//! implemented with the standard mix (NewOrder 45%, Payment 43%,
//! OrderStatus 4%, Delivery 4%, StockLevel 4%) and the spec's 1% NewOrder
//! rollback. Cardinalities are scaled by [`TpccScale`] so a trial loads in
//! seconds; key *ratios* (rows per district, order-line fan-out, NURand
//! skew) follow the spec.

use std::sync::Arc;

use vedb_core::catalog::{Catalog, ColumnType};
use vedb_core::db::Db;
use vedb_core::{EngineError, Value};
use vedb_sim::SimCtx;

use crate::driver::{self, OpOutcome};

/// Scaled cardinalities.
#[derive(Debug, Clone)]
pub struct TpccScale {
    /// Warehouses.
    pub warehouses: i64,
    /// Districts per warehouse (spec: 10).
    pub districts: i64,
    /// Customers per district (spec: 3000).
    pub customers: i64,
    /// Items (spec: 100k; stock rows = items × warehouses).
    pub items: i64,
    /// Initial orders per district (spec: 3000).
    pub initial_orders: i64,
}

impl TpccScale {
    /// A small scale for tests and calibrated benches.
    pub fn tiny() -> TpccScale {
        TpccScale {
            warehouses: 2,
            districts: 2,
            customers: 30,
            items: 100,
            initial_orders: 10,
        }
    }

    /// The bench scale (load in ~seconds, working set ≫ small buffer pools).
    pub fn bench() -> TpccScale {
        TpccScale {
            warehouses: 4,
            districts: 4,
            customers: 120,
            items: 400,
            initial_orders: 30,
        }
    }
}

/// Register the TPC-C schema.
pub fn define_schema(cat: &mut Catalog) {
    cat.define("warehouse")
        .col("w_id", ColumnType::Int)
        .col("w_name", ColumnType::Str)
        .col("w_ytd", ColumnType::Double)
        .pk(&["w_id"])
        .build();
    cat.define("district")
        .col("d_w_id", ColumnType::Int)
        .col("d_id", ColumnType::Int)
        .col("d_name", ColumnType::Str)
        .col("d_ytd", ColumnType::Double)
        .col("d_next_o_id", ColumnType::Int)
        .pk(&["d_w_id", "d_id"])
        .build();
    cat.define("customer")
        .col("c_w_id", ColumnType::Int)
        .col("c_d_id", ColumnType::Int)
        .col("c_id", ColumnType::Int)
        .col("c_name", ColumnType::Str)
        .col("c_balance", ColumnType::Double)
        .col("c_ytd_payment", ColumnType::Double)
        .col("c_payment_cnt", ColumnType::Int)
        .col("c_delivery_cnt", ColumnType::Int)
        .col("c_data", ColumnType::Str)
        .pk(&["c_w_id", "c_d_id", "c_id"])
        .build();
    cat.define("history")
        .col("h_id", ColumnType::Int)
        .col("h_c_w_id", ColumnType::Int)
        .col("h_c_d_id", ColumnType::Int)
        .col("h_c_id", ColumnType::Int)
        .col("h_amount", ColumnType::Double)
        .pk(&["h_id"])
        .build();
    cat.define("orders")
        .col("o_w_id", ColumnType::Int)
        .col("o_d_id", ColumnType::Int)
        .col("o_id", ColumnType::Int)
        .col("o_c_id", ColumnType::Int)
        .col("o_ol_cnt", ColumnType::Int)
        .col("o_carrier_id", ColumnType::Int)
        .col("o_entry_d", ColumnType::Int)
        .pk(&["o_w_id", "o_d_id", "o_id"])
        .index("idx_orders_cust", &["o_w_id", "o_d_id", "o_c_id"])
        .build();
    cat.define("new_order")
        .col("no_w_id", ColumnType::Int)
        .col("no_d_id", ColumnType::Int)
        .col("no_o_id", ColumnType::Int)
        .pk(&["no_w_id", "no_d_id", "no_o_id"])
        .build();
    cat.define("order_line")
        .col("ol_w_id", ColumnType::Int)
        .col("ol_d_id", ColumnType::Int)
        .col("ol_o_id", ColumnType::Int)
        .col("ol_number", ColumnType::Int)
        .col("ol_i_id", ColumnType::Int)
        .col("ol_supply_w_id", ColumnType::Int)
        .col("ol_quantity", ColumnType::Int)
        .col("ol_amount", ColumnType::Double)
        .col("ol_delivery_d", ColumnType::Int)
        .pk(&["ol_w_id", "ol_d_id", "ol_o_id", "ol_number"])
        .build();
    cat.define("item")
        .col("i_id", ColumnType::Int)
        .col("i_name", ColumnType::Str)
        .col("i_price", ColumnType::Double)
        .pk(&["i_id"])
        .build();
    cat.define("stock")
        .col("s_w_id", ColumnType::Int)
        .col("s_i_id", ColumnType::Int)
        .col("s_quantity", ColumnType::Int)
        .col("s_ytd", ColumnType::Int)
        .col("s_order_cnt", ColumnType::Int)
        .pk(&["s_w_id", "s_i_id"])
        .build();
}

/// Load the initial database population.
pub fn load(ctx: &mut SimCtx, db: &Arc<Db>, scale: &TpccScale) -> vedb_core::Result<()> {
    let mut txn = db.begin();
    let mut ops = 0usize;
    let mut step = |db: &Arc<Db>, ctx: &mut SimCtx, txn: &mut vedb_core::TxnHandle| {
        ops += 1;
        if ops.is_multiple_of(200) {
            db.commit(ctx, txn).unwrap();
            *txn = db.begin();
        }
    };
    for i in 1..=scale.items {
        db.insert(
            ctx,
            &mut txn,
            "item",
            vec![
                Value::Int(i),
                Value::Str(format!("item-{i}")),
                Value::Double(1.0 + (i % 100) as f64),
            ],
        )?;
        step(db, ctx, &mut txn);
    }
    for w in 1..=scale.warehouses {
        db.insert(
            ctx,
            &mut txn,
            "warehouse",
            vec![
                Value::Int(w),
                Value::Str(format!("wh-{w}")),
                Value::Double(0.0),
            ],
        )?;
        step(db, ctx, &mut txn);
        for i in 1..=scale.items {
            db.insert(
                ctx,
                &mut txn,
                "stock",
                vec![
                    Value::Int(w),
                    Value::Int(i),
                    Value::Int(10 + (i * 7) % 91),
                    Value::Int(i % 50),
                    Value::Int(i % 10),
                ],
            )?;
            step(db, ctx, &mut txn);
        }
        for d in 1..=scale.districts {
            db.insert(
                ctx,
                &mut txn,
                "district",
                vec![
                    Value::Int(w),
                    Value::Int(d),
                    Value::Str(format!("d-{w}-{d}")),
                    Value::Double(0.0),
                    Value::Int(scale.initial_orders + 1),
                ],
            )?;
            step(db, ctx, &mut txn);
            for c in 1..=scale.customers {
                db.insert(
                    ctx,
                    &mut txn,
                    "customer",
                    vec![
                        Value::Int(w),
                        Value::Int(d),
                        Value::Int(c),
                        Value::Str(format!("cust-{w}-{d}-{c}")),
                        Value::Double(-10.0),
                        Value::Double(10.0),
                        Value::Int(1),
                        Value::Int(0),
                        Value::Str("x".repeat(64)),
                    ],
                )?;
                step(db, ctx, &mut txn);
            }
            for o in 1..=scale.initial_orders {
                let c = (o % scale.customers) + 1;
                let ol_cnt = 5 + (o % 6);
                db.insert(
                    ctx,
                    &mut txn,
                    "orders",
                    vec![
                        Value::Int(w),
                        Value::Int(d),
                        Value::Int(o),
                        Value::Int(c),
                        Value::Int(ol_cnt),
                        Value::Int(if o < scale.initial_orders * 7 / 10 {
                            1
                        } else {
                            0
                        }),
                        Value::Int(o),
                    ],
                )?;
                step(db, ctx, &mut txn);
                if o >= scale.initial_orders * 7 / 10 {
                    db.insert(
                        ctx,
                        &mut txn,
                        "new_order",
                        vec![Value::Int(w), Value::Int(d), Value::Int(o)],
                    )?;
                    step(db, ctx, &mut txn);
                }
                for ol in 1..=ol_cnt {
                    db.insert(
                        ctx,
                        &mut txn,
                        "order_line",
                        vec![
                            Value::Int(w),
                            Value::Int(d),
                            Value::Int(o),
                            Value::Int(ol),
                            Value::Int(((o * 7 + ol) % scale.items) + 1),
                            Value::Int(w),
                            Value::Int(5),
                            Value::Double(((o * 13 + ol * 7) % 100) as f64 + 0.5),
                            Value::Int(if o < scale.initial_orders * 7 / 10 {
                                o
                            } else {
                                0
                            }),
                        ],
                    )?;
                    step(db, ctx, &mut txn);
                }
            }
        }
    }
    db.commit(ctx, &mut txn)?;
    db.checkpoint(ctx)?;
    Ok(())
}

/// One TPC-C transaction according to the standard mix. Returns the
/// driver outcome (aborts on lock timeouts and the spec's 1% rollback).
pub fn run_transaction(ctx: &mut SimCtx, db: &Arc<Db>, scale: &TpccScale) -> OpOutcome {
    let roll = ctx.rng().gen_range(0..100u32);
    let r = if roll < 45 {
        new_order(ctx, db, scale)
    } else if roll < 88 {
        payment(ctx, db, scale)
    } else if roll < 92 {
        order_status(ctx, db, scale)
    } else if roll < 96 {
        delivery(ctx, db, scale)
    } else {
        stock_level(ctx, db, scale)
    };
    driver::outcome(r)
}

fn pick_wd(ctx: &mut SimCtx, scale: &TpccScale) -> (i64, i64) {
    let w = ctx.rng().gen_range(1..=scale.warehouses);
    let d = ctx.rng().gen_range(1..=scale.districts);
    (w, d)
}

/// The NewOrder transaction. Returns Ok(false) for the spec's 1% rollback.
pub fn new_order(ctx: &mut SimCtx, db: &Arc<Db>, scale: &TpccScale) -> vedb_core::Result<bool> {
    let (w, d) = pick_wd(ctx, scale);
    let c = (ctx.rng().nurand(1023, 1, scale.customers as u64)) as i64;
    let ol_cnt = ctx.rng().gen_range(5..=15i64);
    let rollback = ctx.rng().gen_bool(0.01);

    db.transact(ctx, |ctx, txn| {
        // Reads: warehouse, customer; district read+bump of d_next_o_id.
        // Lock order warehouse -> district -> customer, matching Payment, so
        // the two profiles cannot deadlock on row locks.
        db.get_by_pk(ctx, Some(&mut *txn), "warehouse", &[Value::Int(w)])?;
        let mut o_id = 0i64;
        db.update_by_pk(ctx, txn, "district", &[Value::Int(w), Value::Int(d)], |r| {
            o_id = r[4].as_int();
            r[4] = Value::Int(o_id + 1);
        })?;
        db.get_by_pk(
            ctx,
            Some(&mut *txn),
            "customer",
            &[Value::Int(w), Value::Int(d), Value::Int(c)],
        )?;
        db.insert(
            ctx,
            txn,
            "orders",
            vec![
                Value::Int(w),
                Value::Int(d),
                Value::Int(o_id),
                Value::Int(c),
                Value::Int(ol_cnt),
                Value::Int(0),
                Value::Int(o_id),
            ],
        )?;
        db.insert(
            ctx,
            txn,
            "new_order",
            vec![Value::Int(w), Value::Int(d), Value::Int(o_id)],
        )?;
        for ol in 1..=ol_cnt {
            let i_id = ctx.rng().nurand(8191, 1, scale.items as u64) as i64;
            let supply_w = if ctx.rng().gen_bool(0.99) || scale.warehouses == 1 {
                w
            } else {
                // Remote warehouse (1%).
                let mut other = ctx.rng().gen_range(1..=scale.warehouses);
                if other == w {
                    other = (other % scale.warehouses) + 1;
                }
                other
            };
            let qty = ctx.rng().gen_range(1..=10i64);
            let price = db
                .get_by_pk(ctx, Some(&mut *txn), "item", &[Value::Int(i_id)])?
                .map_or(1.0, |item| item[2].as_f64());
            db.update_by_pk(
                ctx,
                txn,
                "stock",
                &[Value::Int(supply_w), Value::Int(i_id)],
                |r| {
                    let q = r[2].as_int();
                    r[2] = Value::Int(if q >= qty + 10 { q - qty } else { q - qty + 91 });
                    r[3] = Value::Int(r[3].as_int() + qty);
                    r[4] = Value::Int(r[4].as_int() + 1);
                },
            )?;
            db.insert(
                ctx,
                txn,
                "order_line",
                vec![
                    Value::Int(w),
                    Value::Int(d),
                    Value::Int(o_id),
                    Value::Int(ol),
                    Value::Int(i_id),
                    Value::Int(supply_w),
                    Value::Int(qty),
                    Value::Double(price * qty as f64),
                    Value::Int(0),
                ],
            )?;
        }
        Ok(!rollback)
    })
}

/// The Payment transaction.
pub fn payment(ctx: &mut SimCtx, db: &Arc<Db>, scale: &TpccScale) -> vedb_core::Result<bool> {
    let (w, d) = pick_wd(ctx, scale);
    let c = ctx.rng().nurand(1023, 1, scale.customers as u64) as i64;
    let amount = ctx.rng().gen_range(1..=5000) as f64 / 100.0;
    let h_id = (ctx.rng().next_u64() >> 1) as i64;

    db.transact(ctx, |ctx, txn| {
        db.update_by_pk(ctx, txn, "warehouse", &[Value::Int(w)], |r| {
            r[2] = Value::Double(r[2].as_f64() + amount);
        })?;
        db.update_by_pk(ctx, txn, "district", &[Value::Int(w), Value::Int(d)], |r| {
            r[3] = Value::Double(r[3].as_f64() + amount);
        })?;
        db.update_by_pk(
            ctx,
            txn,
            "customer",
            &[Value::Int(w), Value::Int(d), Value::Int(c)],
            |r| {
                r[4] = Value::Double(r[4].as_f64() - amount);
                r[5] = Value::Double(r[5].as_f64() + amount);
                r[6] = Value::Int(r[6].as_int() + 1);
            },
        )?;
        db.insert(
            ctx,
            txn,
            "history",
            vec![
                Value::Int(h_id),
                Value::Int(w),
                Value::Int(d),
                Value::Int(c),
                Value::Double(amount),
            ],
        )?;
        Ok(true)
    })
}

/// The OrderStatus transaction (read-only).
pub fn order_status(ctx: &mut SimCtx, db: &Arc<Db>, scale: &TpccScale) -> vedb_core::Result<bool> {
    let (w, d) = pick_wd(ctx, scale);
    let c = ctx.rng().nurand(1023, 1, scale.customers as u64) as i64;
    db.get_by_pk(
        ctx,
        None,
        "customer",
        &[Value::Int(w), Value::Int(d), Value::Int(c)],
    )?;
    let orders = db.index_lookup(
        ctx,
        "orders",
        "idx_orders_cust",
        &[Value::Int(w), Value::Int(d), Value::Int(c)],
        100,
    )?;
    if let Some(last) = orders.iter().max_by_key(|o| o[2].as_int()) {
        let o_id = last[2].as_int();
        let ol_cnt = last[4].as_int();
        for ol in 1..=ol_cnt {
            db.get_by_pk(
                ctx,
                None,
                "order_line",
                &[
                    Value::Int(w),
                    Value::Int(d),
                    Value::Int(o_id),
                    Value::Int(ol),
                ],
            )?;
        }
    }
    Ok(true)
}

/// The Delivery transaction: deliver the oldest undelivered order of one
/// district (batched over all districts in the spec; one district here
/// keeps transactions short at small scale).
pub fn delivery(ctx: &mut SimCtx, db: &Arc<Db>, scale: &TpccScale) -> vedb_core::Result<bool> {
    let (w, d) = pick_wd(ctx, scale);
    let r = db.transact(ctx, |ctx, txn| {
        // Oldest new_order for (w, d): scan the PK prefix.
        let mut oldest: Option<i64> = None;
        db.scan_table(ctx, "new_order", |row| {
            if row[0].as_int() == w && row[1].as_int() == d {
                oldest = Some(row[2].as_int());
                false
            } else {
                true
            }
        })?;
        let Some(o_id) = oldest else { return Ok(true) };
        db.delete_by_pk(
            ctx,
            txn,
            "new_order",
            &[Value::Int(w), Value::Int(d), Value::Int(o_id)],
        )?;
        let mut c_id = 0;
        let mut ol_cnt = 0;
        db.update_by_pk(
            ctx,
            txn,
            "orders",
            &[Value::Int(w), Value::Int(d), Value::Int(o_id)],
            |r| {
                c_id = r[3].as_int();
                ol_cnt = r[4].as_int();
                r[5] = Value::Int(7); // carrier
            },
        )?;
        let mut total = 0.0;
        for ol in 1..=ol_cnt {
            let key = [
                Value::Int(w),
                Value::Int(d),
                Value::Int(o_id),
                Value::Int(ol),
            ];
            if let Some(line) = db.get_by_pk(ctx, Some(&mut *txn), "order_line", &key)? {
                total += line[7].as_f64();
                db.update_by_pk(ctx, txn, "order_line", &key, |r| {
                    r[8] = Value::Int(1);
                })?;
            }
        }
        db.update_by_pk(
            ctx,
            txn,
            "customer",
            &[Value::Int(w), Value::Int(d), Value::Int(c_id)],
            |r| {
                r[4] = Value::Double(r[4].as_f64() + total);
                r[7] = Value::Int(r[7].as_int() + 1);
            },
        )?;
        Ok(true)
    });
    match r {
        // Two deliveries may race for the same oldest order; the loser
        // finds it already gone and retries.
        Err(EngineError::NotFound) => Ok(false),
        r => r,
    }
}

/// The StockLevel transaction (read-only).
pub fn stock_level(ctx: &mut SimCtx, db: &Arc<Db>, scale: &TpccScale) -> vedb_core::Result<bool> {
    let (w, d) = pick_wd(ctx, scale);
    let threshold = ctx.rng().gen_range(10..=20i64);
    let district = db
        .get_by_pk(ctx, None, "district", &[Value::Int(w), Value::Int(d)])?
        .ok_or(EngineError::NotFound)?;
    let next_o = district[4].as_int();
    let mut low = 0usize;
    for o_id in (next_o - 20).max(1)..next_o {
        for ol in 1..=15i64 {
            let key = [
                Value::Int(w),
                Value::Int(d),
                Value::Int(o_id),
                Value::Int(ol),
            ];
            match db.get_by_pk(ctx, None, "order_line", &key)? {
                Some(line) => {
                    let i_id = line[4].as_int();
                    if let Some(stock) =
                        db.get_by_pk(ctx, None, "stock", &[Value::Int(w), Value::Int(i_id)])?
                    {
                        if stock[2].as_int() < threshold {
                            low += 1;
                        }
                    }
                }
                None => break,
            }
        }
    }
    let _ = low;
    Ok(true)
}

/// Consistency checks (TPC-C clause 3.3.2-ish, adapted): YTD sums line up
/// and order/new_order/order_line counts agree.
pub fn check_consistency(
    ctx: &mut SimCtx,
    db: &Arc<Db>,
    scale: &TpccScale,
) -> vedb_core::Result<()> {
    for w in 1..=scale.warehouses {
        let wh = db
            .get_by_pk(ctx, None, "warehouse", &[Value::Int(w)])?
            .ok_or(EngineError::NotFound)?;
        let mut d_ytd_sum = 0.0;
        for d in 1..=scale.districts {
            let district = db
                .get_by_pk(ctx, None, "district", &[Value::Int(w), Value::Int(d)])?
                .ok_or(EngineError::NotFound)?;
            d_ytd_sum += district[3].as_f64();
            // d_next_o_id - 1 == max(o_id)
            let next_o = district[4].as_int();
            let mut max_o = 0;
            db.scan_table(ctx, "orders", |row| {
                if row[0].as_int() == w && row[1].as_int() == d {
                    max_o = max_o.max(row[2].as_int());
                }
                true
            })?;
            if max_o + 1 != next_o {
                return Err(EngineError::Query(format!(
                    "district ({w},{d}): d_next_o_id {next_o} != max(o_id)+1 {}",
                    max_o + 1
                )));
            }
        }
        if (wh[2].as_f64() - d_ytd_sum).abs() > 1e-6 {
            return Err(EngineError::Query(format!(
                "warehouse {w}: w_ytd {} != sum(d_ytd) {d_ytd_sum}",
                wh[2].as_f64()
            )));
        }
    }
    Ok(())
}
