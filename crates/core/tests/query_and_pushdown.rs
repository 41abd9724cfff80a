//! Query executor and push-down framework integration tests: correctness
//! (push-down must return exactly the local result on every shape) and the
//! paper's performance claims (push-down beats engine-local execution for
//! scan-heavy queries; EBP-hosted fragments beat PageStore-hosted ones).

use std::sync::Arc;

use vedb_core::catalog::ColumnType;
use vedb_core::db::{Db, DbConfig, StorageFabric};
use vedb_core::ebp::EbpConfig;
use vedb_core::query::expr::CmpOp;
use vedb_core::query::{execute, AggExpr, Expr, Plan, QuerySession};
use vedb_core::{Row, Value};
use vedb_sim::{ClusterSpec, SimCtx, VTime};

fn fabric() -> StorageFabric {
    StorageFabric::build(ClusterSpec::paper_default(), 64 << 20, 512 * 1024)
}

/// orders(o_id, o_cust, o_amount, o_region) + lineitems(l_id, l_oid, l_qty)
fn setup(ctx: &mut SimCtx, f: &StorageFabric, cfg: DbConfig, rows: i64) -> Arc<Db> {
    let db = Db::open(ctx, f, cfg).unwrap();
    db.define_schema(|cat| {
        cat.define("orders")
            .col("o_id", ColumnType::Int)
            .col("o_cust", ColumnType::Int)
            .col("o_amount", ColumnType::Double)
            .col("o_region", ColumnType::Str)
            .pk(&["o_id"])
            .build();
        cat.define("lineitems")
            .col("l_id", ColumnType::Int)
            .col("l_oid", ColumnType::Int)
            .col("l_qty", ColumnType::Int)
            .pk(&["l_id"])
            .build();
    });
    db.create_tables(ctx).unwrap();
    let regions = ["north", "south", "east", "west"];
    let mut txn = db.begin();
    for i in 0..rows {
        db.insert(
            ctx,
            &mut txn,
            "orders",
            vec![
                Value::Int(i),
                Value::Int(i % 50),
                Value::Double((i % 997) as f64 * 1.5),
                Value::Str(regions[(i % 4) as usize].into()),
            ],
        )
        .unwrap();
        if i % 100 == 0 {
            db.commit(ctx, &mut txn).unwrap();
            txn = db.begin();
        }
    }
    for i in 0..rows / 2 {
        db.insert(
            ctx,
            &mut txn,
            "lineitems",
            vec![Value::Int(i), Value::Int(i % rows), Value::Int((i % 7) + 1)],
        )
        .unwrap();
    }
    db.commit(ctx, &mut txn).unwrap();
    db.checkpoint(ctx).unwrap();
    db
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

#[test]
fn filter_and_projection() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 7);
    let db = setup(&mut ctx, &f, DbConfig::builder().build().unwrap(), 500);
    let plan = Plan::SeqScan {
        table: "orders".into(),
        filter: Some(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(10))),
        project: Some(vec![Expr::col(0), Expr::mul(Expr::col(2), Expr::dbl(2.0))]),
    };
    let rows = execute(&mut ctx, &db, &QuerySession::default(), &plan).unwrap();
    assert_eq!(rows.len(), 10);
    assert_eq!(rows[3][0], Value::Int(3));
    assert_eq!(rows[3][1], Value::Double(9.0));
}

#[test]
fn aggregation_group_by() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 7);
    let db = setup(&mut ctx, &f, DbConfig::builder().build().unwrap(), 400);
    // SELECT o_region, COUNT(*), SUM(o_amount) FROM orders GROUP BY o_region
    let plan = Plan::scan("orders").agg(
        vec![3],
        vec![
            AggExpr::count_star(),
            AggExpr::sum(Expr::col(2)),
            AggExpr::max(Expr::col(0)),
        ],
    );
    let rows = execute(&mut ctx, &db, &QuerySession::default(), &plan).unwrap();
    assert_eq!(rows.len(), 4);
    let total: i64 = rows.iter().map(|r| r[1].as_int()).sum();
    assert_eq!(total, 400);
    for r in &rows {
        assert!(r[3].as_int() >= 396, "every region sees a high max id");
    }
}

#[test]
fn joins_hash_and_nested_loop_agree() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 7);
    let db = setup(&mut ctx, &f, DbConfig::builder().build().unwrap(), 200);
    let hash = Plan::scan("orders").hash_join(Plan::scan("lineitems"), vec![0], vec![1]);
    let nl = Plan::NestLoopJoin {
        left: Box::new(Plan::scan("orders")),
        right: Box::new(Plan::scan("lineitems")),
        on: Expr::eq(Expr::col(0), Expr::col(5)), // o_id == l_oid
        project: None,
    };
    let s = QuerySession::default();
    let h = execute(&mut ctx, &db, &s, &hash).unwrap();
    let n = execute(&mut ctx, &db, &s, &nl).unwrap();
    assert_eq!(h.len(), 100);
    assert_eq!(sorted(h), sorted(n));
}

#[test]
fn sort_and_limit() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 7);
    let db = setup(&mut ctx, &f, DbConfig::builder().build().unwrap(), 300);
    let plan = Plan::scan("orders").top_k(vec![(2, true), (0, false)], 5);
    let rows = execute(&mut ctx, &db, &QuerySession::default(), &plan).unwrap();
    assert_eq!(rows.len(), 5);
    for w in rows.windows(2) {
        assert!(w[0][2].as_f64() >= w[1][2].as_f64());
    }
}

#[test]
fn pushdown_matches_local_execution() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 7);
    let cfg = DbConfig::builder()
        .bp_pages(32)
        .ebp(EbpConfig {
            capacity_bytes: 32 << 20,
            ..Default::default()
        })
        .build()
        .unwrap();
    let db = setup(&mut ctx, &f, cfg, 3000);
    let local = QuerySession::default();
    let pq = QuerySession::with_pushdown();

    let plans = [
        // Plain filtered scan.
        Plan::SeqScan {
            table: "orders".into(),
            filter: Some(Expr::cmp(CmpOp::Ge, Expr::col(2), Expr::dbl(700.0))),
            project: None,
        },
        // Projection push-down.
        Plan::SeqScan {
            table: "orders".into(),
            filter: Some(Expr::Like(Box::new(Expr::col(3)), "n%".into())),
            project: Some(vec![Expr::col(0), Expr::col(3)]),
        },
        // Aggregation push-down with all functions.
        Plan::scan("orders").agg(
            vec![3],
            vec![
                AggExpr::count_star(),
                AggExpr::sum(Expr::col(2)),
                AggExpr::avg(Expr::col(2)),
                AggExpr::min(Expr::col(0)),
                AggExpr::max(Expr::col(0)),
            ],
        ),
        // Global (no group-by) aggregate.
        Plan::scan_where("orders", Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::int(25))).agg(
            vec![],
            vec![AggExpr::count_star(), AggExpr::sum(Expr::col(2))],
        ),
    ];
    for (i, plan) in plans.iter().enumerate() {
        let a = execute(&mut ctx, &db, &local, plan).unwrap();
        let b = execute(&mut ctx, &db, &pq, plan).unwrap();
        assert_eq!(
            sorted(a),
            sorted(b),
            "plan {i} must agree local vs pushdown"
        );
    }
}

#[test]
fn pushdown_is_faster_and_uses_storage_cpu() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 7);
    // Tiny pool: engine-local scan must fetch remotely.
    let cfg = DbConfig::builder()
        .bp_pages(16)
        .ebp(EbpConfig {
            capacity_bytes: 64 << 20,
            ..Default::default()
        })
        .build()
        .unwrap();
    let db = setup(&mut ctx, &f, cfg, 6000);
    // Aggregation over everything: the classic push-down win (Q1/Q6-like).
    let plan = Plan::scan("orders").agg(
        vec![3],
        vec![AggExpr::count_star(), AggExpr::sum(Expr::col(2))],
    );
    // Warm-up (fills EBP through evictions).
    let s = QuerySession::default();
    execute(&mut ctx, &db, &s, &plan).unwrap();

    let t0 = ctx.now();
    execute(&mut ctx, &db, &s, &plan).unwrap();
    let local_time = ctx.now() - t0;

    let astore_cpu_before: VTime = db
        .env()
        .astore_nodes
        .iter()
        .map(|n| n.cpu.total_busy())
        .sum();
    let t1 = ctx.now();
    execute(&mut ctx, &db, &QuerySession::with_pushdown(), &plan).unwrap();
    let pq_time = ctx.now() - t1;
    let astore_cpu_after: VTime = db
        .env()
        .astore_nodes
        .iter()
        .map(|n| n.cpu.total_busy())
        .sum();

    assert!(
        pq_time.as_nanos() * 2 < local_time.as_nanos(),
        "pushdown ({pq_time}) should be >2x faster than local ({local_time})"
    );
    assert!(
        astore_cpu_after > astore_cpu_before,
        "pushdown must consume AStore server CPU (the idle cores of §VI-B)"
    );
}

#[test]
fn index_lookup_plan() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 7);
    let db = Db::open(&mut ctx, &f, DbConfig::builder().build().unwrap()).unwrap();
    db.define_schema(|cat| {
        cat.define("t")
            .col("id", ColumnType::Int)
            .col("grp", ColumnType::Int)
            .pk(&["id"])
            .index("by_grp", &["grp"])
            .build();
    });
    db.create_tables(&mut ctx).unwrap();
    let mut txn = db.begin();
    for i in 0..100 {
        db.insert(
            &mut ctx,
            &mut txn,
            "t",
            vec![Value::Int(i), Value::Int(i % 10)],
        )
        .unwrap();
    }
    db.commit(&mut ctx, &mut txn).unwrap();
    let plan = Plan::IndexLookup {
        table: "t".into(),
        index: "by_grp".into(),
        prefix: vec![Value::Int(3)],
        filter: Some(Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(50))),
        project: None,
    };
    let rows = execute(&mut ctx, &db, &QuerySession::default(), &plan).unwrap();
    assert_eq!(rows.len(), 5); // 53,63,73,83,93
    assert!(rows
        .iter()
        .all(|r| r[1] == Value::Int(3) && r[0].as_int() > 50));
}

/// Task order is a function of the data, not of `RandomState`: one seed on
/// freshly built deployments returns the same rows in the same order with
/// the same `f64` bits, at the same virtual time, having done the same
/// work. With three or more tasks, hash-ordered dispatch fails this — rows
/// of a plain scan come back task by task, and `SUM`/`AVG` add the tasks'
/// partial sums in dispatch order.
#[test]
fn pushed_results_repeat_bit_for_bit_across_deployments() {
    let run = || {
        // Small AStore slots spread the EBP's segments over the AStore
        // nodes, so the fragment splits into one task per node.
        let f = fabric();
        let mut ctx = SimCtx::new(1, 7);
        let cfg = DbConfig::builder()
            .bp_pages(16)
            .ebp(EbpConfig {
                capacity_bytes: 64 << 20,
                ..Default::default()
            })
            .build()
            .unwrap();
        let db = setup(&mut ctx, &f, cfg, 6000);
        // More orders than one EBP segment holds, so the EBP's segments —
        // and with them the fragment's tasks — spread over the AStore nodes.
        for batch in (6000..20000i64).step_by(100) {
            let mut txn = db.begin();
            for i in batch..batch + 100 {
                let amount = Value::Double((i % 997) as f64 * 1.5);
                let row = vec![
                    Value::Int(i),
                    Value::Int(i % 50),
                    amount,
                    Value::Str("north".into()),
                ];
                db.insert(&mut ctx, &mut txn, "orders", row).unwrap();
            }
            db.commit(&mut ctx, &mut txn).unwrap();
        }
        db.checkpoint(&mut ctx).unwrap();
        // Warm-up: a local scan through the tiny pool fills the EBP.
        execute(
            &mut ctx,
            &db,
            &QuerySession::default(),
            &Plan::scan("orders"),
        )
        .unwrap();

        let pq = QuerySession::with_pushdown();
        let rpcs = db.env().metrics.counter("rdma", "rpc_calls");
        let rpcs_before = rpcs.get();
        let scan = Plan::SeqScan {
            table: "orders".into(),
            filter: Some(Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::int(5))),
            project: Some(vec![Expr::col(0)]),
        };
        let scanned = execute(&mut ctx, &db, &pq, &scan).unwrap();
        let tasks = rpcs.get() - rpcs_before;
        // Inexact addends: the sum depends on the order they are added in.
        let tenth = Expr::mul(Expr::col(2), Expr::dbl(0.1));
        let sums = Plan::scan("orders").agg(
            vec![3],
            vec![AggExpr::sum(tenth.clone()), AggExpr::avg(tenth)],
        );
        let summed = execute(&mut ctx, &db, &pq, &sums).unwrap();
        // `{:?}` of an `f64` is the shortest text that reads back to the
        // same bits, so equal text is equal bits.
        let answers = format!("{scanned:?} {summed:?}");
        (tasks, answers, ctx.now(), db.env().metrics.counter_values())
    };
    let first = run();
    assert!(
        first.0 >= 3,
        "the scan must split into >= 3 tasks, got {}",
        first.0
    );
    for _ in 0..3 {
        assert_eq!(run(), first);
    }
}

/// A row as text with a NaN's bits spelled out, so two NaNs compare by
/// their bits and `-0.0` stays apart from `0.0`.
fn show(rows: &[Row]) -> Vec<String> {
    let value = |v: &Value| match v {
        Value::Double(d) if d.is_nan() => format!("NaN({:#x})", d.to_bits()),
        v => format!("{v:?}"),
    };
    let row = |r: &Row| r.iter().map(value).collect::<Vec<_>>().join(" ");
    rows.iter().map(row).collect()
}

/// Keys whose encodings are easy to confuse: `Int 1` against `Double 1.0`,
/// `0.0` against `-0.0`, NaNs of two payloads, NULL and strings sharing a
/// prefix. Joins and `GROUP BY`s on them return these rows, in this order,
/// with and without push-down.
#[test]
fn edge_keys_join_and_group_as_their_encodings_do() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 7);
    let db = Db::open(&mut ctx, &f, DbConfig::builder().build().unwrap()).unwrap();
    db.define_schema(|cat| {
        for name in ["a", "b"] {
            cat.define(name)
                .col("id", ColumnType::Int)
                .col("k", ColumnType::Double)
                .col("s", ColumnType::Str)
                .pk(&["id"])
                .build();
        }
    });
    db.create_tables(&mut ctx).unwrap();
    let dbl = Value::Double;
    let nan = f64::NAN;
    let other_nan = f64::from_bits(0x7ff8_0000_0000_0001);
    let a = [
        (Value::Int(1), "ab"),
        (dbl(1.0), "abc"),
        (dbl(0.0), "a"),
        (dbl(-0.0), "ab"),
        (dbl(nan), "a\0"),
        (dbl(nan), "abc"),
        (Value::Int(1), "a"),
        (Value::Null, "ab"),
        (dbl(-0.0), ""),
        (dbl(other_nan), "ab"),
    ];
    let b = [
        (dbl(1.0), "a"),
        (Value::Int(1), "abc"),
        (dbl(-0.0), "a\0"),
        (dbl(nan), "ab"),
        (Value::Null, "abcd"),
        (dbl(0.0), ""),
    ];
    let mut txn = db.begin();
    for (table, rows) in [("a", &a[..]), ("b", &b[..])] {
        for (id, (k, s)) in rows.iter().enumerate() {
            let row = vec![Value::Int(id as i64), k.clone(), Value::Str((*s).into())];
            db.insert(&mut ctx, &mut txn, table, row).unwrap();
        }
    }
    db.commit(&mut ctx, &mut txn).unwrap();
    db.checkpoint(&mut ctx).unwrap();

    // Joins emit (a.id, b.id) in probe order, each probe row's build rows
    // in build order; groups come out in encoded-key order.
    let ids = || vec![Expr::col(0), Expr::col(3)];
    let join = |right: &str, keys: Vec<usize>| {
        let scan = Plan::scan("a").hash_join(Plan::scan(right), keys.clone(), keys);
        scan.project(ids())
    };
    let cases: [(Plan, &[&str]); 6] = [
        (
            join("b", vec![1]),
            &[
                "Int(1) Int(0)",
                "Int(0) Int(1)",
                "Int(6) Int(1)",
                "Int(3) Int(2)",
                "Int(8) Int(2)",
                "Int(4) Int(3)",
                "Int(5) Int(3)",
                "Int(2) Int(5)",
            ],
        ),
        (
            join("b", vec![2]),
            &[
                "Int(2) Int(0)",
                "Int(6) Int(0)",
                "Int(1) Int(1)",
                "Int(5) Int(1)",
                "Int(4) Int(2)",
                "Int(0) Int(3)",
                "Int(3) Int(3)",
                "Int(7) Int(3)",
                "Int(9) Int(3)",
                "Int(8) Int(5)",
            ],
        ),
        (
            join("a", vec![1, 2]),
            &[
                "Int(0) Int(0)",
                "Int(1) Int(1)",
                "Int(2) Int(2)",
                "Int(3) Int(3)",
                "Int(4) Int(4)",
                "Int(5) Int(5)",
                "Int(6) Int(6)",
                "Int(8) Int(8)",
                "Int(9) Int(9)",
            ],
        ),
        (
            Plan::scan("a").agg(
                vec![1],
                vec![AggExpr::count_star(), AggExpr::sum(Expr::col(0))],
            ),
            &[
                "Null Int(1) Double(7.0)",
                "Int(1) Int(2) Double(6.0)",
                "Double(0.0) Int(1) Double(2.0)",
                "Double(-0.0) Int(2) Double(11.0)",
                "Double(1.0) Int(1) Double(1.0)",
                "NaN(0x7ff8000000000000) Int(2) Double(9.0)",
                "NaN(0x7ff8000000000001) Int(1) Double(9.0)",
            ],
        ),
        (
            Plan::scan("a").agg(vec![2], vec![AggExpr::count_star()]),
            &[
                "Str(\"\") Int(1)",
                "Str(\"a\") Int(2)",
                "Str(\"a\\0\") Int(1)",
                "Str(\"ab\") Int(4)",
                "Str(\"abc\") Int(2)",
            ],
        ),
        (
            Plan::scan("a").agg(vec![1, 2], vec![AggExpr::count_star()]),
            &[
                "Null Str(\"ab\") Int(1)",
                "Int(1) Str(\"a\") Int(1)",
                "Int(1) Str(\"ab\") Int(1)",
                "Double(0.0) Str(\"a\") Int(1)",
                "Double(-0.0) Str(\"\") Int(1)",
                "Double(-0.0) Str(\"ab\") Int(1)",
                "Double(1.0) Str(\"abc\") Int(1)",
                "NaN(0x7ff8000000000000) Str(\"a\\0\") Int(1)",
                "NaN(0x7ff8000000000000) Str(\"abc\") Int(1)",
                "NaN(0x7ff8000000000001) Str(\"ab\") Int(1)",
            ],
        ),
    ];
    let pushed = QuerySession {
        pushdown: true,
        pushdown_min_pages: 0,
    };
    let rpcs = db.env().metrics.counter("rdma", "rpc_calls");
    for (i, (plan, expect)) in cases.iter().enumerate() {
        for session in [&QuerySession::default(), &pushed] {
            let before = rpcs.get();
            let rows = execute(&mut ctx, &db, session, plan).unwrap();
            let where_ = if session.pushdown { "pushed" } else { "local" };
            assert_eq!(show(&rows), *expect, "plan {i}, {where_}");
            assert_eq!(rpcs.get() > before, session.pushdown, "plan {i}, {where_}");
        }
    }
}

/// MIN and MAX over values that tie or do not compare — a NaN against a
/// number, `Int 1` against `Double 1.0`, `0.0` against `-0.0`, a number
/// against a string — take the extremes of `Plan::Sort`'s order whichever
/// order the rows arrive in, with and without push-down.
#[test]
fn min_and_max_do_not_depend_on_row_order() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 7);
    let db = Db::open(&mut ctx, &f, DbConfig::builder().build().unwrap()).unwrap();
    db.define_schema(|cat| {
        for name in ["fwd", "rev"] {
            cat.define(name)
                .col("id", ColumnType::Int)
                .col("g", ColumnType::Int)
                .col("v", ColumnType::Double)
                .pk(&["id"])
                .build();
        }
    });
    db.create_tables(&mut ctx).unwrap();
    let dbl = Value::Double;
    let groups = [
        [dbl(f64::NAN), dbl(1.0)],
        [Value::Int(1), dbl(1.0)],
        [dbl(0.0), dbl(-0.0)],
        [Value::Int(5), Value::Str("a".into())],
    ];
    let mut txn = db.begin();
    let mut id = 0;
    for (g, vals) in groups.iter().enumerate() {
        for (table, order) in [("fwd", [0, 1]), ("rev", [1, 0])] {
            for k in order {
                let row = vec![Value::Int(id), Value::Int(g as i64), vals[k].clone()];
                db.insert(&mut ctx, &mut txn, table, row).unwrap();
                id += 1;
            }
        }
    }
    db.commit(&mut ctx, &mut txn).unwrap();
    db.checkpoint(&mut ctx).unwrap();

    let expect = [
        "Int(0) Double(1.0) NaN(0x7ff8000000000000)",
        "Int(1) Int(1) Double(1.0)",
        "Int(2) Double(-0.0) Double(0.0)",
        "Int(3) Int(5) Str(\"a\")",
    ];
    let pushed = QuerySession {
        pushdown: true,
        pushdown_min_pages: 0,
    };
    for table in ["fwd", "rev"] {
        let plan = Plan::scan(table).agg(
            vec![1],
            vec![AggExpr::min(Expr::col(2)), AggExpr::max(Expr::col(2))],
        );
        for session in [&QuerySession::default(), &pushed] {
            let rows = execute(&mut ctx, &db, session, &plan).unwrap();
            let where_ = if session.pushdown { "pushed" } else { "local" };
            assert_eq!(show(&rows), expect, "{table}, {where_}");
        }
    }
}
