//! The streaming, demand-driven executor against a naive interpreter that
//! materializes every column of every row between operators: same rows, same
//! order, with and without push-down. Plus the two answers the materializing
//! executor got wrong: NULL join keys and sorting without a total order.

use std::cell::OnceCell;
use std::cmp::Ordering;
use std::sync::Arc;

use proptest::prelude::*;
use vedb_core::catalog::ColumnType;
use vedb_core::db::{Db, DbConfig, StorageFabric};
use vedb_core::ebp::EbpConfig;
use vedb_core::query::expr::{ArithOp, CmpOp};
use vedb_core::query::{execute, AggExpr, AggFunc, Expr, Plan, QuerySession};
use vedb_core::row::encode_row;
use vedb_core::{Row, Value};
use vedb_sim::{run_clients, ClusterSpec, SimCtx, VTime};

/// One deployment per test (each runs on its own thread): with one client
/// the page locations a pushed scan's row order follows stay put between a
/// query and its reference. Clients that share a `Db` share it under
/// `run_clients` (`clients_sharing_one_db_each_scan_every_row`).
fn deployment() -> (Arc<Db>, VTime) {
    thread_local! {
        static DEPLOYMENT: OnceCell<(Arc<Db>, VTime)> = const { OnceCell::new() };
    }
    DEPLOYMENT.with(|d| d.get_or_init(load).clone())
}

/// `t1(a, b, c, d, pad)` and `t2(x, y, z, pad)`: `b` and `y` are join keys
/// with NULLs on both sides, `c` holds halves (sums are exact in any order),
/// `pad` makes each table span more than the four pages push-down asks for.
fn load() -> (Arc<Db>, VTime) {
    let f = StorageFabric::build(ClusterSpec::paper_default(), 64 << 20, 512 * 1024);
    let mut ctx = SimCtx::new(1, 7);
    let cfg = DbConfig::builder()
        .bp_pages(16)
        .ebp(EbpConfig {
            capacity_bytes: 32 << 20,
            ..Default::default()
        })
        .build()
        .unwrap();
    let db = Db::open(&mut ctx, &f, cfg).unwrap();
    db.define_schema(|cat| {
        cat.define("t1")
            .col("a", ColumnType::Int)
            .col("b", ColumnType::Int)
            .col("c", ColumnType::Double)
            .col("d", ColumnType::Str)
            .col("pad", ColumnType::Str)
            .pk(&["a"])
            .build();
        cat.define("t2")
            .col("x", ColumnType::Int)
            .col("y", ColumnType::Int)
            .col("z", ColumnType::Str)
            .col("pad", ColumnType::Str)
            .pk(&["x"])
            .build();
    });
    db.create_tables(&mut ctx).unwrap();
    let key = |i: i64, m: i64| match i % 7 {
        0 => Value::Null,
        _ => Value::Int(i * 13 % m),
    };
    let pad = |i: i64| Value::Str(format!("{i:0>700}"));
    let mut txn = db.begin();
    for i in 0..120 {
        let c = Value::Double((i % 17) as f64 * 0.5);
        let d = Value::Str(format!("d{}", i % 9));
        let row = vec![Value::Int(i), key(i, 40), c, d, pad(i)];
        db.insert(&mut ctx, &mut txn, "t1", row).unwrap();
    }
    for i in 0..100 {
        let z = match i % 5 {
            0 => Value::Null,
            _ => Value::Str(format!("z{}", i % 11)),
        };
        let row = vec![Value::Int(i), key(i + 3, 40), z, pad(i)];
        db.insert(&mut ctx, &mut txn, "t2", row).unwrap();
    }
    db.commit(&mut ctx, &mut txn).unwrap();
    db.checkpoint(&mut ctx).unwrap();
    for table in ["t1", "t2"] {
        let space = db.with_table(table, |t| t.space_no).unwrap();
        assert!(db.space_pages(space) >= 4, "{table} must be pushable");
    }
    (db, ctx.now())
}

fn client() -> (Arc<Db>, SimCtx) {
    let (db, loaded_at) = deployment();
    let mut ctx = SimCtx::new(1, 7);
    ctx.wait_until(loaded_at);
    (db, ctx)
}

// ------------------------------------------------- the naive interpreter

/// More rows than this in any operator's output and the case is skipped.
const MAX_ROWS: usize = 4000;

/// NULL first, then by value; a column here holds one type.
fn naive_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Null, _) => Ordering::Less,
        (_, Value::Null) => Ordering::Greater,
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        _ => a.as_f64().total_cmp(&b.as_f64()),
    }
}

fn filter_project(rows: Vec<Row>, filter: &Option<Expr>, project: &Option<Vec<Expr>>) -> Vec<Row> {
    let kept = rows
        .into_iter()
        .filter(|r| filter.as_ref().is_none_or(|f| f.eval_bool(r).unwrap()));
    kept.map(|r| match project {
        Some(exprs) => exprs.iter().map(|e| e.eval(&r).unwrap()).collect(),
        None => r,
    })
    .collect()
}

fn aggregate(func: AggFunc, inputs: &[Value]) -> Value {
    let vals: Vec<&Value> = inputs.iter().filter(|v| !v.is_null()).collect();
    let sum = || vals.iter().map(|v| v.as_f64()).sum::<f64>();
    let extreme = |want: Ordering| {
        let best = vals
            .iter()
            .copied()
            .reduce(|b, v| if naive_cmp(v, b) == want { v } else { b });
        best.cloned().unwrap_or(Value::Null)
    };
    match func {
        AggFunc::CountStar => Value::Int(inputs.len() as i64),
        AggFunc::Count => Value::Int(vals.len() as i64),
        _ if vals.is_empty() => Value::Null,
        AggFunc::Sum => Value::Double(sum()),
        AggFunc::Avg => Value::Double(sum() / vals.len() as f64),
        AggFunc::Min => extreme(Ordering::Less),
        AggFunc::Max => extreme(Ordering::Greater),
    }
}

/// `plan` over fully built rows, every operator's output a `Vec<Row>`.
/// `base` is a table's rows in the order the session's scan returns them.
/// `None` when an intermediate result outgrows [`MAX_ROWS`].
fn interpret(plan: &Plan, base: &mut dyn FnMut(&str) -> Vec<Row>) -> Option<Vec<Row>> {
    let rows = match plan {
        Plan::SeqScan {
            table,
            filter,
            project,
        } => filter_project(base(table), filter, project),
        Plan::Map {
            input,
            filter,
            project,
        } => filter_project(interpret(input, base)?, filter, project),
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            filter,
            project,
        } => {
            let (lrows, rrows) = (interpret(left, base)?, interpret(right, base)?);
            let key = |r: &Row, cols: &[usize]| -> Option<Vec<Value>> {
                let key: Vec<Value> = cols.iter().map(|i| r[*i].clone()).collect();
                key.iter().all(|v| !v.is_null()).then_some(key)
            };
            let mut joined = Vec::new();
            for r in &rrows {
                for l in &lrows {
                    let (lk, rk) = (key(l, left_keys), key(r, right_keys));
                    if lk.is_some() && lk == rk {
                        joined.push([l.clone(), r.clone()].concat());
                    }
                }
            }
            filter_project(joined, filter, project)
        }
        Plan::NestLoopJoin {
            left,
            right,
            on,
            project,
        } => {
            let (lrows, rrows) = (interpret(left, base)?, interpret(right, base)?);
            let pairs = lrows
                .iter()
                .flat_map(|l| rrows.iter().map(|r| [l.clone(), r.clone()].concat()));
            filter_project(pairs.collect(), &Some(on.clone()), project)
        }
        Plan::HashAgg {
            input,
            group_by,
            aggs,
        } => {
            let mut groups: Vec<(Vec<Value>, Vec<Row>)> = Vec::new();
            for r in interpret(input, base)? {
                let key: Vec<Value> = group_by.iter().map(|i| r[*i].clone()).collect();
                // `Value`'s `==` would split a group on a NaN; none is made.
                match groups.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, members)) => members.push(r),
                    None => groups.push((key, vec![r])),
                }
            }
            // Groups come out in the byte order of their encoded key.
            groups.sort_by_key(|(key, _)| {
                let mut bytes = Vec::new();
                encode_row(key, &mut bytes);
                bytes
            });
            let finish = |(mut out, members): (Vec<Value>, Vec<Row>)| {
                for a in aggs {
                    let inputs: Vec<Value> =
                        members.iter().map(|r| a.expr.eval(r).unwrap()).collect();
                    out.push(aggregate(a.func, &inputs));
                }
                out
            };
            groups.into_iter().map(finish).collect()
        }
        Plan::Sort { input, by, limit } => {
            let mut rows = interpret(input, base)?;
            rows.sort_by(|a, b| {
                let keys = by.iter().map(|(col, desc)| {
                    let ord = naive_cmp(&a[*col], &b[*col]);
                    if *desc {
                        ord.reverse()
                    } else {
                        ord
                    }
                });
                keys.fold(Ordering::Equal, Ordering::then)
            });
            rows.truncate(limit.unwrap_or(usize::MAX));
            rows
        }
        Plan::IndexLookup { .. } => unreachable!("not generated"),
    };
    (rows.len() <= MAX_ROWS).then_some(rows)
}

// ----------------------------------------------------- the plan generator

#[derive(Clone, Copy, PartialEq)]
enum Ty {
    Int,
    Dbl,
    Str,
}

/// The generated entropy, one bounded draw at a time; zeros once it runs
/// out, which every choice below maps to its smallest plan.
struct Draws<'a>(std::slice::Iter<'a, u32>);

impl Draws<'_> {
    fn below(&mut self, bound: usize) -> usize {
        self.0.next().copied().unwrap_or(0) as usize % bound
    }

    fn pick(&mut self, tys: &[Ty], want: impl Fn(Ty) -> bool) -> Option<usize> {
        let fits: Vec<usize> = (0..tys.len()).filter(|i| want(tys[*i])).collect();
        (!fits.is_empty()).then(|| fits[self.below(fits.len())])
    }

    fn predicate(&mut self, tys: &[Ty]) -> Expr {
        let col = self.below(tys.len());
        let by_type = match tys[col] {
            Ty::Int => Expr::cmp(
                [CmpOp::Lt, CmpOp::Ge, CmpOp::Ne][self.below(3)],
                Expr::col(col),
                Expr::int(self.below(60) as i64),
            ),
            Ty::Dbl => Expr::cmp(CmpOp::Gt, Expr::col(col), Expr::dbl(self.below(8) as f64)),
            Ty::Str => Expr::Like(
                Box::new(Expr::col(col)),
                ["%1%", "d%", "%3"][self.below(3)].into(),
            ),
        };
        match self.below(4) {
            2 => Expr::and(by_type, self.predicate(tys)),
            3 => Expr::or(by_type, Expr::Not(Box::new(self.predicate(tys)))),
            _ => by_type,
        }
    }

    fn filter(&mut self, tys: &[Ty]) -> Option<Expr> {
        (self.below(2) == 1).then(|| self.predicate(tys))
    }

    /// One to four output columns: a column, or the sum of two numeric ones.
    fn project(&mut self, tys: &mut Vec<Ty>) -> Option<Vec<Expr>> {
        if self.below(2) == 0 {
            return None;
        }
        let mut out = Vec::new();
        let exprs = (0..1 + self.below(4)).map(|_| {
            let col = self.below(tys.len());
            let other = self
                .pick(tys, |t| t != Ty::Str)
                .filter(|_| tys[col] != Ty::Str);
            match other.filter(|_| self.below(3) == 0) {
                Some(other) => {
                    let both_int = tys[col] == Ty::Int && tys[other] == Ty::Int;
                    out.push(if both_int { Ty::Int } else { Ty::Dbl });
                    let (a, b) = (Expr::col(col), Expr::col(other));
                    Expr::Arith(ArithOp::Add, Box::new(a), Box::new(b))
                }
                None => {
                    out.push(tys[col]);
                    Expr::col(col)
                }
            }
        });
        let exprs = exprs.collect();
        *tys = out;
        Some(exprs)
    }

    fn scan(&mut self) -> (Plan, Vec<Ty>) {
        let (table, mut tys) = match self.below(2) {
            0 => ("t1", vec![Ty::Int, Ty::Int, Ty::Dbl, Ty::Str, Ty::Str]),
            _ => ("t2", vec![Ty::Int, Ty::Int, Ty::Str, Ty::Str]),
        };
        let filter = self.filter(&tys);
        let project = self.project(&mut tys);
        let table = table.into();
        (
            Plan::SeqScan {
                table,
                filter,
                project,
            },
            tys,
        )
    }

    /// A plan at most `depth` operators high, with its output column types.
    fn plan(&mut self, depth: usize) -> (Plan, Vec<Ty>) {
        if depth == 0 {
            return self.scan();
        }
        let (input, mut tys) = self.plan(depth - 1);
        match self.below(6) {
            0 => (input, tys),
            1 => {
                let filter = self.filter(&tys);
                let project = self.project(&mut tys);
                let input = Box::new(input);
                (
                    Plan::Map {
                        input,
                        filter,
                        project,
                    },
                    tys,
                )
            }
            2 => {
                let n_keys = self.below(3);
                let group_by: Vec<usize> = (0..n_keys).map(|_| self.below(tys.len())).collect();
                let mut out: Vec<Ty> = group_by.iter().map(|g| tys[*g]).collect();
                let aggs = (0..1 + self.below(3)).map(|_| {
                    let col = self.below(tys.len());
                    let numeric = self.pick(&tys, |t| t != Ty::Str);
                    let (func, col, ty) = match (self.below(6), numeric) {
                        (0, _) => (AggFunc::CountStar, col, Ty::Int),
                        (1, _) => (AggFunc::Count, col, Ty::Int),
                        (2, Some(n)) => (AggFunc::Sum, n, Ty::Dbl),
                        (3, Some(n)) => (AggFunc::Avg, n, Ty::Dbl),
                        (4, _) => (AggFunc::Min, col, tys[col]),
                        _ => (AggFunc::Max, col, tys[col]),
                    };
                    out.push(ty);
                    let expr = Expr::col(col);
                    AggExpr { func, expr }
                });
                let aggs = aggs.collect();
                (input.agg(group_by, aggs), out)
            }
            3 => {
                let n_keys = 1 + self.below(2);
                let by = (0..n_keys).map(|_| (self.below(tys.len()), self.below(2) == 1));
                let by = by.collect();
                let limit = (self.below(2) == 1).then(|| self.below(30));
                let input = Box::new(input);
                (Plan::Sort { input, by, limit }, tys)
            }
            choice => {
                let (right, rtys) = self.plan(depth - 1);
                let keys = (
                    self.pick(&tys, |t| t == Ty::Int),
                    self.pick(&rtys, |t| t == Ty::Int),
                );
                let (Some(lk), Some(rk)) = keys else {
                    return (input, tys);
                };
                let lw = tys.len();
                tys.extend(rtys);
                let (left, right) = (Box::new(input), Box::new(right));
                let plan = if choice == 4 {
                    let filter = self.filter(&tys);
                    let project = self.project(&mut tys);
                    Plan::HashJoin {
                        left,
                        right,
                        left_keys: vec![lk],
                        right_keys: vec![rk],
                        filter,
                        project,
                    }
                } else {
                    let on = Expr::eq(Expr::col(lk), Expr::col(lw + rk));
                    let on = match self.filter(&tys) {
                        Some(more) => Expr::and(on, more),
                        None => on,
                    };
                    let project = self.project(&mut tys);
                    Plan::NestLoopJoin {
                        left,
                        right,
                        on,
                        project,
                    }
                };
                (plan, tys)
            }
        }
    }
}

/// Rows as text: `{:?}` of an `f64` reads back to the same bits.
fn text(rows: &[Row]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

proptest! {
    #[test]
    fn demand_driven_equals_fully_materialized(
        draws in proptest::collection::vec(any::<u32>(), 20..120),
    ) {
        let (plan, _) = Draws(draws.iter()).plan(3);
        let (db, mut ctx) = client();
        for session in [QuerySession::default(), QuerySession::with_pushdown()] {
            // A top-level scan demands every column: the table as the
            // session's scans order it (push-down returns rows task by task).
            let mut base = |table: &str| execute(&mut ctx, &db, &session, &Plan::scan(table)).unwrap();
            let Some(expect) = interpret(&plan, &mut base) else {
                continue;
            };
            let got = execute(&mut ctx, &db, &session, &plan).unwrap();
            prop_assert_eq!(
                text(&got),
                text(&expect),
                "push-down {}: {:#?}",
                session.pushdown,
                plan
            );
        }
    }
}

// ------------------------------------------------------ the two bug fixes

/// Three clients scan one `Db` through its 16-page pool, one of them pushing
/// down. On raw threads a scan that raced another client's evictions lost
/// rows or failed with `NotYetApplied`; under the baton a scan runs inside
/// one turn, whichever client the clocks pick next.
#[test]
fn clients_sharing_one_db_each_scan_every_row() {
    for seed in 0..10 {
        let (db, loaded_at) = load();
        run_clients(3, seed, loaded_at, |ctx, client| {
            let session = match client {
                0 => QuerySession::with_pushdown(),
                _ => QuerySession::default(),
            };
            for round in 0..4 {
                ctx.yield_now();
                let table = ["t1", "t2"][(client + round) % 2];
                let rows = execute(ctx, &db, &session, &Plan::scan(table))
                    .unwrap_or_else(|e| panic!("seed {seed} client {client} {table}: {e}"));
                let mut keys: Vec<i64> = rows.iter().map(|r| r[0].as_int()).collect();
                keys.sort_unstable();
                let all: Vec<i64> = (0..if table == "t1" { 120 } else { 100 }).collect();
                assert_eq!(keys, all, "seed {seed} client {client} {table}");
            }
        });
    }
}

#[test]
fn a_null_key_joins_nothing() {
    let (db, mut ctx) = client();
    // t1.b = t2.y, NULL in both columns.
    let plan = Plan::scan("t1").hash_join(Plan::scan("t2"), vec![1], vec![1]);
    let scan = |ctx: &mut SimCtx, table: &str| {
        execute(ctx, &db, &QuerySession::default(), &Plan::scan(table)).unwrap()
    };
    let (t1, t2) = (scan(&mut ctx, "t1"), scan(&mut ctx, "t2"));
    assert!(t1.iter().any(|r| r[1].is_null()) && t2.iter().any(|r| r[1].is_null()));
    let matches = |l: &&Row| {
        t2.iter()
            .filter(|r| !l[1].is_null() && l[1] == r[1])
            .count()
    };
    let expect: usize = t1.iter().map(|l| matches(&l)).sum();
    for session in [QuerySession::default(), QuerySession::with_pushdown()] {
        let rows = execute(&mut ctx, &db, &session, &plan).unwrap();
        assert!(rows.iter().all(|r| !r[1].is_null() && r[1] == r[6]));
        assert_eq!(rows.len(), expect);
    }
}

#[test]
fn sort_is_a_total_order_over_nan_and_mixed_types() {
    let f = StorageFabric::build(ClusterSpec::paper_default(), 64 << 20, 512 * 1024);
    let mut ctx = SimCtx::new(1, 7);
    let db = Db::open(&mut ctx, &f, DbConfig::builder().build().unwrap()).unwrap();
    db.define_schema(|cat| {
        cat.define("m")
            .col("id", ColumnType::Int)
            .col("v", ColumnType::Double)
            .pk(&["id"])
            .build();
    });
    db.create_tables(&mut ctx).unwrap();
    // The store does not type-check a column: numbers of both kinds, NaN,
    // NULL and strings in one of them.
    let values = [
        Value::Int(3),
        Value::Double(f64::NAN),
        Value::Str("b".into()),
        Value::Double(1.5),
        Value::Null,
        Value::Int(1),
        Value::Str("a".into()),
        Value::Double(-2.0),
        Value::Double(f64::NAN),
        Value::Int(2),
        Value::Double(2.0),
    ];
    let mut txn = db.begin();
    for (i, v) in values.iter().enumerate() {
        let row = vec![Value::Int(i as i64), v.clone()];
        db.insert(&mut ctx, &mut txn, "m", row).unwrap();
    }
    db.commit(&mut ctx, &mut txn).unwrap();

    let mut ids = |desc: bool| -> Vec<i64> {
        let plan = Plan::scan("m").sort(vec![(1, desc)]);
        let rows = execute(&mut ctx, &db, &QuerySession::default(), &plan).unwrap();
        rows.iter().map(|r| r[0].as_int()).collect()
    };
    // NULL, numbers by value (an Int before the Double it equals, NaN
    // last), strings; the two NaNs are one value and keep their input order
    // both ways.
    assert_eq!(ids(false), [4, 7, 5, 3, 9, 10, 0, 1, 8, 6, 2]);
    assert_eq!(ids(true), [2, 6, 1, 8, 0, 10, 9, 3, 5, 7, 4]);
}
