//! The four single-client workloads.
//!
//! Each workload builds a fresh [`Deployment`], loads its data, warms up
//! (all of that is *set-up*), and then hands the harness one operation at a
//! time. Every call a workload makes into a product layer goes through
//! [`Spans::call`], so the traced run times exactly the calls the untraced
//! run makes. Sizes are repeated in `BENCHMARK.json` and `README.md`.

use std::sync::Arc;

use vedb_bench::Deployment;
use vedb_core::db::{Db, DbConfig, LogBackendKind};
use vedb_core::ebp::EbpConfig;
use vedb_core::query::{execute, Plan, QuerySession};
use vedb_core::{recovery, Row, Value};
use vedb_sim::{ClusterSpec, SimCtx};
use vedb_workloads::lookup::LookupScale;
use vedb_workloads::tpcc::TpccScale;
use vedb_workloads::{chbench, lookup, orders, tpcc};

use crate::harness::Sensitivity;
use crate::trace::Spans;

/// What one operation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Committed: counted, latency sampled.
    Committed,
    /// TPC-C's by-spec 1% NewOrder rollback: attempted, not committed, not
    /// a failure.
    Rollback,
    /// Engine error or unexpected abort: attempted and failed.
    Failed,
}

/// A workload's fixed shape.
#[derive(Clone, Copy)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Operations per chunk (`C`).
    pub chunk_ops: usize,
    /// How its time follows the reference kernels.
    pub sensitivity: Sensitivity,
    /// Set the workload up from a seed: deployment, tables, load, warm-up.
    pub build: fn(u64) -> Box<dyn Workload>,
}

/// The workloads, in the order they run.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "tpcc_mix",
        chunk_ops: 300,
        sensitivity: Sensitivity {
            core: 0.5,
            cache: 1.0,
        },
        build: |seed| Box::new(TpccMix::new(seed)),
    },
    Spec {
        name: "commit_wide",
        chunk_ops: 1000,
        sensitivity: Sensitivity {
            core: 0.4,
            cache: 1.0,
        },
        build: |seed| Box::new(CommitWide::new(seed)),
    },
    Spec {
        name: "lookup_ebp",
        chunk_ops: 5000,
        sensitivity: Sensitivity {
            core: 0.6,
            cache: 0.7,
        },
        build: |seed| Box::new(LookupEbp::new(seed)),
    },
    Spec {
        name: "chq_pushdown",
        chunk_ops: 88,
        sensitivity: Sensitivity {
            core: 0.2,
            cache: 1.5,
        },
        build: |seed| Box::new(ChqPushdown::new(seed)),
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// A set-up workload instance: one deployment, one client.
pub trait Workload {
    /// The deployment (for its metrics registry).
    fn dep(&self) -> &Deployment;
    /// The single client's context (for the virtual clock).
    fn ctx(&self) -> &SimCtx;
    /// Execute one operation.
    fn op(&mut self, sp: &mut Spans) -> Outcome;
    /// Correctness check after the measured window. `last` is true on the
    /// final repetition of a run (the crash/recover check runs only then).
    fn check(self: Box<Self>, last: bool) -> Result<(), String>;
}

/// The one client every workload drives, starting where the load ended.
fn client(dep: &Deployment, seed: u64) -> SimCtx {
    let mut ctx = SimCtx::new(1, seed);
    ctx.wait_until(dep.ctx.now());
    ctx
}

fn warm(w: &mut dyn Workload, ops: usize) {
    let mut off = Spans::off();
    for _ in 0..ops {
        w.op(&mut off);
    }
}

// ---------------------------------------------------------------- tpcc_mix

const TPCC_WARMUP_TXNS: usize = 500;

fn tpcc_deployment(ebp_bytes: u64) -> Deployment {
    Deployment::open(
        DbConfig::builder()
            .bp_pages(96)
            .bp_shards(8)
            .log(LogBackendKind::AStore)
            .ring_segments(12)
            .ebp(EbpConfig {
                capacity_bytes: ebp_bytes,
                compaction: false,
                ..Default::default()
            })
            .build()
            .expect("valid tpcc config"),
    )
}

/// The standard 45/43/4/4/4 TPC-C mix over every layer.
struct TpccMix {
    dep: Deployment,
    ctx: SimCtx,
    scale: TpccScale,
}

impl TpccMix {
    fn new(seed: u64) -> TpccMix {
        let scale = TpccScale::bench();
        let mut dep = tpcc_deployment(64 << 20);
        dep.db.define_schema(tpcc::define_schema);
        dep.db.create_tables(&mut dep.ctx).expect("create tables");
        tpcc::load(&mut dep.ctx, &dep.db, &scale).expect("load tpcc");
        let ctx = client(&dep, seed);
        let mut w = TpccMix { dep, ctx, scale };
        warm(&mut w, TPCC_WARMUP_TXNS);
        w
    }
}

impl Workload for TpccMix {
    fn dep(&self) -> &Deployment {
        &self.dep
    }
    fn ctx(&self) -> &SimCtx {
        &self.ctx
    }

    fn op(&mut self, sp: &mut Spans) -> Outcome {
        let (ctx, db, scale) = (&mut self.ctx, &self.dep.db, &self.scale);
        let roll = ctx.rng().gen_range(0..100u32);
        let (is_new_order, r) = if roll < 45 {
            let r = sp.call("workloads.new_order", || tpcc::new_order(ctx, db, scale));
            (true, r)
        } else if roll < 88 {
            let r = sp.call("workloads.payment", || tpcc::payment(ctx, db, scale));
            (false, r)
        } else if roll < 92 {
            let r = sp.call("workloads.order_status", || {
                tpcc::order_status(ctx, db, scale)
            });
            (false, r)
        } else if roll < 96 {
            let r = sp.call("workloads.delivery", || tpcc::delivery(ctx, db, scale));
            (false, r)
        } else {
            let r = sp.call("workloads.stock_level", || {
                tpcc::stock_level(ctx, db, scale)
            });
            (false, r)
        };
        match r {
            Ok(true) => Outcome::Committed,
            Ok(false) if is_new_order => Outcome::Rollback,
            _ => Outcome::Failed,
        }
    }

    fn check(mut self: Box<Self>, _last: bool) -> Result<(), String> {
        tpcc::check_consistency(&mut self.ctx, &self.dep.db, &self.scale)
            .map_err(|e| format!("tpcc consistency: {e}"))
    }
}

// ------------------------------------------------------------- commit_wide

const WIDE_WARMUP_OPS: usize = 2000;

fn wide_config() -> DbConfig {
    DbConfig::builder()
        .bp_pages(4096)
        .bp_shards(16)
        .log(LogBackendKind::AStore)
        .ring_segments(12)
        .build()
        .expect("valid commit_wide config")
}

/// One 2 KiB `order_flow` insert + commit per op: the write path.
struct CommitWide {
    dep: Deployment,
    ctx: SimCtx,
    payload: String,
    next_id: i64,
    /// `f_id`s whose commit was acknowledged.
    acked: Vec<i64>,
}

impl CommitWide {
    fn new(seed: u64) -> CommitWide {
        let mut dep = Deployment::open(wide_config());
        dep.db.define_schema(orders::define_schema);
        dep.db.create_tables(&mut dep.ctx).expect("create tables");
        orders::load(&mut dep.ctx, &dep.db).expect("load vendors");
        let ctx = client(&dep, seed);
        let mut w = CommitWide {
            dep,
            ctx,
            payload: "p".repeat(orders::ROW_PAYLOAD),
            next_id: 1,
            acked: Vec::new(),
        };
        warm(&mut w, WIDE_WARMUP_OPS);
        w
    }
}

impl Workload for CommitWide {
    fn dep(&self) -> &Deployment {
        &self.dep
    }
    fn ctx(&self) -> &SimCtx {
        &self.ctx
    }

    // The statements of `orders::single_insert`, issued here so insert and
    // commit are timed apart.
    fn op(&mut self, sp: &mut Spans) -> Outcome {
        let (ctx, db) = (&mut self.ctx, &self.dep.db);
        let vendor = ctx.rng().skewed_index(orders::VENDORS as u64, 0.5) as i64 + 1;
        let id = self.next_id;
        self.next_id += 1;
        let row = vec![
            Value::Int(id),
            Value::Int(vendor),
            Value::Double(0.0),
            Value::Str(self.payload.clone()),
        ];
        let mut txn = db.begin();
        if sp
            .call("core.insert", || {
                db.insert(ctx, &mut txn, "order_flow", row)
            })
            .is_err()
        {
            let _ = db.abort(ctx, &mut txn);
            return Outcome::Failed;
        }
        match sp.call("core.commit", || db.commit(ctx, &mut txn)) {
            Ok(()) => {
                self.acked.push(id);
                Outcome::Committed
            }
            Err(_) => Outcome::Failed,
        }
    }

    /// Durability: drop the engine, power-fail the three AStore PMem
    /// devices (unpersisted bytes are discarded), recover, and read back
    /// every acknowledged `f_id`.
    fn check(self: Box<Self>, last: bool) -> Result<(), String> {
        if !last {
            return Ok(());
        }
        let CommitWide {
            dep,
            acked,
            payload,
            ..
        } = *self;
        let Deployment { fabric, db, .. } = dep;
        let ring = db.log_segment_ids();
        drop(db);
        for s in &fabric.astore_servers {
            s.device().crash();
        }
        let mut ctx = SimCtx::new(2, 0xC0DE);
        let (db, report) = recovery::recover(
            &mut ctx,
            &fabric,
            wide_config(),
            orders::define_schema,
            &ring,
        )
        .map_err(|e| format!("recovery failed: {e}"))?;
        for id in &acked {
            match db.get_by_pk(&mut ctx, None, "order_flow", &[Value::Int(*id)]) {
                Ok(Some(row)) if row[0] == Value::Int(*id) && row[3].as_str() == payload => {}
                other => {
                    return Err(format!(
                        "acknowledged f_id {id} not readable after crash: {:?}",
                        other.map(|r| r.map(|r| r.len()))
                    ))
                }
            }
        }
        println!(
            "  durability: crashed 3 PMem devices, recovered ({} log records scanned), read back {} acknowledged rows",
            report.records_scanned,
            acked.len()
        );
        Ok(())
    }
}

// -------------------------------------------------------------- lookup_ebp

const LOOKUP_SCALE: LookupScale = LookupScale {
    rows: 20_000,
    hot_fraction: 0.95,
    hot_region: 0.06,
};
const LOOKUP_WARMUP_OPS: usize = 20_000;

/// Read-only point lookups behind a small buffer pool and an EBP that
/// holds the table.
struct LookupEbp {
    dep: Deployment,
    ctx: SimCtx,
}

impl LookupEbp {
    fn new(seed: u64) -> LookupEbp {
        let mut dep = Deployment::open_with(
            DbConfig::builder()
                .bp_pages(128)
                .bp_shards(8)
                .log(LogBackendKind::AStore)
                .ring_segments(12)
                .ebp(EbpConfig {
                    capacity_bytes: 32 << 20,
                    ..Default::default()
                })
                .build()
                .expect("valid lookup config"),
            ClusterSpec::paper_default(),
            1 << 30,
            2 << 20,
        );
        dep.db.define_schema(lookup::define_schema);
        dep.db.create_tables(&mut dep.ctx).expect("create tables");
        lookup::load(&mut dep.ctx, &dep.db, LOOKUP_SCALE).expect("load lookup table");
        let mut ctx = client(&dep, seed);
        // Stream the cold region through the BP so evictions fill the EBP.
        for id in (1..=LOOKUP_SCALE.rows).step_by(3) {
            dep.db
                .get_by_pk(&mut ctx, None, "operations", &[Value::Int(id)])
                .expect("warm read");
        }
        let mut w = LookupEbp { dep, ctx };
        warm(&mut w, LOOKUP_WARMUP_OPS);
        w
    }
}

impl Workload for LookupEbp {
    fn dep(&self) -> &Deployment {
        &self.dep
    }
    fn ctx(&self) -> &SimCtx {
        &self.ctx
    }

    // The key choice of `lookup::lookup_op`, with the answer checked.
    fn op(&mut self, sp: &mut Spans) -> Outcome {
        let (ctx, db) = (&mut self.ctx, &self.dep.db);
        let scale = LOOKUP_SCALE;
        let hot_rows = ((scale.rows as f64 * scale.hot_region) as i64).max(1);
        let id = if ctx.rng().gen_bool(scale.hot_fraction) {
            ctx.rng().gen_range(1..=hot_rows)
        } else {
            ctx.rng().gen_range(1..=scale.rows)
        };
        let users = (scale.rows / 10).max(1);
        let ok = if ctx.rng().gen_bool(0.8) {
            let key = [Value::Int(id)];
            let r = sp.call("core.get_by_pk", || {
                db.get_by_pk(ctx, None, "operations", &key)
            });
            matches!(r, Ok(Some(row)) if row[0] == Value::Int(id) && row[1] == Value::Int(id % users))
        } else {
            let user = id % users;
            let key = [Value::Int(user)];
            let r = sp.call("core.index_lookup", || {
                db.index_lookup(ctx, "operations", "idx_ops_user", &key, 10)
            });
            matches!(r, Ok(rows) if !rows.is_empty() && rows.iter().all(|row| row[1] == Value::Int(user)))
        };
        if ok {
            Outcome::Committed
        } else {
            Outcome::Failed
        }
    }

    fn check(self: Box<Self>, _last: bool) -> Result<(), String> {
        Ok(()) // every lookup is checked as it runs
    }
}

// ------------------------------------------------------------ chq_pushdown

/// The 22 CH-benCHmark queries, round-robin, with push-down on.
struct ChqPushdown {
    dep: Deployment,
    ctx: SimCtx,
    plans: Vec<(usize, Plan)>,
    session: QuerySession,
    next: usize,
}

impl ChqPushdown {
    fn new(seed: u64) -> ChqPushdown {
        let scale = TpccScale::bench();
        let mut dep = tpcc_deployment(64 << 20);
        dep.db.define_schema(|cat| {
            tpcc::define_schema(cat);
            chbench::extend_schema(cat);
        });
        dep.db.create_tables(&mut dep.ctx).expect("create tables");
        tpcc::load(&mut dep.ctx, &dep.db, &scale).expect("load tpcc");
        chbench::load_extra(&mut dep.ctx, &dep.db).expect("load CH tables");
        dep.db.flush_ship(&mut dep.ctx, true);
        let ctx = client(&dep, seed);
        let mut w = ChqPushdown {
            dep,
            ctx,
            plans: chbench::all_queries(),
            session: QuerySession::with_pushdown(),
            next: 0,
        };
        warm(&mut w, 22);
        w
    }
}

impl Workload for ChqPushdown {
    fn dep(&self) -> &Deployment {
        &self.dep
    }
    fn ctx(&self) -> &SimCtx {
        &self.ctx
    }

    fn op(&mut self, sp: &mut Spans) -> Outcome {
        let (q, plan) = &self.plans[self.next % self.plans.len()];
        self.next += 1;
        let name = if chbench::PUSHDOWN_WINNERS.contains(q) {
            "core.query_pushed"
        } else {
            "core.query_local"
        };
        let (ctx, db, session) = (&mut self.ctx, &self.dep.db, &self.session);
        match sp.call(name, || execute(ctx, db, session, plan)) {
            Ok(rows) => {
                std::hint::black_box(rows);
                Outcome::Committed
            }
            Err(_) => Outcome::Failed,
        }
    }

    /// Push-down must not change answers: every query's rows equal those of
    /// a session without push-down.
    fn check(mut self: Box<Self>, _last: bool) -> Result<(), String> {
        let local = QuerySession::default();
        let db: &Arc<Db> = &self.dep.db;
        for (q, plan) in &self.plans {
            let pushed = execute(&mut self.ctx, db, &self.session, plan)
                .map_err(|e| format!("Q{q} with push-down: {e}"))?;
            let plain = execute(&mut self.ctx, db, &local, plan)
                .map_err(|e| format!("Q{q} without push-down: {e}"))?;
            if !same_rows(pushed, plain) {
                return Err(format!("Q{q}: push-down changed the answer"));
            }
        }
        Ok(())
    }
}

/// Row-set equality up to row order and floating-point summation order.
fn same_rows(mut a: Vec<Row>, mut b: Vec<Row>) -> bool {
    fn key(r: &Row) -> String {
        r.iter()
            .map(|v| match v {
                Value::Double(d) => format!("{d:.5e}|"),
                other => format!("{other:?}|"),
            })
            .collect()
    }
    fn close(x: &Value, y: &Value) -> bool {
        match (x, y) {
            (Value::Double(p), Value::Double(q)) => (p - q).abs() <= 1e-9 * p.abs().max(q.abs()),
            _ => x == y,
        }
    }
    a.sort_by_cached_key(key);
    b.sort_by_cached_key(key);
    a.len() == b.len()
        && a.iter()
            .zip(&b)
            .all(|(r, s)| r.len() == s.len() && r.iter().zip(s).all(|(x, y)| close(x, y)))
}
