//! Local (engine-side) query execution.
//!
//! The executor streams: an operator pushes its rows to its consumer
//! one at a time in the engine's single-threaded model (§VI), and only a
//! hash join's build side (both sides of a nested-loop join), a sort's input
//! and an aggregation's group table are held. Demand flows the other way:
//! every operator tells its input which columns it reads (a [`ColSet`]), so
//! a scan builds only those — a row keeps its width, and a column nobody
//! demanded is a placeholder `Value::Null` that nobody reads. Engine CPU is charged per processed row
//! once an operator's input is drained, so large scans cost realistic
//! virtual time; no consumer touches the clock, so this is the order, and
//! these are the counts, of an executor that materializes every operator
//! bottom-up. When a [`QuerySession`] has push-down enabled and an eligible
//! fragment is large enough, execution of `SeqScan`/`HashAgg`-over-`SeqScan`
//! shapes is delegated to the storage layer (see [`super::pushdown`]).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;

use vedb_sim::{SimCtx, VTime};

use crate::db::Db;
use crate::query::pipeline::Pipeline;
use crate::query::plan::Plan;
use crate::query::pushdown::{self, Fragment};
use crate::row::{encode_value, ColSet, Row, Value};
use crate::Result;

/// Per-session query settings (the paper's "session variable enabling the
/// PQ feature" plus the row threshold, §VI-A).
#[derive(Debug, Clone)]
pub struct QuerySession {
    /// Enable the push-down framework.
    pub pushdown: bool,
    /// Minimum allocated pages in a table before a scan fragment is pushed
    /// down (proxy for the paper's scanned-row threshold).
    pub pushdown_min_pages: u32,
    /// Use the cost-based push-down decision instead of the bare threshold
    /// (§VIII lists cost-based selection as future work; implemented here
    /// as an extension — see [`super::pushdown::cost_decision`]).
    pub cost_based: bool,
}

impl Default for QuerySession {
    fn default() -> Self {
        QuerySession {
            pushdown: false,
            pushdown_min_pages: 4,
            cost_based: false,
        }
    }
}

impl QuerySession {
    /// Session with push-down on (threshold rule, as evaluated in §VII-C).
    pub fn with_pushdown() -> QuerySession {
        QuerySession {
            pushdown: true,
            ..Default::default()
        }
    }

    /// Session with the cost-based push-down decision (§VIII extension).
    pub fn with_cost_based_pushdown() -> QuerySession {
        QuerySession {
            pushdown: true,
            cost_based: true,
            ..Default::default()
        }
    }
}

/// Where an operator's rows go: its consumer, which copies what it keeps.
pub(super) type Sink<'a> = &'a mut dyn FnMut(Cow<'_, Row>) -> Result<()>;

/// Canonical bytes of `row`'s `cols` in `key` (hashable join key). `false`
/// when a key part is NULL: such a row joins nothing. `need` is what was
/// demanded of `row`; a key column outside it would be a placeholder NULL.
fn key_of(row: &Row, cols: &[usize], need: &ColSet, key: &mut Vec<u8>) -> bool {
    key.clear();
    for i in cols {
        debug_assert!(need.contains(*i), "join key column {i} was not demanded");
        if row[*i].is_null() {
            return false;
        }
        encode_value(&row[*i], key);
    }
    true
}

fn charge_rows(ctx: &mut SimCtx, db: &Db, rows: usize, per_row_ns: u64) {
    if rows == 0 {
        return;
    }
    let done = db
        .env()
        .engine_cpu
        .acquire(ctx.now(), VTime::from_nanos(rows as u64 * per_row_ns));
    ctx.wait_until(done);
}

/// Total order of two values for [`Plan::Sort`]: NULL, then numbers, then
/// strings. Numbers order by value — an `Int` against a `Double` as doubles,
/// doubles by [`f64::total_cmp`], the `Int` first on a tie — so a NaN or two
/// types in one sort column still sort.
fn sort_cmp(a: &Value, b: &Value) -> Ordering {
    use Value::*;
    let tag = |v: &Value| match v {
        Null => 0,
        Int(_) => 1,
        Double(_) => 2,
        Str(_) => 3,
    };
    match (a, b) {
        (Int(x), Int(y)) => x.cmp(y),
        (Str(x), Str(y)) => x.cmp(y),
        (Int(_) | Double(_), Int(_) | Double(_)) => {
            let by_value = a.as_f64().total_cmp(&b.as_f64());
            by_value.then(tag(a).cmp(&tag(b)))
        }
        _ => tag(a).cmp(&tag(b)),
    }
}

/// Execute `plan` and materialize its result rows.
pub fn execute(ctx: &mut SimCtx, db: &Db, session: &QuerySession, plan: &Plan) -> Result<Vec<Row>> {
    collect(ctx, db, session, plan, &ColSet::all())
}

/// [`run`] `plan` and keep its rows: the result, a join's build side, a
/// sort's input.
fn collect(
    ctx: &mut SimCtx,
    db: &Db,
    session: &QuerySession,
    plan: &Plan,
    need: &ColSet,
) -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    run(ctx, db, session, plan, need, &mut |row| {
        rows.push(row.into_owned());
        Ok(())
    })?;
    Ok(rows)
}

/// What a join whose operators read `reads` of the joined row reads of its
/// right input: the columns after the left rows' width. With no left row
/// nothing is emitted, so nothing.
fn right_need(reads: &ColSet, lrows: &[Row]) -> ColSet {
    match lrows.first() {
        Some(lrow) => reads.from_offset(lrow.len()),
        None => ColSet::none(),
    }
}

/// `joined` = `lrow ++ rrow`, in the one buffer a join probes with.
fn concat(joined: &mut Row, lrow: &Row, rrow: &Row) {
    joined.clear();
    joined.extend_from_slice(lrow);
    joined.extend_from_slice(rrow);
}

/// Push `row` through `pipe` and hand what it emits to `sink`.
fn emit(pipe: &mut Pipeline<'_>, row: Cow<'_, Row>, sink: Sink<'_>) -> Result<()> {
    match pipe.push(row)? {
        Some(out) => sink(out),
        None => Ok(()),
    }
}

/// Run `plan`, pushing its rows to `sink` in order. `need` is what the
/// consumer reads of them; each operator derives from it what it reads of
/// its own input.
fn run(
    ctx: &mut SimCtx,
    db: &Db,
    session: &QuerySession,
    plan: &Plan,
    need: &ColSet,
    sink: Sink<'_>,
) -> Result<()> {
    match plan {
        Plan::SeqScan {
            table,
            filter,
            project,
        } => {
            if pushdown::eligible(
                db,
                session,
                table,
                filter.is_some() || project.is_some(),
                false,
            )? {
                let frag = Fragment::scan(db, table, filter, project, None, need)?;
                return pushdown::pushdown_scan(ctx, db, &frag, sink);
            }
            let mut pipe = Pipeline::new(filter, project, None);
            let mut pushed = Ok(());
            db.scan_table_cols(ctx, table, &pipe.demand(need), |row| {
                pushed = emit(&mut pipe, Cow::Borrowed(row), sink);
                pushed.is_ok()
            })?;
            pushed?;
            charge_rows(ctx, db, pipe.seen(), 50);
        }
        Plan::IndexLookup {
            table,
            index,
            prefix,
            filter,
            project,
        } => {
            let rows = db.index_lookup(ctx, table, index, prefix, usize::MAX)?;
            charge_rows(ctx, db, rows.len(), 100);
            let mut pipe = Pipeline::new(filter, project, None);
            for row in rows {
                emit(&mut pipe, Cow::Owned(row), sink)?;
            }
        }
        Plan::HashAgg {
            input,
            group_by,
            aggs,
        } => {
            // Fully-pushable shape: aggregation directly over a scan.
            if let Plan::SeqScan {
                table,
                filter,
                project: None,
            } = input.as_ref()
            {
                if pushdown::eligible(db, session, table, filter.is_some(), true)? {
                    let agg = Some((group_by.clone(), aggs.clone()));
                    let frag = Fragment::scan(db, table, filter, &None, agg, need)?;
                    return pushdown::pushdown_scan(ctx, db, &frag, sink);
                }
            }
            let mut pipe = Pipeline::new(&None, &None, Some((group_by, aggs)));
            let reads = pipe.demand(need);
            run(ctx, db, session, input, &reads, &mut |row| {
                pipe.push(row).map(drop)
            })?;
            charge_rows(ctx, db, pipe.seen(), 100);
            for row in pipe.finish() {
                sink(Cow::Owned(row))?;
            }
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            filter,
            project,
        } => {
            let mut pipe = Pipeline::new(filter, project, None);
            let reads = pipe.demand(need);
            let lneed = reads.clone().with(left_keys.iter().copied());
            let lrows = collect(ctx, db, session, left, &lneed)?;
            // The build rows of one key are a chain in build order: the map
            // holds its first and last row, `next[i]` the row after row `i`.
            let mut chains: HashMap<Vec<u8>, (usize, usize)> = HashMap::new();
            let mut next = vec![usize::MAX; lrows.len()];
            let mut key = Vec::with_capacity(left_keys.len() * 9);
            for (i, row) in lrows.iter().enumerate() {
                if !key_of(row, left_keys, &lneed, &mut key) {
                    continue;
                }
                if let Some((_, last)) = chains.get_mut(&key) {
                    next[*last] = i;
                    *last = i;
                } else {
                    chains.insert(key.clone(), (i, i));
                }
            }
            let rneed = right_need(&reads, &lrows).with(right_keys.iter().copied());
            let (mut n_right, mut joined) = (0, Row::new());
            run(ctx, db, session, right, &rneed, &mut |rrow| {
                n_right += 1;
                if !key_of(&rrow, right_keys, &rneed, &mut key) {
                    return Ok(());
                }
                let mut at = chains.get(&key).map_or(usize::MAX, |(first, _)| *first);
                while let Some(lrow) = lrows.get(at) {
                    concat(&mut joined, lrow, &rrow);
                    emit(&mut pipe, Cow::Borrowed(&joined), sink)?;
                    at = next[at];
                }
                Ok(())
            })?;
            charge_rows(ctx, db, lrows.len() + n_right, 100);
            charge_rows(ctx, db, pipe.seen(), 50);
        }
        Plan::NestLoopJoin {
            left,
            right,
            on,
            project,
        } => {
            let mut pipe = Pipeline::new(&None, project, None);
            let mut reads = pipe.demand(need);
            on.cols(&mut reads);
            let lrows = collect(ctx, db, session, left, &reads)?;
            let rrows = collect(ctx, db, session, right, &right_need(&reads, &lrows))?;
            charge_rows(ctx, db, lrows.len() * rrows.len().max(1), 20);
            let mut joined = Row::new();
            for lrow in &lrows {
                for rrow in &rrows {
                    concat(&mut joined, lrow, rrow);
                    if on.eval_bool(&joined)? {
                        emit(&mut pipe, Cow::Borrowed(&joined), sink)?;
                    }
                }
            }
        }
        Plan::Sort { input, by, limit } => {
            let reads = need.clone().with(by.iter().map(|(col, _)| *col));
            let mut rows = collect(ctx, db, session, input, &reads)?;
            let n = rows.len();
            charge_rows(
                ctx,
                db,
                n * (usize::BITS - n.leading_zeros()).max(1) as usize / 8,
                50,
            );
            rows.sort_by(|a, b| {
                for (col, desc) in by {
                    let ord = sort_cmp(&a[*col], &b[*col]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                Ordering::Equal
            });
            for row in rows.into_iter().take(limit.unwrap_or(usize::MAX)) {
                sink(Cow::Owned(row))?;
            }
        }
        Plan::Map {
            input,
            filter,
            project,
        } => {
            let mut pipe = Pipeline::new(filter, project, None);
            let reads = pipe.demand(need);
            run(ctx, db, session, input, &reads, &mut |row| {
                emit(&mut pipe, row, sink)
            })?;
            charge_rows(ctx, db, pipe.seen(), 50);
        }
    }
    Ok(())
}
