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

use vedb_sim::{SimCtx, VTime};

use crate::db::Db;
use crate::query::chains::Chains;
use crate::query::pipeline::Pipeline;
use crate::query::plan::Plan;
use crate::query::pushdown::{self, Fragment};
use crate::row::{hash_values, same_encoding, ColSet, Row, Value};
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
}

impl Default for QuerySession {
    fn default() -> Self {
        QuerySession {
            pushdown: false,
            pushdown_min_pages: 4,
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
}

/// Where an operator's rows go: its consumer, which copies what it keeps.
pub(super) type Sink<'a> = &'a mut dyn FnMut(Cow<'_, Row>) -> Result<()>;

/// The hash of `row`'s values at `at`, a join key; `None` when a key part
/// is NULL: such a row joins nothing. Key columns are always demanded, so a
/// key part is never a placeholder NULL.
fn key_hash(row: &[Value], at: &[usize]) -> Option<u64> {
    let key = at.iter().map(|i| &row[*i]);
    (!key.clone().any(Value::is_null)).then(|| hash_values(key))
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

/// Total order of two values for [`Plan::Sort`] and for `MIN`/`MAX`: NULL,
/// then numbers, then strings. Numbers order by value — an `Int` against a
/// `Double` as doubles, doubles by [`f64::total_cmp`], the `Int` first on a
/// tie — so a NaN or two types in one sort column still sort.
pub(super) fn sort_cmp(a: &Value, b: &Value) -> Ordering {
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

/// [`run`] `plan` and keep its rows: the result, a nested-loop join's sides,
/// a sort's input.
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
/// right input: the columns after the left rows' `width`. With no left row
/// nothing is emitted, so nothing.
fn right_need(reads: &ColSet, width: Option<usize>) -> ColSet {
    width.map_or(ColSet::none(), |w| reads.from_offset(w))
}

/// A hash join's build side: of each left row only the demanded columns,
/// back to back in one buffer. Every left row has the first one's width.
/// A probe finds the rows of its key by the key's hash ([`Build::chains`],
/// [`Build::matches`]); no key is encoded.
#[derive(Default)]
struct Build {
    width: Option<usize>,
    /// The demanded columns, in column order: a row's `k`-th kept value is
    /// column `cols[k]`.
    cols: Vec<usize>,
    vals: Vec<Value>,
    rows: usize,
}

impl Build {
    fn push(&mut self, row: Cow<'_, Row>, need: &ColSet) {
        let width = *self.width.get_or_insert(row.len());
        debug_assert_eq!(row.len(), width, "left rows differ in width");
        if self.rows == 0 {
            self.cols = (0..width).filter(|i| need.contains(*i)).collect();
        }
        match row {
            Cow::Borrowed(row) => self.vals.extend(self.cols.iter().map(|i| row[*i].clone())),
            Cow::Owned(mut row) => {
                let taken = self
                    .cols
                    .iter()
                    .map(|i| std::mem::replace(&mut row[*i], Value::Null));
                self.vals.extend(taken);
            }
        }
        self.rows += 1;
    }

    fn row(&self, i: usize) -> &[Value] {
        &self.vals[i * self.cols.len()..(i + 1) * self.cols.len()]
    }

    /// Every row on the chain of its key's hash, the key kept at `at`; a
    /// row with a NULL key part joins nothing and is on no chain.
    fn chains(&self, at: &[usize]) -> Chains {
        let mut chains = Chains::with_capacity(self.rows);
        for i in 0..self.rows {
            if let Some(hash) = key_hash(self.row(i), at) {
                chains.add(hash, i);
            }
        }
        chains
    }

    /// The rows `key`'s values at `key_at` join, in build order: those on
    /// `chains` under `hash`, their hash, whose values at `at` are the same.
    fn matches<'a>(
        &'a self,
        chains: &'a Chains,
        hash: u64,
        at: &'a [usize],
        key: &'a [Value],
        key_at: &'a [usize],
    ) -> impl Iterator<Item = usize> + 'a {
        chains.find(hash, move |i| {
            let row = self.row(i);
            let mut parts = at.iter().zip(key_at);
            parts.all(|(a, k)| same_encoding(&row[*a], &key[*k]))
        })
    }

    /// Where each of `columns` is kept in a row (nowhere without a row).
    fn at(&self, columns: &[usize]) -> Vec<usize> {
        if self.rows == 0 {
            return Vec::new();
        }
        let at = |c: &usize| {
            self.cols
                .iter()
                .position(|k| k == c)
                .expect("key column kept")
        };
        columns.iter().map(at).collect()
    }
}

/// The one row buffer a join probes with: `lrow ++ rrow` in the columns the
/// join's operators read, placeholder NULLs in the others. A side's columns
/// are copied when that side's row changes, a string into the buffer the
/// column held for the previous row.
struct Joined {
    row: Row,
    /// The left rows' width.
    width: usize,
    /// The demanded left columns: (index in a left row's values, column).
    left: Vec<(usize, usize)>,
    reads: ColSet,
}

impl Joined {
    /// `cols[k]` is the column of a left row's `k`-th value.
    fn new(reads: &ColSet, width: usize, cols: impl IntoIterator<Item = usize>) -> Joined {
        let left = cols.into_iter().enumerate();
        Joined {
            row: vec![Value::Null; width],
            width,
            left: left.filter(|(_, c)| reads.contains(*c)).collect(),
            reads: reads.clone(),
        }
    }

    fn set_left(&mut self, lrow: &[Value]) {
        for (k, c) in &self.left {
            self.row[*c].clone_from(&lrow[*k]);
        }
    }

    fn set_right(&mut self, rrow: &Row) {
        self.row.resize(self.width + rrow.len(), Value::Null);
        let right = self.row[self.width..].iter_mut().zip(rrow);
        for (j, (slot, v)) in right.enumerate() {
            if self.reads.contains(self.width + j) {
                slot.clone_from(v);
            }
        }
    }
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
            if pushdown::eligible(db, session, table)? {
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
            charge_rows(ctx, db, pipe.seen(), db.env().model.cpu_row_eval_ns);
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
                if pushdown::eligible(db, session, table)? {
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
            let mut build = Build::default();
            run(ctx, db, session, left, &lneed, &mut |row| {
                build.push(row, &lneed);
                Ok(())
            })?;
            let rneed = right_need(&reads, build.width).with(right_keys.iter().copied());
            debug_assert!(
                left_keys.iter().all(|k| lneed.contains(*k))
                    && right_keys.iter().all(|k| rneed.contains(*k)),
                "a join key column is demanded on both sides"
            );
            let lkeys = build.at(left_keys);
            let chains = build.chains(&lkeys);
            let width = build.width.unwrap_or(0);
            let mut joined = Joined::new(&reads, width, build.cols.iter().copied());
            let mut n_right = 0;
            run(ctx, db, session, right, &rneed, &mut |rrow| {
                n_right += 1;
                let Some(hash) = key_hash(&rrow, right_keys) else {
                    return Ok(());
                };
                let mut rows = build
                    .matches(&chains, hash, &lkeys, &rrow, right_keys)
                    .peekable();
                if rows.peek().is_some() {
                    joined.set_right(&rrow);
                }
                for i in rows {
                    joined.set_left(build.row(i));
                    emit(&mut pipe, Cow::Borrowed(&joined.row), sink)?;
                }
                Ok(())
            })?;
            charge_rows(ctx, db, build.rows + n_right, 100);
            charge_rows(ctx, db, pipe.seen(), db.env().model.cpu_row_eval_ns);
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
            let width = lrows.first().map(Vec::len);
            let rrows = collect(ctx, db, session, right, &right_need(&reads, width))?;
            charge_rows(ctx, db, lrows.len() * rrows.len().max(1), 20);
            let width = width.unwrap_or(0);
            let mut joined = Joined::new(&reads, width, 0..width);
            for lrow in &lrows {
                joined.set_left(lrow);
                for rrow in &rrows {
                    joined.set_right(rrow);
                    if on.eval_bool(&joined.row)? {
                        emit(&mut pipe, Cow::Borrowed(&joined.row), sink)?;
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
            charge_rows(ctx, db, pipe.seen(), db.env().model.cpu_row_eval_ns);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build rows whose keys all hash alike still join only their own key,
    /// in build order: the chain is one, the keys stay apart.
    #[test]
    fn colliding_join_keys_stay_apart_in_build_order() {
        let keys = [
            Value::Str("abc".into()),
            Value::Str("ab".into()),
            Value::Int(1),
            Value::Str("abc".into()),
            Value::Double(1.0),
            Value::Str("ab".into()),
            Value::Int(1),
        ];
        let mut build = Build::default();
        for (id, key) in keys.iter().enumerate() {
            let row = vec![Value::Int(id as i64), key.clone()];
            build.push(Cow::Owned(row), &ColSet::all());
        }
        let at = build.at(&[1]);
        let mut chains = Chains::default();
        (0..build.rows).for_each(|i| chains.add(42, i));
        let joins = |key: Value| -> Vec<usize> {
            let probe = vec![key];
            build.matches(&chains, 42, &at, &probe, &[0]).collect()
        };
        assert_eq!(joins(Value::Str("abc".into())), [0, 3]);
        assert_eq!(joins(Value::Str("ab".into())), [1, 5]);
        assert_eq!(joins(Value::Int(1)), [2, 6]);
        assert_eq!(joins(Value::Double(1.0)), [4]);
        assert_eq!(joins(Value::Str("a".into())), [0usize; 0]);
    }
}
