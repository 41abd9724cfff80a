//! Local (engine-side) query execution.
//!
//! The executor materializes each operator bottom-up in the engine's
//! single-threaded model (§VI), charging engine CPU per processed row so
//! large scans cost realistic virtual time. When a [`QuerySession`] has
//! push-down enabled and an eligible fragment is large enough, execution
//! of `SeqScan`/`HashAgg`-over-`SeqScan` shapes is delegated to the
//! storage layer (see [`super::pushdown`]).

use std::borrow::Cow;
use std::collections::HashMap;

use vedb_sim::{SimCtx, VTime};

use crate::db::Db;
use crate::query::pipeline::Pipeline;
use crate::query::plan::Plan;
use crate::query::pushdown;
use crate::row::{encode_value, Row};
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

/// Canonical bytes of `row`'s `cols` (hashable join key).
fn key_of(row: &Row, cols: &[usize]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(cols.len() * 9);
    for i in cols {
        encode_value(&row[*i], &mut buf);
    }
    buf
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

/// Execute `plan` and materialize its result rows.
pub fn execute(ctx: &mut SimCtx, db: &Db, session: &QuerySession, plan: &Plan) -> Result<Vec<Row>> {
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
                return pushdown::pushdown_scan(ctx, db, table, filter, project, None);
            }
            let mut pipe = Pipeline::new(filter, project, None);
            let mut pushed = Ok(());
            db.scan_table(ctx, table, |row| {
                pushed = pipe.push(Cow::Borrowed(row));
                pushed.is_ok()
            })?;
            pushed?;
            charge_rows(ctx, db, pipe.seen(), 50);
            Ok(pipe.finish())
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
            Pipeline::new(filter, project, None).run(rows)
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
                    return pushdown::pushdown_scan(
                        ctx,
                        db,
                        table,
                        filter,
                        &None,
                        Some((group_by.clone(), aggs.clone())),
                    );
                }
            }
            let rows = execute(ctx, db, session, input)?;
            charge_rows(ctx, db, rows.len(), 100);
            Pipeline::new(&None, &None, Some((group_by, aggs))).run(rows)
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            filter,
            project,
        } => {
            let lrows = execute(ctx, db, session, left)?;
            let rrows = execute(ctx, db, session, right)?;
            charge_rows(ctx, db, lrows.len() + rrows.len(), 100);
            let mut build: HashMap<Vec<u8>, Vec<&Row>> = HashMap::new();
            for row in &lrows {
                build.entry(key_of(row, left_keys)).or_default().push(row);
            }
            let mut pipe = Pipeline::new(filter, project, None);
            for rrow in &rrows {
                if let Some(matches) = build.get(&key_of(rrow, right_keys)) {
                    for lrow in matches {
                        let mut joined: Row = (*lrow).clone();
                        joined.extend(rrow.iter().cloned());
                        pipe.push(Cow::Owned(joined))?;
                    }
                }
            }
            charge_rows(ctx, db, pipe.seen(), 50);
            Ok(pipe.finish())
        }
        Plan::NestLoopJoin {
            left,
            right,
            on,
            project,
        } => {
            let lrows = execute(ctx, db, session, left)?;
            let rrows = execute(ctx, db, session, right)?;
            charge_rows(ctx, db, lrows.len() * rrows.len().max(1), 20);
            let mut pipe = Pipeline::new(&None, project, None);
            for lrow in &lrows {
                for rrow in &rrows {
                    let mut joined: Row = lrow.clone();
                    joined.extend(rrow.iter().cloned());
                    if on.eval_bool(&joined)? {
                        pipe.push(Cow::Owned(joined))?;
                    }
                }
            }
            Ok(pipe.finish())
        }
        Plan::Sort { input, by, limit } => {
            let mut rows = execute(ctx, db, session, input)?;
            let n = rows.len();
            charge_rows(
                ctx,
                db,
                n * (usize::BITS - n.leading_zeros()).max(1) as usize / 8,
                50,
            );
            rows.sort_by(|a, b| {
                for (col, desc) in by {
                    let ord = a[*col]
                        .partial_cmp(&b[*col])
                        .unwrap_or(std::cmp::Ordering::Equal);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            if let Some(k) = limit {
                rows.truncate(*k);
            }
            Ok(rows)
        }
        Plan::Map {
            input,
            filter,
            project,
        } => {
            let rows = execute(ctx, db, session, input)?;
            charge_rows(ctx, db, rows.len(), 50);
            Pipeline::new(filter, project, None).run(rows)
        }
    }
}
