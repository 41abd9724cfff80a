//! The one row pipeline: filter → project → (emit | group and aggregate).
//!
//! The push-down framework runs *the same* scan fragment where the pages
//! live and finishes with a secondary aggregation in the engine (§VI), so
//! the operators exist once, here, and every consumer feeds this type one
//! row at a time: the local executor's operators, the storage-side task
//! (which ends in [`Pipeline::partials`]) and the engine-side merge of those
//! partials ([`Pipeline::absorb`]). Nothing outside this module evaluates a
//! plan filter or projection over a row, touches an [`AggState`], or knows
//! how a partial state is laid out in a transferable row.
//!
//! A pipeline buffers no row: [`Pipeline::push`] hands back what it emits —
//! its input, or a projection rebuilt in one row the pipeline reuses — and
//! only the group table is kept. [`Pipeline::demand`] names the input
//! columns the operators read, which is all a producer has to build.

use std::borrow::Cow;
use std::cmp::Ordering;

use crate::query::chains::Chains;
use crate::query::exec::sort_cmp;
use crate::query::expr::Expr;
use crate::query::plan::{AggExpr, AggFunc};
use crate::row::{encode_value, hash_values, same_encoding, ColSet, Row, Value};
use crate::Result;

/// Running aggregate state.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    Sum(f64, bool),
    Avg(f64, i64),
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::CountStar | AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(0.0, false),
            AggFunc::Avg => AggState::Avg(0.0, 0),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    fn update(&mut self, func: AggFunc, v: &Value) {
        match self {
            AggState::Count(c) => {
                if func == AggFunc::CountStar || !v.is_null() {
                    *c += 1;
                }
            }
            AggState::Sum(s, any) => {
                if !v.is_null() {
                    *s += v.as_f64();
                    *any = true;
                }
            }
            AggState::Avg(s, c) => {
                if !v.is_null() {
                    *s += v.as_f64();
                    *c += 1;
                }
            }
            AggState::Min(m) => keep_if(m, v, Ordering::Less),
            AggState::Max(m) => keep_if(m, v, Ordering::Greater),
        }
    }

    /// Merge a partial state produced by a push-down executor.
    fn merge(&mut self, other: AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum(a, any_a), AggState::Sum(b, any_b)) => {
                *a += b;
                *any_a |= any_b;
            }
            (AggState::Avg(sa, ca), AggState::Avg(sb, cb)) => {
                *sa += sb;
                *ca += cb;
            }
            (AggState::Min(a), AggState::Min(Some(vb))) if replaces(a, &vb, Ordering::Less) => {
                *a = Some(vb)
            }
            (AggState::Max(a), AggState::Max(Some(vb))) if replaces(a, &vb, Ordering::Greater) => {
                *a = Some(vb)
            }
            (AggState::Min(_), AggState::Min(_)) | (AggState::Max(_), AggState::Max(_)) => {}
            _ => unreachable!("mismatched aggregate states"),
        }
    }

    fn finalize(self) -> Value {
        match self {
            AggState::Count(c) => Value::Int(c),
            AggState::Sum(s, any) => {
                if any {
                    Value::Double(s)
                } else {
                    Value::Null
                }
            }
            AggState::Avg(s, c) => {
                if c > 0 {
                    Value::Double(s / c as f64)
                } else {
                    Value::Null
                }
            }
            AggState::Min(m) | AggState::Max(m) => m.unwrap_or(Value::Null),
        }
    }

    /// Append this state's transferable columns to a partial row: one for
    /// a count, a minimum or a maximum, two for a sum or an average.
    fn write_partial(self, out: &mut Row) {
        match self {
            AggState::Count(c) => out.push(Value::Int(c)),
            AggState::Sum(s, any) => out.extend([Value::Double(s), Value::Int(any as i64)]),
            AggState::Avg(s, c) => out.extend([Value::Double(s), Value::Int(c)]),
            AggState::Min(m) | AggState::Max(m) => out.push(m.unwrap_or(Value::Null)),
        }
    }

    /// Inverse of [`AggState::write_partial`]: take `func`'s columns off a
    /// partial row.
    fn read_partial(func: AggFunc, cols: &mut impl Iterator<Item = Value>) -> AggState {
        let mut col = || cols.next().expect("partial row holds every state column");
        match func {
            AggFunc::CountStar | AggFunc::Count => AggState::Count(col().as_int()),
            AggFunc::Sum => AggState::Sum(col().as_f64(), col().as_int() != 0),
            AggFunc::Avg => AggState::Avg(col().as_f64(), col().as_int()),
            AggFunc::Min => AggState::Min(Some(col()).filter(|v| !v.is_null())),
            AggFunc::Max => AggState::Max(Some(col()).filter(|v| !v.is_null())),
        }
    }
}

/// Make a non-NULL `v` the extreme `m` when it [`replaces`] it; the value is
/// copied only then.
fn keep_if(m: &mut Option<Value>, v: &Value, beats: Ordering) {
    if v.is_null() || !replaces(m, v, beats) {
        return;
    }
    match m {
        None => *m = Some(v.clone()),
        Some(cur) => cur.clone_from(v),
    }
}

/// Does `v` take over as the extreme `m`: is there none yet, or is `v`
/// `beats` of it in [`Plan::Sort`](crate::query::Plan::Sort)'s total order?
/// That order ties no two values of different encodings, so a minimum or a
/// maximum does not depend on the order its rows arrive or its partials
/// merge in, NaNs, `±0.0`, `Int 1` against `Double 1.0` and numbers against
/// strings included.
fn replaces(m: &Option<Value>, v: &Value, beats: Ordering) -> bool {
    m.as_ref().is_none_or(|cur| sort_cmp(v, cur) == beats)
}

/// The group table: each group's values and one state per aggregate, in the
/// order the groups arrived, found by the hash of their values through
/// [`Chains`]. Output is in group-key order: [`Groups::drain`] encodes each
/// key once and sorts by the bytes, which (the encoding being prefix-free)
/// is the byte order of the encoded output rows.
#[derive(Default)]
struct Groups {
    chains: Chains,
    groups: Vec<(Vec<Value>, Vec<AggState>)>,
}

impl Groups {
    /// The group of the values `key`, whose [`hash_values`] is `hash`.
    fn find<'v>(&self, hash: u64, key: impl Iterator<Item = &'v Value> + Clone) -> Option<usize> {
        let same = |g: usize| {
            let vals = self.groups[g].0.iter();
            vals.zip(key.clone()).all(|(a, b)| same_encoding(a, b))
        };
        self.chains.find(hash, same).next()
    }

    /// Is this the group table of an aggregation without GROUP BY that
    /// already holds its one group? Then a row needs no key to find it.
    fn has_the_one_group(&self, group_by: &[usize]) -> bool {
        group_by.is_empty() && !self.groups.is_empty()
    }

    /// Fold `row`, the hash of whose group values is `hash`, into its group.
    fn update(&mut self, hash: u64, row: &Row, group_by: &[usize], aggs: &[AggExpr]) -> Result<()> {
        let g = if self.has_the_one_group(group_by) {
            0
        } else {
            let key = group_by.iter().map(|i| &row[*i]);
            match self.find(hash, key.clone()) {
                Some(g) => g,
                // The group's values are built once per group, not once per row.
                None => {
                    let fresh = aggs.iter().map(|a| AggState::new(a.func)).collect();
                    self.add(hash, (key.cloned().collect(), fresh))
                }
            }
        };
        for (state, agg) in self.groups[g].1.iter_mut().zip(aggs) {
            agg.expr.with_value(row, |v| {
                state.update(agg.func, v);
                Ok(())
            })?;
        }
        Ok(())
    }

    /// Add a group, the hash of whose values is `hash`; its index.
    fn add(&mut self, hash: u64, group: (Vec<Value>, Vec<AggState>)) -> usize {
        let g = self.groups.len();
        self.chains.add(hash, g);
        self.groups.push(group);
        g
    }

    /// Every group, its values followed by what `emit` makes of each state,
    /// in group-key order.
    fn drain(self, mut emit: impl FnMut(AggState, &mut Row)) -> Vec<Row> {
        // Each key is encoded once, into one buffer; no two keys are equal.
        let mut bytes = Vec::new();
        let mut keyed: Vec<_> = self
            .groups
            .into_iter()
            .map(|(vals, states)| {
                let from = bytes.len();
                vals.iter().for_each(|v| encode_value(v, &mut bytes));
                ((from, bytes.len()), vals, states)
            })
            .collect();
        keyed.sort_unstable_by(|(a, ..), (b, ..)| bytes[a.0..a.1].cmp(&bytes[b.0..b.1]));
        keyed
            .into_iter()
            .map(|(_, mut row, states)| {
                for s in states {
                    emit(s, &mut row);
                }
                row
            })
            .collect()
    }
}

/// One fragment's operators over a stream of rows; see the module docs.
pub(super) struct Pipeline<'a> {
    filter: Option<&'a Expr>,
    project: Option<&'a [Expr]>,
    agg: Option<(&'a [usize], &'a [AggExpr])>,
    /// What is read of a projected row: the aggregation's inputs, or what
    /// [`Pipeline::demand`] was told the consumer reads (every column until
    /// then). The other outputs are not evaluated.
    emits: ColSet,
    /// The projected row, rebuilt in place for every input row.
    projected: Row,
    seen: usize,
    groups: Groups,
}

impl<'a> Pipeline<'a> {
    pub(super) fn new(
        filter: &'a Option<Expr>,
        project: &'a Option<Vec<Expr>>,
        agg: Option<(&'a [usize], &'a [AggExpr])>,
    ) -> Pipeline<'a> {
        let emits = match agg {
            Some((group_by, aggs)) => {
                let mut cols = ColSet::none().with(group_by.iter().copied());
                aggs.iter().for_each(|a| a.expr.cols(&mut cols));
                cols
            }
            None => ColSet::all(),
        };
        Pipeline {
            filter: filter.as_ref(),
            project: project.as_deref(),
            agg,
            emits,
            projected: Row::new(),
            seen: 0,
            groups: Groups::default(),
        }
    }

    /// Rows pushed so far, whether or not the filter kept them.
    pub(super) fn seen(&self) -> usize {
        self.seen
    }

    /// The input columns the operators read when the consumer of the
    /// emitted rows reads `need` of them: the filter's, then the
    /// projection's — or, with none, the group key's and the aggregates'
    /// inputs, or, with no aggregation either, `need` itself. Without an
    /// aggregation, a projection from here on evaluates only the outputs in
    /// `need`.
    pub(super) fn demand(&mut self, need: &ColSet) -> ColSet {
        let mut cols = ColSet::none();
        match (self.project, self.agg) {
            (Some(exprs), _) => exprs.iter().for_each(|e| e.cols(&mut cols)),
            (None, Some((group_by, aggs))) => {
                cols = cols.with(group_by.iter().copied());
                aggs.iter().for_each(|a| a.expr.cols(&mut cols));
            }
            (None, None) => cols = need.clone(),
        }
        if self.agg.is_none() {
            self.emits = need.clone();
        }
        if let Some(f) = self.filter {
            f.cols(&mut cols);
        }
        cols
    }

    /// Run one input row through filter and projection, then into the group
    /// table — or, with no aggregation, back to the caller: `Some` is the
    /// emitted row, the input itself when there is no projection and the
    /// pipeline's projected row when there is.
    pub(super) fn push<'o, 'r: 'o>(
        &'o mut self,
        row: Cow<'r, Row>,
    ) -> Result<Option<Cow<'o, Row>>> {
        self.seen += 1;
        if let Some(f) = self.filter {
            if !f.eval_bool(&row)? {
                return Ok(None);
            }
        }
        let row = match self.project {
            Some(exprs) => {
                let out = &mut self.projected;
                out.resize(exprs.len(), Value::Null);
                for (k, (e, slot)) in exprs.iter().zip(out.iter_mut()).enumerate() {
                    if self.emits.contains(k) {
                        // A computed value is a number: a copy costs what a
                        // move would.
                        e.with_value(&row, |v| {
                            slot.clone_from(v);
                            Ok(())
                        })?;
                    }
                }
                Cow::Borrowed(&self.projected)
            }
            None => row,
        };
        let Some((group_by, aggs)) = self.agg else {
            return Ok(Some(row));
        };
        // A key is hashed only when a group is looked up.
        let hash = match self.groups.has_the_one_group(group_by) {
            true => 0,
            false => hash_values(group_by.iter().map(|i| &row[*i])),
        };
        self.groups.update(hash, &row, group_by, aggs)?;
        Ok(None)
    }

    /// Secondary aggregation: take in one row of another aggregating
    /// pipeline's [`partials`](Pipeline::partials) (same fragment).
    pub(super) fn absorb(&mut self, partial: Row) {
        let (group_by, aggs) = self.agg.expect("only an aggregation has partials");
        let mut cols = partial.into_iter();
        let vals: Vec<Value> = cols.by_ref().take(group_by.len()).collect();
        let hash = hash_values(&vals);
        let states = aggs
            .iter()
            .map(|a| AggState::read_partial(a.func, &mut cols));
        match self.groups.find(hash, vals.iter()) {
            Some(g) => {
                for (mine, theirs) in self.groups.groups[g].1.iter_mut().zip(states) {
                    mine.merge(theirs);
                }
            }
            None => {
                self.groups.add(hash, (vals, states.collect()));
            }
        }
    }

    /// End in final rows: one per group — group values, then each
    /// aggregate's value — in group-key order. No input row, no group.
    pub(super) fn finish(self) -> Vec<Row> {
        self.groups.drain(|s, row| row.push(s.finalize()))
    }

    /// End in transferable rows (storage side): one per group — group
    /// values, then each aggregate's partial state.
    pub(super) fn partials(self) -> Vec<Row> {
        self.groups.drain(AggState::write_partial)
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Ordering;

    use super::*;
    use crate::query::expr::CmpOp;
    use crate::row::encode_row;
    use proptest::prelude::*;

    /// `(g1, g2, v, w)` → `[g1, g2, v, w]`: `g1` NULL or an int, `g2` a
    /// string, `v` NULL, an int (odd) or an integer-valued double (even) —
    /// so sums are exact in any order and equal values are equal `Value`s —
    /// and `w` an int to filter on.
    fn row((g1, g2, v, w): (i64, usize, i64, i64)) -> Row {
        vec![
            Some(g1).filter(|g| *g != 0).map_or(Value::Null, Value::Int),
            Value::Str(["a", "b", "c"][g2].into()),
            match v {
                0 => Value::Null,
                v if v % 2 == 0 => Value::Double(v as f64),
                v => Value::Int(v),
            },
            Value::Int(w),
        ]
    }

    /// The naive reference: filter, group in a `Vec`-based table, finalize
    /// all six functions over column 2, order by the encoded output row.
    fn reference(rows: &[Row], keep_below: Option<i64>, group_by: &[usize]) -> Vec<Row> {
        let mut table: Vec<(Vec<Value>, Vec<&Value>)> = Vec::new();
        for r in rows {
            if keep_below.is_some_and(|t| r[3].as_int() >= t) {
                continue;
            }
            let key: Vec<Value> = group_by.iter().map(|i| r[*i].clone()).collect();
            match table.iter_mut().find(|(k, _)| *k == key) {
                Some((_, all)) => all.push(&r[2]),
                None => table.push((key, vec![&r[2]])),
            }
        }
        let finalize = |(mut out, all): (Vec<Value>, Vec<&Value>)| {
            let vals: Vec<&Value> = all.iter().copied().filter(|v| !v.is_null()).collect();
            let sum: f64 = vals.iter().map(|v| v.as_f64()).sum();
            let or_null = |v: Value| if vals.is_empty() { Value::Null } else { v };
            let extreme = |want: Ordering| {
                let first = vals.iter().copied();
                let best = first.reduce(|b, v| if sort_cmp(v, b) == want { v } else { b });
                best.cloned().unwrap_or(Value::Null)
            };
            out.extend([
                Value::Int(all.len() as i64),
                Value::Int(vals.len() as i64),
                or_null(Value::Double(sum)),
                or_null(Value::Double(sum / vals.len() as f64)),
                extreme(Ordering::Less),
                extreme(Ordering::Greater),
            ]);
            out
        };
        let mut out: Vec<Row> = table.into_iter().map(finalize).collect();
        out.sort_by_key(|r| {
            let mut bytes = Vec::new();
            encode_row(r, &mut bytes);
            bytes
        });
        out
    }

    /// Two group keys whose hashes collide stay two groups, each folding
    /// its own rows in arrival order (an inexact sum shows the order), and
    /// come out in encoded-key order, not in the order they arrived.
    #[test]
    fn colliding_group_keys_stay_apart_in_arrival_order() {
        let aggs = [
            AggExpr {
                func: AggFunc::CountStar,
                expr: Expr::col(1),
            },
            AggExpr {
                func: AggFunc::Sum,
                expr: Expr::col(1),
            },
        ];
        let mut pipe = Pipeline::new(&None, &None, Some((&[0], &aggs)));
        let big = 1e16;
        let rows = [
            ("abc", big),
            ("ab", 1.0),
            ("abc", 1.0),
            ("ab", 1.0),
            ("abc", 1.0),
            ("ab", big),
        ];
        for (key, v) in rows {
            let row = vec![Value::Str(key.into()), Value::Double(v)];
            pipe.groups.update(42, &row, &[0], &aggs).unwrap();
        }
        let arrived: Vec<&Value> = pipe.groups.groups.iter().map(|(k, _)| &k[0]).collect();
        assert_eq!(
            arrived,
            [&Value::Str("abc".into()), &Value::Str("ab".into())]
        );
        let sum = |vs: &[f64]| Value::Double(vs.iter().fold(0.0, |s, v| s + v));
        assert_eq!(
            pipe.finish(),
            [
                vec![
                    Value::Str("ab".into()),
                    Value::Int(3),
                    sum(&[1.0, 1.0, big])
                ],
                vec![
                    Value::Str("abc".into()),
                    Value::Int(3),
                    sum(&[big, 1.0, 1.0])
                ],
            ]
        );
    }

    /// Encoded bytes of rows: NaN payloads and `±0.0` compare by bits.
    fn bytes(rows: &[Row]) -> Vec<u8> {
        let mut out = Vec::new();
        rows.iter().for_each(|r| encode_row(r, &mut out));
        out
    }

    proptest! {
        /// One multiset of values easy to misorder — NaNs of both signs,
        /// `±0.0`, `Int 1` and `Double 1.0`, numbers and strings — gives
        /// the same MIN and MAX bits in every arrival order, folded in one
        /// pass or merged from partials in any order, and they are the
        /// extremes of `Plan::Sort`'s order.
        #[test]
        fn min_and_max_do_not_depend_on_row_order(
            picks in proptest::collection::vec((0usize..11, any::<u32>(), 0usize..3), 1..24),
            merge_order in any::<u32>(),
        ) {
            let pool = [
                Value::Double(f64::NAN),
                Value::Double(-f64::NAN),
                Value::Double(1.0),
                Value::Int(1),
                Value::Double(0.0),
                Value::Double(-0.0),
                Value::Int(-3),
                Value::Double(f64::INFINITY),
                Value::Str("a".into()),
                Value::Str("".into()),
                Value::Null,
            ];
            let aggs = [AggFunc::Min, AggFunc::Max].map(|func| AggExpr { func, expr: Expr::col(0) });
            let agg = Some((&[][..], &aggs[..]));
            let rows: Vec<(Row, u32, usize)> = picks
                .iter()
                .map(|(v, order, part)| (vec![pool[*v].clone()], *order, *part))
                .collect();
            let mut sorted: Vec<&Value> = rows.iter().map(|(r, ..)| &r[0]).filter(|v| !v.is_null()).collect();
            sorted.sort_by(|a, b| sort_cmp(a, b));
            let ends = |end: Option<&&Value>| end.map_or(Value::Null, |v| (*v).clone());
            let want = bytes(&[vec![ends(sorted.first()), ends(sorted.last())]]);

            let mut shuffled: Vec<&(Row, u32, usize)> = rows.iter().collect();
            shuffled.sort_by_key(|(_, order, _)| *order);
            for arrival in [rows.iter().collect(), shuffled] {
                let mut pipe = Pipeline::new(&None, &None, agg);
                for (r, ..) in &arrival {
                    pipe.push(Cow::Borrowed(r)).unwrap();
                }
                prop_assert_eq!(bytes(&pipe.finish()), want.clone());

                // Three partitions' partials, merged in a drawn order.
                let mut merged = Pipeline::new(&None, &None, agg);
                for p in (0..3).map(|k| (k + merge_order as usize) % 3) {
                    let mut part = Pipeline::new(&None, &None, agg);
                    for (r, _, _) in arrival.iter().filter(|(.., q)| *q == p) {
                        part.push(Cow::Borrowed(r)).unwrap();
                    }
                    part.partials().into_iter().for_each(|row| merged.absorb(row));
                }
                prop_assert_eq!(bytes(&merged.finish()), want.clone());
            }
        }

        #[test]
        fn matches_the_naive_reference_and_merges_partials_in_any_order(
            raw in proptest::collection::vec((0i64..4, 0usize..3, -6i64..7, 0i64..10), 0..60),
            n_groups in 0usize..3,
            keep_below in 0i64..13, // 10 and up: no filter
            swap in 0u8..2,
            parts in proptest::collection::vec((0usize..4, 0u32..1000), 60..61),
            k in 1usize..5,
        ) {
            let rows: Vec<Row> = raw.into_iter().map(row).collect();
            let keep_below = Some(keep_below).filter(|t| *t < 10);
            let filter = keep_below.map(|t| Expr::cmp(CmpOp::Lt, Expr::col(3), Expr::int(t)));
            // Group by (g2, g1), directly or through a projection that
            // swaps the two columns.
            let cols = |order: [usize; 4]| order.map(Expr::col).to_vec();
            let project = (swap == 1).then(|| cols([1, 0, 2, 3]));
            let group_by = if swap == 1 { [0, 1] } else { [1, 0] };
            let group_by = &group_by[..n_groups];
            let funcs = [
                AggFunc::CountStar,
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Avg,
                AggFunc::Min,
                AggFunc::Max,
            ];
            let aggs = funcs.map(|func| AggExpr { func, expr: Expr::col(2) });
            let agg = Some((group_by, &aggs[..]));

            // Single pass: the reference's rows, in group-key order.
            let expect = reference(&rows, keep_below, &[1, 0][..n_groups]);
            let mut pipe = Pipeline::new(&filter, &project, agg);
            for r in &rows {
                prop_assert_eq!(pipe.push(Cow::Borrowed(r)).unwrap(), None);
            }
            let single = pipe.finish();
            prop_assert_eq!(&single, &expect);

            // Without aggregation: the kept rows, projected, in input order.
            let kept = rows.iter().filter(|r| keep_below.is_none_or(|t| r[3].as_int() < t));
            let plain: Vec<Row> = kept
                .map(|r| match &project {
                    Some(_) => vec![r[1].clone(), r[0].clone(), r[2].clone(), r[3].clone()],
                    None => r.clone(),
                })
                .collect();
            let mut pipe = Pipeline::new(&filter, &project, None);
            let mut emitted = Vec::new();
            for r in &rows {
                emitted.extend(pipe.push(Cow::Borrowed(r)).unwrap().map(Cow::into_owned));
            }
            prop_assert_eq!(pipe.seen(), rows.len());
            prop_assert_eq!(emitted, plain);
            prop_assert_eq!(pipe.finish(), Vec::<Row>::new());

            // k partitions, each ending in partials, absorbed in a random
            // order: the single-pass answer.
            let mut partials: Vec<(u32, Vec<Row>)> = (0..k)
                .map(|p| {
                    let mut pipe = Pipeline::new(&filter, &project, agg);
                    for (r, (part, _)) in rows.iter().zip(&parts) {
                        if part % k == p {
                            pipe.push(Cow::Borrowed(r)).unwrap();
                        }
                    }
                    (parts[p].1, pipe.partials())
                })
                .collect();
            partials.sort_by_key(|(order, _)| *order);
            let mut merged = Pipeline::new(&None, &None, agg);
            for partial in partials.into_iter().flat_map(|(_, rows)| rows) {
                merged.absorb(partial);
            }
            prop_assert_eq!(merged.finish(), single);
        }
    }
}
