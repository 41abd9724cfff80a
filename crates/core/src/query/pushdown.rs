//! The query push-down framework (§VI).
//!
//! Eligible plan fragments — single-table scans with simple filters and/or
//! aggregation, no joins or subqueries — are serialized and executed *where
//! the pages live*:
//!
//! * pages cached in the **EBP** run on their AStore server, reading local
//!   PMem and using the CPU cores that one-sided RDMA leaves idle (§VI-B);
//! * the remaining pages run on their **PageStore** server, reading local
//!   SSD (§VI-A).
//!
//! The engine splits the fragment into per-server tasks from the EBP index
//! and the PageStore routing, dispatches them in parallel, and performs
//! secondary aggregation over the returned partials; a task without an
//! aggregation streams its rows to the engine's consumer as it produces
//! them. The decision to push down is a page-count threshold plus a session
//! flag, exactly as in the paper.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use vedb_astore::{AStoreServer, Lsn, PageId};
use vedb_pagestore::page::{Page, PageType};
use vedb_pagestore::{PageStoreError, PageStoreServer, PsSegmentKey};
use vedb_sim::bytes::Reader;
use vedb_sim::fault::NodeId;
use vedb_sim::{SimCtx, VTime};

use crate::btree::parse_leaf_cell;
use crate::db::Db;
use crate::ebp::EbpLoc;
use crate::query::exec::{QuerySession, Sink};
use crate::query::expr::{decode_expr, encode_expr, Expr};
use crate::query::pipeline::Pipeline;
use crate::query::plan::{AggExpr, AggFunc};
use crate::row::{decode_cols, ColSet, Row};
use crate::{EngineError, Result};

/// Aggregation part of a fragment.
pub type FragAgg = (Vec<usize>, Vec<AggExpr>);

/// A serialized-and-shipped plan fragment (§VI-A): scan of one table space
/// with optional filter, projection, and partial aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct Fragment {
    /// Tablespace to scan.
    pub space: u32,
    /// Filter over the raw table row.
    pub filter: Option<Expr>,
    /// Projection over the raw table row.
    pub project: Option<Vec<Expr>>,
    /// Partial aggregation: (group-by column indexes, aggregates).
    pub agg: Option<FragAgg>,
    /// What the engine reads of the returned rows. It decides what the scan
    /// decodes only when nothing above does: with a projection or an
    /// aggregation the operators' own inputs are what is read, and
    /// [`Fragment::scan`] leaves this at every column (one byte on the wire).
    pub need: ColSet,
}

impl Fragment {
    /// The fragment scanning `table` for a consumer that reads `need`.
    pub fn scan(
        db: &Db,
        table: &str,
        filter: &Option<Expr>,
        project: &Option<Vec<Expr>>,
        agg: Option<FragAgg>,
        need: &ColSet,
    ) -> Result<Fragment> {
        let need = match (project, &agg) {
            (None, None) => need.clone(),
            _ => ColSet::all(),
        };
        Ok(Fragment {
            space: db.with_table(table, |t| t.space_no)?,
            filter: filter.clone(),
            project: project.clone(),
            agg,
            need,
        })
    }
}

/// Encode a fragment for shipping.
pub fn encode_fragment(f: &Fragment, out: &mut Vec<u8>) {
    out.extend_from_slice(&f.space.to_le_bytes());
    match &f.filter {
        Some(e) => {
            out.push(1);
            encode_expr(e, out);
        }
        None => out.push(0),
    }
    match &f.project {
        Some(exprs) => {
            out.push(1);
            out.extend_from_slice(&(exprs.len() as u32).to_le_bytes());
            for e in exprs {
                encode_expr(e, out);
            }
        }
        None => out.push(0),
    }
    match &f.agg {
        Some((group_by, aggs)) => {
            out.push(1);
            out.extend_from_slice(&(group_by.len() as u32).to_le_bytes());
            for g in group_by {
                out.extend_from_slice(&(*g as u32).to_le_bytes());
            }
            out.extend_from_slice(&(aggs.len() as u32).to_le_bytes());
            for a in aggs {
                out.push(a.func as u8);
                encode_expr(&a.expr, out);
            }
        }
        None => out.push(0),
    }
    // Demanded columns: presence, bitmask length, bitmask.
    match f.need.mask() {
        Some(mask) => {
            out.push(1);
            out.extend_from_slice(&(mask.len() as u32).to_le_bytes());
            out.extend_from_slice(mask);
        }
        None => out.push(0),
    }
}

/// Decode a fragment. Truncated or malformed bytes are a codec error, not
/// a panic: the storage-side task runs what it decodes from the request.
pub fn decode_fragment(buf: &[u8]) -> Result<Fragment> {
    let mut r = Reader::new(buf, "fragment");
    let space = r.u32()?;
    let filter = match r.u8()? {
        1 => Some(decode_expr(&mut r)?),
        _ => None,
    };
    let project = match r.u8()? {
        1 => {
            let n = r.u32()?;
            let exprs = (0..n).map(|_| decode_expr(&mut r));
            Some(exprs.collect::<Result<_>>()?)
        }
        _ => None,
    };
    let agg = match r.u8()? {
        1 => {
            let n = r.u32()?;
            let group_by = (0..n).map(|_| r.u32().map(|g| g as usize));
            let group_by = group_by.collect::<std::result::Result<_, _>>()?;
            let m = r.u32()?;
            let aggs = (0..m).map(|_| {
                let func = match r.u8()? {
                    0 => AggFunc::CountStar,
                    1 => AggFunc::Count,
                    2 => AggFunc::Sum,
                    3 => AggFunc::Avg,
                    4 => AggFunc::Min,
                    5 => AggFunc::Max,
                    t => return Err(EngineError::Codec(format!("bad agg func {t}"))),
                };
                let expr = decode_expr(&mut r)?;
                Ok(AggExpr { func, expr })
            });
            Some((group_by, aggs.collect::<Result<_>>()?))
        }
        _ => None,
    };
    let need = match r.u8()? {
        1 => {
            let len = r.u32()? as usize;
            ColSet::from_mask(r.take(len)?)
        }
        _ => ColSet::all(),
    };
    Ok(Fragment {
        space,
        filter,
        project,
        agg,
        need,
    })
}

/// Is this table's scan worth pushing down under the session settings?
/// The paper's simple rule (§VI-A): the session flag plus a threshold on
/// the table's allocated pages.
pub fn eligible(db: &Db, session: &QuerySession, table: &str) -> Result<bool> {
    if !session.pushdown {
        return Ok(false);
    }
    let space = db.with_table(table, |t| t.space_no)?;
    Ok(db.space_pages(space) >= session.pushdown_min_pages)
}

/// One server's share of a fragment: the pages it holds, with the handle
/// that reads them where they live.
enum Task {
    /// Pages cached in the EBP on an AStore node (local PMem).
    Ebp(Arc<AStoreServer>, Vec<EbpLoc>),
    /// Pages of a PageStore node (local SSD): (page, required LSN).
    PageStore(Arc<PageStoreServer>, Vec<(PageId, Lsn)>),
}

/// Split a fragment into per-server tasks by page location (§VI-B: "the
/// original request gets split up into parallel tasks by looking up the
/// requested pages in the EBP index"). Task order is a function of the
/// data — EBP tasks by ascending node, then PageStore tasks by ascending
/// node, pages in page order inside each — because it is the order RPCs
/// are issued, partial sums are merged and plain rows come back in.
fn split_tasks(db: &Db, space: u32) -> Result<Vec<Task>> {
    let mut ebp_groups: BTreeMap<NodeId, Vec<EbpLoc>> = BTreeMap::new();
    let mut ps_groups = BTreeMap::new(); // node → (its server, pages)
    for page_no in 1..=db.space_pages(space) {
        let pid = PageId::new(space, page_no);
        let need_lsn = db.page_lsn(pid);
        let ebp_hit = db
            .ebp()
            .and_then(|e| e.locate(pid))
            .filter(|loc| loc.lsn >= need_lsn);
        match ebp_hit {
            Some(loc) => ebp_groups.entry(loc.node).or_default().push(loc),
            None => {
                let key = PsSegmentKey::of(pid);
                let server = db.pagestore().replicas_of(key).swap_remove(0);
                let node = server.node();
                let (_, pages) = ps_groups.entry(node).or_insert((server, Vec::new()));
                pages.push((pid, need_lsn));
            }
        }
    }
    let mut tasks = Vec::with_capacity(ebp_groups.len() + ps_groups.len());
    for (node, locs) in ebp_groups {
        let server = db
            .astore_client()
            .and_then(|c| c.server(node))
            .ok_or_else(|| EngineError::Query(format!("no AStore server {node}")))?;
        tasks.push(Task::Ebp(server, locs));
    }
    tasks.extend(
        ps_groups
            .into_values()
            .map(|(s, pages)| Task::PageStore(s, pages)),
    );
    Ok(tasks)
}

impl Task {
    /// Read this task's `i`-th page where it lives: when the read is done,
    /// and the image — `None` if the server no longer has it.
    fn read_page(&self, c: &mut SimCtx, db: &Db, i: usize) -> Result<(VTime, Option<Arc<Page>>)> {
        match self {
            Task::Ebp(server, locs) => {
                let loc = &locs[i];
                let Some(seg_off) = server.segment_offset(loc.seg.id) else {
                    return Ok((c.now(), None));
                };
                // Local PMem read (no network). Nothing advances `c` before
                // an EBP task's final wait, so every read is booked at the
                // task's issue time: they stream across the PMem lanes and
                // the device queue models the parallelism.
                let pmem = server.res().pmem.as_ref().expect("astore node pmem");
                let done = pmem.acquire(c.now(), db.env().model.pmem_read_svc(loc.len as usize));
                let image = server.device().peek(seg_off + loc.offset, loc.len as usize);
                let page = image.ok().and_then(|bytes| Page::from_vec(bytes).ok());
                Ok((done, page.map(Arc::new)))
            }
            Task::PageStore(server, pages) => {
                let (pid, min_lsn) = pages[i];
                match server.local_page(c, pid, min_lsn) {
                    Ok(page) => Ok((c.now(), Some(page))),
                    Err(PageStoreError::UnknownPage(_)) => Ok((c.now(), None)),
                    Err(e) => Err(e.into()),
                }
            }
        }
    }
}

/// Execute one task on its server, charging that server's resources: the
/// server decodes the shipped fragment and runs it over its pages. Without
/// an aggregation each row the task emits goes to `sink` as it is produced;
/// an aggregation's partial-state rows come back and are absorbed into
/// `merged`. Either way the response is charged at 48 bytes a row.
fn run_task(
    ctx: &mut SimCtx,
    db: &Db,
    frag_bytes: &[u8],
    task: &Task,
    merged: &mut Pipeline<'_>,
    sink: Sink<'_>,
) -> Result<()> {
    // Request bytes per page and operator cost per scanned row.
    let (node, res, n_pages, page_ref_bytes, per_row_ns) = match task {
        Task::Ebp(server, locs) => (server.node(), server.res(), locs.len(), 16, 200),
        Task::PageStore(server, pages) => (server.node(), server.res(), pages.len(), 12, 250),
    };
    let req_bytes = frag_bytes.len() + n_pages * page_ref_bytes;
    let (n_rows, partials) = db.rpc().call(ctx, node, res, req_bytes, 0, |c| {
        let frag = decode_fragment(frag_bytes)?;
        let mut pipe = Pipeline::new(&frag.filter, &frag.project, agg_of(&frag));
        // Only what the fragment reads of a row is built, in one buffer.
        let reads = pipe.demand(&frag.need);
        let (mut row, mut n_rows) = (Row::new(), 0);
        // The storage-side scan pipelines: pages are handed to idle cores
        // as their reads complete, overlapping the remaining reads (§VI-B).
        // The task finishes when both the last read and the operator work
        // are done.
        let (mut io_done, mut cpu_done) = (c.now(), c.now());
        for i in 0..n_pages {
            let (ready_at, page) = task.read_page(c, db, i)?;
            io_done = io_done.max(ready_at);
            // Only leaves hold rows.
            let Some(page) = page.filter(|p| p.page_type() == PageType::BTreeLeaf) else {
                continue;
            };
            for cell in page.iter() {
                let (_key, payload) = parse_leaf_cell(cell);
                decode_cols(payload, &reads, &mut row)?;
                if let Some(out) = pipe.push(Cow::Borrowed(&row))? {
                    n_rows += 1;
                    sink(out)?;
                }
            }
            let page_rows = page.n_slots() as u64;
            if page_rows > 0 {
                let cost = VTime::from_nanos(page_rows * per_row_ns);
                cpu_done = cpu_done.max(res.cpu.acquire(ready_at, cost));
            }
        }
        c.wait_until(io_done.max(cpu_done));
        // The emitted rows are sent; an aggregation's partials go now.
        let partials = match frag.agg {
            Some(_) => pipe.partials(),
            None => Vec::new(),
        };
        Ok::<_, EngineError>((n_rows + partials.len(), partials))
    })??;
    // Response streaming back to the engine: charge the transfer size.
    let resp_bytes = n_rows * 48;
    ctx.advance(VTime::from_nanos(
        (resp_bytes as u64).div_ceil(1024) * db.env().model.wire_per_kb_ns,
    ));
    for row in partials {
        merged.absorb(row);
    }
    Ok(())
}

fn agg_of(frag: &Fragment) -> Option<(&[usize], &[AggExpr])> {
    frag.agg.as_ref().map(|(g, a)| (&g[..], &a[..]))
}

/// Orchestrate a pushed-down scan (optionally with partial aggregation):
/// split → parallel dispatch → collect → secondary aggregation (§VI-B).
/// The rows go to `sink`: the tasks' in task order, or the merged groups.
pub(super) fn pushdown_scan(
    ctx: &mut SimCtx,
    db: &Db,
    frag: &Fragment,
    sink: Sink<'_>,
) -> Result<()> {
    // PageStore must be able to serve every logged page version.
    db.flush_ship(ctx, true);
    let mut frag_bytes = Vec::with_capacity(128);
    encode_fragment(frag, &mut frag_bytes);
    // Serialization cost on the engine.
    let done = db.env().engine_cpu.acquire(
        ctx.now(),
        VTime::from_nanos(db.env().model.cpu_fragment_codec_ns),
    );
    ctx.wait_until(done);

    // Secondary aggregation over the tasks' partials, in task order.
    let mut merged = Pipeline::new(&None, &None, agg_of(frag));
    let mut done_max = ctx.now();
    for task in &split_tasks(db, frag.space)? {
        let mut task_ctx = ctx.fork();
        run_task(&mut task_ctx, db, &frag_bytes, task, &mut merged, sink)?;
        done_max = done_max.max(task_ctx.now());
    }
    ctx.wait_until(done_max);
    for row in merged.finish() {
        sink(Cow::Owned(row))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::expr::CmpOp;
    use crate::row::Value;

    #[test]
    fn fragment_codec_roundtrip() {
        let frag = Fragment {
            space: 7,
            filter: Some(Expr::cmp(CmpOp::Gt, Expr::col(2), Expr::int(100))),
            project: Some(vec![Expr::col(0), Expr::mul(Expr::col(1), Expr::col(2))]),
            agg: Some((
                vec![0, 1],
                vec![
                    AggExpr::count_star(),
                    AggExpr::sum(Expr::col(2)),
                    AggExpr::avg(Expr::col(3)),
                    AggExpr::min(Expr::col(4)),
                    AggExpr::max(Expr::col(4)),
                ],
            )),
            // Two mask bytes, the first of them zero.
            need: ColSet::none().with([9, 12]),
        };
        let mut buf = Vec::new();
        encode_fragment(&frag, &mut buf);
        assert_eq!(decode_fragment(&buf).unwrap(), frag);
        // The decoder runs on a request path: a cut-off request is a codec
        // error at every length, never a panic.
        for cut in 0..buf.len() {
            let got = decode_fragment(&buf[..cut]);
            assert!(matches!(got, Err(EngineError::Codec(_))), "{cut}: {got:?}");
        }
        // The demanded columns are the last field: 1 + 4 + 2 bytes.
        assert_eq!(buf[buf.len() - 7..], [1, 2, 0, 0, 0, 0, 0b0001_0010]);

        let bare = Fragment {
            space: 1,
            filter: None,
            project: None,
            agg: None,
            need: ColSet::all(),
        };
        let mut buf2 = Vec::new();
        encode_fragment(&bare, &mut buf2);
        assert_eq!(decode_fragment(&buf2).unwrap(), bare);
        assert_eq!(buf2.len(), 4 + 4, "absent fields are one byte each");
        // Demanding nothing is not demanding everything.
        let nothing = Fragment {
            need: ColSet::none(),
            ..bare
        };
        buf2.clear();
        encode_fragment(&nothing, &mut buf2);
        assert_eq!(buf2.len(), 4 + 3 + 5);
        assert_eq!(decode_fragment(&buf2).unwrap(), nothing);
    }

    /// The bytes of a fragment over space 3 filtering on `col 0 = literal`,
    /// the literal's row built by hand from `vals`.
    fn filter_on_literal_of(vals: Row) -> Vec<u8> {
        let mut lit = Vec::new();
        crate::row::encode_row(&vals, &mut lit);
        let mut buf = 3u32.to_le_bytes().to_vec();
        // A filter: `Cmp(Eq, Col 0, Lit ..)`, the literal's length first.
        buf.extend([1, 2, CmpOp::Eq as u8, 0, 0, 0, 0, 0, 1]);
        buf.extend((lit.len() as u32).to_le_bytes());
        buf.extend(lit);
        // No projection, no aggregation, every column.
        buf.extend([0, 0, 0]);
        buf
    }

    #[test]
    fn a_literal_is_exactly_one_value() {
        let one = decode_fragment(&filter_on_literal_of(vec![Value::Int(5)])).unwrap();
        let want = Expr::eq(Expr::col(0), Expr::int(5));
        assert_eq!(one.filter, Some(want));
        for vals in [vec![], vec![Value::Int(5), Value::Int(6)]] {
            let got = decode_fragment(&filter_on_literal_of(vals));
            assert!(matches!(got, Err(EngineError::Codec(_))), "{got:?}");
        }
    }
}
