//! Property tests for the parallel apply pipeline and point-in-time
//! restore:
//!
//! 1. `apply_batch`'s four page partitions (`page_no % 4`, each booked on
//!    the node's CPU) produce page images **byte-identical** to a serial
//!    fold of the same multi-page stream — partitioning by page id must
//!    not reorder any page's records.
//! 2. `restore_to_lsn(l)` reproduces exactly the state of a fresh store
//!    that was only ever shipped the stream's prefix up to `l` (the stream
//!    is shorter than a checkpoint's cadence, so the full log stays
//!    coverable).
//! 3. Under random schedules of ships, per-replica applies, checkpoints,
//!    readers holding images, and restores after which the stream goes on
//!    with other records at the discarded LSNs: once every replica has
//!    applied through, every image equals the serial replay of the
//!    surviving history, and the replicas hold one allocation per page
//!    version (the fleet shares images). Along the way, every checkpoint
//!    serves exactly the live map's images, and every gossip reply is the
//!    LSN-ordered prefix, above the requested LSN, of an unbounded one.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use vedb_astore::PageId;
use vedb_pagestore::page::{Page, PageType};
use vedb_pagestore::redo::{CellList, PageOp, RedoRecord};
use vedb_pagestore::{PageStore, PageStoreError, PageStoreServer, PsSegmentKey};
use vedb_rdma::RpcFabric;
use vedb_sim::{ClusterSpec, SimCtx};

#[derive(Debug, Clone)]
enum GenOp {
    Insert(u8, Vec<u8>),
    Update(u8, Vec<u8>),
    Delete(u8),
    SetNext(u32),
    Build(bool, u32, Vec<Vec<u8>>),
    Truncate(u8, u32),
}

fn gen_op() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        4 => (any::<u8>(), proptest::collection::vec(any::<u8>(), 1..48))
            .prop_map(|(s, c)| GenOp::Insert(s, c)),
        2 => (any::<u8>(), proptest::collection::vec(any::<u8>(), 1..48))
            .prop_map(|(s, c)| GenOp::Update(s, c)),
        2 => any::<u8>().prop_map(GenOp::Delete),
        1 => any::<u32>().prop_map(GenOp::SetNext),
        1 => (
            any::<bool>(),
            any::<u32>(),
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 0..24),
        )
            .prop_map(|(leaf, next, cells)| GenOp::Build(leaf, next, cells)),
        1 => (any::<u8>(), any::<u32>()).prop_map(|(f, next)| GenOp::Truncate(f, next)),
    ]
}

/// Target pages: several in one segment (distinct apply partitions), one
/// in another segment of the same space, one in another space.
const PAGES: [PageId; 5] = [
    PageId {
        space_no: 1,
        page_no: 3,
    },
    PageId {
        space_no: 1,
        page_no: 4,
    },
    PageId {
        space_no: 1,
        page_no: 9,
    },
    PageId {
        space_no: 1,
        page_no: 300,
    },
    PageId {
        space_no: 2,
        page_no: 5,
    },
];

/// Converts generator ops into a *valid* interleaved multi-page record
/// stream, tracking a model image per page (slot indexes must be in range
/// at apply time). Each page's first record formats it.
#[derive(Default)]
struct Realizer {
    models: HashMap<PageId, Page>,
    lsn: u64,
}

impl Realizer {
    /// A realizer that goes on from `history`, its LSNs following its tail.
    fn after(history: &[RedoRecord]) -> Realizer {
        let mut r = Realizer {
            lsn: history.last().map_or(0, |rec| rec.lsn),
            ..Realizer::default()
        };
        for rec in history {
            rec.apply(r.models.entry(rec.page).or_default()).unwrap();
        }
        r
    }

    /// Append the records `(pidx, op)` becomes to `out`: none if the op
    /// does not fit the page, a format first if the page is new.
    fn realize(&mut self, (pidx, op): &(u8, GenOp), out: &mut Vec<RedoRecord>) {
        let page = PAGES[*pidx as usize % PAGES.len()];
        if !self.models.contains_key(&page) {
            self.lsn += 10;
            let rec = RedoRecord {
                lsn: self.lsn,
                prev_same_segment: 0,
                txn_id: 1,
                page,
                op: PageOp::Format {
                    ty: PageType::BTreeLeaf,
                    level: 0,
                },
            };
            rec.apply(self.models.entry(page).or_default()).unwrap();
            out.push(rec);
        }
        let model = self.models.get_mut(&page).unwrap();
        let n = model.n_slots();
        let op = match op {
            GenOp::Insert(slot, cell) => {
                if !model.can_insert(cell.len()) {
                    return;
                }
                PageOp::InsertAt {
                    slot: (*slot as usize % (n + 1)) as u16,
                    cell: cell.clone(),
                }
            }
            GenOp::Update(slot, cell) if n > 0 => PageOp::Update {
                slot: (*slot as usize % n) as u16,
                cell: cell.clone(),
            },
            GenOp::Delete(slot) if n > 0 => PageOp::Delete {
                slot: (*slot as usize % n) as u16,
            },
            GenOp::SetNext(p) => PageOp::SetNextPage { page_no: *p },
            GenOp::Build(leaf, next, cells) => PageOp::Build {
                ty: if *leaf {
                    PageType::BTreeLeaf
                } else {
                    PageType::BTreeInternal
                },
                level: u8::from(!*leaf),
                next_page: *next,
                cells: CellList::from_cells(cells.iter().map(Vec::as_slice)),
            },
            GenOp::Truncate(from, next) => PageOp::Truncate {
                from: (*from as usize % (n + 1)) as u16,
                next_page: *next,
            },
            _ => return,
        };
        self.lsn += 10;
        let rec = RedoRecord {
            lsn: self.lsn,
            prev_same_segment: 0,
            txn_id: 1,
            page,
            op,
        };
        if rec.apply(model).is_err() {
            return; // page full on update-grow: skip, keep stream valid
        }
        out.push(rec);
    }
}

/// The whole stream `ops` becomes, and the model image of every page.
fn realize_multi(ops: &[(u8, GenOp)]) -> (Vec<RedoRecord>, HashMap<PageId, Page>) {
    let mut realizer = Realizer::default();
    let mut records = Vec::new();
    for op in ops {
        realizer.realize(op, &mut records);
    }
    (records, realizer.models)
}

/// One step of a random fleet schedule. Page and replica selectors are
/// taken modulo the page list and the replica count.
#[derive(Debug, Clone)]
enum Step {
    /// Ship the stream's next few ops.
    Ship(u8),
    /// One replica applies what it has queued for one page's segment.
    Apply(u8, u8),
    /// One replica checkpoints one page's segment.
    Checkpoint(u8, u8),
    /// One replica serves a gossip pull of one page's segment from an LSN.
    Gossip(u8, u8, u16),
    /// A reader takes one replica's image of a page and keeps it.
    Read(u8, u8),
    /// Restore the fleet to a point of the history. The stream goes on from
    /// there with other records, at the LSNs the restore discarded.
    Restore(u16),
}

fn gen_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (1u8..6).prop_map(Step::Ship),
        3 => (any::<u8>(), any::<u8>()).prop_map(|(p, r)| Step::Apply(p, r)),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(p, r)| Step::Checkpoint(p, r)),
        1 => (any::<u8>(), any::<u8>(), any::<u16>()).prop_map(|(p, r, f)| Step::Gossip(p, r, f)),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(p, r)| Step::Read(p, r)),
        1 => any::<u16>().prop_map(Step::Restore),
    ]
}

fn store() -> (Arc<vedb_sim::SimEnv>, Arc<PageStore>) {
    let env = ClusterSpec::paper_default().build();
    let servers: Vec<Arc<PageStoreServer>> = env
        .storage_nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            PageStoreServer::new(
                200 + i as u32,
                Arc::clone(n),
                n.ssd.clone().unwrap(),
                env.model.clone(),
            )
        })
        .collect();
    let rpc = Arc::new(RpcFabric::new(env.model.clone(), Arc::clone(&env.faults)));
    let ps = PageStore::new(rpc, servers);
    (env, ps)
}

/// Every replica's image of every touched page, applied and collected.
fn all_images(ctx: &mut SimCtx, ps: &PageStore, touched: &[PageId]) -> Vec<(PageId, usize, Page)> {
    let mut out = Vec::new();
    for page in touched {
        let key = PsSegmentKey::of(*page);
        for (ri, server) in ps.replicas_of(key).iter().enumerate() {
            server.apply_pending(ctx, key).unwrap();
            let img = server
                .local_page(ctx, *page, 0)
                .unwrap_or_else(|e| panic!("replica {ri} lost page {page}: {e}"));
            out.push((*page, ri, Page::clone(&img)));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_apply_matches_serial_byte_identical(
        ops in proptest::collection::vec((any::<u8>(), gen_op()), 1..120),
    ) {
        let (records, models) = realize_multi(&ops);
        let touched: Vec<PageId> = models.keys().copied().collect();

        let (_env, ps) = store();
        let mut ctx = SimCtx::new(1, 5);
        ps.ship(&mut ctx, &records).unwrap();

        // Every replica's image is the model's serial fold (log-is-database).
        for (page, _, img) in all_images(&mut ctx, &ps, &touched) {
            prop_assert_eq!(&img, &models[&page], "page {}", page);
        }
    }

    #[test]
    fn restore_to_lsn_matches_fresh_run_truncated(
        ops in proptest::collection::vec((any::<u8>(), gen_op()), 2..100),
        cut_sel in any::<u16>(),
    ) {
        let (records, _) = realize_multi(&ops);
        let cut = cut_sel as usize % records.len();
        let cut_lsn = records[cut].lsn;
        let prefix = &records[..=cut];
        let touched: Vec<PageId> = {
            let mut p: Vec<PageId> = prefix.iter().map(|r| r.page).collect();
            p.sort_unstable();
            p.dedup();
            p
        };

        let (_e1, restored) = store();
        let (_e2, fresh) = store();
        let mut c1 = SimCtx::new(1, 5);
        let mut c2 = SimCtx::new(1, 5);

        // Full history, then rewind to the cut...
        restored.ship(&mut c1, &records).unwrap();
        restored.restore_to_lsn(&mut c1, cut_lsn).unwrap();
        // ...versus a store that only ever saw the prefix.
        fresh.ship(&mut c2, prefix).unwrap();

        let mut imgs_r = all_images(&mut c1, &restored, &touched);
        let mut imgs_f = all_images(&mut c2, &fresh, &touched);
        imgs_r.sort_by_key(|(p, ri, _)| (*p, *ri));
        imgs_f.sort_by_key(|(p, ri, _)| (*p, *ri));
        prop_assert_eq!(imgs_r, imgs_f);

        // Watermarks agree too: nothing beyond the cut survives.
        for page in &touched {
            let key = PsSegmentKey::of(*page);
            for (r, f) in restored
                .replicas_of(key)
                .iter()
                .zip(fresh.replicas_of(key).iter())
            {
                prop_assert_eq!(r.applied_lsn(key), f.applied_lsn(key));
                prop_assert_eq!(r.retained_count(key), f.retained_count(key));
            }
        }
    }
}

proptest! {
    // A case takes well under a millisecond, and the schedules that reach a
    // restore's base install with images the index has dropped are rare.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn shared_images_match_serial_replay_under_random_schedules(
        ops in proptest::collection::vec((any::<u8>(), gen_op()), 1..160),
        steps in proptest::collection::vec(gen_step(), 1..60),
    ) {
        let (_env, ps) = store();
        let mut ctx = SimCtx::new(1, 5);
        let page_of = |sel: u8| PAGES[sel as usize % PAGES.len()];
        let mut keys: Vec<PsSegmentKey> = PAGES.iter().map(|p| PsSegmentKey::of(*p)).collect();
        keys.sort_unstable();
        keys.dedup();
        let replica = |key: PsSegmentKey, sel: u8| {
            let replicas = ps.replicas_of(key);
            Arc::clone(&replicas[sel as usize % replicas.len()])
        };

        let mut stream = ops.iter();
        let mut realizer = Realizer::default();
        let mut history: Vec<RedoRecord> = Vec::new();
        let mut readers: Vec<Arc<Page>> = Vec::new();
        for step in steps {
            match step {
                Step::Ship(n) => {
                    let mut batch = Vec::new();
                    for op in stream.by_ref().take(n as usize) {
                        realizer.realize(op, &mut batch);
                    }
                    ps.ship(&mut ctx, &batch).unwrap();
                    history.extend(batch);
                }
                Step::Apply(p, r) => {
                    let key = PsSegmentKey::of(page_of(p));
                    replica(key, r).apply_pending(&mut ctx, key).unwrap();
                }
                Step::Checkpoint(p, r) => {
                    let key = PsSegmentKey::of(page_of(p));
                    let server = replica(key, r);
                    server.checkpoint_segment(&mut ctx, key).unwrap();
                    // The snapshot served is the live map, pointer for pointer.
                    if let Some((_, snapshot)) = server.handle_get_checkpoint(key, 0) {
                        let mut live: Vec<(u32, Arc<Page>)> = PAGES
                            .iter()
                            .filter(|page| PsSegmentKey::of(**page) == key)
                            .filter_map(|page| {
                                let img = server.local_page(&mut ctx, *page, 0).ok()?;
                                Some((page.page_no, img))
                            })
                            .collect();
                        live.sort_by_key(|(no, _)| *no);
                        let numbers = |v: &[(u32, Arc<Page>)]| v.iter().map(|(no, _)| *no).collect::<Vec<_>>();
                        prop_assert_eq!(numbers(&snapshot), numbers(&live), "{:?}", key);
                        for ((no, snap), (_, img)) in snapshot.iter().zip(&live) {
                            prop_assert!(Arc::ptr_eq(snap, img), "page {} of {:?}", no, key);
                        }
                    }
                }
                Step::Gossip(p, r, from) => {
                    let key = PsSegmentKey::of(page_of(p));
                    let server = replica(key, r);
                    let from = u64::from(from) % (realizer.lsn + 20);
                    let reply = server.handle_get_records(key, from, 8);
                    let all = server.handle_get_records(key, from, usize::MAX);
                    prop_assert!(reply.len() <= 8);
                    prop_assert!(reply.iter().all(|rec| rec.lsn > from), "from {}", from);
                    prop_assert!(reply.windows(2).all(|w| w[0].lsn < w[1].lsn), "from {}", from);
                    prop_assert!(all.windows(2).all(|w| w[0].lsn < w[1].lsn), "from {}", from);
                    prop_assert_eq!(reply.len(), all.len().min(8));
                    for (a, b) in reply.iter().zip(&all) {
                        prop_assert!(Arc::ptr_eq(a, b), "from {}: not a prefix", from);
                    }
                }
                Step::Read(p, r) => {
                    let page = page_of(p);
                    let server = replica(PsSegmentKey::of(page), r);
                    if let Ok(img) = server.local_page(&mut ctx, page, 0) {
                        readers.push(img);
                    }
                }
                Step::Restore(sel) => {
                    // Redo below a checkpoint may be truncated: restore to
                    // a point no checkpoint is past.
                    let floor = keys
                        .iter()
                        .flat_map(|k| ps.replicas_of(*k).into_iter().map(|s| s.checkpoint_lsn(*k)))
                        .max()
                        .unwrap_or(0);
                    let points: Vec<u64> =
                        history.iter().map(|r| r.lsn).filter(|l| *l >= floor).collect();
                    if points.is_empty() {
                        continue;
                    }
                    let cut = points[sel as usize % points.len()];
                    ps.restore_to_lsn(&mut ctx, cut).unwrap();
                    history.retain(|r| r.lsn <= cut);
                    realizer = Realizer::after(&history);
                }
            }
        }

        // Once every replica has applied through...
        for key in &keys {
            for server in ps.replicas_of(*key) {
                server.apply_pending(&mut ctx, *key).unwrap();
            }
        }
        let models = Realizer::after(&history).models;
        for page in PAGES {
            let key = PsSegmentKey::of(page);
            let images: Vec<_> = ps
                .replicas_of(key)
                .iter()
                .map(|s| s.local_page(&mut ctx, page, 0))
                .collect();
            let Some(model) = models.get(&page) else {
                for img in images {
                    prop_assert!(matches!(img, Err(PageStoreError::UnknownPage(_))), "page {}", page);
                }
                continue;
            };
            let images: Vec<Arc<Page>> = images.into_iter().map(Result::unwrap).collect();
            // ...every image equals the serial replay of the history...
            for img in &images {
                prop_assert_eq!(&**img, model, "page {}", page);
            }
            // ...and each page version is one allocation.
            let mut allocations: Vec<*const Page> = images.iter().map(Arc::as_ptr).collect();
            let mut versions: Vec<u64> = images.iter().map(|img| img.lsn()).collect();
            allocations.sort_unstable();
            allocations.dedup();
            versions.sort_unstable();
            versions.dedup();
            prop_assert_eq!(allocations.len(), versions.len(), "page {}", page);
        }
        drop(readers);
    }
}
