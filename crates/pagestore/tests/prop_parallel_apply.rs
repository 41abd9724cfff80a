//! Property tests for the parallel apply pipeline and point-in-time
//! restore:
//!
//! 1. An N-worker apply produces page images **byte-identical** to a
//!    serial apply of the same multi-page stream — partitioning by page id
//!    must not reorder any page's records.
//! 2. `restore_to_lsn(l)` reproduces exactly the state of a fresh store
//!    that was only ever shipped the stream's prefix up to `l` (with
//!    checkpointing disabled so the full log stays coverable).

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use vedb_astore::PageId;
use vedb_pagestore::page::{Page, PageType};
use vedb_pagestore::redo::{PageOp, RedoRecord};
use vedb_pagestore::{ApplyConfig, PageStore, PageStoreConfig, PageStoreServer};
use vedb_rdma::RpcFabric;
use vedb_sim::{ClusterSpec, SimCtx};

#[derive(Debug, Clone)]
enum GenOp {
    Insert(u8, Vec<u8>),
    Update(u8, Vec<u8>),
    Delete(u8),
    SetNext(u32),
}

fn gen_op() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        4 => (any::<u8>(), proptest::collection::vec(any::<u8>(), 1..48))
            .prop_map(|(s, c)| GenOp::Insert(s, c)),
        2 => (any::<u8>(), proptest::collection::vec(any::<u8>(), 1..48))
            .prop_map(|(s, c)| GenOp::Update(s, c)),
        2 => any::<u8>().prop_map(GenOp::Delete),
        1 => any::<u32>().prop_map(GenOp::SetNext),
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

/// Convert generator ops into a *valid* interleaved multi-page record
/// stream, tracking a model image per page (slot indexes must be in range
/// at apply time). Each page's first record formats it.
fn realize_multi(ops: &[(u8, GenOp)]) -> (Vec<RedoRecord>, HashMap<PageId, Page>) {
    let mut models: HashMap<PageId, Page> = HashMap::new();
    let mut records: Vec<RedoRecord> = Vec::new();
    let mut lsn = 0u64;
    for (pidx, op) in ops {
        let page = PAGES[*pidx as usize % PAGES.len()];
        if !models.contains_key(&page) {
            lsn += 10;
            let rec = RedoRecord {
                lsn,
                prev_same_segment: 0,
                txn_id: 1,
                page,
                op: PageOp::Format {
                    ty: PageType::BTreeLeaf,
                    level: 0,
                },
            };
            rec.apply(models.entry(page).or_default()).unwrap();
            records.push(rec);
        }
        let model = models.get_mut(&page).unwrap();
        let n = model.n_slots();
        let op = match op {
            GenOp::Insert(slot, cell) => {
                if !model.can_insert(cell.len()) {
                    continue;
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
            _ => continue,
        };
        lsn += 10;
        let rec = RedoRecord {
            lsn,
            prev_same_segment: 0,
            txn_id: 1,
            page,
            op,
        };
        if rec.apply(model).is_err() {
            continue; // page full on update-grow: skip, keep stream valid
        }
        records.push(rec);
    }
    (records, models)
}

fn store_with(apply: ApplyConfig) -> (Arc<vedb_sim::SimEnv>, Arc<PageStore>) {
    let env = ClusterSpec::paper_default().build();
    let servers: Vec<Arc<PageStoreServer>> = env
        .storage_nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            PageStoreServer::with_apply(
                200 + i as u32,
                Arc::clone(n),
                env.model.clone(),
                apply.clone(),
            )
        })
        .collect();
    let rpc = Arc::new(RpcFabric::new(env.model.clone(), Arc::clone(&env.faults)));
    let ps = PageStore::new(PageStoreConfig::default(), rpc, servers);
    (env, ps)
}

/// Every replica's image of every touched page, applied and collected.
fn all_images(ctx: &mut SimCtx, ps: &PageStore, touched: &[PageId]) -> Vec<(PageId, usize, Page)> {
    let mut out = Vec::new();
    for page in touched {
        let key = ps.cfg().segment_of(*page);
        for (ri, server) in ps.replicas_of(key).iter().enumerate() {
            server.apply_pending(ctx, key).unwrap();
            let img = server
                .local_page(ctx, ps.cfg(), *page, 0)
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
        workers in 2usize..9,
    ) {
        let (records, models) = realize_multi(&ops);
        let touched: Vec<PageId> = models.keys().copied().collect();

        let no_ckpt = |w: usize| ApplyConfig { workers: w, checkpoint_every_records: 0 };
        let (_e1, serial) = store_with(no_ckpt(1));
        let (_e2, parallel) = store_with(no_ckpt(workers));
        let mut c1 = SimCtx::new(1, 5);
        let mut c2 = SimCtx::new(1, 5);
        serial.ship(&mut c1, &records).unwrap();
        parallel.ship(&mut c2, &records).unwrap();

        let mut imgs_s = all_images(&mut c1, &serial, &touched);
        let mut imgs_p = all_images(&mut c2, &parallel, &touched);
        imgs_s.sort_by_key(|(p, ri, _)| (*p, *ri));
        imgs_p.sort_by_key(|(p, ri, _)| (*p, *ri));
        prop_assert_eq!(imgs_s, imgs_p);

        // And both match the model (log-is-database).
        for (page, _, img) in all_images(&mut c2, &parallel, &touched) {
            prop_assert_eq!(&img, &models[&page], "page {}", page);
        }
    }

    #[test]
    fn restore_to_lsn_matches_fresh_run_truncated(
        ops in proptest::collection::vec((any::<u8>(), gen_op()), 2..100),
        cut_sel in any::<u16>(),
        workers in 1usize..9,
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

        let cfg = ApplyConfig { workers, checkpoint_every_records: 0 };
        let (_e1, restored) = store_with(cfg.clone());
        let (_e2, fresh) = store_with(cfg);
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
            let key = restored.cfg().segment_of(*page);
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
