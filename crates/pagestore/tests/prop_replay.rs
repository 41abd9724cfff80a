//! Property tests for PageStore:
//!
//! 1. Replaying an arbitrary valid REDO stream onto an empty store
//!    reproduces the page images obtained by applying the ops directly
//!    (log-is-database).
//! 2. Delivery with random replica drop patterns still converges via
//!    quorum + gossip: any replica that can gossip with a peer holding the
//!    records reaches the same applied state.

use std::sync::Arc;

use proptest::prelude::*;
use vedb_astore::PageId;
use vedb_pagestore::page::{Page, PageType};
use vedb_pagestore::redo::{PageOp, RedoRecord};
use vedb_pagestore::{PageStore, PageStoreServer, PsSegmentKey};
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
        4 => (any::<u8>(), proptest::collection::vec(any::<u8>(), 1..64))
            .prop_map(|(s, c)| GenOp::Insert(s, c)),
        2 => (any::<u8>(), proptest::collection::vec(any::<u8>(), 1..64))
            .prop_map(|(s, c)| GenOp::Update(s, c)),
        2 => any::<u8>().prop_map(GenOp::Delete),
        1 => any::<u32>().prop_map(GenOp::SetNext),
    ]
}

/// Convert generator ops into a *valid* record stream by tracking the
/// model page (slot indexes must be in range at apply time).
fn realize(ops: &[GenOp], page: PageId) -> (Vec<RedoRecord>, Page) {
    let mut model = Page::new();
    let mut records = vec![RedoRecord {
        lsn: 10,
        prev_same_segment: 0,
        txn_id: 1,
        page,
        op: PageOp::Format {
            ty: PageType::BTreeLeaf,
            level: 0,
        },
    }];
    records[0].apply(&mut model).unwrap();
    let mut lsn = 10;
    for op in ops {
        lsn += 10;
        let n = model.n_slots();
        let op = match op {
            GenOp::Insert(slot, cell) => {
                let slot = (*slot as usize) % (n + 1);
                if !model.can_insert(cell.len()) {
                    continue;
                }
                PageOp::InsertAt {
                    slot: slot as u16,
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
        let rec = RedoRecord {
            lsn,
            prev_same_segment: 0,
            txn_id: 1,
            page,
            op,
        };
        if rec.apply(&mut model).is_err() {
            continue; // page full on update-grow: skip, keep stream valid
        }
        records.push(rec);
    }
    (records, model)
}

fn store() -> (Arc<vedb_sim::SimEnv>, Arc<PageStore>) {
    let env = ClusterSpec::paper_default().build();
    let servers: Vec<Arc<PageStoreServer>> = env
        .storage_nodes
        .iter()
        .enumerate()
        .map(|(i, n)| PageStoreServer::new(200 + i as u32, Arc::clone(n), env.model.clone()))
        .collect();
    let rpc = Arc::new(RpcFabric::new(env.model.clone(), Arc::clone(&env.faults)));
    let ps = PageStore::new(rpc, servers);
    (env, ps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn replay_reproduces_direct_application(ops in proptest::collection::vec(gen_op(), 1..80)) {
        let page = PageId::new(1, 7);
        let (records, model) = realize(&ops, page);
        let (_env, ps) = store();
        let mut ctx = SimCtx::new(1, 5);
        ps.ship(&mut ctx, &records).unwrap();
        let last = records.last().unwrap().lsn;
        let bytes = ps.read_page(&mut ctx, page, last).unwrap();
        prop_assert_eq!(Page::from_bytes(&bytes).unwrap(), model);
    }

    #[test]
    fn quorum_with_random_drops_converges(
        ops in proptest::collection::vec(gen_op(), 1..40),
        drops in proptest::collection::vec(0u8..3, 1..12),
    ) {
        let page = PageId::new(2, 9);
        let (records, model) = realize(&ops, page);
        let (env, ps) = store();
        let mut ctx = SimCtx::new(1, 5);
        let replicas = ps.replicas_of(PsSegmentKey::of(page));

        // Ship records one at a time, each time crashing one pseudo-random
        // replica (never two — quorum must hold).
        for (i, rec) in records.iter().enumerate() {
            let victim = replicas[(drops[i % drops.len()] as usize) % replicas.len()].node();
            env.faults.crash_at(ctx.now(), victim);
            ps.ship(&mut ctx, std::slice::from_ref(rec)).unwrap();
            env.faults.restore_at(ctx.now(), victim);
        }
        // Any replica can now serve the latest version (gossip heals).
        let last = records.last().unwrap().lsn;
        let bytes = ps.read_page(&mut ctx, page, last).unwrap();
        prop_assert_eq!(Page::from_bytes(&bytes).unwrap(), model);
    }
}
