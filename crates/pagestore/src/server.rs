//! PageStore servers and the client-side facade.
//!
//! Pages are grouped into PageStore *segments* of [`PAGES_PER_SEGMENT`]
//! consecutive page numbers per tablespace; each segment is replicated on
//! [`REPLICATION`] servers and a ship is durable once [`QUORUM`] replicas
//! acknowledge it (§III: "we choose to implement a quorum replication, and
//! use a gossip protocol for filling in missing records").
//!
//! Every record carries a back-link to the previous record of the same
//! segment; a replica that sees a mismatched back-link parks the record in
//! an out-of-order buffer and fills the hole from its peers
//! ([`PageStoreServer::gossip_fill_until`]) before applying.

//!
//! The code is split by role: `replica` is one server's accept / park /
//! apply state machine, `checkpoint` is checkpointing, checkpoint install
//! and restore, `fleet` is the client-side [`PageStore`] facade.

use vedb_astore::PageId;

mod checkpoint;
mod fleet;
mod replica;

pub use checkpoint::PageImages;
pub use fleet::PageStore;
pub use replica::{PageStoreServer, CHECKPOINT_EVERY_RECORDS};

/// Identifies a PageStore segment: a run of consecutive pages in one space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PsSegmentKey {
    /// Tablespace.
    pub space_no: u32,
    /// Segment index within the space.
    pub index: u32,
}

impl PsSegmentKey {
    /// The segment a page belongs to.
    pub fn of(page: PageId) -> Self {
        PsSegmentKey {
            space_no: page.space_no,
            index: page.page_no / PAGES_PER_SEGMENT,
        }
    }
}

/// Replicas per segment (paper: three or six).
pub const REPLICATION: usize = 3;
/// Acks required before a ship is durable.
pub const QUORUM: usize = 2;
/// Pages per segment.
pub const PAGES_PER_SEGMENT: u32 = 256;

const _: () = assert!(QUORUM >= 1 && QUORUM <= REPLICATION);

/// The segment mapping as [`PageStore::cfg`] hands it out. It holds no
/// settings (the layout is the constants above); it stays because the host
/// benchmark (`benchmark/src/probes.rs`) finds a segment through it.
#[derive(Debug, Clone, Copy)]
pub struct PageStoreConfig;

impl PageStoreConfig {
    /// The segment a page belongs to: [`PsSegmentKey::of`].
    pub fn segment_of(&self, page: PageId) -> PsSegmentKey {
        PsSegmentKey::of(page)
    }
}

#[cfg(test)]
mod testutil {
    use std::sync::Arc;

    use vedb_astore::{Lsn, PageId};
    use vedb_rdma::RpcFabric;
    use vedb_sim::fault::NodeId;
    use vedb_sim::ClusterSpec;

    use super::{PageStore, PageStoreServer};
    use crate::page::PageType;
    use crate::redo::{PageOp, RedoRecord};

    pub(super) fn setup() -> (Arc<vedb_sim::SimEnv>, Arc<PageStore>) {
        let env = ClusterSpec::paper_default().build();
        let servers: Vec<Arc<PageStoreServer>> = env
            .storage_nodes
            .iter()
            .enumerate()
            .map(|(i, n)| PageStoreServer::new(200 + i as NodeId, Arc::clone(n), env.model.clone()))
            .collect();
        let rpc = Arc::new(RpcFabric::with_metrics(
            env.model.clone(),
            Arc::clone(&env.faults),
            &env.metrics,
        ));
        let ps = PageStore::new(rpc, servers);
        (env, ps)
    }

    pub(super) fn make_records(page: PageId, start_lsn: Lsn, n: usize) -> Vec<RedoRecord> {
        let mut recs = vec![RedoRecord {
            lsn: start_lsn,
            prev_same_segment: 0,
            txn_id: 1,
            page,
            op: PageOp::Format {
                ty: PageType::BTreeLeaf,
                level: 0,
            },
        }];
        for i in 0..n {
            recs.push(RedoRecord {
                lsn: start_lsn + 10 * (i as u64 + 1),
                prev_same_segment: 0,
                txn_id: 1,
                page,
                op: PageOp::InsertAt {
                    slot: i as u16,
                    cell: format!("row-{i:03}").into_bytes(),
                },
            });
        }
        recs
    }

    /// Follow-on inserts for a page already formatted by [`make_records`].
    pub(super) fn more_inserts(
        page: PageId,
        start_lsn: Lsn,
        n: usize,
        slot_base: u16,
    ) -> Vec<RedoRecord> {
        (0..n)
            .map(|i| RedoRecord {
                lsn: start_lsn + 10 * i as u64,
                prev_same_segment: 0, // facade fills it in
                txn_id: 9,
                page,
                op: PageOp::InsertAt {
                    slot: slot_base + i as u16,
                    cell: format!("more-{:03}", slot_base as usize + i).into_bytes(),
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_mapping_is_stable() {
        let a = PsSegmentKey::of(PageId::new(1, 0));
        let b = PsSegmentKey::of(PageId::new(1, 255));
        let c = PsSegmentKey::of(PageId::new(1, 256));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(PsSegmentKey::of(PageId::new(2, 0)), a);
    }
}
