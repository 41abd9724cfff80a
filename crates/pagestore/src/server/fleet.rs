//! The client-side fleet facade: replica layout, quorum ship, fail-over
//! reads, deployment-wide restore and the WAL-truncation watermark.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use vedb_astore::{Lsn, PageId};
use vedb_rdma::RpcFabric;
use vedb_sim::trace::TraceLog;
use vedb_sim::SimCtx;

use super::replica::{FleetImages, PageStoreServer};
use super::{PageStoreConfig, PsSegmentKey, QUORUM, REPLICATION};
use crate::page::PAGE_SIZE;
use crate::redo::RedoRecord;
use crate::{PageStoreError, Result};

/// Client-side facade: knows the replica layout, ships with quorum, reads
/// with replica fail-over. This is the part of the storage SDK that talks
/// to PageStore (§III).
pub struct PageStore {
    rpc: Arc<RpcFabric>,
    servers: Vec<Arc<PageStoreServer>>,
    /// Last LSN shipped per segment — the source of each record's back-link.
    /// Ordered: restore and the truncation watermark walk it, one RPC round
    /// per segment.
    ship_state: Mutex<BTreeMap<PsSegmentKey, Lsn>>,
    /// Shared deployment trace (all servers register into one registry).
    trace: Arc<TraceLog>,
}

impl PageStore {
    /// Create the facade over a set of servers, which from here on share
    /// every page image the log forces to be identical.
    pub fn new(rpc: Arc<RpcFabric>, servers: Vec<Arc<PageStoreServer>>) -> Arc<Self> {
        assert!(
            servers.len() >= REPLICATION,
            "need >= {REPLICATION} PageStore servers"
        );
        let images = Arc::new(Mutex::new(FleetImages::default()));
        for server in &servers {
            server.join_fleet(&images);
        }
        let trace = Arc::clone(servers[0].res().metrics.trace());
        Arc::new(PageStore {
            rpc,
            servers,
            ship_state: Mutex::new(BTreeMap::new()),
            trace,
        })
    }

    /// The segment mapping.
    pub fn cfg(&self) -> PageStoreConfig {
        PageStoreConfig
    }

    /// The replica servers of a segment.
    pub fn replicas_of(&self, key: PsSegmentKey) -> Vec<Arc<PageStoreServer>> {
        let n = self.servers.len();
        let h = (key.space_no as usize)
            .wrapping_mul(31)
            .wrapping_add(key.index as usize);
        (0..REPLICATION)
            .map(|i| Arc::clone(&self.servers[(h + i) % n]))
            .collect()
    }

    /// All servers (push-down task dispatch).
    pub fn servers(&self) -> &[Arc<PageStoreServer>] {
        &self.servers
    }

    /// Ship records (in LSN order, possibly spanning pages/segments):
    /// grouped per segment, back-links attached, delivered to all replicas,
    /// durable at quorum.
    pub fn ship(&self, ctx: &mut SimCtx, records: &[RedoRecord]) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        // Quorum-failure paths drop the guard → abandoned span.
        let sp = self.trace.span(ctx, "pagestore", "ship");
        // Group by segment, preserving order, and attach back-links.
        // The `ship_state` lock is held across the whole send: back-link
        // assignment and delivery must be one atomic step, or two
        // concurrent ships could chain from the same tail / arrive in
        // inverted LSN order. Crucially, a segment's tail only *commits*
        // after its group reaches quorum — a failed batch must not advance
        // the chain, or the re-shipped records would carry a dangling
        // `prev_same_segment` and park on the replicas forever.
        let mut ship_state = self.ship_state.lock();
        let mut groups: Vec<(PsSegmentKey, Vec<Arc<RedoRecord>>)> = Vec::new();
        for rec in records {
            let key = PsSegmentKey::of(rec.page);
            let tail = match groups.iter().rev().find(|(k, _)| *k == key) {
                Some((_, v)) => v.last().map(|r| r.lsn).unwrap_or(0),
                None => ship_state.get(&key).copied().unwrap_or(0),
            };
            // The one deep copy a shipped record takes: from here on the
            // replicas' queues, retained logs and gossip replies all hold
            // this allocation.
            let rec = Arc::new(RedoRecord {
                prev_same_segment: tail,
                ..rec.clone()
            });
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => v.push(rec),
                None => groups.push((key, vec![rec])),
            }
        }
        let bytes: usize = records.len() * 64;
        let mut max_done = ctx.now();
        for (key, group) in &groups {
            let mut acked = 0;
            let mut group_done = ctx.now();
            for server in self.replicas_of(*key) {
                let mut rep_ctx = ctx.fork();
                let ok = self
                    .rpc
                    .call(&mut rep_ctx, server.node(), server.res(), bytes, 16, |c| {
                        server.handle_ship(c, *key, group);
                    })
                    .is_ok();
                if ok {
                    acked += 1;
                    group_done = group_done.max(rep_ctx.now());
                }
            }
            if acked < QUORUM {
                return Err(PageStoreError::QuorumFailed {
                    acked,
                    quorum: QUORUM,
                });
            }
            // Quorum reached: this segment's chain tail is now durable.
            if let Some(last) = group.last() {
                ship_state.insert(*key, last.lsn);
            }
            max_done = max_done.max(group_done);
        }
        ctx.wait_until(max_done);
        sp.finish(ctx);
        Ok(())
    }

    /// Point-in-time restore of the whole deployment: rebuild every
    /// replica of every segment from checkpoint + log replay to exactly
    /// `target`, durably discarding redo beyond it, then re-anchor the
    /// facade's ship chain at the restored tails so the next ship's
    /// back-links chain on cleanly. Returns the total records replayed
    /// across replicas. See [`PageStoreServer::restore_to_lsn`].
    pub fn restore_to_lsn(&self, ctx: &mut SimCtx, target: Lsn) -> Result<usize> {
        let sp = self.trace.span(ctx, "pagestore", "restore");
        let mut total = 0;
        for server in &self.servers {
            total += server.restore_to_lsn(ctx, target)?;
        }
        for (key, tail) in self.ship_state.lock().iter_mut() {
            *tail = self
                .replicas_of(*key)
                .iter()
                .map(|s| s.segment_watermark(*key))
                .max()
                .unwrap_or(0);
        }
        sp.finish(ctx);
        Ok(total)
    }

    /// AStore log-truncation watermark RPC: the highest LSN such that for
    /// every segment, all records at or below it are durable at a quorum
    /// of that segment's replicas. The engine may recycle WAL slots below
    /// `min(shipped, watermark)` — PageStore can rebuild every page
    /// without a re-ship. A segment whose quorum-th best replica already
    /// holds the full shipped tail does not bound the watermark, so in
    /// steady state this returns [`Lsn::MAX`] and the shipped LSN governs.
    pub fn truncation_watermark(&self, ctx: &mut SimCtx) -> Lsn {
        // A copy: the RPCs below must not run under the ship lock.
        let entries = self.ship_state.lock().clone();
        let mut wm = Lsn::MAX;
        for (key, tail) in entries {
            let mut acks: Vec<Lsn> = Vec::new();
            for server in self.replicas_of(key) {
                let got = self
                    .rpc
                    .call(ctx, server.node(), server.res(), 32, 32, |_c| {
                        server.segment_watermark(key)
                    });
                acks.push(got.unwrap_or(0));
            }
            acks.sort_unstable();
            acks.reverse();
            let quorum_wm = acks.get(QUORUM - 1).copied().unwrap_or(0);
            if quorum_wm < tail {
                wm = wm.min(quorum_wm);
            }
        }
        wm
    }

    /// Read the latest image of `page` at or beyond `min_lsn`, trying
    /// replicas in order: the first image wins. A replica that answers
    /// with an error such as `UnknownPage` passes the read on like one that
    /// cannot be reached, because a ship needs only a quorum and the
    /// replica may have missed the page's records. When every replica
    /// fails, the last error is the answer.
    pub fn read_page(&self, ctx: &mut SimCtx, page: PageId, min_lsn: Lsn) -> Result<Vec<u8>> {
        // All-replicas-failed paths drop the guard → abandoned span.
        let sp = self.trace.span(ctx, "pagestore", "read");
        let key = PsSegmentKey::of(page);
        let replicas = self.replicas_of(key);
        let mut last_err = PageStoreError::UnknownPage(page);
        for server in &replicas {
            let peers: Vec<Arc<PageStoreServer>> = replicas
                .iter()
                .filter(|p| p.node() != server.node())
                .cloned()
                .collect();
            let rpc = Arc::clone(&self.rpc);
            match self
                .rpc
                .call(ctx, server.node(), server.res(), 64, PAGE_SIZE, |c| {
                    server.handle_read_page(c, &rpc, key, page, min_lsn, &peers)
                }) {
                Ok(Ok(bytes)) => {
                    sp.finish(ctx);
                    return Ok(bytes);
                }
                Ok(Err(e)) => last_err = e,
                Err(e) => last_err = PageStoreError::Network(e),
            }
        }
        Err(last_err)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use vedb_astore::{Lsn, PageId};
    use vedb_sim::SimCtx;

    use super::super::testutil::{make_records, more_inserts, setup};
    use super::{PageStore, PsSegmentKey};
    use crate::page::Page;
    use crate::redo::RedoRecord;
    use crate::PageStoreError;

    #[test]
    fn ship_apply_read_roundtrip() {
        let (_env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 42);
        let recs = make_records(page, 100, 5);
        let last_lsn = recs.last().unwrap().lsn;
        ps.ship(&mut ctx, &recs).unwrap();
        let bytes = ps.read_page(&mut ctx, page, last_lsn).unwrap();
        let p = Page::from_bytes(&bytes).unwrap();
        assert_eq!(p.lsn(), last_lsn);
        assert_eq!(p.n_slots(), 5);
        assert_eq!(p.get(2).unwrap(), b"row-002");
    }

    #[test]
    fn replicas_share_one_allocation_per_shipped_record() {
        let (_env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 43);
        let key = PsSegmentKey::of(page);
        ps.ship(&mut ctx, &make_records(page, 100, 3)).unwrap();
        let replicas = ps.replicas_of(key);
        let retained = |i: usize| -> Vec<Arc<RedoRecord>> {
            replicas[i].segs.lock()[&key]
                .retained
                .iter()
                .cloned()
                .collect()
        };
        let first = retained(0);
        assert_eq!(first.len(), 4);
        for i in 1..replicas.len() {
            for (a, b) in first.iter().zip(retained(i)) {
                assert!(Arc::ptr_eq(a, &b), "replica {i} holds a private copy");
            }
        }
        // Queue and gossip replies hand out the same allocation too.
        let queued = replicas[0].segs.lock()[&key].queue.clone();
        let served = replicas[1].handle_get_records(key, 0, 64);
        for ((a, q), g) in first.iter().zip(&queued).zip(&served) {
            assert!(Arc::ptr_eq(a, q) && Arc::ptr_eq(a, g));
        }
    }

    /// Every replica's live image of `page`, without applying anything.
    fn live_images(ps: &PageStore, page: PageId) -> Vec<Arc<Page>> {
        let key = PsSegmentKey::of(page);
        ps.replicas_of(key)
            .iter()
            .map(|r| Arc::clone(&r.segs.lock()[&key].pages[&page.page_no]))
            .collect()
    }

    fn apply_on(ctx: &mut SimCtx, ps: &PageStore, page: PageId, replicas: &[usize]) {
        let key = PsSegmentKey::of(page);
        for &i in replicas {
            ps.replicas_of(key)[i].apply_pending(ctx, key).unwrap();
        }
    }

    /// `records` applied one after another to a fresh page.
    fn serial_replay(records: &[RedoRecord]) -> Page {
        let mut page = Page::new();
        for rec in records {
            rec.apply(&mut page).unwrap();
        }
        page
    }

    #[test]
    fn replicas_share_one_image_per_page_version() {
        let (_env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 44);
        ps.ship(&mut ctx, &make_records(page, 100, 3)).unwrap();
        apply_on(&mut ctx, &ps, page, &[0, 1, 2]);
        let v1 = live_images(&ps, page);
        assert_eq!(v1[0].lsn(), 130);
        assert!(
            v1.iter().all(|img| Arc::ptr_eq(img, &v1[0])),
            "one image at 130"
        );

        // Replica 0 moves on alone: it takes a copy, the others keep sharing.
        ps.ship(&mut ctx, &more_inserts(page, 200, 1, 3)).unwrap();
        apply_on(&mut ctx, &ps, page, &[0]);
        let moved = live_images(&ps, page);
        assert_eq!(moved[0].lsn(), 200);
        assert!(
            !Arc::ptr_eq(&moved[0], &v1[0]),
            "replica 0 holds a new image"
        );
        assert!(Arc::ptr_eq(&moved[1], &v1[0]) && Arc::ptr_eq(&moved[2], &v1[0]));
        assert_eq!(moved[1].lsn(), 130);

        // The other two catch up by adopting replica 0's image.
        apply_on(&mut ctx, &ps, page, &[1, 2]);
        let v2 = live_images(&ps, page);
        assert!(
            v2.iter().all(|img| Arc::ptr_eq(img, &moved[0])),
            "one image at 200"
        );
        assert_eq!(v2[0].n_slots(), 4);
    }

    #[test]
    fn restore_then_reissued_lsns_never_adopt_a_discarded_image() {
        let (_env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 45);
        let key = PsSegmentKey::of(page);
        let first = make_records(page, 100, 5); // @100..150
        ps.ship(&mut ctx, &first).unwrap();
        apply_on(&mut ctx, &ps, page, &[0, 1, 2]);
        // A reader still holds the image at 150 across the restore.
        let stale = ps.replicas_of(key)[0]
            .local_page(&mut ctx, page, 150)
            .unwrap();
        assert_eq!(stale.lsn(), 150);

        ps.restore_to_lsn(&mut ctx, 120).unwrap();
        // LSNs 130..150 are issued again, for other cells.
        let second = more_inserts(page, 130, 3, 2);
        ps.ship(&mut ctx, &second).unwrap();
        apply_on(&mut ctx, &ps, page, &[0, 1, 2]);

        let want = serial_replay(&[&first[..3], &second[..]].concat());
        let images = live_images(&ps, page);
        for (i, img) in images.iter().enumerate() {
            assert_eq!(**img, want, "replica {i} after the restore");
            assert!(
                Arc::ptr_eq(img, &images[0]),
                "replica {i} shares the new 150"
            );
        }
        assert_ne!(*stale, want, "the discarded 150 had other cells");
    }

    #[test]
    fn cold_page_read_costs_about_a_millisecond() {
        let (_env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 1);
        let recs = make_records(page, 100, 3);
        ps.ship(&mut ctx, &recs).unwrap();
        let t0 = ctx.now();
        ps.read_page(&mut ctx, page, recs.last().unwrap().lsn)
            .unwrap();
        let ms = (ctx.now() - t0).as_millis_f64();
        assert!(
            (0.4..=2.0).contains(&ms),
            "remote page read should be ~1ms, got {ms:.2}ms"
        );
    }

    #[test]
    fn quorum_tolerates_one_dead_replica() {
        let (env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 7);
        let key = PsSegmentKey::of(page);
        let replicas = ps.replicas_of(key);
        env.faults.crash(replicas[0].node());
        let recs = make_records(page, 100, 3);
        ps.ship(&mut ctx, &recs).unwrap(); // 2/3 acks = quorum
        env.faults.restore(replicas[0].node());
        // Read from any replica; the one that missed everything gossips.
        let bytes = ps
            .read_page(&mut ctx, page, recs.last().unwrap().lsn)
            .unwrap();
        assert_eq!(Page::from_bytes(&bytes).unwrap().n_slots(), 3);
    }

    #[test]
    fn a_read_passes_a_dead_first_replica_to_the_second() {
        let (env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 8);
        let replicas = ps.replicas_of(PsSegmentKey::of(page));
        let recs = make_records(page, 100, 3);
        ps.ship(&mut ctx, &recs).unwrap();
        env.faults.crash(replicas[0].node());
        let count = |name| env.metrics.counter_values()[name];
        let (calls, reads) = (count("rdma.rpc_calls"), count("pagestore.page_reads"));
        let bytes = ps
            .read_page(&mut ctx, page, recs.last().unwrap().lsn)
            .unwrap();
        assert_eq!(Page::from_bytes(&bytes).unwrap().n_slots(), 3);
        // The dead node took no call; the second replica served the image.
        assert_eq!(count("rdma.rpc_calls"), calls + 1);
        assert_eq!(count("pagestore.page_reads"), reads + 1);
    }

    #[test]
    fn a_replica_that_missed_a_quorum_ship_passes_a_restart_read_on() {
        let (env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 10);
        let replicas = ps.replicas_of(PsSegmentKey::of(page));
        // Replica 0 is down while the page's records ship to a quorum.
        env.faults.crash(replicas[0].node());
        ps.ship(&mut ctx, &make_records(page, 100, 3)).unwrap();
        env.faults.restore(replicas[0].node());
        // An engine back from a restart knows no page LSN: min_lsn 0.
        // Replica 0 has never seen the page and answers UnknownPage;
        // replica 1 serves the image.
        let calls = env.metrics.counter("rdma", "rpc_calls");
        let before = calls.get();
        let bytes = ps.read_page(&mut ctx, page, 0).unwrap();
        assert_eq!(Page::from_bytes(&bytes).unwrap().n_slots(), 3);
        assert_eq!(calls.get(), before + 2);
    }

    #[test]
    fn a_replica_with_parked_records_fills_its_hole_before_a_restart_read() {
        let (env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let (page, other) = (PageId::new(1, 12), PageId::new(1, 13));
        let key = PsSegmentKey::of(page);
        assert_eq!(key, PsSegmentKey::of(other));
        let replicas = ps.replicas_of(key);
        ps.ship(&mut ctx, &make_records(page, 100, 1)).unwrap(); // version 1 @110
        apply_on(&mut ctx, &ps, page, &[0]);
        // Replica 0 misses version 2, then parks a later record of the
        // segment: its back-link names the record replica 0 never got.
        env.faults.crash(replicas[0].node());
        ps.ship(&mut ctx, &more_inserts(page, 200, 1, 1)).unwrap(); // version 2 @200
        env.faults.restore(replicas[0].node());
        ps.ship(&mut ctx, &make_records(other, 300, 1)).unwrap();
        assert_eq!(replicas[0].gap_count(key), 2);
        // A restart read demands no LSN, and replica 0 answers first: it
        // must gossip the hole closed rather than serve version 1.
        let bytes = ps.read_page(&mut ctx, page, 0).unwrap();
        let img = Page::from_bytes(&bytes).unwrap();
        assert_eq!((img.lsn(), img.n_slots()), (200, 2));
        assert_eq!(replicas[0].gap_count(key), 0);
    }

    #[test]
    fn two_dead_replicas_fail_quorum() {
        let (env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 9);
        let key = PsSegmentKey::of(page);
        let replicas = ps.replicas_of(key);
        env.faults.crash(replicas[0].node());
        env.faults.crash(replicas[1].node());
        assert!(matches!(
            ps.ship(&mut ctx, &make_records(page, 100, 1)),
            Err(PageStoreError::QuorumFailed {
                acked: 1,
                quorum: 2
            })
        ));
    }

    #[test]
    fn watermark_bounds_wal_truncation_to_lagging_quorum() {
        let (env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 29);
        let key = PsSegmentKey::of(page);
        let replicas = ps.replicas_of(key);
        ps.ship(&mut ctx, &make_records(page, 100, 2)).unwrap(); // tail 120
        env.faults.crash(replicas[0].node());
        ps.ship(&mut ctx, &more_inserts(page, 300, 3, 2)).unwrap(); // tail 320
        env.faults.restore(replicas[0].node());
        // Quorum (2 of 3) holds the full tail: nothing bounds truncation.
        assert_eq!(ps.truncation_watermark(&mut ctx), Lsn::MAX);
        // Losing one up-to-date replica degrades the quorum watermark to
        // the straggler's durable point.
        env.faults.crash(replicas[1].node());
        assert_eq!(ps.truncation_watermark(&mut ctx), 120);
        env.faults.restore(replicas[1].node());
    }
}
