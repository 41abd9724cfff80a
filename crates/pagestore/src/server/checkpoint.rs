//! Checkpoint, checkpoint install, crash-restart and point-in-time restore
//! of a replica's segments.

use std::collections::BTreeMap;
use std::sync::Arc;

use vedb_astore::{Lsn, PageId};
use vedb_sim::{FxHashMap, SimCtx};

use super::replica::{absorb_parked, PageStoreServer};
use super::PsSegmentKey;
use crate::page::{Page, PAGE_SIZE};
use crate::{PageStoreError, Result};

/// A snapshot's page images by page number, as served to and installed from
/// a gossip peer — pointers to the donor's images, not copies.
pub type PageImages = Vec<(u32, Arc<Page>)>;

/// A durable segment snapshot: every page image as of `lsn`. Restores and
/// behind-the-horizon gossip peers start from here instead of LSN 0.
///
/// The images are shared with the live map, not copied: the first snapshot
/// clones one pointer per page, each later one re-points only the entries of
/// the pages whose live image changed since, and a page costs the checkpoint
/// memory of its own only once replay has moved the live image on (see
/// [`ReplicaSeg`](super::replica::ReplicaSeg)).
pub(super) struct SegCheckpoint {
    pub(super) lsn: Lsn,
    pub(super) pages: BTreeMap<u32, Arc<Page>>,
}

impl PageStoreServer {
    /// Background checkpoint of one segment: materialize its pages (apply
    /// everything pending — this is what keeps hot pages ahead of reads),
    /// snapshot the page images durably — writing, and counting in
    /// `checkpoint_pages`, only the pages changed since the previous
    /// snapshot (every page on the first) — and truncate retained redo below
    /// the **previous** checkpoint. The previous checkpoint's window stays
    /// served so gossip peers lagging between the two checkpoints can
    /// still pull records; peers behind the truncation horizon install the
    /// snapshot itself ([`Self::handle_get_checkpoint`]).
    pub fn checkpoint_segment(&self, ctx: &mut SimCtx, key: PsSegmentKey) -> Result<()> {
        self.apply_pending(ctx, key)?;
        let snap = {
            let mut segs = self.segs.lock();
            let Some(seg) = segs.get_mut(&key) else {
                return Ok(());
            };
            let prev_lsn = seg.checkpoint.as_ref().map(|c| c.lsn).unwrap_or(0);
            if seg.applied_lsn == 0 || seg.applied_lsn <= prev_lsn {
                None
            } else {
                // Only the pages whose image changed since the previous
                // snapshot move, and only they are written; every other
                // entry already points at the live image. A segment's first
                // snapshot writes every page.
                let lsn = seg.applied_lsn;
                let written = match &mut seg.checkpoint {
                    Some(ckpt) => {
                        ckpt.lsn = lsn;
                        let mut written = 0;
                        for no in &seg.changed {
                            if let Some(img) = seg.pages.get(no) {
                                ckpt.pages.insert(*no, Arc::clone(img));
                                written += 1;
                            }
                        }
                        written
                    }
                    None => {
                        let pages: BTreeMap<u32, Arc<Page>> =
                            seg.pages.iter().map(|(k, v)| (*k, Arc::clone(v))).collect();
                        seg.checkpoint = Some(SegCheckpoint { lsn, pages });
                        seg.pages.len()
                    }
                };
                seg.changed.clear();
                if cfg!(debug_assertions) {
                    let ckpt = seg.checkpoint.as_ref().map(|c| &c.pages);
                    assert!(
                        ckpt.is_some_and(|snap| snap.len() == seg.pages.len()
                            && snap.iter().all(|(no, img)| seg
                                .pages
                                .get(no)
                                .is_some_and(|live| Arc::ptr_eq(live, img)))),
                        "snapshot of {key:?} at {lsn} is not the live map"
                    );
                }
                seg.accepted_since_ckpt = 0;
                seg.accepted_bytes_since_ckpt = 0;
                // Redo at or below the previous checkpoint leaves the front.
                let truncated = seg.retained_after(prev_lsn);
                seg.retained.drain(..truncated);
                Some((written, truncated))
            }
        };
        let Some((written, truncated)) = snap else {
            return Ok(());
        };
        let sp = self.stats.trace.span(ctx, "pagestore", "checkpoint");
        self.stats.checkpoints.inc();
        self.stats.checkpoint_pages.add(written as u64);
        self.stats.log_truncated_records.add(truncated as u64);
        // Sequential snapshot stream, same amortization as apply's page
        // flush.
        self.charge_ssd(
            ctx,
            self.model.ssd_write_svc(written.max(1) * PAGE_SIZE) / 4,
        );
        sp.finish(ctx);
        Ok(())
    }

    /// Handler: checkpoint lsn + page count for `key`, if one exists
    /// (cheap gossip probe before fetching the snapshot itself).
    pub fn handle_checkpoint_meta(&self, key: PsSegmentKey) -> Option<(Lsn, usize)> {
        let segs = self.segs.lock();
        let ckpt = segs.get(&key)?.checkpoint.as_ref()?;
        Some((ckpt.lsn, ckpt.pages.len()))
    }

    /// Handler: serve the segment's checkpoint to a gossip peer whose
    /// stream tail `after` predates it. `None` when there is no newer
    /// snapshot to offer.
    pub fn handle_get_checkpoint(
        &self,
        key: PsSegmentKey,
        after: Lsn,
    ) -> Option<(Lsn, PageImages)> {
        let segs = self.segs.lock();
        let ckpt = segs.get(&key)?.checkpoint.as_ref()?;
        if ckpt.lsn <= after {
            return None;
        }
        Some((
            ckpt.lsn,
            ckpt.pages
                .iter()
                .map(|(k, v)| (*k, Arc::clone(v)))
                .collect(),
        ))
    }

    /// Install a peer's checkpoint over this replica's segment state: the
    /// snapshot supersedes local page images, the unapplied tail (the
    /// watermark moves past it) and parked records at or below its LSN
    /// (they were accepted but never applied here — counted as
    /// `records_superseded`). Parked records just beyond the snapshot chain
    /// back on. Returns `false` when the snapshot is not newer than the
    /// local stream tail.
    pub fn install_checkpoint(&self, key: PsSegmentKey, lsn: Lsn, pages: PageImages) -> bool {
        let mut segs = self.segs.lock();
        let seg = segs.entry(key).or_default();
        if lsn <= seg.last_lsn {
            return false;
        }
        // Every unapplied record has lsn <= last_lsn < lsn: superseded.
        let stale = seg.unapplied().len();
        // Live map and checkpoint (and the serving peer) share every image.
        seg.pages = pages.iter().cloned().collect();
        seg.changed.clear();
        seg.checkpoint = Some(SegCheckpoint {
            lsn,
            pages: pages.into_iter().collect(),
        });
        seg.applied_lsn = lsn;
        seg.last_lsn = lsn;
        seg.accepted_since_ckpt = 0;
        seg.accepted_bytes_since_ckpt = 0;
        let covered: Vec<Lsn> = seg.out_of_order.range(..=lsn).map(|(l, _)| *l).collect();
        for l in &covered {
            seg.out_of_order.remove(l);
        }
        self.stats.lag(-(stale as i64), -(covered.len() as i64));
        self.stats
            .records_superseded
            .add((stale + covered.len()) as u64);
        absorb_parked(seg, &self.stats, lsn);
        true
    }

    /// Crash-restart this server: volatile state (page images, apply
    /// watermark) is lost; the durable redo log, parked records and
    /// checkpoints survive. Every segment is rebuilt from checkpoint + log
    /// replay on the node's CPU. Returns the number
    /// of records replayed; the caller's virtual-time delta across this
    /// call is the node's recovery time.
    pub fn restart(&self, ctx: &mut SimCtx) -> Result<usize> {
        self.restore_all(ctx, Lsn::MAX)
    }

    /// Point-in-time restore of this server: rebuild every segment from
    /// checkpoint + log replay to exactly `target`, durably discarding
    /// redo beyond it. A checkpoint ahead of `target` is discarded too;
    /// if the retained log then cannot chain from the remaining base up
    /// to `target` (truncated below the restore point), the segment is
    /// left untouched and [`PageStoreError::NotYetApplied`] is returned.
    /// Before a segment replays, every image past `target` leaves the
    /// fleet's index: the LSNs above `target` may be issued again.
    pub fn restore_to_lsn(&self, ctx: &mut SimCtx, target: Lsn) -> Result<usize> {
        self.restore_all(ctx, target)
    }

    fn restore_all(&self, ctx: &mut SimCtx, target: Lsn) -> Result<usize> {
        let mut keys: Vec<PsSegmentKey> = self.segs.lock().keys().copied().collect();
        keys.sort_unstable();
        let sp = self.stats.trace.span(ctx, "pagestore", "restore");
        let mut replayed = 0;
        for key in keys {
            replayed += self.restore_segment(ctx, key, target)?;
        }
        self.stats.restores.inc();
        sp.finish(ctx);
        Ok(replayed)
    }

    /// Rebuild one segment to `target` (`Lsn::MAX` = crash-restart, keep
    /// everything durable). See [`Self::restore_to_lsn`].
    pub fn restore_segment(
        &self,
        ctx: &mut SimCtx,
        key: PsSegmentKey,
        target: Lsn,
    ) -> Result<usize> {
        let (base_pages, replay) = {
            let mut segs = self.segs.lock();
            let Some(seg) = segs.get_mut(&key) else {
                return Ok(0);
            };
            // Pick the base image: the checkpoint, unless it is ahead of
            // the restore point (then only a full-log replay can work).
            let base_lsn = match seg.checkpoint.as_ref() {
                Some(c) if c.lsn <= target => c.lsn,
                _ => 0,
            };
            // Coverage check *before* mutating anything: replay needs an
            // unbroken back-link chain from the base up to `target`. A
            // broken chain (e.g. redo truncated below the restore point)
            // fails the restore and leaves the segment untouched.
            let mut prev = base_lsn;
            let (from, beyond) = (seg.retained_after(base_lsn), seg.retained_after(target));
            for r in seg.retained.range(from..beyond) {
                let chains = r.prev_same_segment == prev
                    || (prev == base_lsn && r.prev_same_segment <= base_lsn);
                if !chains {
                    return Err(PageStoreError::NotYetApplied {
                        need: r.lsn,
                        applied: prev,
                    });
                }
                prev = r.lsn;
            }
            // The walk stopping at `target` proves nothing by itself: if
            // redo between the base and `target` was truncated, the range
            // is simply empty. The first durable record *beyond* the
            // target must chain onto the walk tail, or records at or
            // below the target are missing and state-at-`target` is not
            // reconstructible.
            if target < Lsn::MAX {
                if let Some(r) = seg.retained.get(beyond) {
                    let chains = r.prev_same_segment == prev
                        || (prev == base_lsn && r.prev_same_segment <= base_lsn);
                    if !chains {
                        return Err(PageStoreError::NotYetApplied {
                            need: target,
                            applied: prev,
                        });
                    }
                }
            }
            // The old incarnation's unapplied tail goes with its watermark;
            // the walked range is the new one.
            let stale = seg.unapplied().len();
            let images = self.fleet();
            let mut fleet = images.lock();
            // PITR: the future beyond `target` is discarded durably.
            if target < Lsn::MAX {
                // Its LSNs may be issued again for other records: no image
                // built past `target` may be adopted from here on.
                fleet.forget_beyond(target);
                let dropped_r = seg.retained.len() - beyond;
                seg.retained.truncate(beyond);
                let dropped_p: Vec<Lsn> = seg
                    .out_of_order
                    .range(target + 1..)
                    .map(|(l, _)| *l)
                    .collect();
                for l in &dropped_p {
                    seg.out_of_order.remove(l);
                }
                self.stats.lag(0, -(dropped_p.len() as i64));
                self.stats
                    .records_superseded
                    .add((dropped_r + dropped_p.len()) as u64);
                if seg.checkpoint.as_ref().is_some_and(|c| c.lsn > target) {
                    seg.checkpoint = None;
                }
            }
            // The base install shares the checkpoint's images, and those the
            // other replicas hold of the same page versions; replay copies
            // the ones it touches.
            seg.pages = match &mut seg.checkpoint {
                Some(c) => {
                    for (no, img) in c.pages.iter_mut() {
                        fleet.share(PageId::new(key.space_no, *no), img);
                    }
                    c.pages.iter().map(|(k, v)| (*k, Arc::clone(v))).collect()
                }
                None => FxHashMap::default(),
            };
            seg.changed.clear();
            seg.applied_lsn = base_lsn;
            seg.last_lsn = prev;
            let replay = beyond - from;
            self.stats.lag(replay as i64 - stale as i64, 0);
            (seg.pages.len(), replay)
        };
        if base_pages > 0 {
            // Stream the checkpoint image back in (sequential read).
            self.charge_ssd(ctx, self.model.ssd_read_svc(base_pages * PAGE_SIZE) / 4);
        }
        self.apply_batch(ctx, key, true)?;
        Ok(replay)
    }

    /// LSN of this segment's checkpoint, 0 if none (tests / monitoring).
    pub fn checkpoint_lsn(&self, key: PsSegmentKey) -> Lsn {
        self.segs
            .lock()
            .get(&key)
            .and_then(|s| s.checkpoint.as_ref().map(|c| c.lsn))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use vedb_astore::PageId;
    use vedb_rdma::RpcFabric;
    use vedb_sim::SimCtx;

    use super::super::testutil::{make_records, more_inserts, setup};
    use super::super::{
        PageStore, PageStoreServer, PsSegmentKey, CHECKPOINT_EVERY_BYTES, CHECKPOINT_EVERY_RECORDS,
    };
    use crate::page::{Page, PageType};
    use crate::redo::{CellList, PageOp, RedoRecord};
    use crate::PageStoreError;

    /// Round `r` of a stream over 16 pages of one segment, 64 records a
    /// page: round 0 formats each page, later rounds insert behind it.
    fn round(r: u16) -> Vec<RedoRecord> {
        (0..16u16)
            .flat_map(|p| {
                let page = PageId::new(1, 64 + u32::from(p));
                let lsn = 100_000 * (u64::from(r) + 1) + 1_000 * u64::from(p);
                match r {
                    0 => make_records(page, lsn, 63),
                    _ => more_inserts(page, lsn, 64, 63 + 64 * (r - 1)),
                }
            })
            .collect()
    }

    /// Checkpoint `key` by hand on the replicas at `which`.
    fn checkpoint_on(ctx: &mut SimCtx, ps: &PageStore, key: PsSegmentKey, which: &[usize]) {
        let replicas = ps.replicas_of(key);
        for &i in which {
            replicas[i].checkpoint_segment(ctx, key).unwrap();
        }
    }

    #[test]
    fn background_checkpoint_truncates_replayed_log() {
        let (_env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 64);
        let key = PsSegmentKey::of(page);
        let (first, second) = (round(0), round(1));
        assert_eq!(first.len() as u64, CHECKPOINT_EVERY_RECORDS);
        let tail = |recs: &[RedoRecord]| recs.last().unwrap().lsn;
        // Each round trips one background checkpoint; the second truncates
        // the redo below the first.
        ps.ship(&mut ctx, &first).unwrap();
        ps.ship(&mut ctx, &second).unwrap();
        for r in ps.replicas_of(key) {
            assert_eq!(
                r.checkpoint_lsn(key),
                tail(&second),
                "second checkpoint at tail"
            );
            assert_eq!(
                r.retained_count(key),
                second.len(),
                "replayed redo below the previous checkpoint must be truncated"
            );
        }
        // The truncated log still serves the latest image.
        let bytes = ps.read_page(&mut ctx, page, tail(&second)).unwrap();
        assert_eq!(Page::from_bytes(&bytes).unwrap().n_slots(), 127);

        // One record short of the next checkpoint: a restart replays the
        // redo past the last one, never the whole log.
        let third = &round(2)[..first.len() - 1];
        ps.ship(&mut ctx, third).unwrap();
        for r in ps.replicas_of(key) {
            let replayed = r.restart(&mut ctx).unwrap();
            assert_eq!(replayed, third.len());
            assert!(replayed as u64 <= CHECKPOINT_EVERY_RECORDS + first.len() as u64);
            assert_eq!(r.applied_lsn(key), tail(third));
        }
    }

    #[test]
    fn restart_rebuilds_pages_from_durable_log() {
        let (_env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 23);
        let key = PsSegmentKey::of(page);
        let recs = make_records(page, 100, 5);
        let tail = recs.last().unwrap().lsn;
        ps.ship(&mut ctx, &recs).unwrap();
        let before = ps.read_page(&mut ctx, page, tail).unwrap();
        for r in ps.replicas_of(key) {
            let replayed = r.restart(&mut ctx).unwrap();
            assert_eq!(replayed, 6, "all durable records replay on restart");
            assert_eq!(r.applied_lsn(key), tail);
        }
        let after = ps.read_page(&mut ctx, page, tail).unwrap();
        assert_eq!(before, after, "restart must rebuild byte-identical pages");
    }

    #[test]
    fn restore_to_lsn_is_point_in_time() {
        let (_env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 25);
        let key = PsSegmentKey::of(page);
        // Format @100, inserts @110..150.
        ps.ship(&mut ctx, &make_records(page, 100, 5)).unwrap();
        ps.restore_to_lsn(&mut ctx, 120).unwrap();
        for r in ps.replicas_of(key) {
            assert_eq!(r.applied_lsn(key), 120);
            assert_eq!(r.retained_count(key), 3, "redo beyond 120 is discarded");
        }
        let bytes = ps.read_page(&mut ctx, page, 120).unwrap();
        assert_eq!(Page::from_bytes(&bytes).unwrap().n_slots(), 2);
        // The ship chain re-anchors at the restored tail: new writes land.
        ps.ship(&mut ctx, &more_inserts(page, 500, 1, 2)).unwrap();
        let bytes = ps.read_page(&mut ctx, page, 500).unwrap();
        assert_eq!(Page::from_bytes(&bytes).unwrap().n_slots(), 3);
    }

    #[test]
    fn restore_below_truncation_horizon_fails_cleanly() {
        let (_env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 27);
        let key = PsSegmentKey::of(page);
        ps.ship(&mut ctx, &make_records(page, 100, 9)).unwrap();
        checkpoint_on(&mut ctx, &ps, key, &[0, 1, 2]);
        ps.ship(&mut ctx, &more_inserts(page, 300, 9, 9)).unwrap();
        checkpoint_on(&mut ctx, &ps, key, &[0, 1, 2]);
        // Redo below checkpoint #1 (lsn 190) is truncated; a restore point
        // inside the truncated range cannot be reached any more.
        let server = &ps.replicas_of(key)[0];
        assert!(matches!(
            server.restore_to_lsn(&mut ctx, 150),
            Err(PageStoreError::NotYetApplied { .. })
        ));
        // The failed restore must leave the segment untouched.
        assert_eq!(server.applied_lsn(key), 380);
        let bytes = ps.read_page(&mut ctx, page, 380).unwrap();
        assert_eq!(Page::from_bytes(&bytes).unwrap().n_slots(), 18);
    }

    #[test]
    fn gossip_installs_checkpoint_beyond_truncation_horizon() {
        let (env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 31);
        let key = PsSegmentKey::of(page);
        let replicas = ps.replicas_of(key);

        ps.ship(&mut ctx, &make_records(page, 100, 4)).unwrap();
        checkpoint_on(&mut ctx, &ps, key, &[0, 1, 2]); // #1 @140
        env.faults.crash(replicas[0].node());
        // Two more checkpoints on the peers truncate every record replica 0
        // could pull: its hole now predates the truncation horizon.
        ps.ship(&mut ctx, &more_inserts(page, 300, 5, 4)).unwrap();
        checkpoint_on(&mut ctx, &ps, key, &[1, 2]); // #2 @340
        ps.ship(&mut ctx, &more_inserts(page, 500, 5, 9)).unwrap();
        checkpoint_on(&mut ctx, &ps, key, &[1, 2]); // #3 @540
        env.faults.restore(replicas[0].node());
        ps.ship(&mut ctx, &more_inserts(page, 700, 1, 14)).unwrap();
        assert!(
            replicas[0].gap_count(key) > 0,
            "replica 0 must park the gap"
        );

        let rpc = RpcFabric::new(env.model.clone(), Arc::clone(&env.faults));
        let peers: Vec<_> = replicas.clone();
        let recovered = replicas[0].gossip_fill_until(&mut ctx, &rpc, key, &peers, 700);
        assert!(recovered > 0, "checkpoint install must make progress");
        assert_eq!(
            replicas[0].checkpoint_lsn(key),
            540,
            "peer snapshot installed wholesale"
        );
        replicas[0].apply_pending(&mut ctx, key).unwrap();
        assert_eq!(replicas[0].applied_lsn(key), 700);
        let p = replicas[0].local_page(&mut ctx, page, 700).unwrap();
        assert_eq!(p.n_slots(), 15);
    }

    /// A checkpoint writes, and counts, the pages changed since the
    /// previous one; the first writes every page.
    #[test]
    fn checkpoint_writes_only_changed_pages() {
        let (env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let pages = [PageId::new(1, 90), PageId::new(1, 91), PageId::new(1, 92)];
        let key = PsSegmentKey::of(pages[0]);
        for (i, page) in pages.iter().enumerate() {
            ps.ship(&mut ctx, &make_records(*page, 100 * (i as u64 + 1), 2))
                .unwrap();
        }
        let written = env.metrics.counter("pagestore", "checkpoint_pages");
        checkpoint_on(&mut ctx, &ps, key, &[0]);
        assert_eq!(written.get(), 3, "the first checkpoint writes every page");
        ps.ship(&mut ctx, &more_inserts(pages[1], 500, 2, 2))
            .unwrap();
        checkpoint_on(&mut ctx, &ps, key, &[0]);
        assert_eq!(written.get(), 3 + 1, "then only the page that changed");
    }

    /// A segment fed few but large records (a split's `Build`s) checkpoints
    /// once their bytes reach [`CHECKPOINT_EVERY_BYTES`], long before their
    /// count would reach [`CHECKPOINT_EVERY_RECORDS`].
    #[test]
    fn few_large_records_checkpoint_on_bytes() {
        let (_env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let cell = vec![7u8; 3_000];
        let build = |i: u64| RedoRecord {
            lsn: 100 * (i + 1),
            prev_same_segment: 0, // facade fills it in
            txn_id: 1,
            page: PageId::new(1, 80 + i as u32 % 8),
            op: PageOp::Build {
                ty: PageType::BTreeLeaf,
                level: 0,
                next_page: 0,
                cells: CellList::from_cells([cell.as_slice(); 5]),
            },
        };
        let per_record = build(0).encoded_len() as u64;
        let due = CHECKPOINT_EVERY_BYTES.div_ceil(per_record);
        assert!(due < 200, "{due} records are a few");
        let key = PsSegmentKey::of(build(0).page);
        let recs: Vec<RedoRecord> = (0..due).map(build).collect();
        ps.ship(&mut ctx, &recs[..due as usize - 1]).unwrap();
        for r in ps.replicas_of(key) {
            assert_eq!(r.checkpoint_lsn(key), 0, "one record short of the bound");
        }
        ps.ship(&mut ctx, &recs[due as usize - 1..]).unwrap();
        let tail = recs.last().unwrap().lsn;
        for r in ps.replicas_of(key) {
            assert_eq!(r.checkpoint_lsn(key), tail, "the bound is reached");
        }
    }

    /// Which pages the live map and the checkpoint share (same allocation).
    fn shared_with_checkpoint(server: &PageStoreServer, key: PsSegmentKey) -> Vec<(u32, bool)> {
        let segs = server.segs.lock();
        let seg = &segs[&key];
        let ckpt = seg.checkpoint.as_ref().expect("checkpoint taken");
        assert_eq!(ckpt.pages.len(), seg.pages.len());
        ckpt.pages
            .iter()
            .map(|(no, img)| (*no, Arc::ptr_eq(img, &seg.pages[no])))
            .collect()
    }

    #[test]
    fn checkpoint_is_copy_on_write() {
        let (_env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let (hot, cold) = (PageId::new(1, 40), PageId::new(1, 41));
        let key = PsSegmentKey::of(hot);
        assert_eq!(key, PsSegmentKey::of(cold));
        ps.ship(&mut ctx, &make_records(hot, 100, 3)).unwrap();
        ps.ship(&mut ctx, &make_records(cold, 200, 3)).unwrap();
        let at = 230; // checkpoint LSN: the tail of the second ship
        let server = &ps.replicas_of(key)[0];
        server.checkpoint_segment(&mut ctx, key).unwrap();
        assert_eq!(server.checkpoint_lsn(key), at);
        let images_at = |s: &PageStoreServer| -> Vec<(u32, Vec<u8>)> {
            let (lsn, pages) = s.handle_get_checkpoint(key, 0).expect("checkpoint served");
            assert_eq!(lsn, at);
            pages
                .iter()
                .map(|(no, p)| (*no, p.as_bytes().to_vec()))
                .collect()
        };
        let snapshot = images_at(server);
        assert_eq!(
            shared_with_checkpoint(server, key),
            vec![(40, true), (41, true)],
            "a fresh checkpoint copies no page image"
        );

        // Replay moves the hot page on; the checkpoint must not move.
        ps.ship(&mut ctx, &more_inserts(hot, 300, 4, 3)).unwrap();
        server.apply_pending(&mut ctx, key).unwrap();
        assert_eq!(
            shared_with_checkpoint(server, key),
            vec![(40, false), (41, true)],
            "only the touched page gets an image of its own"
        );
        assert_eq!(server.local_page(&mut ctx, hot, 330).unwrap().n_slots(), 7);
        assert_eq!(
            images_at(server),
            snapshot,
            "served checkpoint is still as of {at}"
        );

        // PITR to the checkpoint LSN lands on exactly those images.
        server.restore_to_lsn(&mut ctx, at).unwrap();
        assert_eq!(server.applied_lsn(key), at);
        for (no, bytes) in &snapshot {
            let live = server
                .local_page(&mut ctx, PageId::new(1, *no), at)
                .unwrap();
            assert_eq!(live.as_bytes(), &bytes[..], "page {no} restored to {at}");
        }
    }

    #[test]
    fn installed_checkpoint_shares_every_page() {
        let (env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let pages = [PageId::new(1, 50), PageId::new(1, 51), PageId::new(1, 52)];
        let key = PsSegmentKey::of(pages[0]);
        for (i, page) in pages.iter().enumerate() {
            ps.ship(&mut ctx, &make_records(*page, 100 * (i as u64 + 1), 2))
                .unwrap();
        }
        let donor = &ps.replicas_of(key)[0];
        donor.checkpoint_segment(&mut ctx, key).unwrap();
        let (lsn, images) = donor.handle_get_checkpoint(key, 0).unwrap();

        let fresh = PageStoreServer::new(
            999,
            Arc::clone(&env.storage_nodes[0]),
            env.storage_nodes[0].ssd.clone().unwrap(),
            env.model.clone(),
        );
        assert!(fresh.install_checkpoint(key, lsn, images));
        assert_eq!(fresh.applied_lsn(key), lsn);
        assert_eq!(
            shared_with_checkpoint(&fresh, key),
            vec![(50, true), (51, true), (52, true)]
        );
        for page in pages {
            let theirs = donor.local_page(&mut ctx, page, lsn).unwrap();
            let ours = fresh.local_page(&mut ctx, page, lsn).unwrap();
            assert!(Arc::ptr_eq(&theirs, &ours), "install copies no image");
        }
    }
}
