//! One replica's state machine: accept shipped redo (in order or parked
//! behind a back-link gap), gossip holes closed, apply through the worker
//! pool, and serve page reads.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::Mutex;
use vedb_astore::{Lsn, PageId};
use vedb_rdma::RpcFabric;
use vedb_sim::cluster::NodeRes;
use vedb_sim::fault::NodeId;
use vedb_sim::trace::TraceLog;
use vedb_sim::{
    Counter, FxHashMap, Gauge, LatencyModel, LatencyRecorder, SimCtx, VTime, WorkerPool,
};

use super::checkpoint::SegCheckpoint;
use super::PsSegmentKey;
use crate::page::{Page, PAGE_SIZE};
use crate::redo::RedoRecord;
use crate::{PageStoreError, Result};

/// One replica's state for one segment.
///
/// Durability model: `retained`, `out_of_order` and `checkpoint` are this
/// replica's **durable** per-segment redo log and snapshot (a quorum ack
/// means durable append); `pages`, `applied_lsn` and `queue` are volatile
/// and rebuilt on [`PageStoreServer::restart`].
///
/// Ownership: a page image is an `Arc<Page>` that the live map, the
/// checkpoint, any reader holding it and — through [`FleetImages`] — the
/// other replicas of the fleet share until replay next touches the page:
/// [`PageStoreServer::apply_batch`] mutates through `Arc::make_mut`, which
/// copies the 16 KiB only when someone else still holds the old image.
/// Records are `Arc<RedoRecord>`, immutable once shipped, so the queue, the
/// retained log and every replica of the segment hold the same allocation.
///
/// Host work follows what changed: accepting a record is a push onto
/// `retained`, truncating it is a drain of its front, and a checkpoint
/// re-points only the snapshot entries of the pages in `changed`.
#[derive(Default)]
pub(super) struct ReplicaSeg {
    pub(super) pages: FxHashMap<u32, Arc<Page>>,
    /// Pages whose live `Arc` was replaced since the last snapshot (created,
    /// adopted from the fleet, or copied by `Arc::make_mut`). Every other
    /// page of the live map is pointer-equal in the snapshot.
    pub(super) changed: BTreeSet<u32>,
    /// LSN replay has reached.
    pub(super) applied_lsn: Lsn,
    /// LSN of the last record received *in order*.
    pub(super) last_lsn: Lsn,
    /// In-order records not yet applied.
    pub(super) queue: Vec<Arc<RedoRecord>>,
    /// Records whose back-link did not match (a gap precedes them).
    pub(super) out_of_order: BTreeMap<Lsn, Arc<RedoRecord>>,
    /// Everything received in order, in strictly increasing LSN order (all
    /// at or below `last_lsn`), retained for gossip peers until the
    /// checkpointer truncates below the previous checkpoint.
    pub(super) retained: VecDeque<Arc<RedoRecord>>,
    /// Latest durable page-image snapshot, if the checkpointer ran.
    pub(super) checkpoint: Option<SegCheckpoint>,
    /// Accepted records since the last checkpoint (trigger counter).
    pub(super) accepted_since_ckpt: u64,
}

impl ReplicaSeg {
    /// Extend the in-order stream by `rec`: the one way onto `retained`.
    fn accept_in_order(&mut self, rec: Arc<RedoRecord>) {
        debug_assert!(
            self.retained.back().is_none_or(|tail| tail.lsn < rec.lsn),
            "retained redo out of LSN order at {}",
            rec.lsn
        );
        self.last_lsn = rec.lsn;
        self.retained.push_back(Arc::clone(&rec));
        self.queue.push(rec);
    }

    /// Index of the first retained record above `lsn`.
    pub(super) fn retained_after(&self, lsn: Lsn) -> usize {
        self.retained.partition_point(|r| r.lsn <= lsn)
    }
}

/// In-order records a segment queues before the replica replays them in
/// the background. PageStore replays constantly (§III), so the queue stays
/// short whether or not anyone reads the segment, and a checkpoint finds
/// little left to apply.
const REPLAY_BATCH: usize = 64;

/// Apply workers per server. Redo partitions by page id across the pool
/// ([`RedoRecord::apply_partition`]), so independent pages apply
/// concurrently on the node's CPU lanes while each page keeps LSN order.
const APPLY_WORKERS: usize = 4;

/// Newly accepted records of a segment after which the replica snapshots
/// its page images in the background and truncates replayed redo below the
/// *previous* snapshot, so a restart replays at most about this many
/// records on top of the last snapshot, however long the log.
pub const CHECKPOINT_EVERY_RECORDS: u64 = 1024;

/// The page images one fleet's replicas share: one per page version.
///
/// Log-is-database makes an image of page *p* at page-LSN *L* the fold of
/// the shipped records of *p* up to *L*, so every replica that replays *p*
/// to *L* builds the same bytes. The first to build it publishes it here;
/// the others adopt its `Arc` instead of building their own. The index is
/// only ever locked under a server's `segs` lock, never the other way round.
#[derive(Default)]
pub(super) struct FleetImages {
    /// Per page, the newest image a replica published. `Weak`: the index
    /// keeps an image's `Arc` header alive, never its 16 KiB. The page
    /// carries its own LSN.
    newest: FxHashMap<PageId, Weak<Page>>,
    /// `apply_batch`'s scratch: per page number, the first and last LSN of
    /// the batch being applied. Held here so its capacity outlives a batch.
    batch: FxHashMap<u32, (Lsn, Lsn)>,
}

impl FleetImages {
    /// Note each page's first and last record in the batch about to apply.
    fn plan(&mut self, parts: &[Vec<Arc<RedoRecord>>]) {
        self.batch.clear();
        for rec in parts.iter().flatten() {
            self.batch
                .entry(rec.page.page_no)
                .and_modify(|span| span.1 = rec.lsn)
                .or_insert((rec.lsn, rec.lsn));
        }
    }

    /// The published image of `page` if it is still held and at `lsn`.
    fn live(&self, page: PageId, lsn: Lsn) -> Option<Arc<Page>> {
        self.newest
            .get(&page)?
            .upgrade()
            .filter(|img| img.lsn() == lsn)
    }

    /// The image to take instead of running a batch's records for `page`:
    /// another replica's, at `last`, the batch's last LSN for the page.
    /// `have` is the replica's image, `rest` the batch's records from the
    /// page's first one on.
    fn adoptable(
        &self,
        page: PageId,
        last: Lsn,
        have: Option<&Arc<Page>>,
        rest: &[Arc<RedoRecord>],
    ) -> Option<Arc<Page>> {
        if have.is_some_and(|img| img.lsn() >= last) {
            return None;
        }
        let shared = self.live(page, last)?;
        if cfg!(debug_assertions) {
            // Equal page LSN ⇒ equal bytes, checked: replay anyway.
            let mut own = have.map_or_else(Page::new, |img| Page::clone(img));
            for rec in rest.iter().filter(|r| r.page == page) {
                assert!(rec.apply(&mut own).is_ok(), "{page}: replay failed");
            }
            assert_eq!(own, *shared, "{page} at lsn {last}: adopted != replayed");
        }
        Some(shared)
    }

    /// Make `img` the newest image of `page`, unless a newer one is held.
    fn publish(&mut self, page: PageId, img: &Arc<Page>) {
        match self.newest.entry(page) {
            Entry::Vacant(e) => {
                e.insert(Arc::downgrade(img));
            }
            Entry::Occupied(mut e) => {
                if e.get().upgrade().is_none_or(|held| held.lsn() <= img.lsn()) {
                    e.insert(Arc::downgrade(img));
                }
            }
        }
    }

    /// Swap `img` for the fleet's image of the same page version, or
    /// publish it: how a restore's base install shares its checkpoint pages.
    pub(super) fn share(&mut self, page: PageId, img: &mut Arc<Page>) {
        match self.live(page, img.lsn()) {
            Some(shared) => {
                debug_assert_eq!(**img, *shared, "{page}: equal lsn, unequal bytes");
                *img = shared;
            }
            None => self.publish(page, img),
        }
    }

    /// Drop every image beyond `lsn` (and every entry nobody holds): redo
    /// past a restore point is discarded, and its LSNs may be issued again
    /// for other records.
    pub(super) fn forget_beyond(&mut self, lsn: Lsn) {
        self.newest
            .retain(|_, img| img.upgrade().is_some_and(|held| held.lsn() <= lsn));
    }
}

/// Replay/read metric handles (component `"pagestore"`), registered into the
/// node's deployment registry and shared by every server (same registry key
/// → same instance), so each reads cluster-wide.
///
/// Lag accounting distinguishes *where* an accepted record waits:
/// `queued_records` counts records queued behind an apply worker (in-order,
/// waiting for CPU), `parked_records` counts records parked out-of-order
/// behind a back-link gap. `apply_lag_records` is their sum. In fault-free
/// runs the books balance exactly:
/// `records_accepted == records_applied + queued_records + parked_records`
/// (asserted by `metrics_accuracy`); crashes and checkpoint installs retire
/// records without applying them, counted by `records_superseded` /
/// `restore_replayed_records` instead.
pub(super) struct PsStats {
    pub(super) ships: Arc<Counter>,
    pub(super) records_accepted: Arc<Counter>,
    pub(super) records_applied: Arc<Counter>,
    pub(super) page_materializations: Arc<Counter>,
    pub(super) page_reads: Arc<Counter>,
    pub(super) gossip_recoveries: Arc<Counter>,
    pub(super) checkpoints: Arc<Counter>,
    pub(super) checkpoint_pages: Arc<Counter>,
    pub(super) log_truncated_records: Arc<Counter>,
    pub(super) restores: Arc<Counter>,
    pub(super) restore_replayed: Arc<Counter>,
    pub(super) records_superseded: Arc<Counter>,
    pub(super) apply_lag: Arc<Gauge>,
    pub(super) queued: Arc<Gauge>,
    pub(super) parked: Arc<Gauge>,
    pub(super) read_lat: Arc<LatencyRecorder>,
    pub(super) trace: Arc<TraceLog>,
}

impl PsStats {
    fn register(res: &NodeRes) -> Self {
        let reg = &res.metrics;
        PsStats {
            ships: reg.counter("pagestore", "ships"),
            records_accepted: reg.counter("pagestore", "records_accepted"),
            records_applied: reg.counter("pagestore", "records_applied"),
            page_materializations: reg.counter("pagestore", "page_materializations"),
            page_reads: reg.counter("pagestore", "page_reads"),
            gossip_recoveries: reg.counter("pagestore", "gossip_recoveries"),
            checkpoints: reg.counter("pagestore", "checkpoints"),
            checkpoint_pages: reg.counter("pagestore", "checkpoint_pages"),
            log_truncated_records: reg.counter("pagestore", "log_truncated_records"),
            restores: reg.counter("pagestore", "restores"),
            restore_replayed: reg.counter("pagestore", "restore_replayed_records"),
            records_superseded: reg.counter("pagestore", "records_superseded"),
            apply_lag: reg.gauge("pagestore", "apply_lag_records"),
            queued: reg.gauge("pagestore", "queued_records"),
            parked: reg.gauge("pagestore", "parked_records"),
            read_lat: reg.latency("pagestore", "read_page"),
            trace: Arc::clone(reg.trace()),
        }
    }
}

/// Absorb parked records that now chain onto the in-order stream: either
/// their back-link matches the stream tail exactly, or (after a checkpoint
/// install) their predecessor sits at or below `floor`, which the snapshot
/// is known to cover. Moves each such record from the parked to the queued
/// gauge.
pub(super) fn absorb_parked(seg: &mut ReplicaSeg, stats: &PsStats, floor: Lsn) {
    let mut absorbed = 0;
    while let Some(entry) = seg.out_of_order.first_entry() {
        let (lsn, parked) = (*entry.key(), entry.get());
        let chains = parked.prev_same_segment == seg.last_lsn
            || (lsn > seg.last_lsn && parked.prev_same_segment <= floor);
        if !chains {
            break;
        }
        let parked = entry.remove();
        seg.accept_in_order(parked);
        absorbed += 1;
    }
    if absorbed > 0 {
        stats.parked.sub(absorbed);
        stats.queued.add(absorbed);
    }
}

/// One PageStore server process (one per storage node).
pub struct PageStoreServer {
    node: NodeId,
    pub(super) res: Arc<NodeRes>,
    pub(super) model: LatencyModel,
    /// Apply workers over this node's CPU — parallel redo apply and
    /// restore replay both price their CPU through the pool.
    pool: WorkerPool,
    /// At most one background checkpoint in flight per server.
    ckpt_inflight: AtomicBool,
    pub(super) segs: Mutex<FxHashMap<PsSegmentKey, ReplicaSeg>>,
    /// The image index of the fleet this server serves in; unset outside a
    /// fleet, where a server shares nothing.
    pub(super) fleet: OnceLock<Arc<Mutex<FleetImages>>>,
    pub(super) stats: PsStats,
}

impl PageStoreServer {
    /// Create a server on a storage node: four apply workers and a
    /// background checkpoint every [`CHECKPOINT_EVERY_RECORDS`] records.
    pub fn new(node: NodeId, res: Arc<NodeRes>, model: LatencyModel) -> Arc<Self> {
        let stats = PsStats::register(&res);
        let pool = WorkerPool::with_metrics(
            &format!("{}.apply", res.name),
            APPLY_WORKERS,
            Arc::clone(&res.cpu),
            &res.metrics,
        );
        Arc::new(PageStoreServer {
            node,
            res,
            model,
            pool,
            ckpt_inflight: AtomicBool::new(false),
            segs: Mutex::new(FxHashMap::default()),
            fleet: OnceLock::new(),
            stats,
        })
    }

    /// Share page images with the other servers of one fleet
    /// ([`PageStore::new`](super::PageStore::new)). A server joins the
    /// first fleet built over it.
    pub(super) fn join_fleet(&self, images: &Arc<Mutex<FleetImages>>) {
        let _ = self.fleet.set(Arc::clone(images));
    }

    /// Node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Node resources (RPC dispatch + push-down CPU accounting).
    pub fn res(&self) -> &Arc<NodeRes> {
        &self.res
    }

    /// Handler: ingest a batch of records for `key`. Records whose
    /// back-link matches extend the in-order stream; the rest wait in the
    /// out-of-order buffer. Charges per-record CPU, and kicks the
    /// background checkpointer once [`CHECKPOINT_EVERY_RECORDS`] new
    /// records accumulated, or else background replay once `REPLAY_BATCH`
    /// records queue up.
    pub fn handle_ship(&self, ctx: &mut SimCtx, key: PsSegmentKey, records: &[Arc<RedoRecord>]) {
        let sp = self.stats.trace.span(ctx, "pagestore", "redo_accept");
        let cpu = self.res.cpu.acquire(
            ctx.now(),
            VTime::from_nanos(records.len() as u64 * self.model.cpu_redo_accept_ns),
        );
        ctx.wait_until(cpu);
        self.stats.ships.inc();
        let (ckpt_due, replay_due) = {
            let mut segs = self.segs.lock();
            let seg = segs.entry(key).or_default();
            // Accepts of this ship, booked once after the loop.
            let (mut in_order, mut parked) = (0, 0);
            for rec in records {
                if rec.lsn <= seg.last_lsn {
                    continue; // duplicate delivery
                }
                if rec.prev_same_segment == seg.last_lsn {
                    in_order += 1;
                    seg.accept_in_order(Arc::clone(rec));
                    absorb_parked(seg, &self.stats, 0);
                } else if seg.out_of_order.insert(rec.lsn, Arc::clone(rec)).is_none() {
                    // A re-delivered record already parked here (e.g. the
                    // same hole pulled from two gossip peers) must not be
                    // double-counted as accepted.
                    parked += 1;
                }
            }
            let accepted = in_order + parked;
            if accepted > 0 {
                self.stats.records_accepted.add(accepted);
                self.stats.queued.add(in_order as i64);
                self.stats.parked.add(parked as i64);
                self.stats.apply_lag.add(accepted as i64);
            }
            seg.accepted_since_ckpt += accepted;
            (
                seg.accepted_since_ckpt >= CHECKPOINT_EVERY_RECORDS,
                seg.queue.len() >= REPLAY_BATCH,
            )
        };
        if ckpt_due && !self.ckpt_inflight.swap(true, Ordering::AcqRel) {
            // Background work: a forked clock keeps it off the shipper's
            // critical path; resource charges still land on this node.
            let mut bg = ctx.fork();
            let _ = self.checkpoint_segment(&mut bg, key);
            self.ckpt_inflight.store(false, Ordering::Release);
        } else if replay_due {
            let mut bg = ctx.fork();
            let _ = self.apply_pending(&mut bg, key);
        }
        sp.finish(ctx);
    }

    /// Handler: serve records after `from_lsn` (gossip peer side). Serves
    /// the in-order retained stream *and* parked out-of-order records — a
    /// record every quorum member parked would otherwise be unreachable;
    /// the puller's back-link check decides what actually chains on. The
    /// reply is the first `max` of both, merged in LSN order; a parked
    /// record wins a tie.
    pub fn handle_get_records(
        &self,
        key: PsSegmentKey,
        from_lsn: Lsn,
        max: usize,
    ) -> Vec<Arc<RedoRecord>> {
        let segs = self.segs.lock();
        let Some(seg) = segs.get(&key) else {
            return Vec::new();
        };
        let mut tail = seg
            .retained
            .range(seg.retained_after(from_lsn)..)
            .peekable();
        let mut parked = seg.out_of_order.range(from_lsn + 1..).peekable();
        let mut out = Vec::new();
        while out.len() < max {
            let next = match (tail.peek(), parked.peek()) {
                (Some(r), Some((l, _))) if r.lsn < **l => tail.next(),
                (Some(r), Some((l, _))) if r.lsn == **l => {
                    tail.next();
                    parked.next().map(|(_, p)| p)
                }
                (_, Some(_)) => parked.next().map(|(_, p)| p),
                (_, None) => tail.next(),
            };
            let Some(rec) = next else { break };
            out.push(Arc::clone(rec));
        }
        out
    }

    /// Fill back-link gaps for `key` by gossiping with `peers` (§III:
    /// "with the back-link mechanism a PageStore instance can detect
    /// missing logs and gossip with other instances to retrieve them"),
    /// and pull the *tail* of the stream until `need` is covered. Back-links
    /// only reveal holes once a later record arrives; a replica that missed
    /// the end of the stream has no gap evidence, so a reader demanding
    /// `need` passes it here as the target to chase. Returns how many
    /// records were recovered.
    pub fn gossip_fill_until(
        &self,
        ctx: &mut SimCtx,
        rpc: &RpcFabric,
        key: PsSegmentKey,
        peers: &[Arc<PageStoreServer>],
        need: Lsn,
    ) -> usize {
        let mut recovered = 0;
        loop {
            let (last, has_gap) = {
                let segs = self.segs.lock();
                match segs.get(&key) {
                    Some(seg) => (seg.last_lsn, !seg.out_of_order.is_empty()),
                    None => (0, false),
                }
            };
            if !has_gap && last >= need {
                break;
            }
            let mut progressed = false;
            for peer in peers {
                if peer.node() == self.node {
                    continue;
                }
                let got = rpc.call(ctx, peer.node(), peer.res(), 64, 4096, |_c| {
                    peer.handle_get_records(key, last, 64)
                });
                if let Ok(records) = got {
                    if !records.is_empty() {
                        let before = self.segs.lock().get(&key).map(|s| s.last_lsn).unwrap_or(0);
                        self.handle_ship(ctx, key, &records);
                        let after = self.segs.lock().get(&key).map(|s| s.last_lsn).unwrap_or(0);
                        if after > before {
                            recovered += 1;
                            progressed = true;
                            break;
                        }
                    }
                }
            }
            if !progressed {
                // Record pulls cannot help — either the gap predates the
                // peers' truncation horizon or the records are truly
                // lost. A peer's checkpoint can still leap this replica
                // over the hole wholesale.
                for peer in peers {
                    if peer.node() == self.node {
                        continue;
                    }
                    let meta = rpc.call(ctx, peer.node(), peer.res(), 32, 32, |_c| {
                        peer.handle_checkpoint_meta(key)
                    });
                    let Ok(Some((ck_lsn, n_pages))) = meta else {
                        continue;
                    };
                    if ck_lsn <= last {
                        continue;
                    }
                    let resp_bytes = n_pages.max(1) * PAGE_SIZE;
                    let got = rpc.call(ctx, peer.node(), peer.res(), 64, resp_bytes, |_c| {
                        peer.handle_get_checkpoint(key, last)
                    });
                    if let Ok(Some((lsn, pages))) = got {
                        if self.install_checkpoint(key, lsn, pages) {
                            recovered += 1;
                            progressed = true;
                            break;
                        }
                    }
                }
            }
            if !progressed {
                break; // peers cannot help (records truly lost)
            }
        }
        self.stats.gossip_recoveries.add(recovered as u64);
        recovered
    }

    /// Apply all in-order records (the "constantly replays" background
    /// work, charged to this node's CPU — through the worker pool — and
    /// SSD).
    pub fn apply_pending(&self, ctx: &mut SimCtx, key: PsSegmentKey) -> Result<()> {
        let to_apply: Vec<Arc<RedoRecord>> = {
            let mut segs = self.segs.lock();
            match segs.get_mut(&key) {
                Some(seg) => std::mem::take(&mut seg.queue),
                None => return Ok(()),
            }
        };
        if to_apply.is_empty() {
            return Ok(());
        }
        // Span opens only when there is work: an idle replay poll is free.
        let sp = self.stats.trace.span(ctx, "pagestore", "apply");
        self.apply_batch(ctx, key, to_apply, false)?;
        sp.finish(ctx);
        Ok(())
    }

    /// Apply a drained batch through the worker pool. Records partition by
    /// page id ([`RedoRecord::apply_partition`]) so a page's records stay
    /// on one worker in LSN order while distinct pages apply concurrently;
    /// page mutation itself happens under the segment lock in worker-index
    /// order, so the resulting images are identical to a serial apply.
    /// With `recovery` set, applied records count as
    /// `restore_replayed_records` instead of `records_applied`.
    ///
    /// In a fleet, a page whose batch ends at an LSN another replica's
    /// image already has adopts that image ([`FleetImages`]): its records
    /// count as applied without running, and everything charged or counted
    /// is the same as if they had run. A page this replica builds itself is
    /// published for the others.
    pub(super) fn apply_batch(
        &self,
        ctx: &mut SimCtx,
        key: PsSegmentKey,
        to_apply: Vec<Arc<RedoRecord>>,
        recovery: bool,
    ) -> Result<usize> {
        let nparts = self.pool.workers();
        let mut parts: Vec<Vec<Arc<RedoRecord>>> = vec![Vec::new(); nparts];
        for rec in to_apply {
            let p = rec.apply_partition(nparts);
            parts[p].push(rec);
        }
        let demands: Vec<VTime> = parts
            .iter()
            .map(|p| VTime::from_nanos(p.len() as u64 * self.model.cpu_redo_apply_ns))
            .collect();
        self.pool.dispatch(ctx, &demands);
        let mut touched = 0usize;
        let mut first_err: Option<PageStoreError> = None;
        {
            let mut segs = self.segs.lock();
            // vedb-lint: allow(no-panic-in-runtime, "apply_batch only runs for keys handle_ship inserted under this same lock")
            let seg = segs.get_mut(&key).expect("created by ship");
            let mut fleet = self.fleet.get().map(|images| images.lock());
            if let Some(images) = fleet.as_deref_mut() {
                images.plan(&parts);
            }
            let mut applied_max: Lsn = 0;
            let mut stuck_min: Option<Lsn> = None;
            let mut requeue: Vec<Arc<RedoRecord>> = Vec::new();
            for part in &parts {
                for (i, rec) in part.iter().enumerate() {
                    let no = rec.page.page_no;
                    let span = fleet.as_ref().and_then(|f| f.batch.get(&no).copied());
                    let adopted = match (&fleet, span) {
                        (Some(images), Some((first, last))) if rec.lsn == first => {
                            images.adoptable(rec.page, last, seg.pages.get(&no), &part[i..])
                        }
                        _ => None,
                    };
                    let page = match seg.pages.entry(no) {
                        Entry::Occupied(e) => {
                            let page = e.into_mut();
                            if let Some(img) = adopted {
                                *page = img;
                                seg.changed.insert(no);
                            }
                            page
                        }
                        Entry::Vacant(e) => {
                            self.stats.page_materializations.inc();
                            seg.changed.insert(no);
                            e.insert(adopted.unwrap_or_default())
                        }
                    };
                    if rec.lsn > page.lsn() {
                        // Copy-on-write: the image is copied here only if the
                        // checkpoint, a reader or another replica still
                        // shares it.
                        let held = Arc::as_ptr(page);
                        let applied = rec.apply(Arc::make_mut(page));
                        if !std::ptr::eq(held, Arc::as_ptr(page)) {
                            seg.changed.insert(no);
                        }
                        if let Err(e) = applied {
                            // Keep this worker's unapplied tail; other
                            // workers' pages are independent and keep
                            // applying. Dropping the tail would freeze
                            // `applied_lsn` below these records forever
                            // (permanent `NotYetApplied` on later reads).
                            stuck_min = Some(stuck_min.map_or(rec.lsn, |s: Lsn| s.min(rec.lsn)));
                            if first_err.is_none() {
                                first_err = Some(e);
                            }
                            requeue.extend_from_slice(&part[i..]);
                            break;
                        }
                        if let (Some(images), Some((_, last))) = (fleet.as_deref_mut(), span) {
                            if rec.lsn == last {
                                images.publish(rec.page, page);
                            }
                        }
                    }
                    applied_max = applied_max.max(rec.lsn);
                    touched += 1;
                }
            }
            // The apply watermark promises "everything at or below is
            // applied": with a stuck record at LSN s, records beyond s on
            // *other* workers may be applied but cannot be advertised.
            let watermark = match stuck_min {
                None => applied_max,
                Some(s) => applied_max.min(s.saturating_sub(1)),
            };
            seg.applied_lsn = seg.applied_lsn.max(watermark);
            if !requeue.is_empty() {
                requeue.sort_by_key(|r| r.lsn);
                requeue.extend(std::mem::take(&mut seg.queue));
                seg.queue = requeue;
            }
        }
        if recovery {
            self.stats.restore_replayed.add(touched as u64);
        } else {
            self.stats.records_applied.add(touched as u64);
        }
        self.stats.queued.sub(touched as i64);
        self.stats.apply_lag.sub(touched as i64);
        if touched > 0 {
            if let Some(ssd) = &self.res.ssd {
                let batches = touched.div_ceil(16).max(1);
                let done =
                    ssd.acquire(ctx.now(), self.model.ssd_write_svc(batches * PAGE_SIZE) / 4);
                ctx.wait_until(done);
            }
        }
        match first_err {
            None => Ok(touched),
            Some(e) => Err(e),
        }
    }

    /// Durable watermark of one segment (the log-truncation RPC handler):
    /// every record at or below it is held in this replica's durable redo
    /// log or captured by its checkpoint.
    pub fn segment_watermark(&self, key: PsSegmentKey) -> Lsn {
        self.segs.lock().get(&key).map(|s| s.last_lsn).unwrap_or(0)
    }

    /// Records currently retained for gossip (tests / monitoring).
    pub fn retained_count(&self, key: PsSegmentKey) -> usize {
        self.segs
            .lock()
            .get(&key)
            .map(|s| s.retained.len())
            .unwrap_or(0)
    }

    /// LSN replay has reached for `key`.
    pub fn applied_lsn(&self, key: PsSegmentKey) -> Lsn {
        self.segs
            .lock()
            .get(&key)
            .map(|s| s.applied_lsn)
            .unwrap_or(0)
    }

    /// The one page-materialisation body: replay pending records, require
    /// `min_lsn`, charge the 16KB media read, look the image up.
    fn materialize(
        &self,
        ctx: &mut SimCtx,
        key: PsSegmentKey,
        page: PageId,
        min_lsn: Lsn,
    ) -> Result<Arc<Page>> {
        self.apply_pending(ctx, key)?;
        let applied = self.applied_lsn(key);
        if applied < min_lsn {
            return Err(PageStoreError::NotYetApplied {
                need: min_lsn,
                applied,
            });
        }
        if let Some(ssd) = &self.res.ssd {
            let done = ssd.acquire(ctx.now(), self.model.ssd_read_svc(PAGE_SIZE));
            ctx.wait_until(done);
        }
        let segs = self.segs.lock();
        let seg = segs.get(&key).ok_or(PageStoreError::UnknownPage(page))?;
        seg.pages
            .get(&page.page_no)
            .cloned()
            .ok_or(PageStoreError::UnknownPage(page))
    }

    /// Handler: read the latest image of `page`, replaying (and gossiping
    /// via `peers` if records are missing) until `min_lsn` is covered.
    /// Parked records prove a hole below them, so the replica fills it
    /// first even when the reader demands no LSN: an engine back from a
    /// restart reads with `min_lsn` 0 and would otherwise get the image
    /// from before the hole.
    pub fn handle_read_page(
        &self,
        ctx: &mut SimCtx,
        rpc: &RpcFabric,
        key: PsSegmentKey,
        page: PageId,
        min_lsn: Lsn,
        peers: &[Arc<PageStoreServer>],
    ) -> Result<Vec<u8>> {
        let t0 = ctx.now();
        // Error paths drop the guard → the span records as abandoned.
        let sp = self.stats.trace.span(ctx, "pagestore", "read_page");
        if self.gap_count(key) > 0 {
            self.gossip_fill_until(ctx, rpc, key, peers, min_lsn);
        }
        let p = match self.materialize(ctx, key, page, min_lsn) {
            Err(PageStoreError::NotYetApplied { .. }) => {
                self.gossip_fill_until(ctx, rpc, key, peers, min_lsn);
                self.materialize(ctx, key, page, min_lsn)
            }
            found => found,
        }?;
        self.stats.page_reads.inc();
        self.stats.read_lat.record(ctx.now() - t0);
        sp.finish(ctx);
        // The reply's wire image: the one copy, made outside the lock.
        Ok(p.as_bytes().to_vec())
    }

    /// Local (no-RPC) page access for push-down execution on this server;
    /// charges the SSD read but no network. Replays pending records first.
    pub fn local_page(&self, ctx: &mut SimCtx, page: PageId, min_lsn: Lsn) -> Result<Arc<Page>> {
        self.materialize(ctx, PsSegmentKey::of(page), page, min_lsn)
    }

    /// Records parked out-of-order for a segment (tests / monitoring).
    pub fn gap_count(&self, key: PsSegmentKey) -> usize {
        self.segs
            .lock()
            .get(&key)
            .map(|s| s.out_of_order.len())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use vedb_astore::PageId;
    use vedb_rdma::RpcFabric;
    use vedb_sim::SimCtx;

    use super::super::testutil::{make_records, setup};
    use super::PsSegmentKey;
    use crate::redo::{PageOp, RedoRecord};
    use crate::PageStoreError;

    #[test]
    fn backlink_gap_detected_and_gossip_fills() {
        let (env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 11);
        let key = PsSegmentKey::of(page);
        let replicas = ps.replicas_of(key);

        // First batch reaches everyone.
        let batch1 = make_records(page, 100, 2);
        ps.ship(&mut ctx, &batch1).unwrap();
        // Second batch misses replica 0 (it is down).
        env.faults.crash(replicas[0].node());
        let batch2 = vec![RedoRecord {
            lsn: 500,
            prev_same_segment: 0, // facade fills it in
            txn_id: 2,
            page,
            op: PageOp::InsertAt {
                slot: 2,
                cell: b"late".to_vec(),
            },
        }];
        ps.ship(&mut ctx, &batch2).unwrap();
        env.faults.restore(replicas[0].node());
        // Third batch reaches everyone — replica 0 sees a back-link gap.
        let batch3 = vec![RedoRecord {
            lsn: 600,
            prev_same_segment: 0,
            txn_id: 2,
            page,
            op: PageOp::InsertAt {
                slot: 3,
                cell: b"even-later".to_vec(),
            },
        }];
        ps.ship(&mut ctx, &batch3).unwrap();
        assert_eq!(
            replicas[0].gap_count(key),
            1,
            "replica 0 must park the gapped record"
        );

        // Gossip heals it.
        let peers: Vec<_> = replicas[1..].to_vec();
        let rpc = RpcFabric::new(env.model.clone(), Arc::clone(&env.faults));
        replicas[0].gossip_fill_until(&mut ctx, &rpc, key, &peers, 0);
        assert_eq!(replicas[0].gap_count(key), 0);
        replicas[0].apply_pending(&mut ctx, key).unwrap();
        assert_eq!(replicas[0].applied_lsn(key), 600);
    }

    #[test]
    fn read_requires_min_lsn() {
        let (_env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 13);
        let recs = make_records(page, 100, 1);
        ps.ship(&mut ctx, &recs).unwrap();
        // Asking for a future LSN fails cleanly.
        assert!(matches!(
            ps.read_page(&mut ctx, page, 10_000),
            Err(PageStoreError::NotYetApplied { .. })
        ));
    }

    #[test]
    fn unknown_page_reported() {
        let (env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        assert!(matches!(
            ps.read_page(&mut ctx, PageId::new(9, 9), 0),
            Err(PageStoreError::UnknownPage(_))
        ));
        // Every replica is asked before the read gives up: one RPC each.
        assert_eq!(env.metrics.counter("rdma", "rpc_calls").get(), 3);
    }
}
