//! The Extended Buffer Pool (§V-C/D/E).
//!
//! Pages evicted from the local buffer pool are cached in AStore (PMem,
//! replication factor 1 — losing an EBP page only lowers the hit ratio).
//! The engine keeps the **EBP Index**: `{(space_no, page_no) → lsn +
//! segment + offset}` in sharded maps, each shard an `LruShard` — the
//! shard type the local buffer pool is built from — weighing entries by
//! image bytes (the paper's "multiple LRU lists" for contention relief,
//! §V-D).
//!
//! Writes are append-only records in EBP segments; overwriting a page makes
//! the previous image *garbage*, tracked per segment. Segments whose
//! garbage ratio crosses a threshold are **compacted** (live records moved
//! to the active segment) or, if compaction is disabled, released outright
//! — dropping some live pages with them, exactly as the paper describes.
//!
//! Capacity (§V-C): a page may only evict pages of its space's priority or
//! lower, so hot push-down tables can be pinned by giving their space a high
//! priority (§VI-B). With no priorities set, all pages share one LRU space.
//!
//! Recovery (§V-E): the engine periodically ships `(page, latest LSN)`
//! batches to the AStore servers; after a DBEngine crash the servers scan
//! their local PMem, prune stale images, and return the valid entries from
//! which [`Ebp::recover`] rebuilds the index.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use vedb_astore::client::{AStoreClient, SegmentHandle};
use vedb_astore::ebp_format::{encode_header, EbpRecordHeader, RECORD_HDR_SIZE};
use vedb_astore::layout::SegmentClass;
use vedb_astore::{AppendOpts, Lsn, PageId, SegmentId, SegmentOpts};
use vedb_pagestore::Page;
use vedb_sim::fault::NodeId;
use vedb_sim::metrics::Counter;
use vedb_sim::{MetricsRegistry, SimCtx, VTime};

use crate::lru::LruShard;
use crate::Result;

/// EBP configuration.
#[derive(Clone)]
pub struct EbpConfig {
    /// Total live-page capacity in bytes.
    pub capacity_bytes: u64,
    /// Index/LRU shards.
    pub shards: usize,
    /// Whether background compaction is enabled.
    pub compaction: bool,
    /// Per-space priority, 0 for a space not listed (empty: one flat LRU).
    pub space_priority: HashMap<u32, u8>,
}

/// Garbage ratio above which a frozen segment is compacted/released.
const COMPACTION_GARBAGE_RATIO: f64 = 0.5;

/// Page→LSN mappings buffered before a batch is shipped to the AStore
/// servers.
const LSN_BATCH_SIZE: usize = 64;

impl Default for EbpConfig {
    fn default() -> Self {
        EbpConfig {
            capacity_bytes: 64 << 20,
            shards: 8,
            compaction: true,
            space_priority: HashMap::new(),
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    lsn: Lsn,
    seg: SegmentHandle,
    offset: u64,
    len: u32,
    prio: u8,
}

struct SegInfo {
    handle: SegmentHandle,
    used: u64,
    garbage: u64,
}

struct SegTable {
    active: Option<SegmentHandle>,
    info: HashMap<SegmentId, SegInfo>,
}

/// Where an EBP-cached page physically lives (push-down task routing).
#[derive(Debug, Clone, Copy)]
pub struct EbpLoc {
    /// AStore node hosting the (single) replica.
    pub node: NodeId,
    /// Segment.
    pub seg: SegmentHandle,
    /// Offset of the page image within the segment.
    pub offset: u64,
    /// Image length.
    pub len: u32,
    /// LSN the image was current as of.
    pub lsn: Lsn,
}

/// Registry-mirrored EBP counters (component `core`). The registry comes
/// from the AStore client, so EBP activity lands in the same deployment
/// report as the subsystems underneath it.
struct EbpStats {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    writes: Arc<Counter>,
    /// Write offers satisfied by an already-cached image at the same or a
    /// newer LSN (touch only, no append).
    dedups: Arc<Counter>,
    evictions: Arc<Counter>,
    compactions: Arc<Counter>,
}

impl EbpStats {
    fn register(registry: &MetricsRegistry) -> Self {
        EbpStats {
            hits: registry.counter("core", "ebp_hits"),
            misses: registry.counter("core", "ebp_misses"),
            writes: registry.counter("core", "ebp_writes"),
            dedups: registry.counter("core", "ebp_dedups"),
            evictions: registry.counter("core", "ebp_evictions"),
            compactions: registry.counter("core", "ebp_compactions"),
        }
    }
}

/// The Extended Buffer Pool manager (engine side).
pub struct Ebp {
    client: Arc<AStoreClient>,
    cfg: EbpConfig,
    shards: Vec<Mutex<LruShard<Entry>>>,
    segs: Mutex<SegTable>,
    lsn_batch: Mutex<Vec<(PageId, Lsn)>>,
    /// Set while a compaction pass runs: re-admission writes go through
    /// [`Ebp::write_page`], whose trailing `maybe_compact` must not recurse
    /// into another pass over the same (still-registered) segment.
    compacting: AtomicBool,
    stats: EbpStats,
}

impl Ebp {
    /// Create an empty EBP over `client`. Counters publish into the
    /// client's metrics registry.
    pub fn new(client: Arc<AStoreClient>, cfg: EbpConfig) -> Ebp {
        assert!(cfg.shards > 0);
        let shards = (0..cfg.shards)
            .map(|_| Mutex::new(LruShard::new()))
            .collect();
        let stats = EbpStats::register(client.metrics());
        Ebp {
            client,
            cfg,
            shards,
            segs: Mutex::new(SegTable {
                active: None,
                info: HashMap::new(),
            }),
            lsn_batch: Mutex::new(Vec::new()),
            compacting: AtomicBool::new(false),
            stats,
        }
    }

    fn shard_of(&self, pid: PageId) -> usize {
        let h = (pid.space_no as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((pid.page_no as u64).wrapping_mul(0xFF51_AFD7_ED55_8CCD));
        (h % self.shards.len() as u64) as usize
    }

    fn prio_of(&self, pid: PageId) -> u8 {
        *self.cfg.space_priority.get(&pid.space_no).unwrap_or(&0)
    }

    /// EBP hits so far (`core.ebp_hits` in the client's registry).
    pub fn hits(&self) -> u64 {
        self.stats.hits.get()
    }

    /// EBP misses so far (`core.ebp_misses`).
    pub fn misses(&self) -> u64 {
        self.stats.misses.get()
    }

    /// Live cached bytes.
    pub fn live_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().weight()).sum()
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is a page currently cached (any version)?
    pub fn contains(&self, pid: PageId) -> bool {
        self.shards[self.shard_of(pid)].lock().peek(pid).is_some()
    }

    /// Physical location of a cached page (push-down routing).
    pub fn locate(&self, pid: PageId) -> Option<EbpLoc> {
        let e = *self.shards[self.shard_of(pid)].lock().peek(pid)?;
        let node = self.client.cached_route(e.seg.id)?.replicas.first()?.node;
        Some(EbpLoc {
            node,
            seg: e.seg,
            offset: e.offset,
            len: e.len,
            lsn: e.lsn,
        })
    }

    fn active_segment(&self, ctx: &mut SimCtx, need: u64) -> Result<SegmentHandle> {
        let mut segs = self.segs.lock();
        if let Some(h) = segs.active {
            let used = self.client.segment_len(h);
            if used + need <= self.client.segment_capacity(h) && !self.client.is_frozen(h) {
                return Ok(h);
            }
        }
        // Freeze current (it becomes a compaction candidate) and open a new
        // segment.
        let h = self
            .client
            .create_segment_with(ctx, SegmentOpts::new(SegmentClass::Ebp))?;
        segs.active = Some(h);
        segs.info.insert(
            h.id,
            SegInfo {
                handle: h,
                used: 0,
                garbage: 0,
            },
        );
        Ok(h)
    }

    /// An entry left the index: its record is garbage in its segment.
    fn note_garbage(&self, e: &Entry) {
        let mut segs = self.segs.lock();
        if let Some(info) = segs.info.get_mut(&e.seg.id) {
            info.garbage += e.len as u64 + RECORD_HDR_SIZE as u64;
        }
    }

    /// Drop `pid` from its (locked) shard, if cached.
    fn discard(&self, shard: &mut LruShard<Entry>, pid: PageId) {
        if let Some(e) = shard.remove(pid) {
            self.note_garbage(&e);
        }
    }

    /// Cache a page image. Applies the admission/eviction policy; may
    /// trigger segment roll-over and compaction. A page that cannot be
    /// admitted (only higher-priority pages to evict) is silently skipped —
    /// the EBP is a cache, not a store.
    pub fn write_page(&self, ctx: &mut SimCtx, pid: PageId, page: &Page, lsn: Lsn) -> Result<()> {
        // Eviction of an unmodified page whose image the cache already holds
        // (same or newer LSN) is a touch, not a new append — otherwise a
        // read-only workload turns every eviction into garbage and
        // compaction churn. Compaction passes are exempt: their
        // re-admissions must move the record out of the dying segment even
        // at an unchanged LSN.
        let shard_idx = self.shard_of(pid);
        if !self.compacting.load(Ordering::Relaxed) {
            // An older image is touched too, which changes nothing: the
            // overwrite below removes it.
            let cached_lsn = self.shards[shard_idx].lock().touch(pid).map(|e| e.lsn);
            if cached_lsn.is_some_and(|cached| cached >= lsn) {
                self.stats.dedups.inc();
                return Ok(());
            }
        }
        let bytes = page.as_bytes();
        let prio = self.prio_of(pid);
        let shard_cap = self.cfg.capacity_bytes / self.shards.len() as u64;

        // Admission + eviction decision under the shard lock.
        {
            let mut shard = self.shards[shard_idx].lock();
            // Overwrite: old image becomes garbage.
            self.discard(&mut shard, pid);
            while shard.weight() + bytes.len() as u64 > shard_cap {
                match shard.pop_lru_where(|e| e.prio <= prio) {
                    Some((_, victim)) => {
                        self.note_garbage(&victim);
                        self.stats.evictions.inc();
                    }
                    // Only higher-priority pages: skip caching.
                    None => return Ok(()),
                }
            }
        }

        // Append the record + terminator to the active segment.
        let hdr = encode_header(&EbpRecordHeader {
            page: pid,
            lsn,
            len: bytes.len() as u32,
        });
        let mut record = Vec::with_capacity(RECORD_HDR_SIZE + bytes.len());
        record.extend_from_slice(&hdr);
        record.extend_from_slice(bytes);
        let zero = [0u8; RECORD_HDR_SIZE];
        let need = (record.len() + zero.len()) as u64;
        let mut seg = self.active_segment(ctx, need)?;
        let opts = AppendOpts::new().with_tail(&zero);
        let offset = match self.client.append_with(ctx, seg, &record, opts) {
            Ok(off) => off,
            Err(e) if e.is_segment_unwritable() => {
                self.segs.lock().active = None;
                seg = self.active_segment(ctx, need)?;
                self.client
                    .append_with(ctx, seg, &record, AppendOpts::new().with_tail(&zero))?
            }
            Err(e) => return Err(e.into()),
        };
        {
            let mut segs = self.segs.lock();
            if let Some(info) = segs.info.get_mut(&seg.id) {
                info.used += need;
            }
        }
        let entry = Entry {
            lsn,
            seg,
            offset: offset + RECORD_HDR_SIZE as u64,
            len: bytes.len() as u32,
            prio,
        };
        self.shards[shard_idx]
            .lock()
            .insert(pid, entry, bytes.len() as u64);
        self.stats.writes.inc();
        self.maybe_compact(ctx)?;
        Ok(())
    }

    /// Fetch a cached page no older than `min_lsn`. A stale hit is treated
    /// as a miss (and the stale entry dropped).
    pub fn read_page(&self, ctx: &mut SimCtx, pid: PageId, min_lsn: Lsn) -> Option<Page> {
        let shard_idx = self.shard_of(pid);
        let entry = {
            let mut shard = self.shards[shard_idx].lock();
            match shard.touch(pid).copied() {
                Some(e) if e.lsn >= min_lsn => Some(e),
                Some(_) => {
                    // Stale image: drop it.
                    self.discard(&mut shard, pid);
                    None
                }
                None => None,
            }
        };
        let Some(e) = entry else {
            self.stats.misses.inc();
            return None;
        };
        match self.client.read(ctx, e.seg, e.offset, e.len as usize) {
            Ok(bytes) => match Page::from_vec(bytes) {
                Ok(p) => {
                    self.stats.hits.inc();
                    Some(p)
                }
                Err(_) => None,
            },
            Err(_) => {
                // Server lost: remove the entry; hit ratio drops, nothing
                // else (§V-E).
                self.discard(&mut self.shards[shard_idx].lock(), pid);
                self.stats.misses.inc();
                None
            }
        }
    }

    /// Record that the engine has a newer version of `pid` (modified in
    /// the local buffer pool); shipped to the AStore servers in batches for
    /// EBP recovery pruning (§V-C).
    pub fn note_page_lsn(&self, ctx: &mut SimCtx, pid: PageId, lsn: Lsn) {
        let flush = {
            let mut batch = self.lsn_batch.lock();
            batch.push((pid, lsn));
            batch.len() >= LSN_BATCH_SIZE
        };
        if flush {
            self.flush_lsn_batch(ctx);
        }
    }

    /// Ship the buffered page→LSN batch to every AStore server.
    pub fn flush_lsn_batch(&self, ctx: &mut SimCtx) {
        let batch: Vec<(PageId, Lsn)> = std::mem::take(&mut *self.lsn_batch.lock());
        if batch.is_empty() {
            return;
        }
        for server in self.client.cm().live_servers() {
            // One RPC per server per batch.
            ctx.advance(VTime::from_micros(120));
            server.record_page_lsns(batch.iter().copied());
        }
    }

    /// Compact (or release) frozen segments whose garbage ratio crossed the
    /// threshold (§V-D). Returns the number of segments processed.
    pub fn maybe_compact(&self, ctx: &mut SimCtx) -> Result<usize> {
        // Re-admission below routes through `write_page`, which ends with a
        // `maybe_compact` call of its own; without this guard one segment
        // crossing the ratio triggers nested passes over the same segment
        // (repeated CM delete_segment + route churn — a compaction storm).
        if self.compacting.swap(true, Ordering::Acquire) {
            return Ok(0);
        }
        let result = self.compact_locked(ctx);
        self.compacting.store(false, Ordering::Release);
        result
    }

    fn compact_locked(&self, ctx: &mut SimCtx) -> Result<usize> {
        // `segs.info` is a `RandomState` map and the index is sharded: the
        // order segments are released in and pages are re-admitted in
        // reaches the AStore (appends, deletes, evictions), so both are
        // sorted — the same seed must do the same work.
        let mut candidates: Vec<(SegmentId, SegmentHandle)> = {
            let segs = self.segs.lock();
            segs.info
                .iter()
                .filter(|(_id, info)| {
                    Some(info.handle) != segs.active
                        && info.used > 0
                        && info.garbage as f64 / info.used as f64 >= COMPACTION_GARBAGE_RATIO
                })
                .map(|(id, info)| (*id, info.handle))
                .collect()
        };
        candidates.sort_unstable_by_key(|(id, _)| *id);
        let mut processed = 0;
        for (seg_id, handle) in candidates {
            if self.cfg.compaction {
                // Move live records into the active segment.
                let mut live: Vec<(PageId, Entry)> = self
                    .shards
                    .iter()
                    .flat_map(|s| {
                        s.lock()
                            .iter()
                            .filter(|(_, e)| e.seg.id == seg_id)
                            .map(|(p, e)| (p, *e))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                live.sort_unstable_by_key(|(pid, _)| *pid);
                for (pid, e) in live {
                    if let Ok(bytes) = self.client.read(ctx, e.seg, e.offset, e.len as usize) {
                        if let Ok(page) = Page::from_bytes(&bytes) {
                            // Re-admit at the same LSN (write_page drops the
                            // old entry and appends to the active segment).
                            self.write_page(ctx, pid, &page, e.lsn)?;
                        }
                    }
                }
            } else {
                // Release directly, dropping live pages with it (§V-D).
                for s in &self.shards {
                    let mut shard = s.lock();
                    while shard.pop_lru_where(|e| e.seg.id == seg_id).is_some() {}
                }
            }
            let _ = self.client.delete_segment(ctx, handle);
            self.segs.lock().info.remove(&seg_id);
            self.stats.compactions.inc();
            processed += 1;
        }
        Ok(processed)
    }

    /// The first `limit` cached page ids (buffer-pool warm-up, §VIII).
    pub fn cached_pages(&self, limit: usize) -> Vec<PageId> {
        let mut out = Vec::with_capacity(limit.min(64));
        for shard in &self.shards {
            // Most recently used first.
            for (pid, _) in shard.lock().iter() {
                if out.len() >= limit {
                    return out;
                }
                out.push(pid);
            }
        }
        out
    }

    /// Index the valid EBP pages `server` holds in PMem: the server scans
    /// its segments (§V-E), every segment the CM still routes is adopted,
    /// and each page image found enters the index unless the index already
    /// holds that page at the same or a newer LSN. Returns the number of
    /// pages attached.
    ///
    /// Crash recovery runs this against every live server
    /// ([`recover`](Self::recover)); the §VIII extension runs it against one
    /// server that crashed and restarted ("leverage PMem persistency to
    /// recover EBP data pages locally once the AStore server is restarted").
    pub fn reattach_server(
        &self,
        ctx: &mut SimCtx,
        server: &Arc<vedb_astore::AStoreServer>,
    ) -> Result<usize> {
        let mut attached = 0;
        let mut adopted: HashMap<SegmentId, SegmentHandle> = HashMap::new();
        // The recovery request is an RPC; the scan charges PMem time.
        ctx.advance(VTime::from_micros(120));
        for found in server.ebp_recovery_scan(ctx) {
            let seg = match adopted.get(&found.segment) {
                Some(h) => *h,
                None => {
                    let Ok(h) = self
                        .client
                        .adopt_segment(ctx, found.segment, SegmentClass::Ebp)
                    else {
                        continue; // stale segment: its route is gone
                    };
                    self.segs.lock().info.entry(h.id).or_insert(SegInfo {
                        handle: h,
                        used: self.client.segment_len(h),
                        garbage: 0,
                    });
                    adopted.insert(found.segment, h);
                    h
                }
            };
            let mut shard = self.shards[self.shard_of(found.page)].lock();
            if shard.peek(found.page).is_some_and(|e| e.lsn >= found.lsn) {
                continue;
            }
            let entry = Entry {
                lsn: found.lsn,
                seg,
                offset: found.offset,
                len: found.len,
                prio: self.prio_of(found.page),
            };
            shard.insert(found.page, entry, found.len as u64);
            attached += 1;
        }
        Ok(attached)
    }

    /// Rebuild the EBP after a DBEngine crash from server-side scans
    /// (§V-E). `client` is the *new* engine incarnation's AStore client.
    pub fn recover(ctx: &mut SimCtx, client: Arc<AStoreClient>, cfg: EbpConfig) -> Result<Ebp> {
        let ebp = Ebp::new(client, cfg);
        for server in ebp.client.cm().live_servers() {
            ebp.reattach_server(ctx, &server)?;
        }
        Ok(ebp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vedb_pagestore::PageType;

    // The EBP is exercised against a real AStore cluster via the shared
    // test harness in the astore crate's client tests; here we use the
    // public connect path.
    use vedb_astore::cm::ClusterManager;
    use vedb_rdma::RdmaEndpoint;
    use vedb_sim::{ClusterSpec, VTime};

    fn harness(ctx: &mut SimCtx, slot_kb: u64) -> (Arc<vedb_sim::SimEnv>, Arc<AStoreClient>) {
        let env = ClusterSpec::paper_default().build();
        let cm = ClusterManager::new(
            Arc::clone(&env.faults),
            VTime::from_secs(3600),
            VTime::from_secs(60),
            vedb_sim::MetricsRegistry::detached(),
        );
        for (i, n) in env.astore_nodes.iter().enumerate() {
            let s = vedb_astore::AStoreServer::new(
                i as NodeId,
                Arc::clone(n),
                n.pmem.clone().unwrap(),
                8 << 20,
                slot_kb * 1024,
                env.model.clone(),
            );
            cm.register_server(Arc::clone(&s));
            cm.heartbeat(VTime::ZERO, s.node(), s.free_slots());
        }
        let client = connect(ctx, &env, cm);
        (env, client)
    }

    /// A (new incarnation of the) engine's AStore client.
    fn connect(
        ctx: &mut SimCtx,
        env: &vedb_sim::SimEnv,
        cm: Arc<ClusterManager>,
    ) -> Arc<AStoreClient> {
        let ep = RdmaEndpoint::new(
            env.model.clone(),
            Arc::clone(&env.faults),
            Arc::clone(&env.engine_nic),
        );
        AStoreClient::connect(
            ctx,
            cm,
            ep,
            Arc::clone(&env.engine_cpu),
            env.model.clone(),
            1,
            vedb_astore::ROUTE_REFRESH,
        )
    }

    fn page_with(marker: u8) -> Page {
        let mut p = Page::new();
        p.format(PageType::BTreeLeaf, 0);
        p.insert_at(0, &[marker; 64]).unwrap();
        p
    }

    fn small_cfg() -> EbpConfig {
        EbpConfig {
            capacity_bytes: 8 * 16 * 1024, // 8 pages
            shards: 1,
            ..Default::default()
        }
    }

    #[test]
    fn write_then_read_back() {
        let mut ctx = SimCtx::new(1, 7);
        let (_env, client) = harness(&mut ctx, 256);
        let ebp = Ebp::new(client, small_cfg());
        let pid = PageId::new(1, 5);
        let page = page_with(0xAB);
        ebp.write_page(&mut ctx, pid, &page, 100).unwrap();
        assert!(ebp.contains(pid));
        let got = ebp.read_page(&mut ctx, pid, 100).unwrap();
        assert_eq!(got.get(0).unwrap(), &[0xAB; 64]);
        assert_eq!(ebp.hits(), 1);
    }

    #[test]
    fn stale_entry_is_a_miss() {
        let mut ctx = SimCtx::new(1, 7);
        let (_env, client) = harness(&mut ctx, 256);
        let ebp = Ebp::new(client, small_cfg());
        let pid = PageId::new(1, 5);
        ebp.write_page(&mut ctx, pid, &page_with(1), 100).unwrap();
        // The engine has since modified the page up to LSN 200.
        assert!(ebp.read_page(&mut ctx, pid, 200).is_none());
        assert!(!ebp.contains(pid), "stale entry must be dropped");
        assert_eq!(ebp.misses(), 1);
    }

    #[test]
    fn read_latency_near_20us() {
        let mut ctx = SimCtx::new(1, 7);
        let (_env, client) = harness(&mut ctx, 256);
        let ebp = Ebp::new(client, small_cfg());
        let pid = PageId::new(1, 1);
        ebp.write_page(&mut ctx, pid, &page_with(1), 10).unwrap();
        let t0 = ctx.now();
        ebp.read_page(&mut ctx, pid, 10).unwrap();
        let us = (ctx.now() - t0).as_micros_f64();
        assert!(
            (10.0..=40.0).contains(&us),
            "EBP page read should be ~20us, got {us:.1}us"
        );
    }

    #[test]
    fn lru_eviction_bounds_size() {
        let mut ctx = SimCtx::new(1, 7);
        let (_env, client) = harness(&mut ctx, 1024);
        let ebp = Ebp::new(client, small_cfg()); // capacity: 8 pages
        for i in 0..30 {
            ebp.write_page(&mut ctx, PageId::new(1, i), &page_with(i as u8), 10)
                .unwrap();
        }
        assert!(ebp.len() <= 8, "EBP exceeded capacity: {} pages", ebp.len());
        assert!(ebp.live_bytes() <= 8 * 16 * 1024);
        // Most recent pages survived.
        assert!(ebp.contains(PageId::new(1, 29)));
        assert!(!ebp.contains(PageId::new(1, 0)));
    }

    #[test]
    fn victims_are_the_least_recently_touched_in_order() {
        let mut ctx = SimCtx::new(1, 7);
        let (_env, client) = harness(&mut ctx, 1024);
        let ebp = Ebp::new(client, small_cfg()); // Flat, 8 pages, one shard
        let p = |i| PageId::new(1, i);
        for i in 0..8 {
            ebp.write_page(&mut ctx, p(i), &page_with(i as u8), 10)
                .unwrap();
        }
        // A read hit and a write offer at an unchanged LSN both refresh.
        ebp.read_page(&mut ctx, p(0), 10).unwrap();
        ebp.write_page(&mut ctx, p(1), &page_with(1), 10).unwrap();
        // Two more pages displace the two least recent: 2, then 3.
        ebp.write_page(&mut ctx, p(8), &page_with(8), 10).unwrap();
        assert!(!ebp.contains(p(2)) && ebp.contains(p(3)));
        ebp.write_page(&mut ctx, p(9), &page_with(9), 10).unwrap();
        assert!(!ebp.contains(p(3)));
        let newest_first = [9, 8, 1, 0, 7, 6, 5, 4].map(p);
        assert_eq!(ebp.cached_pages(8), newest_first);
        assert_eq!(ebp.live_bytes(), 8 * 16 * 1024);
    }

    #[test]
    fn low_priority_victim_is_chosen_past_an_older_high_priority_page() {
        let mut ctx = SimCtx::new(1, 7);
        let (_env, client) = harness(&mut ctx, 1024);
        let mut cfg = small_cfg();
        cfg.space_priority.insert(7, 10);
        let ebp = Ebp::new(client, cfg);
        let precious = PageId::new(7, 0);
        ebp.write_page(&mut ctx, precious, &page_with(0), 10)
            .unwrap();
        for i in 0..7 {
            ebp.write_page(&mut ctx, PageId::new(1, i), &page_with(1), 10)
                .unwrap();
        }
        // Full. A low-priority page skips the oldest entry (high priority)
        // and displaces the oldest of its own kind.
        ebp.write_page(&mut ctx, PageId::new(1, 7), &page_with(1), 10)
            .unwrap();
        assert!(ebp.contains(precious) && ebp.contains(PageId::new(1, 7)));
        assert!(!ebp.contains(PageId::new(1, 0)));
        // Being skipped did not refresh it: it is still the oldest, and a
        // page of its own priority displaces it first.
        ebp.write_page(&mut ctx, PageId::new(7, 1), &page_with(2), 10)
            .unwrap();
        assert!(!ebp.contains(precious) && ebp.contains(PageId::new(1, 1)));
    }

    #[test]
    fn priority_policy_protects_high_priority_pages() {
        let mut ctx = SimCtx::new(1, 7);
        let (_env, client) = harness(&mut ctx, 1024);
        let mut cfg = small_cfg();
        cfg.space_priority.insert(7, 10); // space 7 is precious
        let ebp = Ebp::new(client, cfg);
        // Fill with high-priority pages.
        for i in 0..8 {
            ebp.write_page(&mut ctx, PageId::new(7, i), &page_with(1), 10)
                .unwrap();
        }
        // Low-priority pages cannot displace them: silently skipped.
        for i in 0..8 {
            ebp.write_page(&mut ctx, PageId::new(1, i), &page_with(2), 10)
                .unwrap();
        }
        for i in 0..8 {
            assert!(
                ebp.contains(PageId::new(7, i)),
                "high-prio page {i} evicted"
            );
            assert!(
                !ebp.contains(PageId::new(1, i)),
                "low-prio page {i} admitted"
            );
        }
        // A high-priority page *can* displace its own kind.
        ebp.write_page(&mut ctx, PageId::new(7, 100), &page_with(3), 10)
            .unwrap();
        assert!(ebp.contains(PageId::new(7, 100)));
    }

    #[test]
    fn overwrite_creates_garbage_and_compaction_reclaims() {
        let mut ctx = SimCtx::new(1, 7);
        let (_env, client) = harness(&mut ctx, 64); // small segments: ~3 pages each
        let cfg = EbpConfig {
            capacity_bytes: 4 * 16 * 1024,
            shards: 1,
            compaction: true,
            ..Default::default()
        };
        let ebp = Ebp::new(client, cfg);
        let pid = PageId::new(1, 1);
        // Overwrite the same page many times: old images become garbage,
        // segments roll over, and compaction processes the frozen ones.
        for v in 0..20 {
            ebp.write_page(&mut ctx, pid, &page_with(v), 100 + v as u64)
                .unwrap();
        }
        // The page is still readable at its latest LSN.
        let got = ebp.read_page(&mut ctx, pid, 119).unwrap();
        assert_eq!(got.get(0).unwrap(), &[19; 64]);
        // Compaction kept the segment table bounded.
        let n_segs = ebp.segs.lock().info.len();
        assert!(
            n_segs <= 3,
            "compaction should bound segments, have {n_segs}"
        );
    }

    /// ROADMAP item 2(a): compaction walked `RandomState` maps, so no two
    /// runs re-admitted pages or released segments in the same order. The
    /// run is paced past the servers' cleanup delay, so released slots are
    /// reclaimed and handed out again along the way — in the same order too.
    #[test]
    fn compaction_does_the_same_work_for_the_same_seed() {
        type Counters = std::collections::BTreeMap<String, u64>;
        fn run() -> (Counters, Counters, VTime) {
            let mut ctx = SimCtx::new(1, 7);
            let (env, client) = harness(&mut ctx, 256); // ~15 pages per segment
            let cfg = EbpConfig {
                capacity_bytes: 40 * 16 * 1024,
                shards: 4,
                compaction: true,
                ..Default::default()
            };
            let ebp = Ebp::new(Arc::clone(&client), cfg);
            // Scattered overwrites over more pages than fit: a frozen
            // segment crosses the garbage ratio with several live pages
            // left, and the order they are re-admitted in decides which
            // pages later share a segment and which the LRU evicts.
            let mut x = 7u32;
            for v in 0..600u64 {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let pid = PageId::new(1 + (x >> 8) % 3, (x >> 16) % 20);
                ebp.write_page(&mut ctx, pid, &page_with(v as u8), 100 + v)
                    .unwrap();
                ctx.advance(VTime::from_millis(2));
            }
            assert!(ebp.stats.compactions.get() > 5, "compaction must run");
            let reclaimed = env.metrics.counter_values()["astore.slots_reclaimed"];
            assert!(reclaimed > 5, "cleanups must fire, {reclaimed} did");
            (
                client.metrics().counter_values(),
                env.metrics.counter_values(),
                ctx.now(),
            )
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn recovery_rebuilds_index_and_prunes_stale() {
        let mut ctx = SimCtx::new(1, 7);
        let (env, client) = harness(&mut ctx, 256);
        let ebp = Ebp::new(Arc::clone(&client), small_cfg());
        let keep = PageId::new(1, 1);
        let stale = PageId::new(1, 2);
        ebp.write_page(&mut ctx, keep, &page_with(0x11), 100)
            .unwrap();
        ebp.write_page(&mut ctx, stale, &page_with(0x22), 100)
            .unwrap();
        // Engine modifies `stale` afterwards and ships the mapping.
        ebp.note_page_lsn(&mut ctx, stale, 500);
        ebp.flush_lsn_batch(&mut ctx);

        // DBEngine crashes: a new incarnation recovers the EBP.
        drop(ebp);
        let client2 = connect(&mut ctx, &env, Arc::clone(client.cm()));
        let recovered = Ebp::recover(&mut ctx, client2, small_cfg()).unwrap();
        assert!(recovered.contains(keep), "fresh page must survive recovery");
        assert!(!recovered.contains(stale), "stale page must be pruned");
        let got = recovered.read_page(&mut ctx, keep, 100).unwrap();
        assert_eq!(got.get(0).unwrap(), &[0x11; 64]);
    }

    #[test]
    fn reattach_and_recover_build_the_same_index_and_keep_what_is_newer() {
        let mut ctx = SimCtx::new(1, 7);
        let (env, client) = harness(&mut ctx, 256);
        let cfg = EbpConfig {
            shards: 2,
            ..small_cfg()
        };
        let ebp = Ebp::new(Arc::clone(&client), cfg.clone());
        for i in 0..6 {
            ebp.write_page(&mut ctx, PageId::new(1, i), &page_with(i as u8), 100)
                .unwrap();
        }
        // Two images of one page in PMem: the newer one is the valid one.
        let twice = PageId::new(1, 2);
        ebp.write_page(&mut ctx, twice, &page_with(0xEE), 200)
            .unwrap();
        drop(ebp);

        type Row = (PageId, Lsn, SegmentId, u64, u32, u8);
        let index = |ebp: &Ebp| -> Vec<Vec<Row>> {
            let row = |(p, e): (PageId, &Entry)| (p, e.lsn, e.seg.id, e.offset, e.len, e.prio);
            ebp.shards
                .iter()
                .map(|s| s.lock().iter().map(row).collect())
                .collect()
        };
        let cm = client.cm();
        let reattach_all = |ctx: &mut SimCtx, ebp: &Ebp| -> usize {
            let servers = cm.live_servers();
            servers
                .iter()
                .map(|s| ebp.reattach_server(ctx, s).unwrap())
                .sum()
        };
        let client2 = connect(&mut ctx, &env, Arc::clone(cm));
        let recovered = Ebp::recover(&mut ctx, client2, cfg.clone()).unwrap();
        let reattached = Ebp::new(connect(&mut ctx, &env, Arc::clone(cm)), cfg);
        assert_eq!(reattach_all(&mut ctx, &reattached), 6);
        assert_eq!(index(&recovered), index(&reattached));
        assert_eq!(recovered.locate(twice).unwrap().lsn, 200);
        assert_eq!(recovered.live_bytes(), 6 * 16 * 1024);

        // The index now holds every image at the scanned LSN or newer: a
        // second pass adopts nothing and reorders nothing. (`reattached`
        // holds the live lease; connecting it fenced `recovered`.)
        let newer = PageId::new(1, 4);
        reattached
            .write_page(&mut ctx, newer, &page_with(0xDD), 300)
            .unwrap();
        let before = index(&reattached);
        assert_eq!(reattach_all(&mut ctx, &reattached), 0);
        assert_eq!(index(&reattached), before);
        assert_eq!(reattached.locate(newer).unwrap().lsn, 300);
    }

    #[test]
    fn server_loss_degrades_to_misses() {
        let mut ctx = SimCtx::new(1, 7);
        let (env, client) = harness(&mut ctx, 256);
        let ebp = Ebp::new(client, small_cfg());
        let pid = PageId::new(1, 3);
        ebp.write_page(&mut ctx, pid, &page_with(5), 10).unwrap();
        let node = ebp.locate(pid).unwrap().node;
        env.faults.crash(node);
        assert!(ebp.read_page(&mut ctx, pid, 10).is_none());
        assert!(!ebp.contains(pid), "entry for lost server must be dropped");
    }
}
