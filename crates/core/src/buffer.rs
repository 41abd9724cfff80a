//! The DBEngine's local buffer pool.
//!
//! A sharded page cache: page ids hash to one of several shards, each an
//! `LruShard` behind its own mutex (the paper uses the same trick for the
//! EBP's LRU lists, §V-D; the EBP index is built from the same shard type).
//! Frames are `Arc`-pinned — eviction skips any frame still referenced by
//! an operation in flight.
//!
//! Under the log-is-database rule, dirty pages are never written back to
//! PageStore; on eviction they are offered to an [`EvictionSink`] (the
//! Extended Buffer Pool, when attached) and then dropped — PageStore can
//! always reconstruct them from shipped REDO.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use vedb_astore::{Lsn, PageId};
use vedb_pagestore::Page;
use vedb_sim::metrics::Counter;
use vedb_sim::{LatencyModel, MetricsRegistry, Resource, SimCtx, VTime};

use crate::lru::LruShard;
use crate::Result;

/// Receives pages as they fall out of the buffer pool.
pub trait EvictionSink: Send + Sync {
    /// Called with the evicted page's image and last-mutation LSN.
    fn on_evict(&self, ctx: &mut SimCtx, page_id: PageId, page: &Page, lsn: Lsn);
}

/// A cached page frame.
pub struct Frame {
    /// The page image (latched by readers/writers).
    pub page: RwLock<Page>,
    dirty: AtomicBool,
}

impl Frame {
    fn new(page: Page) -> Arc<Frame> {
        Arc::new(Frame {
            page: RwLock::new(page),
            dirty: AtomicBool::new(false),
        })
    }

    /// Mark the frame dirty (its REDO has been logged).
    pub fn mark_dirty(&self) {
        self.dirty.store(true, Ordering::Release);
    }

    /// Is the frame dirty?
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire)
    }
}

/// The sharded buffer pool.
pub struct BufferPool {
    shards: Vec<Mutex<LruShard<Arc<Frame>>>>,
    capacity_per_shard: u64,
    engine_cpu: Arc<Resource>,
    model: LatencyModel,
    m_hits: Arc<Counter>,
    m_misses: Arc<Counter>,
    m_allocs: Arc<Counter>,
    m_evictions: Arc<Counter>,
}

impl BufferPool {
    /// A pool holding at most `capacity_pages` pages across `shards`
    /// shards, counting hits, misses, allocations and evictions in
    /// `registry` (component `core`: `bp_hits`, `bp_misses`, `bp_allocs`,
    /// `bp_evictions`).
    pub fn with_metrics(
        capacity_pages: usize,
        shards: usize,
        engine_cpu: Arc<Resource>,
        model: LatencyModel,
        registry: &MetricsRegistry,
    ) -> BufferPool {
        assert!(shards > 0 && capacity_pages >= shards);
        BufferPool {
            shards: (0..shards).map(|_| Mutex::new(LruShard::new())).collect(),
            capacity_per_shard: (capacity_pages / shards) as u64,
            engine_cpu,
            model,
            m_hits: registry.counter("core", "bp_hits"),
            m_misses: registry.counter("core", "bp_misses"),
            m_allocs: registry.counter("core", "bp_allocs"),
            m_evictions: registry.counter("core", "bp_evictions"),
        }
    }

    fn shard_of(&self, page_id: PageId) -> usize {
        let h = (page_id.space_no as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(page_id.page_no as u64);
        (h % self.shards.len() as u64) as usize
    }

    /// Cache hits so far (`core.bp_hits`).
    pub fn hits(&self) -> u64 {
        self.m_hits.get()
    }

    /// Cache misses so far (`core.bp_misses`).
    pub fn misses(&self) -> u64 {
        self.m_misses.get()
    }

    /// Pages currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Is the pool empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up a page without loading (tests / pushdown planning).
    pub fn peek(&self, page_id: PageId) -> Option<Arc<Frame>> {
        self.shards[self.shard_of(page_id)]
            .lock()
            .peek(page_id)
            .cloned()
    }

    /// Get a page, loading it with `loader` on a miss. Evicts the shard's
    /// LRU page (offering it to `sink`) when over capacity. Charges a
    /// buffer-pool hit cost on the engine CPU either way.
    pub fn get(
        &self,
        ctx: &mut SimCtx,
        page_id: PageId,
        sink: Option<&dyn EvictionSink>,
        loader: impl FnOnce(&mut SimCtx) -> Result<Page>,
    ) -> Result<Arc<Frame>> {
        self.charge_hit(ctx);
        let hit = self.shards[self.shard_of(page_id)]
            .lock()
            .touch(page_id)
            .cloned();
        if let Some(frame) = hit {
            self.m_hits.inc();
            return Ok(frame);
        }
        self.m_misses.inc();
        // Load outside the shard lock (the loader does remote I/O).
        let page = loader(ctx)?;
        Ok(self.install(ctx, page_id, Frame::new(page), sink))
    }

    /// Give a page that was just allocated a blank frame. Nobody holds an
    /// image of a fresh id, so nothing is read: this charges the hit cost,
    /// counts `core.bp_allocs` (neither a hit nor a miss) and evicts as
    /// [`get`](Self::get) does.
    pub fn create(
        &self,
        ctx: &mut SimCtx,
        page_id: PageId,
        sink: Option<&dyn EvictionSink>,
    ) -> Arc<Frame> {
        self.charge_hit(ctx);
        self.m_allocs.inc();
        self.install(ctx, page_id, Frame::new(Page::new()), sink)
    }

    fn charge_hit(&self, ctx: &mut SimCtx) {
        let done = self
            .engine_cpu
            .acquire(ctx.now(), VTime::from_nanos(self.model.cpu_bp_hit_ns));
        ctx.wait_until(done);
    }

    /// Cache `frame` under `page_id` — unless another thread cached the
    /// page meanwhile, whose frame wins — then evict the shard down to
    /// capacity, offering each victim to `sink`.
    fn install(
        &self,
        ctx: &mut SimCtx,
        page_id: PageId,
        frame: Arc<Frame>,
        sink: Option<&dyn EvictionSink>,
    ) -> Arc<Frame> {
        let mut evicted: Vec<(PageId, Arc<Frame>)> = Vec::new();
        {
            let mut shard = self.shards[self.shard_of(page_id)].lock();
            if let Some(existing) = shard.peek(page_id) {
                return Arc::clone(existing);
            }
            shard.insert(page_id, Arc::clone(&frame), 1);
            while shard.weight() > self.capacity_per_shard {
                // Oldest unpinned frame.
                match shard.pop_lru_where(|f| Arc::strong_count(f) == 1) {
                    Some(victim) => {
                        self.m_evictions.inc();
                        evicted.push(victim);
                    }
                    None => break, // everything pinned; allow temporary overflow
                }
            }
        }
        for (vp, vf) in evicted {
            if let Some(sink) = sink {
                let page = vf.page.read();
                let lsn = page.lsn();
                sink.on_evict(ctx, vp, &page, lsn);
            }
        }
        frame
    }

    /// Drop every cached page (simulating an engine restart).
    pub fn clear(&self) {
        for shard in &self.shards {
            *shard.lock() = LruShard::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vedb_sim::ClusterSpec;

    fn pool_with(cap: usize, shards: usize) -> (BufferPool, SimCtx) {
        let env = ClusterSpec::tiny().build();
        let cpu = Arc::clone(&env.engine_cpu);
        (
            BufferPool::with_metrics(cap, shards, cpu, env.model.clone(), &env.metrics),
            SimCtx::new(1, 7),
        )
    }

    fn pool(cap: usize) -> (BufferPool, SimCtx) {
        pool_with(cap, 2)
    }

    fn loader(marker: u8) -> impl FnOnce(&mut SimCtx) -> Result<Page> {
        move |_ctx| {
            let mut p = Page::new();
            p.format(vedb_pagestore::PageType::BTreeLeaf, 0);
            p.insert_at(0, &[marker]).unwrap();
            Ok(p)
        }
    }

    #[test]
    fn hit_after_load() {
        let (bp, mut ctx) = pool(4);
        let pid = PageId::new(1, 1);
        let f1 = bp.get(&mut ctx, pid, None, loader(7)).unwrap();
        drop(f1);
        let f2 = bp
            .get(&mut ctx, pid, None, |_| panic!("must not reload"))
            .unwrap();
        assert_eq!(f2.page.read().get(0).unwrap(), &[7]);
        assert_eq!(bp.hits(), 1);
        assert_eq!(bp.misses(), 1);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let (bp, mut ctx) = pool(4); // 2 per shard
                                     // Fill far past capacity; pool must stay bounded.
        for i in 0..20 {
            let f = bp
                .get(&mut ctx, PageId::new(1, i), None, loader(i as u8))
                .unwrap();
            drop(f);
        }
        assert!(bp.len() <= 4, "pool exceeded capacity: {}", bp.len());
    }

    #[test]
    fn pinned_frames_survive_eviction() {
        let (bp, mut ctx) = pool(4);
        let pid = PageId::new(1, 0);
        let pinned = bp.get(&mut ctx, pid, None, loader(9)).unwrap();
        for i in 1..30 {
            drop(
                bp.get(&mut ctx, PageId::new(1, i), None, loader(i as u8))
                    .unwrap(),
            );
        }
        // Still present because we hold a pin.
        let again = bp
            .get(&mut ctx, pid, None, |_| panic!("pinned page reloaded"))
            .unwrap();
        assert_eq!(again.page.read().get(0).unwrap(), &[9]);
        drop(pinned);
    }

    struct Sink(Mutex<Vec<PageId>>);
    impl EvictionSink for Sink {
        fn on_evict(&self, _ctx: &mut SimCtx, page_id: PageId, _page: &Page, _lsn: Lsn) {
            self.0.lock().push(page_id);
        }
    }

    #[test]
    fn eviction_sink_sees_evicted_pages() {
        let (bp, mut ctx) = pool(4);
        let sink = Sink(Mutex::new(Vec::new()));
        for i in 0..12 {
            drop(
                bp.get(&mut ctx, PageId::new(1, i), Some(&sink), loader(0))
                    .unwrap(),
            );
        }
        let evicted = sink.0.lock();
        assert!(!evicted.is_empty());
        assert_eq!(evicted.len() + bp.len(), 12);
    }

    #[test]
    fn victims_are_the_least_recently_touched_unpinned_pages_in_order() {
        let (bp, mut ctx) = pool_with(3, 1);
        let sink = Sink(Mutex::new(Vec::new()));
        let page = |i| PageId::new(1, i);
        let mut get = |i| bp.get(&mut ctx, page(i), Some(&sink), loader(0)).unwrap();
        let pinned = get(0);
        drop(get(1));
        drop(get(2));
        drop(get(1)); // re-touch: page 2 is now the least recent unpinned
        drop(get(3)); // evicts 2 — not 0 (older, but pinned), not 1
        drop(get(4)); // evicts 1
        assert_eq!(*sink.0.lock(), [page(2), page(1)]);
        assert!(bp.peek(page(0)).is_some() && bp.peek(page(3)).is_some());
        drop(pinned);
        drop(get(5)); // unpinned, page 0 is the oldest of all
        assert_eq!(*sink.0.lock(), [page(2), page(1), page(0)]);
    }

    #[test]
    fn dirty_flag() {
        let (bp, mut ctx) = pool(4);
        let f = bp
            .get(&mut ctx, PageId::new(1, 1), None, loader(0))
            .unwrap();
        assert!(!f.is_dirty());
        f.mark_dirty();
        assert!(f.is_dirty());
    }

    #[test]
    fn clear_empties_pool() {
        let (bp, mut ctx) = pool(4);
        drop(
            bp.get(&mut ctx, PageId::new(1, 1), None, loader(0))
                .unwrap(),
        );
        assert!(!bp.is_empty());
        bp.clear();
        assert!(bp.is_empty());
    }
}
