//! The DBEngine's local buffer pool.
//!
//! A sharded page cache: page ids hash to one of several shards, each with
//! its own LRU ordering and mutex (the paper uses the same trick for the
//! EBP's LRU lists, §V-D; the local pool shares the implementation).
//! Frames are `Arc`-pinned — eviction skips any frame still referenced by
//! an operation in flight.
//!
//! Under the log-is-database rule, dirty pages are never written back to
//! PageStore; on eviction they are offered to an [`EvictionSink`] (the
//! Extended Buffer Pool, when attached) and then dropped — PageStore can
//! always reconstruct them from shipped REDO.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use vedb_astore::{Lsn, PageId};
use vedb_pagestore::Page;
use vedb_sim::metrics::Counter;
use vedb_sim::{LatencyModel, MetricsRegistry, Resource, SimCtx, VTime};

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

struct Shard {
    frames: HashMap<PageId, (Arc<Frame>, u64)>,
    /// recency index: touch counter -> page id
    recency: BTreeMap<u64, PageId>,
}

/// The sharded buffer pool.
pub struct BufferPool {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    touch: AtomicU64,
    engine_cpu: Arc<Resource>,
    model: LatencyModel,
    m_hits: Arc<Counter>,
    m_misses: Arc<Counter>,
    m_evictions: Arc<Counter>,
}

impl BufferPool {
    /// A pool holding at most `capacity_pages` pages across `shards`
    /// shards.
    pub fn new(
        capacity_pages: usize,
        shards: usize,
        engine_cpu: Arc<Resource>,
        model: LatencyModel,
    ) -> BufferPool {
        Self::with_metrics(
            capacity_pages,
            shards,
            engine_cpu,
            model,
            &MetricsRegistry::detached(),
        )
    }

    /// Like [`new`](Self::new), mirroring hit/miss/eviction counts into
    /// `registry` (component `core`: `bp_hits`, `bp_misses`,
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
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        frames: HashMap::new(),
                        recency: BTreeMap::new(),
                    })
                })
                .collect(),
            capacity_per_shard: capacity_pages / shards,
            touch: AtomicU64::new(1),
            engine_cpu,
            model,
            m_hits: registry.counter("core", "bp_hits"),
            m_misses: registry.counter("core", "bp_misses"),
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
        self.shards.iter().map(|s| s.lock().frames.len()).sum()
    }

    /// Is the pool empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up a page without loading (tests / pushdown planning).
    pub fn peek(&self, page_id: PageId) -> Option<Arc<Frame>> {
        let shard = self.shards[self.shard_of(page_id)].lock();
        shard.frames.get(&page_id).map(|(f, _)| Arc::clone(f))
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
        let done = self
            .engine_cpu
            .acquire(ctx.now(), VTime::from_nanos(self.model.cpu_bp_hit_ns));
        ctx.wait_until(done);

        let idx = self.shard_of(page_id);
        {
            let mut shard = self.shards[idx].lock();
            if let Some((frame, old_touch)) = shard.frames.get(&page_id).cloned() {
                let t = self.touch.fetch_add(1, Ordering::Relaxed);
                shard.recency.remove(&old_touch);
                shard.recency.insert(t, page_id);
                shard.frames.insert(page_id, (Arc::clone(&frame), t));
                self.m_hits.inc();
                return Ok(frame);
            }
        }
        self.m_misses.inc();
        // Load outside the shard lock (the loader does remote I/O).
        let page = loader(ctx)?;
        let frame = Frame::new(page);
        let mut evicted: Vec<(PageId, Arc<Frame>)> = Vec::new();
        {
            let mut shard = self.shards[idx].lock();
            // Double-check: another thread may have loaded it meanwhile.
            if let Some((existing, _)) = shard.frames.get(&page_id) {
                return Ok(Arc::clone(existing));
            }
            let t = self.touch.fetch_add(1, Ordering::Relaxed);
            shard.frames.insert(page_id, (Arc::clone(&frame), t));
            shard.recency.insert(t, page_id);
            while shard.frames.len() > self.capacity_per_shard {
                // Oldest unpinned frame.
                let victim = shard.recency.iter().map(|(t, p)| (*t, *p)).find(|(_, p)| {
                    shard
                        .frames
                        .get(p)
                        .map(|(f, _)| Arc::strong_count(f) == 1)
                        .unwrap_or(false)
                });
                match victim {
                    Some((vt, vp)) => {
                        shard.recency.remove(&vt);
                        let (vf, _) = shard.frames.remove(&vp).expect("present");
                        self.m_evictions.inc();
                        evicted.push((vp, vf));
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
        Ok(frame)
    }

    /// Drop every cached page (simulating an engine restart).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock();
            s.frames.clear();
            s.recency.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vedb_sim::ClusterSpec;

    fn pool(cap: usize) -> (BufferPool, SimCtx) {
        let env = ClusterSpec::tiny().build();
        (
            BufferPool::new(cap, 2, Arc::clone(&env.engine_cpu), env.model.clone()),
            SimCtx::new(1, 7),
        )
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

    #[test]
    fn eviction_sink_sees_evicted_pages() {
        struct Sink(Mutex<Vec<PageId>>);
        impl EvictionSink for Sink {
            fn on_evict(&self, _ctx: &mut SimCtx, page_id: PageId, _page: &Page, _lsn: Lsn) {
                self.0.lock().push(page_id);
            }
        }
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
