//! Services the B+Trees need from the engine, and their eviction sink.

use super::*;

/// Eviction sink that enforces the WAL rule before handing pages to the
/// EBP: a page image may only be persisted once its mutations' log records
/// are durable.
struct DbEvictionSink<'a>(&'a Db);

impl EvictionSink for DbEvictionSink<'_> {
    fn on_evict(&self, ctx: &mut SimCtx, page_id: PageId, page: &Page, lsn: Lsn) {
        let Some(ebp) = &self.0.ebp else { return };
        // Never cache the meta page (recovery reads it from PageStore).
        if page_id == META_PAGE {
            self.0.stats.ebp_skips.inc();
            return;
        }
        // The watermark is exclusive: a record that *starts at* it is not
        // durable yet.
        if lsn >= self.0.wal.flushed_lsn() && self.0.wal.force(ctx, lsn).is_err() {
            self.0.stats.ebp_skips.inc();
            return;
        }
        if ebp.write_page(ctx, page_id, page, lsn).is_err() {
            self.0.stats.ebp_write_errors.inc();
        }
    }
}

/// Services the B+Trees need from the engine.
impl Db {
    /// Fetch an existing page through the cache hierarchy: the pool, then
    /// the EBP, then PageStore. A miss neither of them can serve is an
    /// error — a page is made by [`alloc_page`](Self::alloc_page), never by
    /// a read.
    pub(crate) fn get_frame(&self, ctx: &mut SimCtx, pid: PageId) -> Result<Arc<Frame>> {
        self.bp.get(ctx, pid, Some(&DbEvictionSink(self)), |ctx| {
            // Only a miss needs to know how fresh the image must be.
            let min_lsn = self.page_lsn(pid);
            // EBP first (§V-C), then PageStore.
            if let Some(ebp) = &self.ebp {
                if let Some(page) = ebp.read_page(ctx, pid, min_lsn) {
                    return Ok(page);
                }
            }
            // Make sure PageStore has everything we logged for this page:
            // force the log (WAL rule), then ship.
            if min_lsn > self.shipped_lsn.load(Ordering::Acquire) {
                self.wal.force(ctx, min_lsn)?;
                self.flush_ship(ctx, true);
            }
            let bytes = self.pagestore.read_page(ctx, pid, min_lsn)?;
            Ok(Page::from_vec(bytes)?)
        })
    }

    /// A blank frame for `pid`, which nobody has an image of: see
    /// [`BufferPool::create`](crate::buffer::BufferPool::create).
    pub(super) fn new_frame(&self, ctx: &mut SimCtx, pid: PageId) -> Arc<Frame> {
        self.bp.create(ctx, pid, Some(&DbEvictionSink(self)))
    }

    /// Allocate a fresh page in `space` and return its number and blank
    /// frame. The id is handed out only after the meta page logs the new
    /// `next_page`, and recovery restores `next_page` from the meta page,
    /// so an allocated id never names a page that PageStore holds: there
    /// is nothing to read.
    pub(crate) fn alloc_page(
        &self,
        ctx: &mut SimCtx,
        txn: u64,
        space: u32,
    ) -> Result<(u32, Arc<Frame>)> {
        let page_no = {
            let mut m = self.meta.lock();
            let next = m.next_page.entry(space).or_insert(0);
            *next += 1;
            *next
        };
        self.persist_meta(ctx, txn)?;
        Ok((page_no, self.new_frame(ctx, PageId::new(space, page_no))))
    }

    /// Current root of `space`: `(page_no, level)`; `(0, _)` = empty tree.
    pub(crate) fn root_of(&self, space: u32) -> (u32, u8) {
        self.meta
            .lock()
            .roots
            .get(&space)
            .copied()
            .unwrap_or((0, 0))
    }

    /// Persist a root change.
    pub(crate) fn set_root(
        &self,
        ctx: &mut SimCtx,
        txn: u64,
        space: u32,
        root: u32,
        level: u8,
    ) -> Result<()> {
        self.meta.lock().roots.insert(space, (root, level));
        self.persist_meta(ctx, txn)
    }

    /// WAL-log `op` against `pid` and apply it to `page` (held exclusively
    /// by the caller). Returns the record's LSN.
    pub(crate) fn log_and_apply(
        &self,
        ctx: &mut SimCtx,
        txn: u64,
        pid: PageId,
        op: PageOp,
        undo: Option<&UndoInfo>,
        page: &mut Page,
    ) -> Result<Lsn> {
        let proto = RedoRecord {
            lsn: 0,
            prev_same_segment: 0,
            txn_id: txn,
            page: pid,
            op,
        };
        let (lsn, redo) = self.wal.log_page(ctx, proto, undo)?;
        redo.apply(page)?;
        self.ship_buf.lock().push(redo);
        self.page_lsns.lock().insert(pid, lsn);
        if let Some(ebp) = &self.ebp {
            if ebp.contains(pid) {
                ebp.note_page_lsn(ctx, pid, lsn);
            }
        }
        Ok(lsn)
    }

    /// Charge engine CPU (per-row/level costs).
    pub(crate) fn charge_cpu(&self, ctx: &mut SimCtx, ns: u64) {
        let done = self
            .env
            .engine_cpu
            .acquire(ctx.now(), VTime::from_nanos(ns));
        ctx.wait_until(done);
    }

    /// The per-space structural latch.
    pub(crate) fn space_latch(&self, space: u32) -> Arc<RwLock<()>> {
        let mut latches = self.space_latches.lock();
        Arc::clone(
            latches
                .entry(space)
                .or_insert_with(|| Arc::new(RwLock::new(()))),
        )
    }
}
