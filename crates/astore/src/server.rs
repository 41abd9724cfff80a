//! The AStore server: PMem resource management on one storage node.
//!
//! §IV-A: the server manages the data layout, metadata, and background
//! tasks; it registers the PMem space with the RDMA NIC (here:
//! [`AStoreServer::mr`]) and tracks slot allocation with a persisted bitmap.
//! Because clients access segment *data* purely with one-sided verbs, the
//! server CPU only sees control-plane traffic (allocate/release) and
//! background work — which is exactly why its cores are available for
//! push-down query execution (§VI-B).
//!
//! Stale-segment hygiene (§IV-C): when the CM asks the server to clean a
//! segment, the server does **not** free the slot immediately — it enqueues
//! it and frees it only after [`CLEANUP_DELAY`] of virtual time has passed.
//! Clients refresh their routes every [`ROUTE_REFRESH`], at least ten times
//! more often (checked at compile time), so no client can still be holding
//! a one-sided route to a slot when it gets reused.
//!
//! Nothing here runs on a timer: the CM calls [`AStoreServer::run_cleanup`]
//! on its allocation path with the allocating client's `now`, and the work
//! is charged to the server's own background clock (see DESIGN.md §3,
//! "AStore space lifecycle").

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;
use vedb_pmem::PmemDevice;
use vedb_rdma::RemoteMr;
use vedb_sim::bytes::Reader;
use vedb_sim::cluster::NodeRes;
use vedb_sim::fault::NodeId;
use vedb_sim::{Counter, Gauge, LatencyModel, MetricsRegistry, Resource, SimCtx, VTime};

use crate::client::ROUTE_REFRESH;
use crate::ebp_format::{decode_header, RECORD_HDR_SIZE};
use crate::layout::{
    decode_slot_meta, encode_slot_meta, Geometry, SegmentClass, SlotBitmap, SlotState,
    SLOT_META_SIZE, SUPERBLOCK_MAGIC, SUPERBLOCK_SIZE,
};
use crate::{AStoreError, Lsn, PageId, Result, SegmentId};

/// AStore servers run their PMem with DDIO disabled, the paper's
/// configuration (§IV-B): a flushed write is then inside the persistence
/// domain, not in the CPU cache.
const DDIO_ENABLED: bool = false;

/// How long a deallocated segment's slot stays intact before delayed
/// cleanup may reuse it (§IV-C).
pub const CLEANUP_DELAY: VTime = VTime::from_millis(500);

// §IV-C: one-sided reads are safe only while the cleanup delay is much
// longer than the period after which a client re-validates a cached route,
// so a slot is never reused under a route some client still trusts.
const _: () = assert!(
    CLEANUP_DELAY.as_nanos() >= 10 * ROUTE_REFRESH.as_nanos(),
    "CLEANUP_DELAY must be at least 10 x ROUTE_REFRESH (§IV-C)"
);

/// A valid EBP page found by a recovery scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EbpScanEntry {
    /// Cached page id.
    pub page: PageId,
    /// LSN of the cached image.
    pub lsn: Lsn,
    /// Segment holding the image.
    pub segment: SegmentId,
    /// Offset of the *payload* within the segment.
    pub offset: u64,
    /// Payload length.
    pub len: u32,
}

struct ServerState {
    bitmap: SlotBitmap,
    /// segment id -> (slot index, class)
    segments: HashMap<SegmentId, (usize, SegmentClass)>,
    /// Deallocated segments awaiting delayed cleanup, with the time they
    /// were first enqueued. Ordered, so a pass frees slots in the same
    /// order for the same seed.
    pending_cleanup: BTreeMap<SegmentId, VTime>,
    /// `(free slots, pending cleanups)` as last added into the gauges.
    published: (i64, i64),
}

/// Space-lifecycle metric handles (component `"astore"`). The servers of a
/// deployment share them, so the registry reports cluster totals and
/// `slots − slots_free == routed replicas + cleanup_pending` can be checked
/// from a report alone.
struct SpaceStats {
    /// Allocations refused with [`AStoreError::NoSpace`].
    alloc_no_space: Arc<Counter>,
    /// Slots returned to the allocator by delayed cleanup.
    slots_reclaimed: Arc<Counter>,
    slots_free: Arc<Gauge>,
    cleanup_pending: Arc<Gauge>,
}

impl SpaceStats {
    fn register(registry: &MetricsRegistry) -> Self {
        SpaceStats {
            alloc_no_space: registry.counter("astore", "alloc_no_space"),
            slots_reclaimed: registry.counter("astore", "slots_reclaimed"),
            slots_free: registry.gauge("astore", "slots_free"),
            cleanup_pending: registry.gauge("astore", "cleanup_pending"),
        }
    }
}

/// One storage node's AStore server.
pub struct AStoreServer {
    node: NodeId,
    res: Arc<NodeRes>,
    device: Arc<PmemDevice>,
    geo: Geometry,
    model: LatencyModel,
    state: Mutex<ServerState>,
    /// Clock of the server's background task. Cleanup is triggered from a
    /// client's allocation but is the server's own work: it runs here, so
    /// the client's clock and RNG never see it. Held for a whole cleanup
    /// pass, which also makes passes on one server mutually exclusive.
    background: Mutex<SimCtx>,
    stats: SpaceStats,
    /// page -> latest LSN, shipped in batches by the DBEngine (§V-E); used
    /// to prune stale cached pages during EBP recovery. DRAM-resident.
    page_lsns: Mutex<HashMap<PageId, Lsn>>,
}

impl AStoreServer {
    /// Create and format a server over a fresh PMem device of
    /// `capacity` bytes, timed by the node's `pmem` resource and divided
    /// into `slot_size`-byte segment slots, with DDIO disabled.
    pub fn new(
        node: NodeId,
        res: Arc<NodeRes>,
        pmem: Arc<Resource>,
        capacity: usize,
        slot_size: u64,
        model: LatencyModel,
    ) -> Arc<Self> {
        let device = Arc::new(PmemDevice::with_metrics(
            format!("pmem-node-{node}"),
            capacity,
            DDIO_ENABLED,
            pmem,
            model.clone(),
            &res.metrics,
        ));
        let geo = Geometry::for_capacity(capacity as u64, slot_size);
        assert!(geo.slots > 0, "device too small for even one slot");
        // Format: superblock magic + slot count; meta area is already zero
        // (all slots Free).
        let mut sb = vec![0u8; 16];
        sb[0..8].copy_from_slice(&SUPERBLOCK_MAGIC.to_le_bytes());
        sb[8..16].copy_from_slice(&(geo.slots as u64).to_le_bytes());
        let formatted = device.persist(VTime::ZERO, 0, &[(0, &sb)]);
        // vedb-lint: allow(no-panic-in-runtime, "format-time write at offset 0; Geometry::for_capacity guarantees the superblock fits")
        formatted.expect("superblock fits");
        let stats = SpaceStats::register(&res.metrics);
        let server = Arc::new(AStoreServer {
            node,
            res,
            device,
            geo,
            model,
            state: Mutex::new(ServerState {
                bitmap: SlotBitmap::new(geo.slots),
                segments: HashMap::new(),
                pending_cleanup: BTreeMap::new(),
                published: (0, 0),
            }),
            background: Mutex::new(SimCtx::new(u64::MAX - u64::from(node), 0)),
            stats,
            page_lsns: Mutex::new(HashMap::new()),
        });
        server.publish_gauges(&mut server.state.lock());
        server
    }

    /// Move this server's share of the cluster-wide gauges to its current
    /// state. Called before the state lock is dropped wherever the bitmap
    /// or the pending list changed.
    fn publish_gauges(&self, st: &mut ServerState) {
        let current = (st.bitmap.free() as i64, st.pending_cleanup.len() as i64);
        self.stats.slots_free.add(current.0 - st.published.0);
        self.stats.cleanup_pending.add(current.1 - st.published.1);
        st.published = current;
    }

    /// Node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Node resources (for RPC dispatch and push-down CPU accounting).
    pub fn res(&self) -> &Arc<NodeRes> {
        &self.res
    }

    /// Slot size == maximum segment size on this server.
    pub fn slot_size(&self) -> u64 {
        self.geo.slot_size
    }

    /// Free slots (reported in heartbeats for CM placement).
    pub fn free_slots(&self) -> usize {
        self.state.lock().bitmap.free()
    }

    /// Allocated slots: live segments plus those pending cleanup.
    pub fn allocated_slots(&self) -> usize {
        self.state.lock().bitmap.allocated()
    }

    /// The backing device (crash injection in tests; local reads in
    /// push-down execution).
    pub fn device(&self) -> &Arc<PmemDevice> {
        &self.device
    }

    /// Register the full PMem address space for one-sided access (§IV-A:
    /// "register the full physical address of PMem devices to the RDMA
    /// NIC"). Offsets handed to clients (slot data and io-meta offsets) are
    /// absolute device offsets and can be used directly against this MR.
    pub fn mr(self: &Arc<Self>) -> RemoteMr {
        RemoteMr::register(
            self.node,
            Arc::clone(&self.res),
            Arc::clone(&self.device),
            0,
            self.geo.total_size() as usize,
        )
    }

    /// Absolute device offset of the client-maintained `used_len` io-meta
    /// for the slot whose data starts at `slot_data_offset`.
    ///
    /// One io-meta WRITE covers an entire batched append: the client
    /// chains every record of the batch before the single `used_len`
    /// update, so the server-visible length only ever moves to a
    /// whole-batch boundary (no partially-durable batch is observable).
    pub fn io_meta_offset(&self, slot_data_offset: u64) -> u64 {
        let slot = ((slot_data_offset - self.geo.data_base()) / self.geo.slot_size) as usize;
        self.geo.meta_offset(slot) + crate::layout::IO_META_USED_OFFSET
    }

    /// Write `data` at device `offset` and flush it into the persistence
    /// domain on `ctx`'s clock.
    fn persist(&self, ctx: &mut SimCtx, offset: u64, data: &[u8]) -> Result<()> {
        let done = self
            .device
            .persist(ctx.now(), offset, &[(0, data)])
            .map_err(|e| AStoreError::Corrupt(format!("layout outside the device: {e}")))?;
        ctx.wait_until(done);
        Ok(())
    }

    fn persist_slot_meta(
        &self,
        ctx: &mut SimCtx,
        slot: usize,
        state: SlotState,
        class: SegmentClass,
        id: SegmentId,
    ) -> Result<()> {
        let meta = encode_slot_meta(state, class, id);
        self.persist(ctx, self.geo.meta_offset(slot), &meta)
    }

    /// Handler: allocate a slot for `segment_id`. Returns the segment's
    /// absolute device offset. Zeroes the first EBP record header
    /// so recovery scans terminate.
    pub fn handle_alloc(
        &self,
        ctx: &mut SimCtx,
        segment_id: SegmentId,
        class: SegmentClass,
    ) -> Result<u64> {
        let slot = {
            let mut st = self.state.lock();
            if st.segments.contains_key(&segment_id) {
                // Idempotent re-alloc (client RPC retry).
                let (slot, _) = st.segments[&segment_id];
                return Ok(self.geo.slot_offset(slot));
            }
            let Some(slot) = st.bitmap.alloc() else {
                self.stats.alloc_no_space.inc();
                return Err(AStoreError::NoSpace);
            };
            st.segments.insert(segment_id, (slot, class));
            self.publish_gauges(&mut st);
            slot
        };
        self.persist_slot_meta(ctx, slot, SlotState::Allocated, class, segment_id)?;
        // Terminator so scans of recycled PMem stop immediately.
        self.persist(ctx, self.geo.slot_offset(slot), &[0u8; RECORD_HDR_SIZE])?;
        Ok(self.geo.slot_offset(slot))
    }

    /// Handler: the CM requests cleanup of a deallocated segment. The slot
    /// is *enqueued*, not freed (§IV-C) — see [`run_cleanup`](Self::run_cleanup).
    /// Returns whether the segment was newly enqueued (it is hosted here and
    /// was not already pending; a repeat keeps the first enqueue time).
    pub fn handle_enqueue_cleanup(&self, now: VTime, segment_id: SegmentId) -> bool {
        let mut st = self.state.lock();
        if !st.segments.contains_key(&segment_id) || st.pending_cleanup.contains_key(&segment_id) {
            return false;
        }
        st.pending_cleanup.insert(segment_id, now);
        self.publish_gauges(&mut st);
        true
    }

    /// Background task: free the slots whose cleanup was enqueued at least
    /// [`CLEANUP_DELAY`] before `now`, the clock of whoever is about to
    /// allocate — so no slot is handed out before `enqueue + CLEANUP_DELAY`.
    /// The freed slot meta is persisted on the server's background clock
    /// (never earlier than `now`), and only then does the slot return to
    /// the allocator. Returns the segments actually freed.
    pub fn run_cleanup(&self, now: VTime) -> Vec<SegmentId> {
        let mut bg = self.background.lock();
        let mut due: Vec<(SegmentId, usize)> = {
            let st = self.state.lock();
            st.pending_cleanup
                .iter()
                .filter(|(_, enqueued)| now.saturating_sub(**enqueued) >= CLEANUP_DELAY)
                .filter_map(|(seg, _)| st.segments.get(seg).map(|(slot, _)| (*seg, *slot)))
                .collect()
        };
        if due.is_empty() {
            return Vec::new();
        }
        bg.wait_until(now);
        // A slot whose Free meta did not persist stays pending.
        due.retain(|(_, slot)| {
            self.persist_slot_meta(&mut bg, *slot, SlotState::Free, SegmentClass::Log, 0)
                .is_ok()
        });
        let mut st = self.state.lock();
        let freed: Vec<SegmentId> = due
            .into_iter()
            .filter_map(|(seg, slot)| {
                st.pending_cleanup.remove(&seg);
                // A crash in between emptied the table; nothing to release.
                st.segments.remove(&seg)?;
                st.bitmap.release(slot);
                Some(seg)
            })
            .collect();
        self.stats.slots_reclaimed.add(freed.len() as u64);
        self.publish_gauges(&mut st);
        freed
    }

    /// Segments still awaiting delayed cleanup (visible for tests and the
    /// §IV-C consistency argument).
    pub fn pending_cleanup_len(&self) -> usize {
        self.state.lock().pending_cleanup.len()
    }

    /// Whether the server currently hosts `segment_id` (the slot may be
    /// pending cleanup but is still intact until `run_cleanup` frees it).
    pub fn hosts_segment(&self, segment_id: SegmentId) -> bool {
        self.state.lock().segments.contains_key(&segment_id)
    }

    /// Every segment occupying a slot here, pending cleanup or not, sorted.
    pub fn hosted_segments(&self) -> Vec<SegmentId> {
        let mut segs: Vec<SegmentId> = self.state.lock().segments.keys().copied().collect();
        segs.sort_unstable();
        segs
    }

    /// Offset of a hosted segment within the data-area MR.
    pub fn segment_offset(&self, segment_id: SegmentId) -> Option<u64> {
        self.state
            .lock()
            .segments
            .get(&segment_id)
            .map(|(slot, _)| self.geo.slot_offset(*slot))
    }

    /// Crash the node's volatile state **and** the device's unpersisted
    /// bytes (the PMem media itself survives). After this, call
    /// [`restart`](Self::restart).
    pub fn crash(&self) {
        self.device.crash();
        let mut st = self.state.lock();
        st.segments.clear();
        st.pending_cleanup.clear();
        st.bitmap = SlotBitmap::new(self.geo.slots);
        self.publish_gauges(&mut st);
        self.page_lsns.lock().clear();
    }

    /// Rebuild the allocator and segment table from the persisted slot
    /// metadata (the PMem-powered fast restart the paper leans on).
    pub fn restart(&self, ctx: &mut SimCtx) -> Result<()> {
        // Validate the superblock. A short or unreadable device is treated
        // as corruption, not a crash: restart is the recovery path and must
        // surface every failure as a typed error the CM can act on.
        let sb = self
            .device
            .peek(0, 16)
            .map_err(|e| AStoreError::Corrupt(format!("superblock unreadable: {e}")))?;
        if Reader::new(&sb, "superblock").u64()? != SUPERBLOCK_MAGIC {
            return Err(AStoreError::Corrupt("bad superblock magic".into()));
        }
        let meta_len = self.geo.slots * SLOT_META_SIZE as usize;
        let (meta, done) = self
            .device
            .read(ctx.now(), SUPERBLOCK_SIZE, meta_len)
            .map_err(|e| AStoreError::Corrupt(format!("slot metadata unreadable: {e}")))?;
        ctx.wait_until(done);
        // Decode the whole area before touching the live state: a corrupt
        // area fails the restart and leaves the allocator as it was.
        let mut bitmap = SlotBitmap::new(self.geo.slots);
        let mut segments = HashMap::new();
        let mut r = Reader::new(&meta, "slot metadata");
        for slot in 0..self.geo.slots {
            let rec = r.take(SLOT_META_SIZE as usize)?;
            if let Some((SlotState::Allocated, class, id)) = decode_slot_meta(rec) {
                if let Some((other, _)) = segments.insert(id, (slot, class)) {
                    return Err(AStoreError::Corrupt(format!(
                        "segment {id} allocated in slots {other} and {slot}"
                    )));
                }
                bitmap.set_allocated(slot);
            }
        }
        let mut st = self.state.lock();
        st.bitmap = bitmap;
        st.segments = segments;
        self.publish_gauges(&mut st);
        Ok(())
    }

    /// Receive a batch of `(page, latest LSN)` mappings from the DBEngine
    /// (§V-C: "periodically sent to the AStore server in batches").
    pub fn record_page_lsns(&self, batch: impl IntoIterator<Item = (PageId, Lsn)>) {
        let mut map = self.page_lsns.lock();
        for (page, lsn) in batch {
            let e = map.entry(page).or_insert(lsn);
            if *e < lsn {
                *e = lsn;
            }
        }
    }

    /// Number of page→LSN mappings currently held (tests).
    pub fn page_lsn_count(&self) -> usize {
        self.page_lsns.lock().len()
    }

    /// EBP recovery scan (§V-E): walk every EBP segment's records, drop
    /// images older than the freshest known LSN for that page, and return
    /// the newest valid image per page with its position.
    pub fn ebp_recovery_scan(&self, ctx: &mut SimCtx) -> Vec<EbpScanEntry> {
        // Ascending segment id: of two images of one page at one LSN the
        // first scanned wins, and that choice is where the page is read from.
        let mut slots: Vec<(SegmentId, usize)> = {
            let st = self.state.lock();
            st.segments
                .iter()
                .filter(|(_, (_, class))| *class == SegmentClass::Ebp)
                .map(|(id, (slot, _))| (*id, *slot))
                .collect()
        };
        slots.sort_unstable();
        let lsn_map = self.page_lsns.lock().clone();
        let mut best: HashMap<PageId, EbpScanEntry> = HashMap::new();
        let mut scanned_bytes = 0usize;
        for (seg, slot) in slots {
            let base = self.geo.slot_offset(slot);
            let mut pos = 0u64;
            loop {
                if pos + RECORD_HDR_SIZE as u64 > self.geo.slot_size {
                    break;
                }
                // A header the device cannot return ends this segment's scan.
                let Ok(hdr_bytes) = self.device.peek(base + pos, RECORD_HDR_SIZE) else {
                    break;
                };
                let Some(hdr) = decode_header(&hdr_bytes) else {
                    break;
                };
                if pos + RECORD_HDR_SIZE as u64 + hdr.len as u64 > self.geo.slot_size {
                    break; // truncated tail record
                }
                scanned_bytes += RECORD_HDR_SIZE + hdr.len as usize;
                let stale = lsn_map
                    .get(&hdr.page)
                    .is_some_and(|latest| hdr.lsn < *latest);
                if !stale {
                    let entry = EbpScanEntry {
                        page: hdr.page,
                        lsn: hdr.lsn,
                        segment: seg,
                        offset: pos + RECORD_HDR_SIZE as u64,
                        len: hdr.len,
                    };
                    match best.get(&hdr.page) {
                        Some(prev) if prev.lsn >= hdr.lsn => {}
                        _ => {
                            best.insert(hdr.page, entry);
                        }
                    }
                }
                pos += RECORD_HDR_SIZE as u64 + hdr.len as u64;
            }
        }
        // Charge the media time of the sequential scan in one go.
        let done = self
            .device
            .resource()
            .acquire(ctx.now(), self.model.pmem_read_svc(scanned_bytes.max(64)));
        ctx.wait_until(done);
        // `best` is a `RandomState` map and the order of this list becomes
        // the recovered EBP index's recency order — which pages it evicts
        // first — so it is sorted: the same seed must do the same work.
        let mut found: Vec<EbpScanEntry> = best.into_values().collect();
        found.sort_unstable_by_key(|e| e.page);
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ebp_format::{encode_header, EbpRecordHeader};
    use vedb_sim::ClusterSpec;

    fn server() -> (Arc<vedb_sim::SimEnv>, Arc<AStoreServer>) {
        let env = ClusterSpec::tiny().build();
        let s = AStoreServer::new(
            0,
            Arc::clone(&env.astore_nodes[0]),
            env.astore_nodes[0].pmem.clone().unwrap(),
            1 << 20,
            64 * 1024,
            env.model.clone(),
        );
        (env, s)
    }

    #[test]
    fn alloc_is_idempotent_and_persists() {
        let (_env, s) = server();
        let mut ctx = SimCtx::new(1, 7);
        let off1 = s.handle_alloc(&mut ctx, 42, SegmentClass::Log).unwrap();
        let off2 = s.handle_alloc(&mut ctx, 42, SegmentClass::Log).unwrap();
        assert_eq!(off1, off2);
        assert!(s.hosts_segment(42));
        assert_eq!(s.segment_offset(42), Some(off1));
    }

    #[test]
    fn cleanup_is_delayed() {
        let (_env, s) = server();
        let mut ctx = SimCtx::new(1, 7);
        s.handle_alloc(&mut ctx, 7, SegmentClass::Log).unwrap();
        let free_before = s.free_slots();
        let enqueued = ctx.now();
        assert!(s.handle_enqueue_cleanup(enqueued, 7));
        // A repeat neither doubles the entry nor restarts the delay.
        assert!(!s.handle_enqueue_cleanup(enqueued + VTime::from_millis(100), 7));
        assert_eq!(s.pending_cleanup_len(), 1);
        // One nanosecond early: nothing freed.
        let due = enqueued + CLEANUP_DELAY;
        assert!(s.run_cleanup(due - VTime::from_nanos(1)).is_empty());
        assert!(s.hosts_segment(7));
        // At the delay, the slot is reclaimed and its meta persisted Free.
        assert_eq!(s.run_cleanup(due), vec![7]);
        assert!(!s.hosts_segment(7));
        assert_eq!(s.free_slots(), free_before + 1);
        assert_eq!(s.pending_cleanup_len(), 0);
        s.crash();
        s.restart(&mut ctx).unwrap();
        assert_eq!(s.free_slots(), free_before + 1, "the release is durable");
    }

    #[test]
    fn restart_rebuilds_from_persisted_meta() {
        let (_env, s) = server();
        let mut ctx = SimCtx::new(1, 7);
        let off_a = s.handle_alloc(&mut ctx, 100, SegmentClass::Log).unwrap();
        s.handle_alloc(&mut ctx, 101, SegmentClass::Ebp).unwrap();
        let free = s.free_slots();

        s.crash();
        assert!(!s.hosts_segment(100));
        s.restart(&mut ctx).unwrap();
        assert!(s.hosts_segment(100));
        assert!(s.hosts_segment(101));
        assert_eq!(s.segment_offset(100), Some(off_a));
        assert_eq!(s.free_slots(), free);
        // New allocations don't collide with recovered ones.
        let off_c = s.handle_alloc(&mut ctx, 102, SegmentClass::Log).unwrap();
        assert_ne!(off_c, off_a);
    }

    /// Slot metadata naming one segment twice fails the restart, and the
    /// allocator keeps the state it had: none of the slots decoded before
    /// the fault is installed.
    #[test]
    fn corrupt_slot_metadata_fails_restart_and_leaves_state() {
        let (_env, s) = server();
        let mut ctx = SimCtx::new(1, 7);
        let off = s.handle_alloc(&mut ctx, 100, SegmentClass::Log).unwrap();
        s.handle_alloc(&mut ctx, 101, SegmentClass::Ebp).unwrap();
        let free = s.free_slots();
        // Segment 101's slot now claims to hold segment 100.
        let slot = s.state.lock().segments[&101].0;
        s.persist_slot_meta(&mut ctx, slot, SlotState::Allocated, SegmentClass::Log, 100)
            .unwrap();
        assert!(matches!(s.restart(&mut ctx), Err(AStoreError::Corrupt(_))));
        assert_eq!(s.free_slots(), free);
        assert_eq!(s.segment_offset(100), Some(off));
        assert!(s.hosts_segment(101));
        assert!(s.state.lock().bitmap.is_allocated(slot));
    }

    #[test]
    fn alloc_exhaustion_reports_no_space() {
        let (_env, s) = server();
        let mut ctx = SimCtx::new(1, 7);
        let mut n = 0u64;
        loop {
            match s.handle_alloc(&mut ctx, n, SegmentClass::Log) {
                Ok(_) => n += 1,
                Err(AStoreError::NoSpace) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(
            n >= 10,
            "expected at least 10 slots in a 1MB device, got {n}"
        );
        assert_eq!(s.free_slots(), 0);
    }

    #[test]
    fn ebp_scan_finds_newest_and_prunes_stale() {
        let (_env, s) = server();
        let mut ctx = SimCtx::new(1, 7);
        s.handle_alloc(&mut ctx, 1, SegmentClass::Ebp).unwrap();
        let mr = s.mr();
        let base = s.segment_offset(1).unwrap();

        // Write three records directly (as the engine's EBP writer would):
        // page A @ lsn 10, page A @ lsn 20 (newer), page B @ lsn 5.
        let page_a = PageId::new(1, 1);
        let page_b = PageId::new(1, 2);
        let mut pos = base;
        for (page, lsn, fill) in [
            (page_a, 10u64, 0xAAu8),
            (page_a, 20, 0xAB),
            (page_b, 5, 0xBB),
        ] {
            let payload = vec![fill; 128];
            let hdr = encode_header(&EbpRecordHeader {
                page,
                lsn,
                len: 128,
            });
            let zero = [0u8; RECORD_HDR_SIZE];
            mr.device()
                .persist(
                    ctx.now(),
                    pos,
                    &[
                        (0, &hdr),
                        (RECORD_HDR_SIZE as u64, &payload),
                        ((RECORD_HDR_SIZE + 128) as u64, &zero),
                    ],
                )
                .unwrap();
            pos += (RECORD_HDR_SIZE + 128) as u64;
        }

        let mut found = s.ebp_recovery_scan(&mut ctx);
        found.sort_by_key(|e| e.page);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].page, page_a);
        assert_eq!(found[0].lsn, 20, "newest image of page A wins");
        assert_eq!(found[1].page, page_b);

        // Now the engine reports page B was modified at LSN 50: the cached
        // image (lsn 5) is stale and must be pruned.
        s.record_page_lsns([(page_b, 50u64)]);
        let found2 = s.ebp_recovery_scan(&mut ctx);
        assert_eq!(found2.len(), 1);
        assert_eq!(found2[0].page, page_a);
    }

    #[test]
    fn record_page_lsns_keeps_max() {
        let (_env, s) = server();
        let p = PageId::new(9, 9);
        s.record_page_lsns([(p, 10u64)]);
        s.record_page_lsns([(p, 5u64)]); // older: ignored
        s.record_page_lsns([(p, 30u64)]);
        assert_eq!(s.page_lsn_count(), 1);
        assert_eq!(*s.page_lsns.lock().get(&p).unwrap(), 30);
    }
}
