//! The AStore client — the access SDK embedded in the DBEngine (§IV-A).
//!
//! Control plane (create/delete/route/lease) goes through the CM over RPC
//! and costs milliseconds; the data plane is **one-sided only**:
//!
//! * [`AStoreClient::append_with`] — the §IV-B write: one chained work
//!   request carrying the payload WRITE, the io-meta WRITE (so the
//!   segment's effective length survives any crash), and the trailing READ
//!   that flushes into the PMem persistence domain. All replicas are
//!   written in parallel; *every* replica must acknowledge (§IV-B "Write").
//! * [`AStoreClient::read`] — a one-sided READ from any online replica.
//!
//! Route hygiene (§IV-C): routes are cached and re-validated against the CM
//! when older than the refresh period ([`ROUTE_REFRESH`] in every
//! deployment), which a compile-time check keeps far shorter than the
//! servers' stale-segment [`CLEANUP_DELAY`](crate::server::CLEANUP_DELAY).
//!
//! ## Fault recovery
//!
//! Every operation runs under the retry ladder of [`crate::retry`] (capped
//! exponential backoff over *virtual* time):
//!
//! * Transient message loss ([`vedb_rdma::RdmaError::Dropped`]) retries the
//!   same chained write — idempotent, since every attempt writes the same
//!   bytes at the same offsets.
//! * A replica that is *unreachable* is reported to the CM
//!   ([`ClusterManager::report_failure`]), which verifies the claim,
//!   re-replicates the segment (or shrinks its replica set when no spare
//!   node exists) and bumps the route version; the client force-refreshes
//!   the route and retries against the repaired replica set.
//! * `LeaseExpired` on a control-plane call triggers one **same-epoch**
//!   lease renewal. The SDK never re-acquires: a re-acquire would mint a
//!   fresh epoch and defeat the §IV-C fencing of superseded clients.
//! * Reads fail over across replicas, refreshing the route between retry
//!   rounds.
//!
//! Only when the ladder is exhausted does a write surface
//! [`AStoreError::ReplicaFailed`] — at which point the segment is frozen
//! and the ring layer rolls to a fresh one. All recovery activity is
//! counted in the deployment registry: `astore.retries`,
//! `astore.backoff_ns`, `astore.read_failovers`, `astore.route_refreshes`,
//! `astore.segments_replaced` by the client, `astore.lease_renewals` and
//! `astore.cm_repairs` by the CM.

use std::sync::Arc;

use parking_lot::Mutex;
use vedb_rdma::{RdmaEndpoint, RemoteMr};
use vedb_sim::bytes::Reader;
use vedb_sim::fault::NodeId;
use vedb_sim::trace::TraceLog;
use vedb_sim::{
    Counter, FxHashMap, LatencyModel, LatencyRecorder, MetricsRegistry, Resource, SimCtx, VTime,
};

use crate::cm::{ClusterManager, Lease, Route};
use crate::layout::SegmentClass;
use crate::retry::{self, AppendOpts, SegmentOpts};
use crate::server::AStoreServer;
use crate::{AStoreError, Result, SegmentId, SegmentLoc};

/// How long a client trusts a cached route before re-validating it with the
/// CM (§IV-C: "the AStore Client regularly checks with the CM"). The
/// servers' [`CLEANUP_DELAY`](crate::server::CLEANUP_DELAY) is checked at
/// compile time to be at least ten times longer.
pub const ROUTE_REFRESH: VTime = VTime::from_millis(50);

/// A client-side reference to an open segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegmentHandle {
    /// Cluster-wide segment id.
    pub id: SegmentId,
    /// Replication class.
    pub class: SegmentClass,
}

struct CachedRoute {
    route: Route,
    fetched_at: VTime,
}

struct SegMeta {
    len: u64,
    capacity: u64,
    frozen: bool,
}

/// Data-path and fault-recovery metric handles (component `"astore"`),
/// cached at connect time from the CM's registry. Every client of one CM
/// shares them, so the counts are deployment totals.
struct ClientStats {
    registry: Arc<MetricsRegistry>,
    appends: Arc<Counter>,
    /// Records carried by appends; `batch_records / appends` is the
    /// group-commit consolidation ratio as seen by the store.
    batch_records: Arc<Counter>,
    append_bytes: Arc<Counter>,
    reads: Arc<Counter>,
    read_bytes: Arc<Counter>,
    append_lat: Arc<LatencyRecorder>,
    read_lat: Arc<LatencyRecorder>,
    /// Retried operations (any path: read, write, CM call).
    retries: Arc<Counter>,
    /// Virtual time slept in backoff before those retries.
    backoff_ns: Arc<Counter>,
    /// Reads served by a replica other than the first routed one.
    read_failovers: Arc<Counter>,
    /// Forced route re-resolutions (stale/failed route).
    route_refreshes: Arc<Counter>,
    /// Ring segments rolled to a fresh replacement.
    segments_replaced: Arc<Counter>,
    trace: Arc<TraceLog>,
}

impl ClientStats {
    fn register(registry: Arc<MetricsRegistry>) -> Self {
        ClientStats {
            appends: registry.counter("astore", "appends"),
            batch_records: registry.counter("astore", "batch_records"),
            append_bytes: registry.counter("astore", "append_bytes"),
            reads: registry.counter("astore", "reads"),
            read_bytes: registry.counter("astore", "read_bytes"),
            append_lat: registry.latency("astore", "append"),
            read_lat: registry.latency("astore", "read"),
            retries: registry.counter("astore", "retries"),
            backoff_ns: registry.counter("astore", "backoff_ns"),
            read_failovers: registry.counter("astore", "read_failovers"),
            route_refreshes: registry.counter("astore", "route_refreshes"),
            segments_replaced: registry.counter("astore", "segments_replaced"),
            trace: Arc::clone(registry.trace()),
            registry,
        }
    }
}

/// The AStore client SDK.
pub struct AStoreClient {
    cm: Arc<ClusterManager>,
    ep: RdmaEndpoint,
    engine_cpu: Arc<Resource>,
    model: LatencyModel,
    client_id: u64,
    refresh_period: VTime,
    stats: ClientStats,
    lease: Mutex<Lease>,
    /// Per-node connection state: registered MR + server reference.
    nodes: Mutex<FxHashMap<NodeId, (RemoteMr, Arc<AStoreServer>)>>,
    routes: Mutex<FxHashMap<SegmentId, CachedRoute>>,
    segs: Mutex<FxHashMap<SegmentId, SegMeta>>,
}

impl AStoreClient {
    /// Connect: acquire a lease from the CM and set up one-sided access to
    /// every live server. Cached routes are re-validated once older than
    /// `refresh_period` — [`ROUTE_REFRESH`] outside tests.
    pub fn connect(
        ctx: &mut SimCtx,
        cm: Arc<ClusterManager>,
        ep: RdmaEndpoint,
        engine_cpu: Arc<Resource>,
        model: LatencyModel,
        client_id: u64,
        refresh_period: VTime,
    ) -> Arc<Self> {
        let lease = cm.acquire_lease(ctx, client_id);
        let nodes = cm
            .live_servers()
            .into_iter()
            .map(|s| (s.node(), (s.mr(), s)))
            .collect();
        let stats = ClientStats::register(cm.metrics());
        Arc::new(AStoreClient {
            cm,
            ep,
            engine_cpu,
            model,
            client_id,
            refresh_period,
            stats,
            lease: Mutex::new(lease),
            nodes: Mutex::new(nodes),
            routes: Mutex::new(FxHashMap::default()),
            segs: Mutex::new(FxHashMap::default()),
        })
    }

    /// The client's id.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// Current lease (tests).
    pub fn lease(&self) -> Lease {
        *self.lease.lock()
    }

    /// The cluster manager this client talks to.
    pub fn cm(&self) -> &Arc<ClusterManager> {
        &self.cm
    }

    /// The deployment metric registry this client publishes into (inherited
    /// from the CM at connect time), recovery counts included; engine-side
    /// layers built on top of the client (EBP) register their own metrics
    /// here.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.stats.registry
    }

    fn charge_sdk(&self, ctx: &mut SimCtx) {
        let done = self
            .engine_cpu
            .acquire(ctx.now(), VTime::from_nanos(self.model.cpu_astore_sdk_ns));
        ctx.wait_until(done);
    }

    /// Sleep the capped-exponential backoff for retry number `retry`.
    fn sleep_backoff(&self, ctx: &mut SimCtx, retry: u32) {
        let slept = retry::backoff(retry);
        ctx.advance(slept);
        self.stats.retries.inc();
        self.stats.backoff_ns.add(slept.as_nanos());
    }

    /// Run a lease-bearing CM operation under the retry ladder. A fencing
    /// error gets exactly one **same-epoch** renewal attempt; if the CM
    /// refuses the renewal this client was superseded and the fence is
    /// final. Transient errors back off and retry.
    fn cm_op<T>(
        &self,
        ctx: &mut SimCtx,
        mut op: impl FnMut(&mut SimCtx, Lease) -> Result<T>,
    ) -> Result<T> {
        // Failure paths drop the guard → the span records as abandoned.
        let sp = self.stats.trace.span(ctx, "astore", "cm_rpc");
        let mut retry = 0u32;
        let mut renewed = false;
        loop {
            let lease = *self.lease.lock();
            match op(ctx, lease) {
                Ok(v) => {
                    sp.finish(ctx);
                    return Ok(v);
                }
                Err(e) if e.is_fencing() && !renewed => {
                    // Renew the *same* epoch; never re-acquire (that would
                    // mint a new epoch and bypass the §IV-C fence).
                    self.cm.renew_lease(ctx, lease)?;
                    renewed = true;
                }
                Err(e) if e.is_retryable() && retry::allows(retry) => {
                    self.sleep_backoff(ctx, retry);
                    retry += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn node_conn(&self, node: NodeId) -> Result<(RemoteMr, Arc<AStoreServer>)> {
        if let Some((mr, s)) = self.nodes.lock().get(&node) {
            return Ok((mr.clone(), Arc::clone(s)));
        }
        // A node added after connect (repair target): fetch from the CM.
        match self.cm.server(node) {
            Some(s) => {
                let mr = s.mr();
                self.nodes.lock().insert(node, (mr.clone(), Arc::clone(&s)));
                Ok((mr, s))
            }
            None => Err(AStoreError::UnknownSegment(0)),
        }
    }

    /// Create a segment described by `opts` — class plus optional explicit
    /// replication factor. Control-plane cost: milliseconds (§IV-B
    /// "Create").
    pub fn create_segment_with(
        &self,
        ctx: &mut SimCtx,
        opts: SegmentOpts,
    ) -> Result<SegmentHandle> {
        self.charge_sdk(ctx);
        let class = opts.class;
        let replication = opts.effective_replication();
        let (id, route) = self.cm_op(ctx, |ctx, lease| {
            self.cm.create_segment(ctx, lease, class, replication)
        })?;
        let capacity = route
            .replicas
            .iter()
            .filter_map(|loc| self.node_conn(loc.node).ok())
            .map(|(_, s)| s.slot_size())
            .min()
            .unwrap_or(0);
        self.routes.lock().insert(
            id,
            CachedRoute {
                route,
                fetched_at: ctx.now(),
            },
        );
        self.segs.lock().insert(
            id,
            SegMeta {
                len: 0,
                capacity,
                frozen: false,
            },
        );
        Ok(SegmentHandle { id, class })
    }

    /// Delete a segment (CM route removal + delayed server cleanup).
    pub fn delete_segment(&self, ctx: &mut SimCtx, handle: SegmentHandle) -> Result<()> {
        self.charge_sdk(ctx);
        self.cm_op(ctx, |ctx, lease| {
            self.cm.delete_segment(ctx, lease, handle.id)
        })?;
        self.routes.lock().remove(&handle.id);
        self.segs.lock().remove(&handle.id);
        Ok(())
    }

    /// Refresh the cached route for `seg` if it is older than the refresh
    /// period (§IV-C: "the AStore Client regularly checks with the CM to
    /// see if the segment's route has changed").
    fn maybe_refresh_route(&self, ctx: &mut SimCtx, seg: SegmentId) -> Result<Route> {
        let stale = {
            let routes = self.routes.lock();
            match routes.get(&seg) {
                Some(c) => ctx.now().saturating_sub(c.fetched_at) > self.refresh_period,
                None => true,
            }
        };
        if stale {
            let route = self.cm.get_route(ctx, seg)?;
            self.routes.lock().insert(
                seg,
                CachedRoute {
                    route: route.clone(),
                    fetched_at: ctx.now(),
                },
            );
            Ok(route)
        } else {
            Ok(self.routes.lock().get(&seg).expect("cached").route.clone())
        }
    }

    /// Re-resolve a route from the CM unconditionally (recovery path).
    fn force_refresh_route(&self, ctx: &mut SimCtx, seg: SegmentId) -> Result<Route> {
        let route = self.cm.get_route(ctx, seg)?;
        self.routes.lock().insert(
            seg,
            CachedRoute {
                route: route.clone(),
                fetched_at: ctx.now(),
            },
        );
        self.stats.route_refreshes.inc();
        Ok(route)
    }

    /// Force-refresh all cached routes (background task).
    pub fn refresh_all_routes(&self, ctx: &mut SimCtx) {
        // One CM RPC per id: ascending, not hash, order.
        let mut ids: Vec<SegmentId> = self.routes.lock().keys().copied().collect();
        ids.sort_unstable();
        for seg in ids {
            match self.cm.get_route(ctx, seg) {
                Ok(route) => {
                    self.routes.lock().insert(
                        seg,
                        CachedRoute {
                            route,
                            fetched_at: ctx.now(),
                        },
                    );
                }
                Err(_) => {
                    // Route is gone: the segment was deleted or fully lost.
                    self.routes.lock().remove(&seg);
                }
            }
        }
    }

    /// Renew the client lease (periodic background task).
    pub fn renew_lease(&self, ctx: &mut SimCtx) -> Result<()> {
        let lease = *self.lease.lock();
        self.cm.renew_lease(ctx, lease)
    }

    /// Bytes appended so far.
    pub fn segment_len(&self, handle: SegmentHandle) -> u64 {
        self.segs.lock().get(&handle.id).map(|m| m.len).unwrap_or(0)
    }

    /// Segment capacity in bytes.
    pub fn segment_capacity(&self, handle: SegmentHandle) -> u64 {
        self.segs
            .lock()
            .get(&handle.id)
            .map(|m| m.capacity)
            .unwrap_or(0)
    }

    /// Whether the segment was frozen by a failed write.
    pub fn is_frozen(&self, handle: SegmentHandle) -> bool {
        self.segs
            .lock()
            .get(&handle.id)
            .map(|m| m.frozen)
            .unwrap_or(true)
    }

    /// Count one ring segment rolled to a replacement (`ring` layer).
    pub(crate) fn note_segment_replaced(&self) {
        self.stats.segments_replaced.inc();
    }

    /// Mark a segment frozen (also done automatically on replica failure).
    pub fn freeze(&self, handle: SegmentHandle) {
        if let Some(m) = self.segs.lock().get_mut(&handle.id) {
            m.frozen = true;
        }
    }

    /// Attempt to un-freeze a segment frozen by a failed write: force a
    /// route re-resolution (the CM may have repaired or shrunk the replica
    /// set since the failure) and probe every replica's io-meta with a
    /// one-sided READ. If the whole current replica set answers, the
    /// segment accepts appends again; otherwise the caller rolls to a
    /// fresh segment (§V-E).
    pub fn try_unfreeze(&self, ctx: &mut SimCtx, handle: SegmentHandle) -> Result<bool> {
        let Ok(route) = self.force_refresh_route(ctx, handle.id) else {
            return Ok(false);
        };
        if route.replicas.is_empty() {
            return Ok(false);
        }
        for loc in &route.replicas {
            let Ok((mr, server)) = self.node_conn(loc.node) else {
                return Ok(false);
            };
            if self
                .ep
                .read(ctx, &mr, server.io_meta_offset(loc.offset), 8)
                .is_err()
            {
                return Ok(false);
            }
        }
        if let Some(m) = self.segs.lock().get_mut(&handle.id) {
            m.frozen = false;
        }
        Ok(true)
    }

    fn replica_write(
        &self,
        ctx: &mut SimCtx,
        loc: &SegmentLoc,
        writes: &[(u64, &[u8])],
    ) -> Result<()> {
        let (mr, server) = self.node_conn(loc.node)?;
        // Translate segment-relative offsets to absolute device offsets;
        // the io-meta sentinel offset u64::MAX maps to the slot's io-meta.
        let abs: Vec<(u64, &[u8])> = writes
            .iter()
            .map(|(off, data)| {
                if *off == u64::MAX {
                    (server.io_meta_offset(loc.offset), *data)
                } else {
                    (loc.offset + off, *data)
                }
            })
            .collect();
        self.ep.write_chain(ctx, &mr, &abs)?;
        Ok(())
    }

    /// One round of the replicated §IV-B write: every replica in `route`
    /// gets the chained WRITE in parallel. Transient failures leave the
    /// replica un-acked; concretely unreachable nodes are also collected in
    /// `unreachable` so the caller can report them to the CM.
    fn fanout_once(
        &self,
        ctx: &mut SimCtx,
        route: &Route,
        writes: &[(u64, &[u8])],
        unreachable: &mut Vec<NodeId>,
    ) -> Result<()> {
        let required = route.replicas.len();
        let mut done = ctx.now();
        let mut acked = 0;
        unreachable.clear();
        for loc in &route.replicas {
            let mut rep_ctx = ctx.fork();
            match self.replica_write(&mut rep_ctx, loc, writes) {
                Ok(()) => {
                    acked += 1;
                    done = done.max(rep_ctx.now());
                }
                Err(e) if e.is_retryable() => {
                    if let Some(n) = e.unreachable_node() {
                        unreachable.push(n);
                    }
                    // The failed attempt still cost the client its timeout.
                    done = done.max(rep_ctx.now());
                }
                Err(e) => return Err(e),
            }
        }
        ctx.wait_until(done);
        if acked < required {
            return Err(AStoreError::ReplicaFailed { acked, required });
        }
        Ok(())
    }

    /// The replicated write with the full recovery ladder (§IV-B + §V-E):
    ///
    /// 1. fan the chained WRITE out to every replica;
    /// 2. on shortfall, report unreachable replicas to the CM (verified
    ///    failure detection → re-replication or route shrink), force a
    ///    route re-resolution, back off, retry — the chain is idempotent;
    /// 3. only with the retry budget exhausted freeze the segment and
    ///    surface [`AStoreError::ReplicaFailed`] for the ring layer.
    fn fanout_write(
        &self,
        ctx: &mut SimCtx,
        handle: SegmentHandle,
        writes: &[(u64, &[u8])],
    ) -> Result<()> {
        let mut route = self.maybe_refresh_route(ctx, handle.id)?;
        let mut unreachable = Vec::new();
        let mut retry = 0u32;
        loop {
            match self.fanout_once(ctx, &route, writes, &mut unreachable) {
                Ok(()) => return Ok(()),
                Err(e) if e.is_segment_unwritable() || e.is_retryable() => {
                    if !retry::allows(retry) {
                        // §IV-B: freeze with the current effective length;
                        // the caller re-opens a new segment.
                        self.freeze(handle);
                        return Err(e);
                    }
                    for &node in &unreachable {
                        self.cm.report_failure(ctx, node);
                    }
                    self.sleep_backoff(ctx, retry);
                    retry += 1;
                    if !unreachable.is_empty() {
                        // The replica set may have been repaired or shrunk.
                        match self.force_refresh_route(ctx, handle.id) {
                            Ok(r) => route = r,
                            Err(e2) => return Err(e2),
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Append a batch of `records` to the segment in one §IV-B write —
    /// **the primitive append**. The batch takes a single reservation
    /// (records land back to back at the current segment length), every
    /// record becomes its own WRITE work request in one chain per replica,
    /// the io-meta WRITE covering the *whole* batch is chained after them,
    /// and one doorbell rings the lot out. Returns each record's
    /// segment-relative offset.
    ///
    /// Durability contract: when this returns `Ok`, every record of the
    /// batch is persistent on every replica — there is no partially-durable
    /// prefix observable through the io-meta, because the length update is
    /// the chain's final WRITE.
    ///
    /// [`append_with`](Self::append_with) is the single-record wrapper.
    pub fn append_batch(
        &self,
        ctx: &mut SimCtx,
        handle: SegmentHandle,
        records: &[&[u8]],
    ) -> Result<Vec<u64>> {
        self.append_records(ctx, handle, records, &[])
    }

    /// Shared implementation of the batch append: `records` back to back,
    /// an optional speculative `tail` after the last record (not counted in
    /// the segment length), and the covering io-meta — all in one chained
    /// work request per replica.
    fn append_records(
        &self,
        ctx: &mut SimCtx,
        handle: SegmentHandle,
        records: &[&[u8]],
        tail: &[u8],
    ) -> Result<Vec<u64>> {
        assert!(!records.is_empty(), "empty batches are not meaningful");
        assert!(
            records.iter().all(|r| !r.is_empty()),
            "empty appends are not meaningful"
        );
        let t0 = ctx.now();
        let sp = self.stats.trace.span(ctx, "astore", "append");
        self.charge_sdk(ctx);
        // A frozen segment gets one shot at un-freezing — the CM may have
        // repaired the replica set since the failed write that froze it.
        if self.is_frozen(handle) && !self.try_unfreeze(ctx, handle)? {
            return Err(AStoreError::SegmentFrozen(handle.id));
        }
        let data_len: u64 = records.iter().map(|r| r.len() as u64).sum();
        let (base, new_len) = {
            let segs = self.segs.lock();
            let meta = segs
                .get(&handle.id)
                .ok_or(AStoreError::UnknownSegment(handle.id))?;
            if meta.frozen {
                return Err(AStoreError::SegmentFrozen(handle.id));
            }
            let end = meta.len + data_len + tail.len() as u64;
            if end > meta.capacity {
                return Err(AStoreError::SegmentFull {
                    used: meta.len,
                    capacity: meta.capacity,
                });
            }
            (meta.len, meta.len + data_len)
        };
        let len_bytes = new_len.to_le_bytes();
        let mut writes: Vec<(u64, &[u8])> = Vec::with_capacity(records.len() + 2);
        let mut offsets = Vec::with_capacity(records.len());
        let mut off = base;
        for rec in records {
            writes.push((off, rec));
            offsets.push(off);
            off += rec.len() as u64;
        }
        if !tail.is_empty() {
            writes.push((off, tail));
        }
        writes.push((u64::MAX, &len_bytes)); // io-meta, chained (final WRITE)
        self.fanout_write(ctx, handle, &writes)?;
        if let Some(m) = self.segs.lock().get_mut(&handle.id) {
            m.len = new_len;
        }
        self.stats.appends.inc();
        self.stats.batch_records.add(records.len() as u64);
        self.stats.append_bytes.add(data_len);
        self.stats.append_lat.record(ctx.now() - t0);
        sp.finish(ctx);
        Ok(offsets)
    }

    /// Append `data` to the segment with the options in `opts` — the
    /// documented **single-record wrapper** over the batch primitive
    /// [`append_batch`](Self::append_batch). Returns the segment-relative
    /// offset the data landed at.
    ///
    /// `opts.tail` additionally writes bytes *after* the record without
    /// advancing the segment length (the EBP writer lays down a zeroed
    /// terminator header this way, in the same chained work request).
    pub fn append_with(
        &self,
        ctx: &mut SimCtx,
        handle: SegmentHandle,
        data: &[u8],
        opts: AppendOpts<'_>,
    ) -> Result<u64> {
        let tail = opts.tail.unwrap_or(&[]);
        Ok(self.append_records(ctx, handle, &[data], tail)?[0])
    }

    /// Positioned write that does **not** change the segment length —
    /// used for in-segment headers (SegmentRing status/LSN updates).
    pub fn write_at(
        &self,
        ctx: &mut SimCtx,
        handle: SegmentHandle,
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        self.charge_sdk(ctx);
        {
            let segs = self.segs.lock();
            let meta = segs
                .get(&handle.id)
                .ok_or(AStoreError::UnknownSegment(handle.id))?;
            let end = offset.checked_add(data.len() as u64);
            if end.filter(|&end| end <= meta.capacity).is_none() {
                return Err(AStoreError::SegmentFull {
                    used: offset,
                    capacity: meta.capacity,
                });
            }
        }
        self.fanout_write(ctx, handle, &[(offset, data)])
    }

    /// Reset the segment's logical length to zero (ring-slot recycling).
    pub fn reset_len(&self, ctx: &mut SimCtx, handle: SegmentHandle) -> Result<()> {
        self.charge_sdk(ctx);
        let zero = 0u64.to_le_bytes();
        self.fanout_write(ctx, handle, &[(u64::MAX, &zero)])?;
        if let Some(m) = self.segs.lock().get_mut(&handle.id) {
            m.len = 0;
            m.frozen = false;
        }
        Ok(())
    }

    /// One-sided read of `len` bytes at segment-relative `offset` (§IV-B
    /// "Read"): served by the first replica that answers, failing over
    /// across the replica set and re-resolving the route between retry
    /// rounds.
    pub fn read(
        &self,
        ctx: &mut SimCtx,
        handle: SegmentHandle,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>> {
        let t0 = ctx.now();
        let sp = self.stats.trace.span(ctx, "astore", "read");
        let mut retry = 0u32;
        loop {
            let route = self.maybe_refresh_route(ctx, handle.id)?;
            {
                let segs = self.segs.lock();
                if let Some(meta) = segs.get(&handle.id) {
                    let end = offset.checked_add(len as u64);
                    if end.filter(|&end| end <= meta.capacity).is_none() {
                        return Err(AStoreError::SegmentFull {
                            used: offset,
                            capacity: meta.capacity,
                        });
                    }
                }
            }
            let mut last_err = AStoreError::UnknownSegment(handle.id);
            for (i, loc) in route.replicas.iter().enumerate() {
                let (mr, _) = match self.node_conn(loc.node) {
                    Ok(c) => c,
                    Err(e) => {
                        last_err = e;
                        continue;
                    }
                };
                match self.ep.read(ctx, &mr, loc.offset + offset, len) {
                    Ok(data) => {
                        if i > 0 {
                            self.stats.read_failovers.inc();
                        }
                        self.stats.reads.inc();
                        self.stats.read_bytes.add(len as u64);
                        self.stats.read_lat.record(ctx.now() - t0);
                        sp.finish(ctx);
                        return Ok(data);
                    }
                    Err(e) => last_err = AStoreError::Network(e),
                }
            }
            // Every replica failed this round.
            if !last_err.is_retryable() || !retry::allows(retry) {
                return Err(last_err);
            }
            self.sleep_backoff(ctx, retry);
            retry += 1;
            let _ = self.force_refresh_route(ctx, handle.id);
        }
    }

    /// Recover a segment's effective data length from the on-media io-meta
    /// (used after a client crash, when the DRAM `segs` table is gone).
    /// Reads every reachable replica and takes the maximum — a replica
    /// re-replicated mid-history may hold an older io-meta.
    pub fn recover_used_len(&self, ctx: &mut SimCtx, seg: SegmentId) -> Result<u64> {
        let route = self.maybe_refresh_route(ctx, seg)?;
        let mut best: Option<u64> = None;
        for loc in &route.replicas {
            let (mr, server) = match self.node_conn(loc.node) {
                Ok(c) => c,
                Err(_) => continue,
            };
            let abs = server.io_meta_offset(loc.offset);
            if let Ok(bytes) = self.ep.read(ctx, &mr, abs, 8) {
                let len = Reader::new(&bytes, "io-meta").u64()?;
                best = Some(best.map_or(len, |b| b.max(len)));
            }
        }
        best.ok_or(AStoreError::Network(vedb_rdma::RdmaError::Dropped))
    }

    /// Adopt a segment created by a previous incarnation of this client
    /// (crash recovery): fetch the route, recover the effective length.
    pub fn adopt_segment(
        &self,
        ctx: &mut SimCtx,
        seg: SegmentId,
        class: SegmentClass,
    ) -> Result<SegmentHandle> {
        let route = self.cm.get_route(ctx, seg)?;
        let capacity = route
            .replicas
            .iter()
            .filter_map(|loc| self.node_conn(loc.node).ok())
            .map(|(_, s)| s.slot_size())
            .min()
            .unwrap_or(0);
        self.routes.lock().insert(
            seg,
            CachedRoute {
                route,
                fetched_at: ctx.now(),
            },
        );
        let handle = SegmentHandle { id: seg, class };
        let len = self.recover_used_len(ctx, seg)?;
        self.segs.lock().insert(
            seg,
            SegMeta {
                len,
                capacity,
                frozen: false,
            },
        );
        Ok(handle)
    }

    /// The current route of a segment, if cached (engine push-down uses the
    /// node ids to dispatch fragments to EBP hosts).
    pub fn cached_route(&self, seg: SegmentId) -> Option<Route> {
        self.routes.lock().get(&seg).map(|c| c.route.clone())
    }

    /// Server handle for a node (push-down execution against local PMem).
    pub fn server(&self, node: NodeId) -> Option<Arc<AStoreServer>> {
        self.node_conn(node).ok().map(|(_, s)| s)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::retry::MAX_RETRIES;
    use vedb_sim::ClusterSpec;

    pub(crate) struct TestCluster {
        pub env: Arc<vedb_sim::SimEnv>,
        pub cm: Arc<ClusterManager>,
        pub servers: Vec<Arc<AStoreServer>>,
        pub client: Arc<AStoreClient>,
    }

    pub(crate) fn test_cluster(ctx: &mut SimCtx) -> TestCluster {
        let env = ClusterSpec::paper_default().build();
        let cm = ClusterManager::new(
            Arc::clone(&env.faults),
            VTime::from_secs(30),
            VTime::from_secs(1),
            MetricsRegistry::detached(),
        );
        let servers: Vec<Arc<AStoreServer>> = env
            .astore_nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                AStoreServer::new(
                    i as NodeId,
                    Arc::clone(n),
                    4 << 20,
                    64 * 1024,
                    env.model.clone(),
                )
            })
            .collect();
        for s in &servers {
            cm.register_server(Arc::clone(s));
            cm.heartbeat(VTime::ZERO, s.node(), s.free_slots());
        }
        let ep = RdmaEndpoint::new(
            env.model.clone(),
            Arc::clone(&env.faults),
            Arc::clone(&env.engine_nic),
        );
        let client = AStoreClient::connect(
            ctx,
            Arc::clone(&cm),
            ep,
            Arc::clone(&env.engine_cpu),
            env.model.clone(),
            1,
            ROUTE_REFRESH,
        );
        TestCluster {
            env,
            cm,
            servers,
            client,
        }
    }

    /// Value of the `astore.<name>` counter in the cluster's registry.
    pub(crate) fn astore_count(tc: &TestCluster, name: &'static str) -> u64 {
        tc.client.metrics().counter("astore", name).get()
    }

    fn log_seg(ctx: &mut SimCtx, tc: &TestCluster) -> SegmentHandle {
        tc.client
            .create_segment_with(ctx, SegmentOpts::new(SegmentClass::Log))
            .unwrap()
    }

    #[test]
    fn append_and_read_roundtrip() {
        let mut ctx = SimCtx::new(1, 7);
        let tc = test_cluster(&mut ctx);
        let seg = log_seg(&mut ctx, &tc);
        let off1 = tc
            .client
            .append_with(&mut ctx, seg, b"first-record", AppendOpts::new())
            .unwrap();
        let off2 = tc
            .client
            .append_with(&mut ctx, seg, b"second", AppendOpts::new())
            .unwrap();
        assert_eq!(off1, 0);
        assert_eq!(off2, 12);
        assert_eq!(tc.client.segment_len(seg), 18);
        assert_eq!(
            tc.client.read(&mut ctx, seg, 0, 18).unwrap(),
            b"first-recordsecond"
        );
        assert_eq!(tc.client.read(&mut ctx, seg, 12, 6).unwrap(), b"second");
    }

    #[test]
    fn append_latency_near_86us_table2() {
        let mut ctx = SimCtx::new(1, 7);
        let tc = test_cluster(&mut ctx);
        let seg = log_seg(&mut ctx, &tc);
        let n = 10;
        let t0 = ctx.now();
        for _ in 0..n {
            tc.client
                .append_with(&mut ctx, seg, &[7u8; 4096], AppendOpts::new())
                .unwrap();
        }
        let avg_us = (ctx.now() - t0).as_micros_f64() / n as f64;
        assert!(
            (50.0..=130.0).contains(&avg_us),
            "4KB AStore append should average ~86us, got {avg_us:.1}us"
        );
    }

    #[test]
    fn appends_survive_server_crash_once_acked() {
        let mut ctx = SimCtx::new(1, 7);
        let tc = test_cluster(&mut ctx);
        let seg = log_seg(&mut ctx, &tc);
        tc.client
            .append_with(&mut ctx, seg, b"durable-record", AppendOpts::new())
            .unwrap();
        // Power-cycle every server: PMem media survives, caches don't.
        for s in &tc.servers {
            s.device().crash();
        }
        assert_eq!(
            tc.client.read(&mut ctx, seg, 0, 14).unwrap(),
            b"durable-record"
        );
        // And the io-meta survives too.
        assert_eq!(tc.client.recover_used_len(&mut ctx, seg.id).unwrap(), 14);
    }

    #[test]
    fn replica_failure_freezes_segment_once_retries_are_exhausted() {
        // The raw §IV-B contract under the ladder: a replica shortfall the
        // retries cannot repair freezes the segment and surfaces
        // ReplicaFailed. A partitioned replica is such a fault: its
        // messages are dropped without naming the node, so nothing is
        // reported to the CM and the route never shrinks around it.
        let mut ctx = SimCtx::new(1, 7);
        let tc = test_cluster(&mut ctx);
        let seg = log_seg(&mut ctx, &tc);
        tc.client
            .append_with(&mut ctx, seg, b"before", AppendOpts::new())
            .unwrap();
        let route = tc.client.cached_route(seg.id).unwrap();
        tc.env.faults.partition(route.replicas[0].node);
        let err = tc
            .client
            .append_with(&mut ctx, seg, b"after", AppendOpts::new())
            .unwrap_err();
        assert!(
            err.is_segment_unwritable(),
            "expected replica shortfall, got {err}"
        );
        assert!(tc.client.is_frozen(seg));
        // While the cluster is degraded the un-freeze probe fails and the
        // frozen segment keeps rejecting appends.
        let err = tc
            .client
            .append_with(&mut ctx, seg, b"again", AppendOpts::new())
            .unwrap_err();
        assert!(err.is_segment_unwritable());
        assert_eq!(
            astore_count(&tc, "retries"),
            MAX_RETRIES as u64,
            "the freeze comes after the whole ladder"
        );
        // The client opens a new segment and carries on (ring layer policy).
        tc.env.faults.heal(route.replicas[0].node);
        let seg2 = log_seg(&mut ctx, &tc);
        assert!(tc
            .client
            .append_with(&mut ctx, seg2, b"after", AppendOpts::new())
            .is_ok());
        // Frozen segment still readable.
        assert_eq!(tc.client.read(&mut ctx, seg, 0, 6).unwrap(), b"before");
    }

    #[test]
    fn write_path_recovers_from_replica_crash() {
        // With the default policy a crashed replica is reported to the CM,
        // the route shrinks (no spare node on the 3-node cluster) and the
        // append completes against the surviving replicas — no error, no
        // frozen segment.
        let mut ctx = SimCtx::new(1, 7);
        let tc = test_cluster(&mut ctx);
        let seg = log_seg(&mut ctx, &tc);
        tc.client
            .append_with(&mut ctx, seg, b"before", AppendOpts::new())
            .unwrap();
        let route = tc.client.cached_route(seg.id).unwrap();
        tc.env.faults.crash(route.replicas[0].node);
        let off = tc
            .client
            .append_with(&mut ctx, seg, b"-after", AppendOpts::new())
            .unwrap();
        assert_eq!(off, 6);
        assert!(!tc.client.is_frozen(seg));
        assert!(
            astore_count(&tc, "retries") >= 1,
            "recovery must have retried"
        );
        assert!(
            astore_count(&tc, "route_refreshes") >= 1,
            "recovery must have re-resolved the route"
        );
        let new_route = tc.client.cached_route(seg.id).unwrap();
        assert_eq!(new_route.replicas.len(), 2, "route shrunk to the survivors");
        assert!(new_route.version > route.version);
        assert_eq!(
            tc.client.read(&mut ctx, seg, 0, 12).unwrap(),
            b"before-after"
        );
    }

    #[test]
    fn write_path_rides_out_transient_drops() {
        let mut ctx = SimCtx::new(1, 7);
        let tc = test_cluster(&mut ctx);
        let seg = log_seg(&mut ctx, &tc);
        tc.env.faults.set_drop_prob(0.2);
        for i in 0..20u8 {
            tc.client
                .append_with(&mut ctx, seg, &[i; 128], AppendOpts::new())
                .unwrap();
        }
        tc.env.faults.set_drop_prob(0.0);
        assert_eq!(tc.client.segment_len(seg), 20 * 128);
        assert!(
            astore_count(&tc, "retries") >= 1,
            "20% drop rate must force retries"
        );
        assert!(astore_count(&tc, "backoff_ns") > 0);
        // Every byte of every acked append is readable.
        let all = tc.client.read(&mut ctx, seg, 0, 20 * 128).unwrap();
        for i in 0..20usize {
            assert!(all[i * 128..(i + 1) * 128].iter().all(|&b| b == i as u8));
        }
    }

    #[test]
    fn frozen_segment_unfreezes_after_repair() {
        // Freeze a segment by exhausting the retries against a partitioned
        // replica, then heal the cluster: the next append un-freezes it
        // instead of failing.
        let mut ctx = SimCtx::new(1, 7);
        let tc = test_cluster(&mut ctx);
        let seg = log_seg(&mut ctx, &tc);
        tc.client
            .append_with(&mut ctx, seg, b"before", AppendOpts::new())
            .unwrap();
        let route = tc.client.cached_route(seg.id).unwrap();
        tc.env.faults.partition(route.replicas[0].node);
        assert!(tc
            .client
            .append_with(&mut ctx, seg, b"x", AppendOpts::new())
            .is_err());
        assert!(tc.client.is_frozen(seg));
        // Node comes back; the route is intact, the un-freeze probe passes.
        tc.env.faults.heal(route.replicas[0].node);
        let off = tc
            .client
            .append_with(&mut ctx, seg, b"-after", AppendOpts::new())
            .unwrap();
        assert_eq!(off, 6);
        assert!(!tc.client.is_frozen(seg));
        assert_eq!(
            tc.client.read(&mut ctx, seg, 0, 12).unwrap(),
            b"before-after"
        );
    }

    #[test]
    fn reads_fail_over_to_live_replicas() {
        let mut ctx = SimCtx::new(1, 7);
        let tc = test_cluster(&mut ctx);
        let seg = log_seg(&mut ctx, &tc);
        tc.client
            .append_with(&mut ctx, seg, b"replicated", AppendOpts::new())
            .unwrap();
        let route = tc.client.cached_route(seg.id).unwrap();
        tc.env.faults.crash(route.replicas[0].node);
        assert_eq!(tc.client.read(&mut ctx, seg, 0, 10).unwrap(), b"replicated");
        assert!(astore_count(&tc, "read_failovers") >= 1);
    }

    #[test]
    fn reads_retry_through_a_partition() {
        // Partition (not crash) the first replica: reads fail over; with
        // *every* replica partitioned the read errors after bounded retries.
        let mut ctx = SimCtx::new(1, 7);
        let tc = test_cluster(&mut ctx);
        let seg = log_seg(&mut ctx, &tc);
        tc.client
            .append_with(&mut ctx, seg, b"partition-proof", AppendOpts::new())
            .unwrap();
        let route = tc.client.cached_route(seg.id).unwrap();
        tc.env.faults.partition(route.replicas[0].node);
        assert_eq!(
            tc.client.read(&mut ctx, seg, 0, 15).unwrap(),
            b"partition-proof"
        );
        for loc in &route.replicas {
            tc.env.faults.partition(loc.node);
        }
        let before = astore_count(&tc, "retries");
        let err = tc.client.read(&mut ctx, seg, 0, 15).unwrap_err();
        assert!(
            err.is_retryable(),
            "a fully-partitioned read surfaces as transient: {err}"
        );
        let spent = astore_count(&tc, "retries") - before;
        assert_eq!(spent as u32, MAX_RETRIES, "retries are bounded");
        for loc in &route.replicas {
            tc.env.faults.heal(loc.node);
        }
        assert_eq!(
            tc.client.read(&mut ctx, seg, 0, 15).unwrap(),
            b"partition-proof"
        );
    }

    #[test]
    fn segment_full_rejected() {
        let mut ctx = SimCtx::new(1, 7);
        let tc = test_cluster(&mut ctx);
        let seg = log_seg(&mut ctx, &tc);
        let cap = tc.client.segment_capacity(seg) as usize;
        tc.client
            .append_with(&mut ctx, seg, &vec![1u8; cap - 8], AppendOpts::new())
            .unwrap();
        assert!(matches!(
            tc.client
                .append_with(&mut ctx, seg, &[1u8; 16], AppendOpts::new()),
            Err(AStoreError::SegmentFull { .. })
        ));
        // Exactly filling works.
        tc.client
            .append_with(&mut ctx, seg, &[1u8; 8], AppendOpts::new())
            .unwrap();
    }

    #[test]
    fn out_of_range_offsets_are_rejected_not_wrapped() {
        let mut ctx = SimCtx::new(1, 7);
        let tc = test_cluster(&mut ctx);
        let seg = log_seg(&mut ctx, &tc);
        let offset = u64::MAX - 3;
        assert!(matches!(
            tc.client.write_at(&mut ctx, seg, offset, &[0u8; 8]),
            Err(AStoreError::SegmentFull { .. })
        ));
        assert!(matches!(
            tc.client.read(&mut ctx, seg, offset, 8),
            Err(AStoreError::SegmentFull { .. })
        ));
    }

    #[test]
    fn ebp_segment_has_one_replica() {
        let mut ctx = SimCtx::new(1, 7);
        let tc = test_cluster(&mut ctx);
        let seg = tc
            .client
            .create_segment_with(&mut ctx, SegmentOpts::new(SegmentClass::Ebp))
            .unwrap();
        let route = tc.client.cached_route(seg.id).unwrap();
        assert_eq!(route.replicas.len(), 1);
    }

    #[test]
    fn write_at_and_reset_len() {
        let mut ctx = SimCtx::new(1, 7);
        let tc = test_cluster(&mut ctx);
        let seg = log_seg(&mut ctx, &tc);
        tc.client
            .append_with(&mut ctx, seg, &[0xFFu8; 64], AppendOpts::new())
            .unwrap();
        tc.client.write_at(&mut ctx, seg, 0, b"HDR!").unwrap();
        assert_eq!(tc.client.read(&mut ctx, seg, 0, 4).unwrap(), b"HDR!");
        assert_eq!(
            tc.client.segment_len(seg),
            64,
            "write_at must not change len"
        );
        tc.client.reset_len(&mut ctx, seg).unwrap();
        assert_eq!(tc.client.segment_len(seg), 0);
        assert_eq!(tc.client.recover_used_len(&mut ctx, seg.id).unwrap(), 0);
    }

    #[test]
    fn crashed_client_is_fenced_but_new_client_adopts_segments() {
        let mut ctx = SimCtx::new(1, 7);
        let tc = test_cluster(&mut ctx);
        let seg = log_seg(&mut ctx, &tc);
        tc.client
            .append_with(&mut ctx, seg, b"pre-crash-state!", AppendOpts::new())
            .unwrap();
        let old_lease = tc.client.lease();

        // "Client A fails; client B takes over" (§IV-C).
        let ep = RdmaEndpoint::new(
            tc.env.model.clone(),
            Arc::clone(&tc.env.faults),
            Arc::clone(&tc.env.engine_nic),
        );
        let client_b = AStoreClient::connect(
            &mut ctx,
            Arc::clone(&tc.cm),
            ep,
            Arc::clone(&tc.env.engine_cpu),
            tc.env.model.clone(),
            1, // same client identity, new incarnation
            ROUTE_REFRESH,
        );
        // Old incarnation's control-plane ops are fenced.
        assert!(matches!(
            tc.cm.validate_lease(ctx.now(), old_lease),
            Err(AStoreError::LeaseExpired { .. })
        ));
        // New incarnation adopts the segment with the recovered length.
        let adopted = client_b
            .adopt_segment(&mut ctx, seg.id, SegmentClass::Log)
            .unwrap();
        assert_eq!(client_b.segment_len(adopted), 16);
        assert_eq!(
            client_b.read(&mut ctx, adopted, 0, 16).unwrap(),
            b"pre-crash-state!"
        );
        let off = client_b
            .append_with(&mut ctx, adopted, b"-postcrash", AppendOpts::new())
            .unwrap();
        assert_eq!(off, 16);
    }

    #[test]
    fn superseded_client_stays_fenced_despite_retries() {
        // The fencing regression the retry layer must NOT break: once a new
        // incarnation holds a fresher epoch, the old client's control-plane
        // calls fail, its automatic renewal is refused, and no amount of
        // retrying gets it back in.
        let mut ctx = SimCtx::new(1, 7);
        let tc = test_cluster(&mut ctx);
        let old_client = Arc::clone(&tc.client);
        let ep = RdmaEndpoint::new(
            tc.env.model.clone(),
            Arc::clone(&tc.env.faults),
            Arc::clone(&tc.env.engine_nic),
        );
        let new_client = AStoreClient::connect(
            &mut ctx,
            Arc::clone(&tc.cm),
            ep,
            Arc::clone(&tc.env.engine_cpu),
            tc.env.model.clone(),
            1, // supersedes old_client's lease
            ROUTE_REFRESH,
        );
        assert!(new_client.lease().epoch > old_client.lease().epoch);
        let err = old_client
            .create_segment_with(&mut ctx, SegmentOpts::new(SegmentClass::Log))
            .unwrap_err();
        assert!(
            err.is_fencing(),
            "superseded client must stay fenced, got {err}"
        );
        // Explicit renewal is refused too — same epoch, but superseded.
        assert!(old_client.renew_lease(&mut ctx).unwrap_err().is_fencing());
        // The new incarnation is unaffected.
        assert!(new_client
            .create_segment_with(&mut ctx, SegmentOpts::new(SegmentClass::Log))
            .is_ok());
    }

    #[test]
    fn lease_renewed_automatically_after_ttl_lapse() {
        // The TTL (30s here) lapses while the client is idle; the next
        // control-plane call renews the same epoch transparently.
        let mut ctx = SimCtx::new(1, 7);
        let tc = test_cluster(&mut ctx);
        ctx.advance(VTime::from_secs(40));
        let epoch_before = tc.client.lease().epoch;
        let seg = log_seg(&mut ctx, &tc);
        assert_eq!(
            tc.client.lease().epoch,
            epoch_before,
            "no re-acquire, same epoch"
        );
        assert!(astore_count(&tc, "lease_renewals") >= 1);
        tc.client
            .append_with(&mut ctx, seg, b"renewed", AppendOpts::new())
            .unwrap();
    }

    #[test]
    fn route_refresh_detects_repair() {
        let mut ctx = SimCtx::new(1, 7);
        let tc = test_cluster(&mut ctx);
        let seg = log_seg(&mut ctx, &tc);
        tc.client
            .append_with(&mut ctx, seg, b"data", AppendOpts::new())
            .unwrap();
        let route_v1 = tc.client.cached_route(seg.id).unwrap();

        tc.env.faults.crash(route_v1.replicas[0].node);
        ctx.advance(VTime::from_secs(2));
        for s in &tc.servers {
            if s.node() != route_v1.replicas[0].node {
                tc.cm.heartbeat(ctx.now(), s.node(), s.free_slots());
            }
        }
        tc.cm.tick(&mut ctx);

        // After the refresh period the client picks up the new route.
        ctx.advance(VTime::from_millis(100));
        tc.client.refresh_all_routes(&mut ctx);
        let route_v2 = tc.client.cached_route(seg.id).unwrap();
        assert!(route_v2.version > route_v1.version);
        assert!(!route_v2
            .replicas
            .iter()
            .any(|l| l.node == route_v1.replicas[0].node));
    }
}
