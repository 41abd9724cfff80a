//! # vedb-rdma — a simulated RDMA fabric
//!
//! Models the two network paths the paper contrasts:
//!
//! * **One-sided verbs** ([`RdmaEndpoint::read`], [`RdmaEndpoint::write`],
//!   [`RdmaEndpoint::write_chain`]) against a registered [`RemoteMr`] backed
//!   by a [`PmemDevice`]. These charge *zero CPU on the target node* — only
//!   NIC occupancy and PMem media time — which is the property that lets
//!   AStore servers keep their cores idle for push-down query execution
//!   (§VI-B) and keeps tail latency flat under concurrency.
//! * **Two-sided RPC** ([`RpcFabric::call`]) — the kernel TCP path used by
//!   the baseline LogStore/PageStore. Each call charges a round trip,
//!   exponential scheduling jitter (thread wake-up), and server CPU, so
//!   the baseline's latency spikes and CPU contention emerge.
//!
//! The AStore write chain (§IV-B) is reproduced literally by
//! [`RdmaEndpoint::write_chain`]: two chained WRITEs (payload + io-meta) and
//! a trailing READ that forces the payload through to the PMem persistence
//! domain (the DDIO-off flush trick). Work requests in a chain share a
//! single doorbell (one MMIO issue cost), as the paper notes.
//!
//! Simulation stance: "server-side" handler code runs inline on the calling
//! thread, but every nanosecond of its work is charged to the *target
//! node's* resources in virtual time, so contention is attributed to the
//! right hardware.

use std::sync::Arc;

use vedb_pmem::PmemDevice;
use vedb_sim::fault::NodeId;
use vedb_sim::trace::TraceLog;
use vedb_sim::{
    cluster::NodeRes, Counter, FaultPlan, LatencyModel, LatencyRecorder, MetricsRegistry, SimCtx,
    VTime,
};

/// Errors surfaced by fabric operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdmaError {
    /// Target node is crashed / unreachable.
    NodeUnreachable(NodeId),
    /// Access outside the registered memory region.
    MrOutOfBounds {
        /// Offset within the MR.
        offset: u64,
        /// Access length.
        len: usize,
        /// MR length.
        mr_len: usize,
    },
    /// The message was dropped (fault injection on lossy paths).
    Dropped,
    /// The target device rejected the access.
    Device(String),
}

impl std::fmt::Display for RdmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RdmaError::NodeUnreachable(n) => write!(f, "node {n} unreachable"),
            RdmaError::MrOutOfBounds {
                offset,
                len,
                mr_len,
            } => {
                write!(
                    f,
                    "MR access out of bounds: offset={offset} len={len} mr_len={mr_len}"
                )
            }
            RdmaError::Dropped => write!(f, "message dropped"),
            RdmaError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for RdmaError {}

/// Result alias for fabric operations.
pub type Result<T> = std::result::Result<T, RdmaError>;

/// A registered remote memory region: a window into one node's PMem device.
///
/// Cloning is cheap (Arc-backed); AStore clients cache these in their
/// routing tables.
#[derive(Clone)]
pub struct RemoteMr {
    /// Node owning the memory.
    pub node: NodeId,
    device: Arc<PmemDevice>,
    node_res: Arc<NodeRes>,
    base: u64,
    len: usize,
}

impl RemoteMr {
    /// Register `len` bytes at `base` of `device` on `node` for remote
    /// access. (Real RDMA would pin pages and hand out an rkey; access
    /// control in the reproduction is enforced by AStore leases.)
    pub fn register(
        node: NodeId,
        node_res: Arc<NodeRes>,
        device: Arc<PmemDevice>,
        base: u64,
        len: usize,
    ) -> Self {
        RemoteMr {
            node,
            device,
            node_res,
            base,
            len,
        }
    }

    /// Registered length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing device (used by server-local code: recovery scans,
    /// push-down execution against EBP pages).
    pub fn device(&self) -> &Arc<PmemDevice> {
        &self.device
    }

    fn check(&self, offset: u64, len: usize) -> Result<()> {
        let end = usize::try_from(offset)
            .ok()
            .and_then(|o| o.checked_add(len));
        if end.filter(|&end| end <= self.len).is_none() {
            return Err(RdmaError::MrOutOfBounds {
                offset,
                len,
                mr_len: self.len,
            });
        }
        Ok(())
    }
}

/// Cached metric handles for the one-sided verbs (component `"rdma"`).
struct VerbStats {
    reads: Arc<Counter>,
    read_bytes: Arc<Counter>,
    writes: Arc<Counter>,
    write_bytes: Arc<Counter>,
    chain_writes: Arc<Counter>,
    chain_bytes: Arc<Counter>,
    drops: Arc<Counter>,
    /// MMIO doorbell rings: one per posted chain, regardless of length.
    doorbells: Arc<Counter>,
    /// Work requests posted. `doorbells < wrs` is the proof that chains
    /// actually batch — the commit path's batching ratio is `wrs /
    /// doorbells`.
    wrs: Arc<Counter>,
    read_lat: Arc<LatencyRecorder>,
    write_lat: Arc<LatencyRecorder>,
    chain_lat: Arc<LatencyRecorder>,
}

impl VerbStats {
    fn register(reg: &MetricsRegistry) -> Self {
        VerbStats {
            reads: reg.counter("rdma", "reads"),
            read_bytes: reg.counter("rdma", "read_bytes"),
            writes: reg.counter("rdma", "writes"),
            write_bytes: reg.counter("rdma", "write_bytes"),
            chain_writes: reg.counter("rdma", "chain_writes"),
            chain_bytes: reg.counter("rdma", "chain_bytes"),
            drops: reg.counter("rdma", "drops"),
            doorbells: reg.counter("rdma", "doorbells"),
            wrs: reg.counter("rdma", "wrs"),
            read_lat: reg.latency("rdma", "read"),
            write_lat: reg.latency("rdma", "write"),
            chain_lat: reg.latency("rdma", "write_chain"),
        }
    }
}

/// A client-side RDMA endpoint: the DBEngine's NIC plus fabric-wide state.
pub struct RdmaEndpoint {
    model: LatencyModel,
    faults: Arc<FaultPlan>,
    client_nic: Arc<vedb_sim::Resource>,
    stats: VerbStats,
    trace: Arc<TraceLog>,
}

impl RdmaEndpoint {
    /// Create an endpoint that issues verbs from `client_nic`. Metrics go to
    /// a detached registry; production assembly uses
    /// [`with_metrics`](Self::with_metrics).
    pub fn new(
        model: LatencyModel,
        faults: Arc<FaultPlan>,
        client_nic: Arc<vedb_sim::Resource>,
    ) -> Self {
        Self::with_metrics(model, faults, client_nic, &MetricsRegistry::detached())
    }

    /// Like [`new`](Self::new), but publishing per-verb counts, bytes, drops
    /// and latency histograms into `registry`.
    pub fn with_metrics(
        model: LatencyModel,
        faults: Arc<FaultPlan>,
        client_nic: Arc<vedb_sim::Resource>,
        registry: &MetricsRegistry,
    ) -> Self {
        RdmaEndpoint {
            model,
            faults,
            client_nic,
            stats: VerbStats::register(registry),
            trace: Arc::clone(registry.trace()),
        }
    }

    fn check_alive(&self, node: NodeId) -> Result<()> {
        if self.faults.is_crashed(node) {
            return Err(RdmaError::NodeUnreachable(node));
        }
        Ok(())
    }

    /// Fault-injection gate shared by every verb: crashed targets are
    /// unreachable immediately; partitioned targets and probabilistic
    /// message loss surface as [`RdmaError::Dropped`] after the client
    /// burns a completion-timeout learning nothing (reliable-connection
    /// QPs retransmit silently, so loss manifests as a timeout).
    fn check_delivery(&self, ctx: &mut SimCtx, node: NodeId) -> Result<()> {
        self.check_alive(node)?;
        if self.faults.is_partitioned(node) {
            ctx.advance(self.model.rpc_rtt());
            self.stats.drops.inc();
            return Err(RdmaError::Dropped);
        }
        let p = self.faults.drop_prob();
        if p > 0.0 && ctx.rng().gen_bool(p) {
            ctx.advance(self.model.rpc_rtt());
            self.stats.drops.inc();
            return Err(RdmaError::Dropped);
        }
        Ok(())
    }

    fn wire_occupancy(&self, len: usize) -> VTime {
        VTime::from_nanos((len as u64).div_ceil(1024) * self.model.wire_per_kb_ns)
    }

    /// One-sided RDMA READ: fetch `len` bytes at `offset` within `mr`.
    /// No target CPU involved. Advances the client clock to completion.
    pub fn read(
        &self,
        ctx: &mut SimCtx,
        mr: &RemoteMr,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>> {
        let t0 = ctx.now();
        let sp = self.trace.span(ctx, "rdma", "read");
        self.check_delivery(ctx, mr.node)?;
        mr.check(offset, len)?;
        // Post the WR.
        ctx.advance(self.model.rdma_issue());
        // Request propagates; response payload occupies the target NIC.
        let arrive = ctx.now() + self.model.wire_delay();
        let nic_done = mr.node_res.nic.acquire(arrive, self.wire_occupancy(len));
        let (data, media_done) = mr
            .device
            .read(nic_done, mr.base + offset, len)
            .map_err(|e| RdmaError::Device(e.to_string()))?;
        ctx.wait_until(media_done + self.model.wire_delay());
        self.stats.reads.inc();
        self.stats.read_bytes.add(len as u64);
        self.stats.doorbells.inc();
        self.stats.wrs.inc();
        self.stats.read_lat.record(ctx.now() - t0);
        sp.finish(ctx);
        Ok(data)
    }

    /// One-sided RDMA WRITE of `data` at `offset` within `mr`. The data is
    /// *visible* at the target when this returns but **not yet persistent**
    /// (see [`write_chain`](Self::write_chain) for the persistent variant).
    pub fn write(&self, ctx: &mut SimCtx, mr: &RemoteMr, offset: u64, data: &[u8]) -> Result<()> {
        let t0 = ctx.now();
        let sp = self.trace.span(ctx, "rdma", "write");
        self.check_delivery(ctx, mr.node)?;
        mr.check(offset, data.len())?;
        ctx.advance(self.model.rdma_issue());
        let send_done = self
            .client_nic
            .acquire(ctx.now(), self.wire_occupancy(data.len()));
        let arrive = send_done + self.model.wire_delay();
        let nic_done = mr
            .node_res
            .nic
            .acquire(arrive, self.wire_occupancy(data.len()));
        let media_done = mr
            .device
            .write(nic_done, mr.base + offset, data)
            .map_err(|e| RdmaError::Device(e.to_string()))?;
        ctx.wait_until(media_done + self.model.wire_delay());
        self.stats.writes.inc();
        self.stats.write_bytes.add(data.len() as u64);
        self.stats.doorbells.inc();
        self.stats.wrs.inc();
        self.stats.write_lat.record(ctx.now() - t0);
        sp.finish(ctx);
        Ok(())
    }

    /// The AStore persistent write chain (§IV-B): chained one-sided WRITEs
    /// followed by a one-sided READ that flushes the payload into the PMem
    /// persistence domain. All work requests share one doorbell, so the
    /// issue cost is paid once.
    ///
    /// Returns only after the data is crash-durable on the target (assuming
    /// the device has DDIO disabled, as AStore requires).
    pub fn write_chain(
        &self,
        ctx: &mut SimCtx,
        mr: &RemoteMr,
        writes: &[(u64, &[u8])],
    ) -> Result<()> {
        let t0 = ctx.now();
        let sp = self.trace.span(ctx, "rdma", "write_chain");
        self.check_delivery(ctx, mr.node)?;
        for (offset, data) in writes {
            mr.check(*offset, data.len())?;
        }
        // One doorbell for the whole chain.
        ctx.advance(self.model.rdma_issue());
        let total_len: usize = writes.iter().map(|(_, d)| d.len()).sum();
        let send_done = self
            .client_nic
            .acquire(ctx.now(), self.wire_occupancy(total_len));
        let arrive = send_done + self.model.wire_delay();
        let nic_done = mr
            .node_res
            .nic
            .acquire(arrive, self.wire_occupancy(total_len));
        // The WRITEs land and the trailing READ forces them into the
        // persistence domain, as one device step.
        let t = mr
            .device
            .persist(nic_done, mr.base, writes)
            .map_err(|e| RdmaError::Device(e.to_string()))?;
        // The READ returns up to a cacheline from the first WR's offset,
        // clamped to the MR's end (the checks above put that offset inside
        // the MR).
        let first = writes[0].0;
        let (_, read_done) = mr
            .device
            .read(t, mr.base + first, 64.min(mr.len - first as usize))
            .map_err(|e| RdmaError::Device(e.to_string()))?;
        ctx.wait_until(read_done + self.model.wire_delay());
        self.stats.chain_writes.inc();
        self.stats.chain_bytes.add(total_len as u64);
        // One doorbell covered `writes.len()` WRITE WRs plus the flushing
        // READ — the §V-B batching the commit path exploits.
        self.stats.doorbells.inc();
        self.stats.wrs.add(writes.len() as u64 + 1);
        self.stats.chain_lat.record(ctx.now() - t0);
        sp.finish(ctx);
        Ok(())
    }
}

/// The two-sided RPC path (kernel TCP): used by the baseline LogStore, by
/// PageStore, and by AStore's control-plane (create/delete/CM traffic).
pub struct RpcFabric {
    model: LatencyModel,
    faults: Arc<FaultPlan>,
    calls: Arc<Counter>,
    req_bytes: Arc<Counter>,
    drops: Arc<Counter>,
    call_lat: Arc<LatencyRecorder>,
    trace: Arc<TraceLog>,
}

impl RpcFabric {
    /// Create an RPC fabric over the shared fault plan (detached metrics;
    /// production assembly uses [`with_metrics`](Self::with_metrics)).
    pub fn new(model: LatencyModel, faults: Arc<FaultPlan>) -> Self {
        Self::with_metrics(model, faults, &MetricsRegistry::detached())
    }

    /// Like [`new`](Self::new), but publishing `rdma.rpc_calls`,
    /// `rdma.rpc_req_bytes` (the request bytes of those calls),
    /// `rdma.rpc_drops` and the `rdma.rpc` latency histogram into `registry`.
    pub fn with_metrics(
        model: LatencyModel,
        faults: Arc<FaultPlan>,
        registry: &MetricsRegistry,
    ) -> Self {
        RpcFabric {
            model,
            faults,
            calls: registry.counter("rdma", "rpc_calls"),
            req_bytes: registry.counter("rdma", "rpc_req_bytes"),
            drops: registry.counter("rdma", "rpc_drops"),
            call_lat: registry.latency("rdma", "rpc"),
            trace: Arc::clone(registry.trace()),
        }
    }

    /// Shared fault plan (for tests to inject failures).
    pub fn faults(&self) -> &Arc<FaultPlan> {
        &self.faults
    }

    /// Issue an RPC of `req_bytes` to `target`, run `handler` on the target
    /// (charged to the target's resources via `ctx`), and return its result
    /// after `resp_bytes` stream back.
    ///
    /// Costs charged: half RTT out, scheduling jitter + server CPU dispatch,
    /// the handler's own work, NIC occupancy of the response, half RTT back.
    /// Returns [`RdmaError::NodeUnreachable`] if the target is crashed and
    /// [`RdmaError::Dropped`] under fault-injected message loss.
    pub fn call<R>(
        &self,
        ctx: &mut SimCtx,
        target: NodeId,
        target_res: &NodeRes,
        req_bytes: usize,
        resp_bytes: usize,
        handler: impl FnOnce(&mut SimCtx) -> R,
    ) -> Result<R> {
        let t0 = ctx.now();
        let sp = self.trace.span(ctx, "rdma", "rpc");
        if self.faults.is_crashed(target) {
            return Err(RdmaError::NodeUnreachable(target));
        }
        if self.faults.is_partitioned(target) {
            ctx.advance(self.model.rpc_rtt());
            self.drops.inc();
            return Err(RdmaError::Dropped);
        }
        let p = self.faults.drop_prob();
        if p > 0.0 && ctx.rng().gen_bool(p) {
            // Model a timeout: the caller burns half an RTT learning nothing.
            ctx.advance(self.model.rpc_rtt());
            self.drops.inc();
            return Err(RdmaError::Dropped);
        }
        // Outbound half-RTT plus request streaming.
        let req_stream =
            VTime::from_nanos((req_bytes as u64).div_ceil(1024) * self.model.wire_per_kb_ns);
        ctx.advance(self.model.rpc_rtt() / 2 + req_stream);
        // Server-side scheduling: wake a worker thread (jitter) and charge
        // the dispatch CPU on the server's cores.
        let jitter = ctx.rng().jitter(self.model.rpc_jitter_mean());
        let dispatch_done = target_res
            .cpu
            .acquire(ctx.now() + jitter, self.model.rpc_server_cpu());
        ctx.wait_until(dispatch_done);
        // Handler work (charges target device/CPU resources itself).
        let result = handler(ctx);
        // Response streams back through the target NIC.
        let resp_stream =
            VTime::from_nanos((resp_bytes as u64).div_ceil(1024) * self.model.wire_per_kb_ns);
        let nic_done = target_res.nic.acquire(ctx.now(), resp_stream);
        ctx.wait_until(nic_done + self.model.rpc_rtt() / 2);
        self.calls.inc();
        self.req_bytes.add(req_bytes as u64);
        self.call_lat.record(ctx.now() - t0);
        sp.finish(ctx);
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vedb_sim::ClusterSpec;

    fn setup() -> (
        Arc<vedb_sim::SimEnv>,
        Arc<PmemDevice>,
        RemoteMr,
        RdmaEndpoint,
    ) {
        let env = ClusterSpec::tiny().build();
        let node = &env.astore_nodes[0];
        let dev = Arc::new(PmemDevice::new(
            "pmem",
            1 << 20,
            false,
            node.pmem.clone().unwrap(),
            env.model.clone(),
        ));
        let mr = RemoteMr::register(0, Arc::clone(node), Arc::clone(&dev), 0, 1 << 20);
        let ep = RdmaEndpoint::new(
            env.model.clone(),
            Arc::clone(&env.faults),
            Arc::clone(&env.engine_nic),
        );
        (env, dev, mr, ep)
    }

    #[test]
    fn one_sided_write_then_read_roundtrip() {
        let (_env, _dev, mr, ep) = setup();
        let mut ctx = SimCtx::new(1, 7);
        ep.write(&mut ctx, &mr, 128, b"payload").unwrap();
        let t_write = ctx.now();
        let data = ep.read(&mut ctx, &mr, 128, 7).unwrap();
        assert_eq!(&data, b"payload");
        assert!(ctx.now() > t_write);
    }

    #[test]
    fn rdma_ops_charge_cluster_resource_metrics() {
        let (env, _dev, mr, ep) = setup();
        let mut ctx = SimCtx::new(1, 7);
        ep.write(&mut ctx, &mr, 0, b"payload").unwrap();
        ep.read(&mut ctx, &mr, 0, 7).unwrap();
        // The cluster builds every resource with metrics attached, so the
        // verbs above must leave saturation samples in the registry: the
        // engine NIC carries both verbs, the target PMem both accesses.
        let counters = env.metrics.counter_values();
        // WRITE occupies the client (engine) NIC; both verbs occupy the
        // target NIC and media.
        assert!(counters["engine.nic.ops"] >= 1);
        assert!(counters["astore-0.nic.ops"] >= 2);
        assert!(counters["astore-0.pmem.ops"] >= 2);
        assert!(counters["engine.nic.busy_ns"] > 0);
        let lats = env.metrics.latency_handles();
        let (_, svc) = lats
            .iter()
            .find(|(k, _)| k == "astore-0.nic.service")
            .unwrap();
        assert!(svc.count() >= 2);
    }

    #[test]
    fn small_read_latency_near_10us() {
        let (_env, _dev, mr, ep) = setup();
        let mut ctx = SimCtx::new(1, 7);
        ep.read(&mut ctx, &mr, 0, 64).unwrap();
        let us = ctx.now().as_micros_f64();
        assert!(
            (3.0..=15.0).contains(&us),
            "small read should be ~10us, got {us:.1}us"
        );
    }

    #[test]
    fn page_read_16kb_latency_near_20us() {
        let (_env, _dev, mr, ep) = setup();
        let mut ctx = SimCtx::new(1, 7);
        ep.read(&mut ctx, &mr, 0, 16 * 1024).unwrap();
        let us = ctx.now().as_micros_f64();
        assert!(
            (12.0..=30.0).contains(&us),
            "16KB read should be ~20us, got {us:.1}us"
        );
    }

    #[test]
    fn write_chain_is_persistent_plain_write_is_not() {
        let (_env, dev, mr, ep) = setup();
        let mut ctx = SimCtx::new(1, 7);
        ep.write_chain(&mut ctx, &mr, &[(512, b"durable!"), (1024, b"metadata")])
            .unwrap();
        // A plain WRITE issued *after* the last flush stays in flight.
        ep.write(&mut ctx, &mr, 0, b"volatile").unwrap();
        dev.crash();
        assert_eq!(
            dev.peek(0, 8).unwrap(),
            vec![0; 8],
            "plain WRITE must not survive"
        );
        assert_eq!(dev.peek(512, 8).unwrap(), b"durable!");
        assert_eq!(dev.peek(1024, 8).unwrap(), b"metadata");
    }

    #[test]
    fn write_chain_small_append_near_20us() {
        let (_env, _dev, mr, ep) = setup();
        let mut ctx = SimCtx::new(1, 7);
        ep.write_chain(&mut ctx, &mr, &[(0, &[7u8; 512]), (4096, &[1u8; 64])])
            .unwrap();
        let us = ctx.now().as_micros_f64();
        assert!(
            (15.0..=60.0).contains(&us),
            "small persistent append ~20-40us, got {us:.1}us"
        );
    }

    #[test]
    fn mr_bounds_enforced() {
        let (_env, _dev, mr, ep) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let len = mr.len() as u64;
        assert!(matches!(
            ep.read(&mut ctx, &mr, len - 2, 4),
            Err(RdmaError::MrOutOfBounds { .. })
        ));
        assert!(ep.write(&mut ctx, &mr, len, b"x").is_err());
        assert!(ep
            .write_chain(&mut ctx, &mr, &[(0, b"ok"), (len, b"bad")])
            .is_err());
    }

    /// A 1 MiB device publishing into its own registry, the endpoint, and
    /// an MR of `len` bytes at `base`.
    fn counted_mr(
        base: u64,
        len: usize,
    ) -> (
        Arc<MetricsRegistry>,
        Arc<PmemDevice>,
        RemoteMr,
        RdmaEndpoint,
    ) {
        let (env, _dev, _mr, ep) = setup();
        let node = &env.astore_nodes[0];
        let reg = MetricsRegistry::detached();
        let dev = Arc::new(PmemDevice::with_metrics(
            "counted",
            1 << 20,
            false,
            node.pmem.clone().unwrap(),
            env.model.clone(),
            &reg,
        ));
        let mr = RemoteMr::register(0, Arc::clone(node), Arc::clone(&dev), base, len);
        (reg, dev, mr, ep)
    }

    #[test]
    fn write_chain_at_the_device_end_reads_back_inside_it() {
        let (reg, dev, mr, ep) = counted_mr(0, 1 << 20);
        let mut ctx = SimCtx::new(1, 7);
        let at = (1u64 << 20) - 16;
        assert_eq!(ep.write_chain(&mut ctx, &mr, &[(at, &[9u8; 16])]), Ok(()));
        assert_eq!(dev.durable_snapshot(at, 16).unwrap(), vec![9u8; 16]);
        assert_eq!(reg.counter("pmem", "bytes_read").get(), 16);
    }

    #[test]
    fn write_chain_flushing_read_stays_inside_a_partial_mr() {
        let (reg, dev, mr, ep) = counted_mr(4096, 4096);
        let mut ctx = SimCtx::new(1, 7);
        assert_eq!(
            ep.write_chain(&mut ctx, &mr, &[(4096 - 16, &[5u8; 16])]),
            Ok(())
        );
        assert_eq!(dev.durable_snapshot(8192 - 16, 16).unwrap(), vec![5u8; 16]);
        // A full cacheline would have read 48 bytes past the MR's end.
        assert_eq!(reg.counter("pmem", "bytes_read").get(), 16);
    }

    #[test]
    fn mr_offset_near_u64_max_is_out_of_bounds_not_wrapped() {
        let (_env, _dev, mr, ep) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let offset = u64::MAX - 3;
        assert!(matches!(
            ep.read(&mut ctx, &mr, offset, 8),
            Err(RdmaError::MrOutOfBounds { .. })
        ));
        assert!(matches!(
            ep.write(&mut ctx, &mr, offset, &[0u8; 8]),
            Err(RdmaError::MrOutOfBounds { .. })
        ));
    }

    #[test]
    fn crashed_node_unreachable() {
        let (env, _dev, mr, ep) = setup();
        let mut ctx = SimCtx::new(1, 7);
        env.faults.crash(0);
        assert_eq!(
            ep.read(&mut ctx, &mr, 0, 8),
            Err(RdmaError::NodeUnreachable(0))
        );
        env.faults.restore(0);
        assert!(ep.read(&mut ctx, &mr, 0, 8).is_ok());
    }

    #[test]
    fn rpc_charges_server_cpu_and_is_slower_than_one_sided() {
        let (env, _dev, mr, ep) = setup();
        let node = &env.astore_nodes[0];
        let rpc = RpcFabric::new(env.model.clone(), Arc::clone(&env.faults));

        let mut c1 = SimCtx::new(1, 7);
        ep.read(&mut c1, &mr, 0, 4096).unwrap();
        let one_sided = c1.now();

        let cpu_before = node.cpu.total_busy();
        let mut c2 = SimCtx::new(2, 7);
        let out: u32 = rpc.call(&mut c2, 0, node, 64, 4096, |_ctx| 42u32).unwrap();
        assert_eq!(out, 42);
        assert!(
            node.cpu.total_busy() > cpu_before,
            "RPC must consume server CPU"
        );
        assert!(
            c2.now() > one_sided * 3,
            "RPC ({}) should be much slower than one-sided ({})",
            c2.now(),
            one_sided
        );
    }

    #[test]
    fn rpc_drop_injection() {
        let (env, _dev, _mr, _ep) = setup();
        let node = &env.astore_nodes[0];
        let rpc = RpcFabric::new(env.model.clone(), Arc::clone(&env.faults));
        env.faults.set_drop_prob(1.0);
        let mut ctx = SimCtx::new(1, 7);
        assert_eq!(
            rpc.call(&mut ctx, 0, node, 64, 64, |_| 1u8).unwrap_err(),
            RdmaError::Dropped
        );
        env.faults.set_drop_prob(0.0);
        assert!(rpc.call(&mut ctx, 0, node, 64, 64, |_| 1u8).is_ok());
    }

    #[test]
    fn one_sided_drop_and_partition_injection() {
        let (env, _dev, mr, ep) = setup();
        let mut ctx = SimCtx::new(1, 7);
        // Probabilistic loss hits every verb at p=1.
        env.faults.set_drop_prob(1.0);
        assert_eq!(ep.read(&mut ctx, &mr, 0, 8), Err(RdmaError::Dropped));
        assert_eq!(ep.write(&mut ctx, &mr, 0, b"x"), Err(RdmaError::Dropped));
        assert_eq!(
            ep.write_chain(&mut ctx, &mr, &[(0, b"x")]),
            Err(RdmaError::Dropped)
        );
        env.faults.set_drop_prob(0.0);
        assert!(ep.read(&mut ctx, &mr, 0, 8).is_ok());
        // A partitioned node is lossy but not "crashed".
        env.faults.partition(0);
        let before = ctx.now();
        assert_eq!(ep.read(&mut ctx, &mr, 0, 8), Err(RdmaError::Dropped));
        assert!(ctx.now() > before, "a drop must cost a timeout");
        env.faults.heal(0);
        assert!(ep.read(&mut ctx, &mr, 0, 8).is_ok());
    }

    #[test]
    fn chained_writes_cheaper_than_separate() {
        let (_env, _dev, mr, ep) = setup();
        let payload = [9u8; 1024];
        let meta = [1u8; 64];

        let mut chained = SimCtx::new(1, 7);
        ep.write_chain(&mut chained, &mr, &[(0, &payload), (8192, &meta)])
            .unwrap();

        let mut separate = SimCtx::new(2, 7);
        ep.write(&mut separate, &mr, 0, &payload).unwrap();
        ep.write(&mut separate, &mr, 8192, &meta).unwrap();
        // Not persistent yet; add the flush read for a fair comparison.
        let _ = ep.read(&mut separate, &mr, 0, 64).unwrap();

        assert!(
            chained.now() < separate.now(),
            "chained ({}) must beat separate WRs ({})",
            chained.now(),
            separate.now()
        );
    }

    #[test]
    fn metrics_count_verbs_drops_and_latency() {
        let env = ClusterSpec::tiny().build();
        let node = &env.astore_nodes[0];
        let dev = Arc::new(PmemDevice::new(
            "pmem",
            1 << 20,
            false,
            node.pmem.clone().unwrap(),
            env.model.clone(),
        ));
        let mr = RemoteMr::register(0, Arc::clone(node), Arc::clone(&dev), 0, 1 << 20);
        let ep = RdmaEndpoint::with_metrics(
            env.model.clone(),
            Arc::clone(&env.faults),
            Arc::clone(&env.engine_nic),
            &env.metrics,
        );
        let mut ctx = SimCtx::new(1, 7);
        ep.write(&mut ctx, &mr, 0, &[1u8; 100]).unwrap();
        ep.read(&mut ctx, &mr, 0, 64).unwrap();
        ep.write_chain(&mut ctx, &mr, &[(0, &[2u8; 50]), (128, &[3u8; 30])])
            .unwrap();
        assert_eq!(env.metrics.counter("rdma", "writes").get(), 1);
        assert_eq!(env.metrics.counter("rdma", "write_bytes").get(), 100);
        assert_eq!(env.metrics.counter("rdma", "reads").get(), 1);
        assert_eq!(env.metrics.counter("rdma", "read_bytes").get(), 64);
        assert_eq!(env.metrics.counter("rdma", "chain_writes").get(), 1);
        assert_eq!(env.metrics.counter("rdma", "chain_bytes").get(), 80);
        // write + read ring one doorbell for one WR each; the 2-WRITE
        // chain rings once for 3 WRs (2 WRITEs + flushing READ).
        assert_eq!(env.metrics.counter("rdma", "doorbells").get(), 3);
        assert_eq!(env.metrics.counter("rdma", "wrs").get(), 5);
        assert_eq!(env.metrics.latency("rdma", "read").count(), 1);
        assert!(env.metrics.latency("rdma", "write_chain").mean() > VTime::ZERO);

        env.faults.set_drop_prob(1.0);
        assert!(ep.read(&mut ctx, &mr, 0, 8).is_err());
        assert_eq!(env.metrics.counter("rdma", "drops").get(), 1);
        env.faults.set_drop_prob(0.0);

        let rpc = RpcFabric::with_metrics(env.model.clone(), Arc::clone(&env.faults), &env.metrics);
        rpc.call(&mut ctx, 0, node, 64, 64, |_| ()).unwrap();
        assert_eq!(env.metrics.counter("rdma", "rpc_calls").get(), 1);
        assert_eq!(env.metrics.counter("rdma", "rpc_req_bytes").get(), 64);
        env.faults.partition(0);
        assert!(rpc.call(&mut ctx, 0, node, 64, 64, |_| ()).is_err());
        assert_eq!(env.metrics.counter("rdma", "rpc_drops").get(), 1);
    }

    #[test]
    fn spans_record_causal_chain_when_enabled() {
        let env = ClusterSpec::tiny().build();
        let node = &env.astore_nodes[0];
        let dev = Arc::new(PmemDevice::new(
            "pmem",
            1 << 20,
            false,
            node.pmem.clone().unwrap(),
            env.model.clone(),
        ));
        let mr = RemoteMr::register(0, Arc::clone(node), Arc::clone(&dev), 0, 1 << 20);
        let ep = RdmaEndpoint::with_metrics(
            env.model.clone(),
            Arc::clone(&env.faults),
            Arc::clone(&env.engine_nic),
            &env.metrics,
        );
        env.metrics.trace().enable();
        let mut ctx = SimCtx::new(1, 7);
        let outer = vedb_sim::span!(env.metrics, &mut ctx, "test", "op");
        ep.write_chain(&mut ctx, &mr, &[(0, b"x")]).unwrap();
        outer.finish(&ctx);
        let evs = env.metrics.trace().events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].component, "rdma");
        assert_eq!(evs[0].parent, evs[1].id, "verb span nests under caller");
        assert!(evs[0].end > evs[0].start);
    }

    #[test]
    fn error_display() {
        assert!(RdmaError::NodeUnreachable(3).to_string().contains("3"));
        assert!(RdmaError::Dropped.to_string().contains("dropped"));
    }
}
