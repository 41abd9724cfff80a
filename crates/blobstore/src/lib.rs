//! # vedb-blobstore — the baseline SSD LogStore substrate
//!
//! veDB's original LogStore (§III) is built over an append-only distributed
//! blob storage system reached via kernel TCP RPC. Its client SDK manages
//! *BlobGroups*: logical containers of (by default) four append-only blobs.
//! Every append against the group is merged, split into fixed-size (8 KB)
//! physical I/Os, striped round-robin across the group's blobs, executed
//! concurrently, and replicated to every replica of each blob before the
//! append is acknowledged.
//!
//! This is the system AStore replaces, and the baseline side of Table II and
//! Figures 6–9: its latency comes from TCP RTT + server thread scheduling
//! (jitter) + SSD service time, and its fixed-size physical I/O means a 4 KB
//! logical append still pays for an 8 KB device write.
//!
//! [`BlobServer`] is the per-storage-node server (handlers charge SSD and
//! CPU time on that node); [`BlobGroup`] is the client-side SDK container.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use vedb_rdma::{RdmaError, RpcFabric};
use vedb_sim::cluster::NodeRes;
use vedb_sim::fault::NodeId;
use vedb_sim::metrics::Counter;
use vedb_sim::trace::TraceLog;
use vedb_sim::{LatencyModel, Resource, SimCtx};

/// Identifier of a blob within one server.
pub type BlobId = u64;

/// Errors from blob storage operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlobError {
    /// The blob id is not known to the server.
    UnknownBlob(BlobId),
    /// Read beyond the end of a blob.
    OutOfBounds {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: usize,
        /// Blob length.
        blob_len: usize,
    },
    /// Network-level failure (node crashed, message dropped).
    Network(RdmaError),
    /// An append could not reach every replica.
    ReplicaFailed {
        /// How many replicas acknowledged.
        acked: usize,
        /// How many were required.
        required: usize,
    },
}

impl From<RdmaError> for BlobError {
    fn from(e: RdmaError) -> Self {
        BlobError::Network(e)
    }
}

impl std::fmt::Display for BlobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlobError::UnknownBlob(id) => write!(f, "unknown blob {id}"),
            BlobError::OutOfBounds {
                offset,
                len,
                blob_len,
            } => {
                write!(
                    f,
                    "blob read out of bounds: offset={offset} len={len} blob_len={blob_len}"
                )
            }
            BlobError::Network(e) => write!(f, "network: {e}"),
            BlobError::ReplicaFailed { acked, required } => {
                write!(f, "append replicated to {acked}/{required} replicas")
            }
        }
    }
}

impl std::error::Error for BlobError {}

/// Result alias for blob operations.
pub type Result<T> = std::result::Result<T, BlobError>;

/// Fixed physical I/O size (paper: 8 KB). Appends are split into chunks of
/// this size and each chunk costs one device write of this size, however
/// little of it is data.
pub const IO_SIZE: usize = 8192;

/// One storage node's blob server. Appends and reads charge the node's SSD
/// (and are invoked through [`RpcFabric::call`], which charges CPU + RTT +
/// scheduling jitter).
pub struct BlobServer {
    node: NodeId,
    res: Arc<NodeRes>,
    ssd: Arc<Resource>,
    model: LatencyModel,
    blobs: Mutex<HashMap<BlobId, Vec<u8>>>,
    next_id: AtomicU64,
    appends: Arc<Counter>,
    append_bytes: Arc<Counter>,
    reads: Arc<Counter>,
    read_bytes: Arc<Counter>,
}

impl BlobServer {
    /// Create a server on `node`, whose blobs live on its `ssd`.
    pub fn new(node: NodeId, res: Arc<NodeRes>, ssd: Arc<Resource>, model: LatencyModel) -> Self {
        let reg = &res.metrics;
        BlobServer {
            node,
            appends: reg.counter("blobstore", "appends"),
            append_bytes: reg.counter("blobstore", "append_bytes"),
            reads: reg.counter("blobstore", "reads"),
            read_bytes: reg.counter("blobstore", "read_bytes"),
            res,
            ssd,
            model,
            blobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// Node this server runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's resources (NIC/CPU/SSD) for RPC dispatch.
    pub fn res(&self) -> &Arc<NodeRes> {
        &self.res
    }

    /// Handler: create an empty blob.
    pub fn handle_create(&self) -> BlobId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.blobs.lock().insert(id, Vec::new());
        id
    }

    /// Handler: append `data` to `blob`, charging one fixed-size physical
    /// SSD write per started [`IO_SIZE`] unit. Returns the offset the data
    /// landed at.
    pub fn handle_append(&self, ctx: &mut SimCtx, blob: BlobId, data: &[u8]) -> Result<u64> {
        // Physical I/Os are fixed-size: a 4KB logical append still writes
        // one full IO_SIZE unit (the write amplification the paper accepts).
        let physical = data.len().div_ceil(IO_SIZE).max(1) * IO_SIZE;
        let done = self
            .ssd
            .acquire(ctx.now(), self.model.ssd_write_svc(physical));
        ctx.wait_until(done);
        let mut blobs = self.blobs.lock();
        let b = blobs.get_mut(&blob).ok_or(BlobError::UnknownBlob(blob))?;
        let off = b.len() as u64;
        b.extend_from_slice(data);
        self.appends.inc();
        self.append_bytes.add(data.len() as u64);
        Ok(off)
    }

    /// Handler: read `len` bytes at `offset` from `blob`.
    pub fn handle_read(
        &self,
        ctx: &mut SimCtx,
        blob: BlobId,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>> {
        let done = self.ssd.acquire(ctx.now(), self.model.ssd_read_svc(len));
        ctx.wait_until(done);
        let blobs = self.blobs.lock();
        let b = blobs.get(&blob).ok_or(BlobError::UnknownBlob(blob))?;
        let end = usize::try_from(offset)
            .ok()
            .and_then(|o| o.checked_add(len));
        if end.filter(|&end| end <= b.len()).is_none() {
            return Err(BlobError::OutOfBounds {
                offset,
                len,
                blob_len: b.len(),
            });
        }
        self.reads.inc();
        self.read_bytes.add(len as u64);
        Ok(b[offset as usize..offset as usize + len].to_vec())
    }

    /// Current length of a blob (metadata query; no device time).
    pub fn blob_len(&self, blob: BlobId) -> Option<usize> {
        self.blobs.lock().get(&blob).map(Vec::len)
    }
}

/// Configuration of a [`BlobGroup`].
#[derive(Clone, Debug)]
pub struct BlobGroupConfig {
    /// Number of blobs the group stripes over (paper default: 4).
    pub blobs_per_group: usize,
    /// Replicas per blob (paper default: 3).
    pub replication: usize,
}

impl Default for BlobGroupConfig {
    fn default() -> Self {
        BlobGroupConfig {
            blobs_per_group: 4,
            replication: 3,
        }
    }
}

/// Mapping of a contiguous logical range onto one stripe.
#[derive(Clone, Copy, Debug)]
struct Extent {
    logical_off: u64,
    stripe: usize,
    blob_off: u64,
    len: usize,
}

/// Client-side logical container over striped, replicated append-only blobs
/// — the baseline LogStore SDK object.
pub struct BlobGroup {
    cfg: BlobGroupConfig,
    rpc: Arc<RpcFabric>,
    /// `stripes[i]` = the replica set (server, blob id) of blob `i`.
    stripes: Vec<Vec<(Arc<BlobServer>, BlobId)>>,
    next_stripe: AtomicUsize,
    extents: Mutex<Vec<Extent>>,
    logical_len: AtomicU64,
    /// Shared deployment trace (all servers register into one registry).
    trace: Arc<TraceLog>,
}

impl BlobGroup {
    /// Create a group, allocating `blobs_per_group × replication` blobs
    /// across `servers` (replicas of a stripe land on distinct servers).
    ///
    /// # Panics
    /// Panics if `cfg` asks for no blobs or no replicas, or if fewer
    /// servers than replicas are supplied.
    pub fn create(
        ctx: &mut SimCtx,
        cfg: BlobGroupConfig,
        servers: &[Arc<BlobServer>],
        rpc: Arc<RpcFabric>,
    ) -> Result<Self> {
        assert!(
            cfg.blobs_per_group >= 1,
            "a blob group needs at least one blob"
        );
        assert!(
            cfg.replication >= 1,
            "a blob group needs at least one replica"
        );
        assert!(
            servers.len() >= cfg.replication,
            "need at least {} servers for replication, got {}",
            cfg.replication,
            servers.len()
        );
        let mut stripes = Vec::with_capacity(cfg.blobs_per_group);
        for s in 0..cfg.blobs_per_group {
            let mut replicas = Vec::with_capacity(cfg.replication);
            for r in 0..cfg.replication {
                let server = Arc::clone(&servers[(s + r) % servers.len()]);
                let id = rpc.call(ctx, server.node(), server.res(), 64, 16, |_ctx| {
                    server.handle_create()
                })?;
                replicas.push((server, id));
            }
            stripes.push(replicas);
        }
        let trace = Arc::clone(servers[0].res().metrics.trace());
        Ok(BlobGroup {
            cfg,
            rpc,
            stripes,
            next_stripe: AtomicUsize::new(0),
            extents: Mutex::new(Vec::new()),
            logical_len: AtomicU64::new(0),
            trace,
        })
    }

    /// Total logical bytes appended so far.
    pub fn len(&self) -> u64 {
        self.logical_len.load(Ordering::Acquire)
    }

    /// Whether nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append `data`: split into [`IO_SIZE`] chunks, stripe round-robin,
    /// execute all chunk×replica I/Os concurrently, acknowledge when every
    /// replica of every chunk has persisted. Returns the logical offset.
    pub fn append(&self, ctx: &mut SimCtx, data: &[u8]) -> Result<u64> {
        assert!(!data.is_empty(), "empty appends are not meaningful");
        // Replica-failure paths drop the guard → abandoned span.
        let sp = self.trace.span(ctx, "blobstore", "append");
        let logical_off = self.logical_len.load(Ordering::Acquire);
        let start_stripe = self.next_stripe.load(Ordering::Relaxed);
        let chunks: Vec<&[u8]> = data.chunks(IO_SIZE).collect();

        let mut new_extents = Vec::with_capacity(chunks.len());
        let mut max_done = ctx.now();
        for (i, chunk) in chunks.iter().enumerate() {
            let stripe = (start_stripe + i) % self.cfg.blobs_per_group;
            let mut chunk_ctx = ctx.fork();
            let mut blob_off = None;
            let mut acked = 0;
            let mut chunk_done = chunk_ctx.now();
            for (server, blob) in &self.stripes[stripe] {
                let mut rep_ctx = chunk_ctx.fork();
                match self.rpc.call(
                    &mut rep_ctx,
                    server.node(),
                    server.res(),
                    chunk.len() + 64,
                    16,
                    |c| server.handle_append(c, *blob, chunk),
                ) {
                    Ok(Ok(off)) => {
                        acked += 1;
                        blob_off.get_or_insert(off);
                        chunk_done = chunk_done.max(rep_ctx.now());
                    }
                    Ok(Err(e)) => return Err(e),
                    Err(_net) => {} // replica unreachable: counted below
                }
            }
            let required = self.cfg.replication;
            let Some(blob_off) = blob_off.filter(|_| acked >= required) else {
                return Err(BlobError::ReplicaFailed { acked, required });
            };
            max_done = max_done.max(chunk_done);
            new_extents.push(Extent {
                logical_off: logical_off + (i * IO_SIZE) as u64,
                stripe,
                blob_off,
                len: chunk.len(),
            });
        }
        ctx.wait_until(max_done);
        self.next_stripe.store(
            (start_stripe + chunks.len()) % self.cfg.blobs_per_group,
            Ordering::Relaxed,
        );
        self.extents.lock().extend(new_extents);
        self.logical_len
            .fetch_add(data.len() as u64, Ordering::AcqRel);
        sp.finish(ctx);
        Ok(logical_off)
    }

    /// Read `len` logical bytes at `offset`, fetching the covering chunks
    /// concurrently from one live replica each.
    pub fn read(&self, ctx: &mut SimCtx, offset: u64, len: usize) -> Result<Vec<u8>> {
        let end = offset.checked_add(len as u64);
        if end.filter(|&end| end <= self.len()).is_none() {
            return Err(BlobError::OutOfBounds {
                offset,
                len,
                blob_len: self.len() as usize,
            });
        }
        let sp = self.trace.span(ctx, "blobstore", "read");
        let extents = self.extents.lock().clone();
        let mut out = vec![0u8; len];
        let mut max_done = ctx.now();
        for e in &extents {
            let e_end = e.logical_off + e.len as u64;
            if e_end <= offset || e.logical_off >= offset + len as u64 {
                continue;
            }
            // Overlap of [offset, offset+len) with this extent.
            let lo = offset.max(e.logical_off);
            let hi = (offset + len as u64).min(e_end);
            let within = (lo - e.logical_off, (hi - lo) as usize);

            let mut chunk_ctx = ctx.fork();
            let mut data = None;
            for (server, blob) in &self.stripes[e.stripe] {
                let mut rep_ctx = chunk_ctx.fork();
                match self.rpc.call(
                    &mut rep_ctx,
                    server.node(),
                    server.res(),
                    64,
                    within.1,
                    |c| server.handle_read(c, *blob, e.blob_off + within.0, within.1),
                ) {
                    Ok(Ok(d)) => {
                        data = Some(d);
                        chunk_ctx.wait_until(rep_ctx.now());
                        break;
                    }
                    Ok(Err(e)) => return Err(e),
                    Err(_net) => continue, // try next replica
                }
            }
            let data = data.ok_or(BlobError::Network(RdmaError::Dropped))?;
            let dst = (lo - offset) as usize;
            out[dst..dst + data.len()].copy_from_slice(&data);
            max_done = max_done.max(chunk_ctx.now());
        }
        ctx.wait_until(max_done);
        sp.finish(ctx);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vedb_sim::{ClusterSpec, SimEnv, VTime};

    fn setup(replication: usize) -> (Arc<SimEnv>, Vec<Arc<BlobServer>>, Arc<RpcFabric>) {
        let env = ClusterSpec::paper_default().build();
        let servers: Vec<Arc<BlobServer>> = env
            .storage_nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                Arc::new(BlobServer::new(
                    100 + i as NodeId,
                    Arc::clone(n),
                    n.ssd.clone().unwrap(),
                    env.model.clone(),
                ))
            })
            .collect();
        let rpc = Arc::new(RpcFabric::new(env.model.clone(), Arc::clone(&env.faults)));
        let _ = replication;
        (env, servers, rpc)
    }

    fn group(
        ctx: &mut SimCtx,
        servers: &[Arc<BlobServer>],
        rpc: &Arc<RpcFabric>,
        replication: usize,
    ) -> BlobGroup {
        BlobGroup::create(
            ctx,
            BlobGroupConfig {
                replication,
                ..Default::default()
            },
            servers,
            Arc::clone(rpc),
        )
        .unwrap()
    }

    #[test]
    fn append_read_roundtrip() {
        let (_env, servers, rpc) = setup(3);
        let mut ctx = SimCtx::new(1, 7);
        let g = group(&mut ctx, &servers, &rpc, 3);
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let off = g.append(&mut ctx, &payload).unwrap();
        assert_eq!(off, 0);
        let off2 = g.append(&mut ctx, b"tail").unwrap();
        assert_eq!(off2, 20_000);
        assert_eq!(g.read(&mut ctx, 0, 20_000).unwrap(), payload);
        assert_eq!(
            g.read(&mut ctx, 19_998, 6).unwrap(),
            [payload[19_998], payload[19_999], b't', b'a', b'i', b'l']
        );
    }

    #[test]
    fn small_append_pays_fixed_io_and_lands_near_638us() {
        // Table II anchor: single-threaded 4KB append over SSD ~0.638ms.
        let (_env, servers, rpc) = setup(3);
        let mut ctx = SimCtx::new(1, 7);
        let g = group(&mut ctx, &servers, &rpc, 3);
        let n = 50;
        let t0 = ctx.now();
        for _ in 0..n {
            g.append(&mut ctx, &[7u8; 4096]).unwrap();
        }
        let avg_us = (ctx.now() - t0).as_micros_f64() / n as f64;
        assert!(
            (450.0..=850.0).contains(&avg_us),
            "4KB SSD append should average ~638us, got {avg_us:.0}us"
        );
    }

    #[test]
    fn large_append_parallelism_beats_serial_chunks() {
        let (_env, servers, rpc) = setup(3);
        let mut ctx = SimCtx::new(1, 7);
        let g = group(&mut ctx, &servers, &rpc, 3);

        let mut big = ctx.fork();
        g.append(&mut big, &vec![1u8; 32 * 1024]).unwrap();
        let parallel = big.now() - ctx.now();

        let mut serial = ctx.fork();
        let t0 = serial.now();
        for _ in 0..4 {
            g.append(&mut serial, &vec![1u8; 8 * 1024]).unwrap();
        }
        let sequential = serial.now() - t0;
        assert!(
            parallel.as_nanos() * 2 < sequential.as_nanos(),
            "striped 32KB ({parallel}) should be much faster than 4 serial 8KB appends ({sequential})"
        );
    }

    #[test]
    fn striping_round_robin_covers_all_blobs() {
        let (_env, servers, rpc) = setup(3);
        let mut ctx = SimCtx::new(1, 7);
        let g = group(&mut ctx, &servers, &rpc, 3);
        g.append(&mut ctx, &vec![0u8; 4 * 8192]).unwrap();
        let extents = g.extents.lock();
        let mut stripes: Vec<usize> = extents.iter().map(|e| e.stripe).collect();
        stripes.sort_unstable();
        assert_eq!(stripes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn replica_failure_fails_append_but_read_survives() {
        let (env, servers, rpc) = setup(3);
        let mut ctx = SimCtx::new(1, 7);
        let g = group(&mut ctx, &servers, &rpc, 3);
        g.append(&mut ctx, b"persisted before failure").unwrap();

        env.faults.crash(servers[0].node());
        // Appends need every replica.
        assert!(matches!(
            g.append(&mut ctx, b"nope"),
            Err(BlobError::ReplicaFailed {
                acked: 2,
                required: 3
            })
        ));
        // Reads fall back to a live replica.
        assert_eq!(g.read(&mut ctx, 0, 9).unwrap(), b"persisted");
        env.faults.restore(servers[0].node());
        assert!(g.append(&mut ctx, b"works again").is_ok());
    }

    #[test]
    fn read_out_of_bounds() {
        let (_env, servers, rpc) = setup(3);
        let mut ctx = SimCtx::new(1, 7);
        let g = group(&mut ctx, &servers, &rpc, 3);
        g.append(&mut ctx, b"12345678").unwrap();
        assert!(matches!(
            g.read(&mut ctx, 4, 8),
            Err(BlobError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn offset_near_u64_max_is_out_of_bounds_not_wrapped() {
        let (_env, servers, rpc) = setup(3);
        let mut ctx = SimCtx::new(1, 7);
        let g = group(&mut ctx, &servers, &rpc, 3);
        g.append(&mut ctx, b"12345678").unwrap();
        let offset = u64::MAX - 3;
        assert!(matches!(
            g.read(&mut ctx, offset, 8),
            Err(BlobError::OutOfBounds { .. })
        ));
        let blob = servers[0].handle_create();
        assert!(matches!(
            servers[0].handle_read(&mut ctx, blob, offset, 8),
            Err(BlobError::OutOfBounds { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn create_rejects_zero_replication() {
        let (_env, servers, rpc) = setup(3);
        group(&mut SimCtx::new(1, 7), &servers, &rpc, 0);
    }

    #[test]
    #[should_panic(expected = "at least one blob")]
    fn create_rejects_zero_blobs_per_group() {
        let (_env, servers, rpc) = setup(3);
        let cfg = BlobGroupConfig {
            blobs_per_group: 0,
            ..Default::default()
        };
        let _ = BlobGroup::create(&mut SimCtx::new(1, 7), cfg, &servers, rpc);
    }

    #[test]
    fn replication_one_is_supported() {
        let (_env, servers, rpc) = setup(1);
        let mut ctx = SimCtx::new(1, 7);
        let g = group(&mut ctx, &servers, &rpc, 1);
        g.append(&mut ctx, b"solo").unwrap();
        assert_eq!(g.read(&mut ctx, 0, 4).unwrap(), b"solo");
    }

    #[test]
    fn server_append_charges_ssd_time() {
        let (env, servers, rpc) = setup(3);
        let mut ctx = SimCtx::new(1, 7);
        let g = group(&mut ctx, &servers, &rpc, 3);
        let busy_before: VTime = env
            .storage_nodes
            .iter()
            .map(|n| n.ssd.as_ref().unwrap().total_busy())
            .sum();
        g.append(&mut ctx, &[1u8; 4096]).unwrap();
        let busy_after: VTime = env
            .storage_nodes
            .iter()
            .map(|n| n.ssd.as_ref().unwrap().total_busy())
            .sum();
        assert!(busy_after > busy_before);
    }
}
