//! The `Db` facade: veDB's DBEngine assembled.
//!
//! A [`Db`] wires together the catalog, buffer pool, optional Extended
//! Buffer Pool, WAL (either log backend), PageStore shipping, the lock
//! manager and the B+Trees. [`StorageFabric`] builds the storage cluster
//! (AStore servers + CM, blob servers, PageStore servers) for one
//! experiment; several `Db` configurations can be run against the same
//! fabric, which is how the benches compare "veDB" vs "veDB + AStore".
//!
//! Data-plane flow for one mutation:
//!
//! 1. row lock (S2PL) →
//! 2. B+Tree locates the page via the buffer pool (BP → EBP → PageStore) →
//! 3. the mutation is WAL-logged (this is the latency AStore attacks) and
//!    applied to the in-pool page →
//! 4. the REDO record joins the ship buffer, delivered to PageStore off the
//!    commit path →
//! 5. commit = one more WAL record, then locks release.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use vedb_astore::client::AStoreClient;
use vedb_astore::cm::ClusterManager;
use vedb_astore::{AStoreServer, Lsn, PageId, SegmentId, SegmentRing, ROUTE_REFRESH};
use vedb_blobstore::{BlobGroup, BlobGroupConfig, BlobServer};
use vedb_pagestore::page::{Page, PageType};
use vedb_pagestore::redo::{PageOp, RedoRecord};
use vedb_pagestore::{PageStore, PageStoreServer};
use vedb_rdma::{RdmaEndpoint, RpcFabric};
use vedb_sim::bytes::Reader;
use vedb_sim::fault::NodeId;
use vedb_sim::metrics::{Counter, LatencyRecorder};
use vedb_sim::trace::TraceLog;
use vedb_sim::{ClusterSpec, FxHashMap, MetricsRegistry, SimCtx, SimEnv, VTime};

use crate::btree::BTree;
use crate::buffer::{BufferPool, EvictionSink, Frame};
use crate::catalog::{Catalog, TableDef};
use crate::ebp::{Ebp, EbpConfig};
use crate::lock::{LockKey, LockManager, LockMode};
use crate::row::{decode_cols, decode_row, encode_key, encode_row, ColSet, Row, Value};
use crate::txn::{TxnHandle, TxnStatus};
use crate::wal::{
    BlobGroupLog, FlushPolicy, LogBackend, RingLog, UndoInfo, UndoOp, Wal, WalRecord,
};
use crate::{EngineError, Result};

mod pages;

/// Which log backend the engine uses — the paper's central switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogBackendKind {
    /// Baseline: SSD LogStore over TCP (BlobGroups).
    BlobStore,
    /// Accelerated: AStore SegmentRing over PMem + one-sided RDMA.
    AStore,
}

/// Engine configuration.
///
/// Construct through [`DbConfig::builder`] — the struct is
/// `#[non_exhaustive]`, so field-by-field literal construction is only
/// possible inside `vedb-core`. The builder validates the combination in
/// [`DbConfigBuilder::build`], which is where configuration mistakes
/// surface instead of deep inside `Db::open`.
#[non_exhaustive]
#[derive(Clone)]
pub struct DbConfig {
    /// Buffer pool capacity in pages.
    pub bp_pages: usize,
    /// Buffer pool shards.
    pub bp_shards: usize,
    /// Log backend.
    pub log: LogBackendKind,
    /// SegmentRing length (AStore log).
    pub ring_segments: usize,
    /// Extended Buffer Pool (None = disabled).
    pub ebp: Option<EbpConfig>,
    /// Commit-path flush policy: per-commit flushes (default) or
    /// group-commit consolidation (see [`FlushPolicy`]).
    pub flush: FlushPolicy,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            bp_pages: 256,
            bp_shards: 8,
            log: LogBackendKind::AStore,
            ring_segments: 8,
            ebp: None,
            flush: FlushPolicy::PerCommit,
        }
    }
}

impl DbConfig {
    /// Start building a configuration from the paper defaults.
    pub fn builder() -> DbConfigBuilder {
        DbConfigBuilder {
            cfg: DbConfig::default(),
        }
    }
}

/// Fluent builder for [`DbConfig`] — see [`DbConfig::builder`].
#[derive(Clone)]
pub struct DbConfigBuilder {
    cfg: DbConfig,
}

impl DbConfigBuilder {
    /// Buffer pool capacity in pages.
    pub fn bp_pages(mut self, pages: usize) -> Self {
        self.cfg.bp_pages = pages;
        self
    }

    /// Buffer pool shard count.
    pub fn bp_shards(mut self, shards: usize) -> Self {
        self.cfg.bp_shards = shards;
        self
    }

    /// Which log backend the engine writes REDO to.
    pub fn log(mut self, log: LogBackendKind) -> Self {
        self.cfg.log = log;
        self
    }

    /// Number of segments in the AStore SegmentRing.
    pub fn ring_segments(mut self, n: usize) -> Self {
        self.cfg.ring_segments = n;
        self
    }

    /// Enable the Extended Buffer Pool (accepts an `EbpConfig` or an
    /// `Option<EbpConfig>`; `None` disables it).
    pub fn ebp(mut self, ebp: impl Into<Option<EbpConfig>>) -> Self {
        self.cfg.ebp = ebp.into();
        self
    }

    /// Commit-path flush policy (per-commit or group-commit consolidation).
    pub fn flush_policy(mut self, policy: FlushPolicy) -> Self {
        self.cfg.flush = policy;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<DbConfig> {
        let c = &self.cfg;
        if c.bp_pages == 0 {
            return Err(EngineError::Config("bp_pages must be at least 1".into()));
        }
        if c.bp_shards == 0 {
            return Err(EngineError::Config("bp_shards must be at least 1".into()));
        }
        if c.bp_shards > c.bp_pages {
            return Err(EngineError::Config(format!(
                "bp_shards ({}) cannot exceed bp_pages ({})",
                c.bp_shards, c.bp_pages
            )));
        }
        if c.log == LogBackendKind::AStore && c.ring_segments < 2 {
            return Err(EngineError::Config(format!(
                "ring_segments must be at least 2, got {}",
                c.ring_segments
            )));
        }
        if let Some(ebp) = &c.ebp {
            if ebp.capacity_bytes == 0 {
                return Err(EngineError::Config(
                    "ebp capacity_bytes must be at least 1".into(),
                ));
            }
        }
        if let FlushPolicy::Group {
            max_batch_bytes,
            max_wait,
        } = c.flush
        {
            if max_batch_bytes == 0 {
                return Err(EngineError::Config(
                    "flush_policy Group max_batch_bytes must be at least 1".into(),
                ));
            }
            if max_wait == vedb_sim::VTime::ZERO {
                return Err(EngineError::Config(
                    "flush_policy Group max_wait must be non-zero".into(),
                ));
            }
        }
        Ok(self.cfg)
    }
}

/// The storage cluster for one experiment: AStore (servers + CM), the
/// baseline blob store, PageStore, and the shared fabrics.
pub struct StorageFabric {
    /// The simulated cluster resources.
    pub env: Arc<SimEnv>,
    /// AStore control plane.
    pub cm: Arc<ClusterManager>,
    /// AStore data servers.
    pub astore_servers: Vec<Arc<AStoreServer>>,
    /// Baseline blob servers (share the storage nodes with PageStore).
    pub blob_servers: Vec<Arc<BlobServer>>,
    /// PageStore facade.
    pub pagestore: Arc<PageStore>,
    /// RPC fabric.
    pub rpc: Arc<RpcFabric>,
}

impl StorageFabric {
    /// Build the full Table-I-shaped fabric for a cluster spec.
    ///
    /// `astore_slot_bytes` is the AStore segment (slot) size; rings and the
    /// EBP both allocate slots of this size.
    pub fn build(
        spec: ClusterSpec,
        astore_capacity: usize,
        astore_slot_bytes: u64,
    ) -> StorageFabric {
        let env = spec.build();
        let cm = ClusterManager::new(
            Arc::clone(&env.faults),
            VTime::from_secs(3600),
            VTime::from_secs(60),
            Arc::clone(&env.metrics),
        );
        let astore_servers: Vec<Arc<AStoreServer>> = env
            .astore_nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                AStoreServer::new(
                    i as NodeId,
                    Arc::clone(n),
                    astore_capacity,
                    astore_slot_bytes,
                    env.model.clone(),
                )
            })
            .collect();
        for s in &astore_servers {
            cm.register_server(Arc::clone(s));
            cm.heartbeat(VTime::ZERO, s.node(), s.free_slots());
        }
        let blob_servers: Vec<Arc<BlobServer>> = env
            .storage_nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                Arc::new(BlobServer::new(
                    100 + i as NodeId,
                    Arc::clone(n),
                    env.model.clone(),
                ))
            })
            .collect();
        let rpc = Arc::new(RpcFabric::with_metrics(
            env.model.clone(),
            Arc::clone(&env.faults),
            &env.metrics,
        ));
        let ps_servers: Vec<Arc<PageStoreServer>> = env
            .storage_nodes
            .iter()
            .enumerate()
            .map(|(i, n)| PageStoreServer::new(200 + i as NodeId, Arc::clone(n), env.model.clone()))
            .collect();
        let pagestore = PageStore::new(Arc::clone(&rpc), ps_servers);
        StorageFabric {
            env,
            cm,
            astore_servers,
            blob_servers,
            pagestore,
            rpc,
        }
    }
}

/// Persistent engine metadata, mirrored in the meta page (space 0, page 1).
#[derive(Default, Clone, Debug, PartialEq, Eq)]
struct MetaState {
    /// Next page number per space (1-based; 0 means none allocated).
    /// Ordered, as `roots` is: the meta page's bytes are these maps in order.
    next_page: BTreeMap<u32, u32>,
    /// Index roots: space -> (root page, level).
    roots: BTreeMap<u32, (u32, u8)>,
}

/// Checkpoint (ship + truncate the log) automatically once this many log
/// bytes have accumulated since the last truncation. veDB's storage layer
/// applies REDO continuously, so the log's working window stays small
/// (§IV: "the capacity reserved for REDO logs in AStore for each database
/// instance is ... limited to GB level").
const AUTO_CHECKPOINT_BYTES: u64 = 2 << 20;

/// The meta page's identity.
pub const META_PAGE: PageId = PageId {
    space_no: 0,
    page_no: 1,
};

fn encode_meta(m: &MetaState) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + m.next_page.len() * 8 + m.roots.len() * 9);
    out.extend_from_slice(&(m.next_page.len() as u32).to_le_bytes());
    for (s, n) in &m.next_page {
        out.extend_from_slice(&s.to_le_bytes());
        out.extend_from_slice(&n.to_le_bytes());
    }
    out.extend_from_slice(&(m.roots.len() as u32).to_le_bytes());
    for (s, (r, l)) in &m.roots {
        out.extend_from_slice(&s.to_le_bytes());
        out.extend_from_slice(&r.to_le_bytes());
        out.push(*l);
    }
    out
}

/// Inverse of [`encode_meta`]. Meta pages come off the wire / storage and
/// may be damaged: truncation is a codec error, not a panic.
fn decode_meta(buf: &[u8]) -> Result<MetaState> {
    let mut r = Reader::new(buf, "meta");
    let mut m = MetaState::default();
    for _ in 0..r.u32()? {
        let s = r.u32()?;
        m.next_page.insert(s, r.u32()?);
    }
    for _ in 0..r.u32()? {
        let s = r.u32()?;
        let root = r.u32()?;
        m.roots.insert(s, (root, r.u8()?));
    }
    Ok(m)
}

/// Engine-level transaction counters + trace handle (component `core`).
struct DbStats {
    commits: Arc<Counter>,
    aborts: Arc<Counter>,
    /// Evicted pages the EBP failed to take (AStore out of slots, lost
    /// server): the page is still in PageStore, only the cache missed it.
    ebp_write_errors: Arc<Counter>,
    /// Evicted pages never offered to the EBP: the meta page, or a page
    /// whose log could not be forced first (WAL rule).
    ebp_skips: Arc<Counter>,
    commit_lat: Arc<LatencyRecorder>,
    trace: Arc<TraceLog>,
}

impl DbStats {
    fn register(registry: &MetricsRegistry) -> Self {
        DbStats {
            commits: registry.counter("core", "txn_commits"),
            aborts: registry.counter("core", "txn_aborts"),
            ebp_write_errors: registry.counter("core", "ebp_write_errors"),
            ebp_skips: registry.counter("core", "ebp_skips"),
            commit_lat: registry.latency("core", "txn_commit"),
            trace: Arc::clone(registry.trace()),
        }
    }
}

/// The engine's AStore client: a fresh lease for this incarnation
/// (`ctx.client_id`; a recovering engine thereby fences the dead one),
/// one-sided access through the engine NIC, and the [`ROUTE_REFRESH`]
/// period. Fresh open and crash recovery both connect through here.
pub(crate) fn connect_astore(ctx: &mut SimCtx, fabric: &StorageFabric) -> Arc<AStoreClient> {
    let ep = RdmaEndpoint::with_metrics(
        fabric.env.model.clone(),
        Arc::clone(&fabric.env.faults),
        Arc::clone(&fabric.env.engine_nic),
        &fabric.env.metrics,
    );
    AStoreClient::connect(
        ctx,
        Arc::clone(&fabric.cm),
        ep,
        Arc::clone(&fabric.env.engine_cpu),
        fabric.env.model.clone(),
        ctx.client_id,
        ROUTE_REFRESH,
    )
}

/// The engine.
pub struct Db {
    cfg: DbConfig,
    catalog: RwLock<Catalog>,
    bp: BufferPool,
    ebp: Option<Ebp>,
    wal: Wal,
    pagestore: Arc<PageStore>,
    locks: LockManager,
    astore_client: Option<Arc<AStoreClient>>,
    meta: Mutex<MetaState>,
    page_lsns: Mutex<FxHashMap<PageId, Lsn>>,
    ship_buf: Mutex<Vec<RedoRecord>>,
    /// Serializes drain-and-ship so concurrent committers cannot hand
    /// batches to PageStore in inverted LSN order (see `flush_ship`).
    ship_order: Mutex<()>,
    shipped_lsn: AtomicU64,
    next_txn: AtomicU64,
    space_latches: Mutex<FxHashMap<u32, Arc<RwLock<()>>>>,
    env: Arc<SimEnv>,
    log_segments: Vec<SegmentId>,
    rpc: Arc<RpcFabric>,
    last_truncate: AtomicU64,
    checkpoint_lock: Mutex<()>,
    stats: DbStats,
}

impl Db {
    /// Open a fresh engine against `fabric` and bootstrap the meta page.
    pub fn open(ctx: &mut SimCtx, fabric: &StorageFabric, cfg: DbConfig) -> Result<Arc<Db>> {
        let needs_astore = cfg.log == LogBackendKind::AStore || cfg.ebp.is_some();
        let astore_client = needs_astore.then(|| connect_astore(ctx, fabric));
        let mut log_segments = Vec::new();
        let backend: Box<dyn LogBackend> = match cfg.log {
            LogBackendKind::AStore => {
                let client = Arc::clone(astore_client.as_ref().ok_or_else(|| {
                    EngineError::Config("AStore log backend requires an AStore fabric".into())
                })?);
                let ring = SegmentRing::create(ctx, client, cfg.ring_segments)?;
                log_segments = ring.segment_ids();
                Box::new(RingLog::new(ring))
            }
            LogBackendKind::BlobStore => {
                let group = BlobGroup::create(
                    ctx,
                    BlobGroupConfig::default(),
                    &fabric.blob_servers,
                    Arc::clone(&fabric.rpc),
                )?;
                Box::new(BlobGroupLog::new(
                    group,
                    Arc::clone(&fabric.env.engine_cpu),
                    fabric.env.model.clone(),
                ))
            }
        };
        let ebp = match cfg.ebp.as_ref() {
            Some(ecfg) => Some(Ebp::new(
                Arc::clone(astore_client.as_ref().ok_or_else(|| {
                    EngineError::Config("the EBP requires an AStore fabric".into())
                })?),
                ecfg.clone(),
            )),
            None => None,
        };
        let flush_policy = cfg.flush;
        let db = Db::assemble(
            fabric,
            cfg,
            Wal::with_metrics(backend, flush_policy, &fabric.env.metrics),
            astore_client,
            ebp,
            log_segments,
        );
        db.bootstrap_meta(ctx)?;
        db.wal.force(ctx, db.wal.next_lsn())?;
        Ok(db)
    }

    /// Assemble an engine around pre-built parts (fresh open and crash
    /// recovery share this).
    pub(crate) fn assemble(
        fabric: &StorageFabric,
        cfg: DbConfig,
        wal: Wal,
        astore_client: Option<Arc<AStoreClient>>,
        ebp: Option<Ebp>,
        log_segments: Vec<SegmentId>,
    ) -> Arc<Db> {
        Arc::new(Db {
            bp: BufferPool::with_metrics(
                cfg.bp_pages,
                cfg.bp_shards,
                Arc::clone(&fabric.env.engine_cpu),
                fabric.env.model.clone(),
                &fabric.env.metrics,
            ),
            ebp,
            wal,
            pagestore: Arc::clone(&fabric.pagestore),
            locks: LockManager::new(&fabric.env.metrics),
            stats: DbStats::register(&fabric.env.metrics),
            astore_client,
            catalog: RwLock::new(Catalog::new()),
            meta: Mutex::new(MetaState::default()),
            page_lsns: Mutex::new(FxHashMap::default()),
            ship_buf: Mutex::new(Vec::new()),
            ship_order: Mutex::new(()),
            shipped_lsn: AtomicU64::new(0),
            next_txn: AtomicU64::new(1),
            space_latches: Mutex::new(FxHashMap::default()),
            env: Arc::clone(&fabric.env),
            log_segments,
            rpc: Arc::clone(&fabric.rpc),
            last_truncate: AtomicU64::new(0),
            checkpoint_lock: Mutex::new(()),
            cfg,
        })
    }

    fn bootstrap_meta(&self, ctx: &mut SimCtx) -> Result<()> {
        let frame = self.new_frame(ctx, META_PAGE);
        let mut page = frame.page.write();
        self.log_and_apply(
            ctx,
            0,
            META_PAGE,
            PageOp::Format {
                ty: PageType::BTreeLeaf,
                level: 0,
            },
            None,
            &mut page,
        )?;
        let blob = encode_meta(&self.meta.lock());
        self.log_and_apply(
            ctx,
            0,
            META_PAGE,
            PageOp::InsertAt {
                slot: 0,
                cell: blob,
            },
            None,
            &mut page,
        )?;
        frame.mark_dirty();
        Ok(())
    }

    /// The engine configuration.
    pub fn config(&self) -> &DbConfig {
        &self.cfg
    }

    /// The simulated environment (resource/utilization inspection).
    pub fn env(&self) -> &Arc<SimEnv> {
        &self.env
    }

    /// The deployment-wide metrics registry every subsystem publishes into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.env.metrics
    }

    /// The buffer pool (hit-rate stats in benches).
    pub fn buffer_pool(&self) -> &BufferPool {
        &self.bp
    }

    /// The EBP, when enabled.
    pub fn ebp(&self) -> Option<&Ebp> {
        self.ebp.as_ref()
    }

    /// The PageStore facade.
    pub fn pagestore(&self) -> &Arc<PageStore> {
        &self.pagestore
    }

    /// The AStore client, when the configuration uses AStore.
    pub fn astore_client(&self) -> Option<&Arc<AStoreClient>> {
        self.astore_client.as_ref()
    }

    /// SegmentRing segment ids — the engine's bootstrap catalog persists
    /// these so a restarted instance can recover the ring (§V-A). Empty on
    /// the baseline backend.
    pub fn log_segment_ids(&self) -> Vec<SegmentId> {
        self.log_segments.clone()
    }

    /// Register schema objects. Call before any data access. Table and
    /// secondary-index spaces are labelled in the lock-contention profile
    /// (`orders`, `orders.by_customer`, …) so the top-K contended-lock
    /// table in run reports names schema objects, not space numbers.
    pub fn define_schema(&self, f: impl FnOnce(&mut Catalog)) {
        let mut cat = self.catalog.write();
        f(&mut cat);
        for t in cat.tables() {
            self.locks.set_space_label(t.space_no, t.name.clone());
            for ix in &t.secondary {
                self.locks
                    .set_space_label(ix.space_no, format!("{}.{}", t.name, ix.name));
            }
        }
    }

    /// Create the B+Trees for every registered table (idempotent).
    pub fn create_tables(&self, ctx: &mut SimCtx) -> Result<()> {
        let spaces: Vec<u32> = {
            let cat = self.catalog.read();
            cat.tables()
                .iter()
                .flat_map(|t| {
                    std::iter::once(t.space_no).chain(t.secondary.iter().map(|ix| ix.space_no))
                })
                .collect()
        };
        for space in spaces {
            BTree::new(space).create(ctx, self, 0)?;
        }
        self.wal.force(ctx, self.wal.next_lsn())?;
        self.flush_ship(ctx, false);
        Ok(())
    }

    /// Run `f` with the table definition for `name`.
    pub fn with_table<R>(&self, name: &str, f: impl FnOnce(&TableDef) -> R) -> Result<R> {
        let cat = self.catalog.read();
        Ok(f(cat.table(name)?))
    }

    /// Begin a transaction.
    pub fn begin(&self) -> TxnHandle {
        TxnHandle::new(self.next_txn.fetch_add(1, Ordering::Relaxed))
    }

    fn pk_key(table: &TableDef, row: &Row) -> Vec<u8> {
        let vals: Vec<Value> = table.pk_cols.iter().map(|i| row[*i].clone()).collect();
        encode_key(&vals)
    }

    fn sec_key(table: &TableDef, ix: &crate::catalog::IndexDef, row: &Row) -> Vec<u8> {
        let vals: Vec<Value> = ix
            .key_cols
            .iter()
            .chain(&table.pk_cols)
            .map(|i| row[*i].clone())
            .collect();
        encode_key(&vals)
    }

    /// Insert a row.
    pub fn insert(
        &self,
        ctx: &mut SimCtx,
        txn: &mut TxnHandle,
        table: &str,
        row: Row,
    ) -> Result<()> {
        if !txn.is_active() {
            return Err(EngineError::TxnFinished);
        }
        // Error paths drop the guard → the span records as abandoned.
        let sp = self.stats.trace.span(ctx, "core", "insert");
        let t = Arc::clone(self.catalog.read().table(table)?);
        let lk = (t.space_no, Self::pk_key(&t, &row));
        self.lock_row(ctx, txn, &lk, LockMode::Exclusive)?;
        let key = lk.1;
        let mut payload = Vec::with_capacity(64);
        encode_row(&row, &mut payload);
        let undo = UndoInfo {
            index_space: t.space_no,
            op: UndoOp::Remove { key: key.clone() },
        };
        BTree::new(t.space_no)
            .insert(ctx, self, txn.id, &key, &payload, Some(&undo))
            .map_err(|e| match e {
                EngineError::DuplicateKey { .. } => EngineError::DuplicateKey {
                    table: t.name.clone(),
                },
                e => e,
            })?;
        txn.undo.push(undo);
        for ix in &t.secondary {
            let skey = Self::sec_key(&t, ix, &row);
            let undo = UndoInfo {
                index_space: ix.space_no,
                op: UndoOp::Remove { key: skey.clone() },
            };
            BTree::new(ix.space_no).insert(ctx, self, txn.id, &skey, &key, Some(&undo))?;
            txn.undo.push(undo);
        }
        sp.finish(ctx);
        Ok(())
    }

    /// Point read by primary key. With a transaction, takes a shared row
    /// lock; without, reads at read-committed (page latch only).
    pub fn get_by_pk(
        &self,
        ctx: &mut SimCtx,
        txn: Option<&mut TxnHandle>,
        table: &str,
        key_vals: &[Value],
    ) -> Result<Option<Row>> {
        let sp = self.stats.trace.span(ctx, "core", "get");
        let t = Arc::clone(self.catalog.read().table(table)?);
        let lk = (t.space_no, encode_key(key_vals));
        if let Some(txn) = txn {
            self.lock_row(ctx, txn, &lk, LockMode::Shared)?;
        }
        let key = lk.1;
        let row = match BTree::new(t.space_no).get(ctx, self, &key)? {
            Some(payload) => Some(decode_row(&payload)?),
            None => None,
        };
        sp.finish(ctx);
        Ok(row)
    }

    /// Update a row by primary key through a mutator closure.
    pub fn update_by_pk(
        &self,
        ctx: &mut SimCtx,
        txn: &mut TxnHandle,
        table: &str,
        key_vals: &[Value],
        mutate: impl FnOnce(&mut Row),
    ) -> Result<()> {
        if !txn.is_active() {
            return Err(EngineError::TxnFinished);
        }
        let sp = self.stats.trace.span(ctx, "core", "update");
        let t = Arc::clone(self.catalog.read().table(table)?);
        let lk = (t.space_no, encode_key(key_vals));
        self.lock_row(ctx, txn, &lk, LockMode::Exclusive)?;
        let key = lk.1;
        let tree = BTree::new(t.space_no);
        let old_payload = tree.get(ctx, self, &key)?.ok_or(EngineError::NotFound)?;
        let old_row = decode_row(&old_payload)?;
        let mut new_row = old_row.clone();
        mutate(&mut new_row);
        let mut new_payload = Vec::with_capacity(old_payload.len());
        encode_row(&new_row, &mut new_payload);
        let undo = UndoInfo {
            index_space: t.space_no,
            op: UndoOp::Revert {
                key: key.clone(),
                old_cell: old_payload.clone(),
            },
        };
        tree.update(ctx, self, txn.id, &key, &new_payload, Some(&undo))?;
        txn.undo.push(undo);
        // Maintain secondary indexes whose keys changed.
        for ix in &t.secondary {
            let old_k = Self::sec_key(&t, ix, &old_row);
            let new_k = Self::sec_key(&t, ix, &new_row);
            if old_k != new_k {
                let u1 = UndoInfo {
                    index_space: ix.space_no,
                    op: UndoOp::ReInsert {
                        key: old_k.clone(),
                        old_cell: key.clone(),
                    },
                };
                BTree::new(ix.space_no).delete(ctx, self, txn.id, &old_k, Some(&u1))?;
                txn.undo.push(u1);
                let u2 = UndoInfo {
                    index_space: ix.space_no,
                    op: UndoOp::Remove { key: new_k.clone() },
                };
                BTree::new(ix.space_no).insert(ctx, self, txn.id, &new_k, &key, Some(&u2))?;
                txn.undo.push(u2);
            }
        }
        sp.finish(ctx);
        Ok(())
    }

    /// Delete a row by primary key.
    pub fn delete_by_pk(
        &self,
        ctx: &mut SimCtx,
        txn: &mut TxnHandle,
        table: &str,
        key_vals: &[Value],
    ) -> Result<()> {
        if !txn.is_active() {
            return Err(EngineError::TxnFinished);
        }
        let sp = self.stats.trace.span(ctx, "core", "delete");
        let t = Arc::clone(self.catalog.read().table(table)?);
        let lk = (t.space_no, encode_key(key_vals));
        self.lock_row(ctx, txn, &lk, LockMode::Exclusive)?;
        let key = lk.1;
        let tree = BTree::new(t.space_no);
        let old_payload = tree.get(ctx, self, &key)?.ok_or(EngineError::NotFound)?;
        let old_row = decode_row(&old_payload)?;
        let undo = UndoInfo {
            index_space: t.space_no,
            op: UndoOp::ReInsert {
                key: key.clone(),
                old_cell: old_payload.clone(),
            },
        };
        tree.delete(ctx, self, txn.id, &key, Some(&undo))?;
        txn.undo.push(undo);
        for ix in &t.secondary {
            let skey = Self::sec_key(&t, ix, &old_row);
            let u = UndoInfo {
                index_space: ix.space_no,
                op: UndoOp::ReInsert {
                    key: skey.clone(),
                    old_cell: key.clone(),
                },
            };
            BTree::new(ix.space_no).delete(ctx, self, txn.id, &skey, Some(&u))?;
            txn.undo.push(u);
        }
        sp.finish(ctx);
        Ok(())
    }

    /// Look up rows through a secondary index by key prefix.
    pub fn index_lookup(
        &self,
        ctx: &mut SimCtx,
        table: &str,
        index: &str,
        prefix_vals: &[Value],
        limit: usize,
    ) -> Result<Vec<Row>> {
        let sp = self.stats.trace.span(ctx, "core", "index_lookup");
        let t = Arc::clone(self.catalog.read().table(table)?);
        let ix = t
            .secondary
            .iter()
            .find(|ix| ix.name == index)
            .ok_or_else(|| EngineError::UnknownTable(format!("{table}.{index}")))?;
        let prefix = encode_key(prefix_vals);
        let mut pks: Vec<Vec<u8>> = Vec::new();
        BTree::new(ix.space_no).scan(ctx, self, Some(&prefix), None, |k, v| {
            if !k.starts_with(&prefix) {
                return false;
            }
            pks.push(v.to_vec());
            pks.len() < limit
        })?;
        let tree = BTree::new(t.space_no);
        let mut rows = Vec::with_capacity(pks.len());
        for pk in pks {
            if let Some(payload) = tree.get(ctx, self, &pk)? {
                rows.push(decode_row(&payload)?);
            }
        }
        sp.finish(ctx);
        Ok(rows)
    }

    /// Full-table scan (read-committed), invoking `f` per row; stop early
    /// when `f` returns `false`.
    pub fn scan_table(
        &self,
        ctx: &mut SimCtx,
        table: &str,
        f: impl FnMut(&Row) -> bool,
    ) -> Result<()> {
        self.scan_table_cols(ctx, table, &ColSet::all(), f)
    }

    /// [`scan_table`](Db::scan_table) for a reader of the columns in `need`
    /// only: the others are placeholder NULLs (see [`decode_cols`]). The row
    /// handed to `f` is one buffer, overwritten by the next.
    pub(crate) fn scan_table_cols(
        &self,
        ctx: &mut SimCtx,
        table: &str,
        need: &ColSet,
        mut f: impl FnMut(&Row) -> bool,
    ) -> Result<()> {
        let t = Arc::clone(self.catalog.read().table(table)?);
        let (mut row, mut err) = (Row::new(), None);
        BTree::new(t.space_no).scan(ctx, self, None, None, |_k, v| {
            match decode_cols(v, need, &mut row) {
                Ok(()) => f(&row),
                Err(e) => {
                    err = Some(e);
                    false
                }
            }
        })?;
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Lock `lk` for `txn`; the transaction's list takes a copy of the key
    /// the first time it holds it.
    fn lock_row(
        &self,
        ctx: &mut SimCtx,
        txn: &mut TxnHandle,
        lk: &LockKey,
        mode: LockMode,
    ) -> Result<()> {
        if !self.locks.acquire(ctx, txn.id, lk, mode)? {
            txn.locks.push(lk.clone());
        }
        Ok(())
    }

    /// Commit: persist the commit record (the commit latency), release
    /// locks, ship REDO off the critical path.
    pub fn commit(&self, ctx: &mut SimCtx, txn: &mut TxnHandle) -> Result<()> {
        if !txn.is_active() {
            return Err(EngineError::TxnFinished);
        }
        let t0 = ctx.now();
        let sp = self.stats.trace.span(ctx, "core", "commit");
        let done = self.env.engine_cpu.acquire(
            ctx.now(),
            VTime::from_nanos(self.env.model.cpu_txn_overhead_ns),
        );
        ctx.wait_until(done);
        let commit_lsn = self.wal.log(ctx, &WalRecord::Commit { txn_id: txn.id })?;
        // The commit latency: flush the global log buffer (group commit).
        self.wal.flush(ctx, commit_lsn)?;
        self.flush_ship(ctx, false);
        self.maybe_auto_checkpoint(ctx)?;
        self.locks.release_all(ctx.now(), txn.id, &txn.locks);
        txn.locks.clear();
        txn.undo.clear();
        txn.status = TxnStatus::Committed;
        self.stats.commits.inc();
        self.stats.commit_lat.record(ctx.now() - t0);
        sp.finish(ctx);
        Ok(())
    }

    /// Abort: apply logical undo in reverse, log the abort, release locks.
    pub fn abort(&self, ctx: &mut SimCtx, txn: &mut TxnHandle) -> Result<()> {
        if !txn.is_active() {
            return Err(EngineError::TxnFinished);
        }
        let sp = self.stats.trace.span(ctx, "core", "abort");
        let undo: Vec<UndoInfo> = txn.undo.drain(..).collect();
        for u in undo.iter().rev() {
            self.apply_undo(ctx, txn.id, u)?;
        }
        self.wal.log(ctx, &WalRecord::Abort { txn_id: txn.id })?;
        self.flush_ship(ctx, false);
        self.locks.release_all(ctx.now(), txn.id, &txn.locks);
        txn.locks.clear();
        txn.status = TxnStatus::Aborted;
        self.stats.aborts.inc();
        sp.finish(ctx);
        Ok(())
    }

    /// Apply one logical undo operation (abort and crash recovery paths).
    /// Idempotent: a missing key on Remove, or an existing key on
    /// ReInsert, are tolerated (the compensation may already be in place).
    pub(crate) fn apply_undo(&self, ctx: &mut SimCtx, txn_id: u64, u: &UndoInfo) -> Result<()> {
        let tree = BTree::new(u.index_space);
        match &u.op {
            UndoOp::Remove { key } => match tree.delete(ctx, self, txn_id, key, None) {
                Ok(()) | Err(EngineError::NotFound) => Ok(()),
                Err(e) => Err(e),
            },
            UndoOp::Revert { key, old_cell } => {
                match tree.update(ctx, self, txn_id, key, old_cell, None) {
                    Ok(()) => Ok(()),
                    Err(EngineError::NotFound) => {
                        tree.insert(ctx, self, txn_id, key, old_cell, None)
                    }
                    Err(e) => Err(e),
                }
            }
            UndoOp::ReInsert { key, old_cell } => {
                match tree.insert(ctx, self, txn_id, key, old_cell, None) {
                    Ok(()) => Ok(()),
                    Err(EngineError::DuplicateKey { .. }) => Ok(()),
                    Err(e) => Err(e),
                }
            }
        }
    }

    /// Ship buffered REDO to PageStore. With `sync == false` the transfer
    /// happens in a forked context (off the caller's critical path) —
    /// matching veDB's asynchronous REDO shipping; `sync == true` blocks
    /// (checkpoint / pre-read barrier).
    pub fn flush_ship(&self, ctx: &mut SimCtx, sync: bool) {
        // Only durable (flushed) records may reach PageStore — otherwise a
        // crash could leave PageStore with effects whose log was lost.
        let durable = self.wal.flushed_lsn();
        // Drain and ship under one lock: if two committers drained
        // concurrently and raced to `ship()`, the later-LSN batch could
        // reach the PageStore facade first; replicas would then drop the
        // earlier batch as a back-link duplicate and serve stale page
        // images (the `slot out of range` flake, ROADMAP item 6).
        let _order = self.ship_order.lock();
        let records: Vec<RedoRecord> = {
            let mut buf = self.ship_buf.lock();
            if buf.is_empty() {
                return;
            }
            let mut records = std::mem::take(&mut *buf);
            records.sort_by_key(|r| r.lsn);
            // The not-yet-durable tail stays buffered.
            *buf = records.split_off(records.partition_point(|r| r.lsn < durable));
            records
        };
        if records.is_empty() {
            return;
        }
        let max_lsn = records.last().map(|r| r.lsn).unwrap_or(0);
        // Always executed in a forked context: shipping consumes storage
        // resources but is off the commit critical path (§III); `sync`
        // callers additionally wait for completion.
        let mut ship_ctx = ctx.fork();
        if self.pagestore.ship(&mut ship_ctx, &records).is_ok() {
            self.shipped_lsn.fetch_max(max_lsn, Ordering::AcqRel);
        } else {
            // Quorum failure: the batch must go back in the buffer. Losing
            // it here would leave PageStore permanently unable to replay
            // these LSNs (every later read of the touched pages would fail
            // `NotYetApplied` forever).
            self.ship_buf.lock().extend(records);
        }
        if sync {
            ctx.wait_until(ship_ctx.now());
        }
    }

    /// Checkpoint: ship everything, then let the log reclaim space below
    /// the shipped LSN — bounded by PageStore's durable truncation
    /// watermark, so WAL records a degraded replica quorum has not yet
    /// secured stay re-shippable (the watermark RPC runs on a forked
    /// clock: a slow storage node must not stall the commit path).
    pub fn checkpoint(&self, ctx: &mut SimCtx) -> Result<()> {
        let _g = self.checkpoint_lock.lock();
        self.wal.force(ctx, self.wal.next_lsn())?;
        self.flush_ship(ctx, true);
        let shipped = self.shipped_lsn.load(Ordering::Acquire);
        let mut bg = ctx.fork();
        let wm = self.pagestore.truncation_watermark(&mut bg);
        let upto = shipped.min(wm);
        self.wal.truncate(ctx, upto)?;
        self.last_truncate.fetch_max(upto, Ordering::AcqRel);
        Ok(())
    }

    /// Highest LSN shipped (and quorum-acked) to PageStore.
    pub fn shipped_lsn(&self) -> Lsn {
        self.shipped_lsn.load(Ordering::Acquire)
    }

    /// Checkpoint when the log's working window exceeds the configured
    /// budget (invoked on the commit path; cheap when nothing to do).
    fn maybe_auto_checkpoint(&self, ctx: &mut SimCtx) -> Result<()> {
        let used = self
            .wal
            .next_lsn()
            .saturating_sub(self.last_truncate.load(Ordering::Acquire));
        if used > AUTO_CHECKPOINT_BYTES {
            self.checkpoint(ctx)?;
        }
        Ok(())
    }

    /// Known latest LSN of a page (0 when never touched by this engine).
    pub fn page_lsn(&self, pid: PageId) -> Lsn {
        *self.page_lsns.lock().get(&pid).unwrap_or(&0)
    }

    /// The shared RPC fabric (push-down task dispatch).
    pub fn rpc(&self) -> &Arc<RpcFabric> {
        &self.rpc
    }

    /// The WAL (recovery and tests).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Recovery-only: queue a REDO record read back from the log for
    /// re-shipping to PageStore.
    pub(crate) fn enqueue_redo_for_recovery(&self, redo: RedoRecord) {
        self.ship_buf.lock().push(redo);
    }

    /// Recovery-only: replace the in-memory meta state by a decoded meta
    /// page blob.
    pub(crate) fn install_meta(&self, blob: &[u8]) -> Result<()> {
        *self.meta.lock() = decode_meta(blob)?;
        Ok(())
    }

    pub(crate) fn install_page_lsns(&self, lsns: FxHashMap<PageId, Lsn>) {
        *self.page_lsns.lock() = lsns;
    }

    /// Allocated page count of a space (push-down page enumeration, scan
    /// read-ahead bound).
    pub fn space_pages(&self, space: u32) -> u32 {
        self.meta.lock().next_page.get(&space).copied().unwrap_or(0)
    }

    fn persist_meta(&self, ctx: &mut SimCtx, txn: u64) -> Result<()> {
        let blob = encode_meta(&self.meta.lock());
        let frame = self.get_frame(ctx, META_PAGE)?;
        let mut page = frame.page.write();
        self.log_and_apply(
            ctx,
            txn,
            META_PAGE,
            PageOp::Update {
                slot: 0,
                cell: blob,
            },
            None,
            &mut page,
        )?;
        frame.mark_dirty();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{decode_wal_record, encode_wal_record};

    /// `decode(whole)` gives `want`, and every strict prefix of `whole` is a
    /// codec error, never a panic.
    fn check_prefixes<T: PartialEq + std::fmt::Debug>(
        whole: &[u8],
        want: &T,
        decode: impl Fn(&[u8]) -> Result<T>,
    ) {
        assert_eq!(&decode(whole).unwrap(), want);
        for cut in 0..whole.len() {
            let got = decode(&whole[..cut]);
            assert!(matches!(got, Err(EngineError::Codec(_))), "{cut}: {got:?}");
        }
    }

    /// What the engine reads back after a crash — WAL records and the meta
    /// page — may be torn anywhere.
    #[test]
    fn every_prefix_of_a_wal_record_or_the_meta_blob_is_a_codec_error() {
        let redo = RedoRecord {
            lsn: 5,
            prev_same_segment: 2,
            txn_id: 1,
            page: PageId::new(1, 2),
            op: PageOp::InsertAt {
                slot: 3,
                cell: b"cell".to_vec(),
            },
        };
        let undo = UndoInfo {
            index_space: 1,
            op: UndoOp::Revert {
                key: b"k1".to_vec(),
                old_cell: b"old".to_vec(),
            },
        };
        for rec in [
            WalRecord::Page {
                redo: redo.clone(),
                undo: Some(undo),
            },
            WalRecord::Page { redo, undo: None },
            WalRecord::Commit { txn_id: 99 },
            WalRecord::Abort { txn_id: 100 },
        ] {
            let mut buf = Vec::new();
            encode_wal_record(&rec, &mut buf);
            check_prefixes(&buf, &rec, decode_wal_record);
        }
        let meta = MetaState {
            next_page: BTreeMap::from([(0, 2), (7, 40)]),
            roots: BTreeMap::from([(7, (3, 1)), (8, (9, 0))]),
        };
        check_prefixes(&encode_meta(&meta), &meta, decode_meta);
    }
}
