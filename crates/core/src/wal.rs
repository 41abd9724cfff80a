//! Write-ahead logging: record format, framing, and the two log backends.
//!
//! Every mutation writes a [`WalRecord`] before the page change is
//! considered done (WAL rule), and a transaction commits by persisting a
//! `Commit` record (§III: "After the REDO log is written to the LogStore
//! ... the transaction processing thread is notified"). Page records carry
//! both the REDO half (a [`RedoRecord`], shipped to PageStore) and a
//! *logical* undo half (applied through the B+Tree during rollback and
//! crash recovery — logical, because physical slot indexes shift under
//! concurrent activity).
//!
//! The engine is generic over [`LogBackend`]:
//!
//! * [`BlobGroupLog`] — baseline LogStore: SSD blob storage over TCP,
//! * [`RingLog`] — AStore SegmentRing: PMem over one-sided RDMA.
//!
//! Swapping these two (same engine, same workload) *is* the paper's
//! with/without-AStore comparison.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use vedb_astore::{Lsn, SegmentRing};
use vedb_blobstore::BlobGroup;
use vedb_pagestore::redo::{decode_record, encode_record, RedoRecord};
use vedb_sim::bytes::Reader;
use vedb_sim::metrics::{Counter, LatencyRecorder};
use vedb_sim::trace::TraceLog;
use vedb_sim::{LatencyModel, MetricsRegistry, Resource, SimCtx, VTime, Waker};

use crate::{EngineError, Result};

/// Logical undo information for one page mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UndoOp {
    /// Undo an insert: remove `key` from the index.
    Remove {
        /// Encoded key.
        key: Vec<u8>,
    },
    /// Undo an update: restore the old cell for `key`.
    Revert {
        /// Encoded key.
        key: Vec<u8>,
        /// Previous cell bytes.
        old_cell: Vec<u8>,
    },
    /// Undo a delete: re-insert the old cell.
    ReInsert {
        /// Encoded key.
        key: Vec<u8>,
        /// Deleted cell bytes.
        old_cell: Vec<u8>,
    },
}

/// Undo target: which index tree the logical operation applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UndoInfo {
    /// Tablespace of the index to patch.
    pub index_space: u32,
    /// The inverse operation.
    pub op: UndoOp,
}

/// One log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A page mutation: REDO for PageStore + optional logical undo.
    Page {
        /// The REDO half.
        redo: RedoRecord,
        /// The logical undo half (absent for structural/meta operations,
        /// which never need undoing — they are redo-only reorganizations).
        undo: Option<UndoInfo>,
    },
    /// Transaction commit marker.
    Commit {
        /// Committing transaction.
        txn_id: u64,
    },
    /// Transaction abort marker (undo already applied).
    Abort {
        /// Aborted transaction.
        txn_id: u64,
    },
}

fn encode_undo(undo: &UndoInfo, out: &mut Vec<u8>) {
    out.extend_from_slice(&undo.index_space.to_le_bytes());
    let (tag, key, cell): (u8, &[u8], &[u8]) = match &undo.op {
        UndoOp::Remove { key } => (0, key, &[]),
        UndoOp::Revert { key, old_cell } => (1, key, old_cell),
        UndoOp::ReInsert { key, old_cell } => (2, key, old_cell),
    };
    out.push(tag);
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(&(cell.len() as u32).to_le_bytes());
    out.extend_from_slice(cell);
}

fn decode_undo(r: &mut Reader<'_>) -> Result<UndoInfo> {
    let index_space = r.u32()?;
    let tag = r.u8()?;
    let klen = r.u32()? as usize;
    let key = r.take(klen)?.to_vec();
    let clen = r.u32()? as usize;
    let cell = r.take(clen)?.to_vec();
    let op = match tag {
        0 => UndoOp::Remove { key },
        1 => UndoOp::Revert {
            key,
            old_cell: cell,
        },
        2 => UndoOp::ReInsert {
            key,
            old_cell: cell,
        },
        t => return Err(EngineError::Codec(format!("bad undo tag {t}"))),
    };
    Ok(UndoInfo { index_space, op })
}

/// Encode a [`WalRecord::Page`] body from its borrowed halves.
fn encode_page_record(redo: &RedoRecord, undo: Option<&UndoInfo>, out: &mut Vec<u8>) {
    out.push(0);
    match undo {
        Some(u) => {
            out.push(1);
            encode_undo(u, out);
        }
        None => out.push(0),
    }
    encode_record(redo, out);
}

/// Encode a record body (without framing).
pub fn encode_wal_record(rec: &WalRecord, out: &mut Vec<u8>) {
    match rec {
        WalRecord::Page { redo, undo } => encode_page_record(redo, undo.as_ref(), out),
        WalRecord::Commit { txn_id } => {
            out.push(1);
            out.extend_from_slice(&txn_id.to_le_bytes());
        }
        WalRecord::Abort { txn_id } => {
            out.push(2);
            out.extend_from_slice(&txn_id.to_le_bytes());
        }
    }
}

/// Decode a record body. WAL bytes come back from storage after a crash
/// and may be torn: truncation is a codec error, never a panic.
pub fn decode_wal_record(buf: &[u8]) -> Result<WalRecord> {
    let mut r = Reader::new(buf, "wal record");
    match r.u8()? {
        0 => {
            let undo = match r.u8()? {
                1 => Some(decode_undo(&mut r)?),
                _ => None,
            };
            let (redo, _) =
                decode_record(r.rest()).map_err(|e| EngineError::Codec(format!("redo: {e}")))?;
            Ok(WalRecord::Page { redo, undo })
        }
        1 => Ok(WalRecord::Commit { txn_id: r.u64()? }),
        2 => Ok(WalRecord::Abort { txn_id: r.u64()? }),
        t => Err(EngineError::Codec(format!("bad wal tag {t}"))),
    }
}

/// Iterate `[len u32][body]` frames from a raw log byte stream. Stops at a
/// truncated tail (torn final write after a crash).
pub fn iter_frames(start_lsn: Lsn, bytes: &[u8]) -> Vec<(Lsn, WalRecord)> {
    let mut out = Vec::new();
    let mut r = Reader::new(bytes, "frame");
    loop {
        let at = r.pos();
        let Ok(len) = r.u32() else { break };
        let Ok(body) = r.take(len as usize) else {
            break;
        };
        if len == 0 {
            break;
        }
        match decode_wal_record(body) {
            Ok(rec) => out.push((start_lsn + at as u64, rec)),
            Err(_) => break,
        }
    }
    out
}

/// A durable, ordered byte log with LSN = byte offset.
pub trait LogBackend: Send + Sync {
    /// LSN the next append will receive.
    fn next_lsn(&self) -> Lsn;
    /// Largest single append the backend accepts.
    fn max_append(&self) -> usize {
        usize::MAX
    }
    /// Durably append a batch of records in order; returns each record's
    /// LSN. The only append: a single record is a batch of one.
    fn append_batch(&self, ctx: &mut SimCtx, records: &[&[u8]]) -> Result<Vec<Lsn>>;
    /// Read the retained stream from `lsn` to the end.
    fn read_from(&self, ctx: &mut SimCtx, lsn: Lsn) -> Result<(Lsn, Vec<u8>)>;
    /// Allow the backend to reclaim everything below `upto`.
    fn truncate(&self, ctx: &mut SimCtx, upto: Lsn) -> Result<()>;
}

/// AStore-backed log: the SegmentRing (§V-A/B).
pub struct RingLog {
    ring: SegmentRing,
}

impl RingLog {
    /// Wrap a ring.
    pub fn new(ring: SegmentRing) -> Self {
        RingLog { ring }
    }

    /// Access the underlying ring (recovery bootstrap needs segment ids).
    pub fn ring(&self) -> &SegmentRing {
        &self.ring
    }
}

impl LogBackend for RingLog {
    fn next_lsn(&self) -> Lsn {
        self.ring.next_lsn()
    }

    fn max_append(&self) -> usize {
        self.ring.segment_data_capacity() as usize
    }

    /// One reservation for the whole batch: one chained work request per
    /// replica, one doorbell (split only at a segment boundary).
    fn append_batch(&self, ctx: &mut SimCtx, records: &[&[u8]]) -> Result<Vec<Lsn>> {
        Ok(self.ring.append_batch(ctx, records)?)
    }

    fn read_from(&self, ctx: &mut SimCtx, lsn: Lsn) -> Result<(Lsn, Vec<u8>)> {
        Ok(self.ring.read_from(ctx, lsn)?)
    }

    fn truncate(&self, ctx: &mut SimCtx, upto: Lsn) -> Result<()> {
        self.ring.truncate(ctx, upto)?;
        Ok(())
    }
}

/// Baseline LogStore: BlobGroup over SSD + TCP (§III). The SDK burns
/// engine CPU per submit (buffer copy + async submission + completion
/// callback context switch — the overheads §V-B calls out).
pub struct BlobGroupLog {
    group: BlobGroup,
    engine_cpu: Arc<Resource>,
    model: LatencyModel,
    base_lsn: AtomicU64,
    low_water: AtomicU64,
}

impl BlobGroupLog {
    /// Wrap a blob group as the log device.
    pub fn new(group: BlobGroup, engine_cpu: Arc<Resource>, model: LatencyModel) -> Self {
        BlobGroupLog {
            group,
            engine_cpu,
            model,
            base_lsn: AtomicU64::new(0),
            low_water: AtomicU64::new(0),
        }
    }
}

impl LogBackend for BlobGroupLog {
    fn next_lsn(&self) -> Lsn {
        self.base_lsn.load(Ordering::Acquire) + self.group.len()
    }

    /// One SDK submission, and one group append, per record: the LogStore
    /// SDK has no batched submit.
    fn append_batch(&self, ctx: &mut SimCtx, records: &[&[u8]]) -> Result<Vec<Lsn>> {
        let mut lsns = Vec::with_capacity(records.len());
        for bytes in records {
            let done = self
                .engine_cpu
                .acquire(ctx.now(), VTime::from_nanos(self.model.cpu_logstore_sdk_ns));
            ctx.wait_until(done);
            let off = self.group.append(ctx, bytes)?;
            lsns.push(self.base_lsn.load(Ordering::Acquire) + off);
        }
        Ok(lsns)
    }

    fn read_from(&self, ctx: &mut SimCtx, lsn: Lsn) -> Result<(Lsn, Vec<u8>)> {
        let base = self.base_lsn.load(Ordering::Acquire);
        let low = self.low_water.load(Ordering::Acquire).max(base);
        let start = lsn.max(low);
        let end = base + self.group.len();
        if start >= end {
            return Ok((end, Vec::new()));
        }
        let bytes = self.group.read(ctx, start - base, (end - start) as usize)?;
        Ok((start, bytes))
    }

    fn truncate(&self, _ctx: &mut SimCtx, upto: Lsn) -> Result<()> {
        // Blob GC happens out of band in the real system; the log simply
        // remembers that older bytes are dead.
        self.low_water.fetch_max(upto, Ordering::AcqRel);
        Ok(())
    }
}

/// When does a commit's `flush` hit the backend?
///
/// Validated by `DbConfig::builder().flush_policy(..)`: a `Group` policy
/// must have non-zero `max_batch_bytes` and `max_wait`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlushPolicy {
    /// Every committer issues its own backend flush: the `Group` path with
    /// no election and no dwell. Whatever else is buffered rides along (the
    /// flush takes the whole buffer), but committers do not wait for each
    /// other, so every commit pays a full one-sided flush.
    #[default]
    PerCommit,
    /// Group-commit consolidation: the first committer to reach the WAL
    /// becomes the *leader* and dwells, letting concurrent committers
    /// enqueue their frames, then writes the whole buffer as **one**
    /// batched append. Carried committers are woken only after the batch
    /// end-LSN is durable (ack-after-persist, never before).
    Group {
        /// Flush as soon as this many bytes are buffered, even if the
        /// dwell window has not elapsed.
        max_batch_bytes: usize,
        /// Longest a leader dwells (virtual time) before flushing whatever
        /// has accumulated. Bounds the latency a solo commit can pay.
        max_wait: VTime,
    },
}

struct WalBuffer {
    /// Framed records not yet written to the backend.
    buf: Vec<u8>,
    /// Byte offset in `buf` where each buffered frame starts. Group
    /// flushes split the buffer at these boundaries so one batched append
    /// carries whole records.
    frames: Vec<usize>,
    /// LSN the next record will receive.
    next_lsn: Lsn,
}

/// What a flush took out of the [`WalBuffer`]: every buffered byte, the
/// frame-start offsets within them, and the LSN just past the last byte.
struct Taken {
    bytes: Vec<u8>,
    frames: Vec<usize>,
    end: Lsn,
}

struct GroupState {
    /// A leader is currently dwelling or flushing.
    leader: bool,
    /// Committers parked waiting for the leader's batch.
    waiters: Vec<Waker>,
    /// Completed flushes: `(end_lsn, virtual time the batch was durable)`.
    /// A carried committer acks at the durable time of the first batch
    /// covering its LSN, never earlier.
    history: VecDeque<(Lsn, VTime)>,
}

/// Merges concurrent commit flushes into one batched AStore append.
///
/// Committers enqueue their frames in the WAL buffer and call
/// [`Wal::flush`]; the first one in becomes the leader, everyone else
/// parks here. The leader dwells (advancing its clock and yielding, so
/// committers behind it in virtual time reach the buffer), takes the
/// buffer, issues a single [`LogBackend::append_batch`], records the
/// batch's durable point, and wakes the carried committers — whose clocks
/// are moved to that durable point before they ack (§V-B ack-after-persist).
struct GroupCommitConsolidator {
    state: Mutex<GroupState>,
}

/// Completed-flush history entries kept for late acks. A committer only
/// needs the entry covering its own LSN, which is nearly always the most
/// recent; the tail exists for stragglers.
const FLUSH_HISTORY: usize = 64;

impl GroupCommitConsolidator {
    fn new() -> Self {
        GroupCommitConsolidator {
            state: Mutex::new(GroupState {
                leader: false,
                waiters: Vec::new(),
                history: VecDeque::new(),
            }),
        }
    }

    /// Virtual time at which everything below `upto` became durable, if
    /// the covering flush is still in history.
    fn ack_time(&self, upto: Lsn) -> Option<VTime> {
        let st = self.state.lock();
        st.history
            .iter()
            .find(|(end, _)| *end > upto)
            .map(|&(_, t)| t)
    }

    /// Record a completed flush's durable point (every flush does, so late
    /// acks always have a covering entry).
    fn record(&self, end: Lsn, durable_at: VTime) {
        let mut st = self.state.lock();
        st.history.push_back((end, durable_at));
        while st.history.len() > FLUSH_HISTORY {
            st.history.pop_front();
        }
    }

    /// Release leadership, waking parked committers: to ack if the flush
    /// covered them, to lead the next one if not (failed flush, or frames
    /// logged after the take).
    fn release(&self) {
        let waiters = {
            let mut st = self.state.lock();
            st.leader = false;
            std::mem::take(&mut st.waiters)
        };
        waiters.iter().for_each(Waker::wake);
    }
}

/// The engine's WAL writer with a global in-memory log buffer.
///
/// Records are appended to the buffer at memory speed; durability happens
/// at [`flush`](Self::flush) — which transactions call at commit (§V-B:
/// the paper registers the DBEngine's *global log buffer* with the RDMA
/// NIC and writes it out with one-sided verbs). *When* the buffer hits the
/// backend is the [`FlushPolicy`]:
///
/// * [`FlushPolicy::PerCommit`] — every committer flushes immediately:
///   a committer runs its whole flush inside one turn, so flushes =
///   commits (`core.wal_flushes` = `core.txn_commits`). Acks are
///   after-persist under both policies: a committer whose bytes rode
///   someone else's flush waits until that flush's durable point.
/// * [`FlushPolicy::Group`] — the `GroupCommitConsolidator` elects the
///   first committer as leader; it dwells up to `max_wait` (or until
///   `max_batch_bytes` accumulate) while concurrent committers are
///   *carried*: they park, their frames ride the leader's single batched
///   append, and they are acked only once the batch end-LSN is durable.
///
/// Both are one body ([`flush`](Self::flush)); [`force`](Self::force) is
/// that body for callers that must not wait for anyone.
pub struct Wal {
    backend: Box<dyn LogBackend>,
    state: Mutex<WalBuffer>,
    flushed: AtomicU64,
    /// Serializes take-buffer + backend-append so concurrent flushes cannot
    /// interleave and land bytes at the wrong LSN (the backend assigns LSN
    /// by arrival order).
    flush_lock: Mutex<()>,
    policy: FlushPolicy,
    group: GroupCommitConsolidator,
    /// Largest single backend write (matches the paper's observation that
    /// a 256 KB one-sided write costs ~0.1 ms; bigger flushes are split).
    max_io: usize,
    bytes_logged: Arc<Counter>,
    flushes: Arc<Counter>,
    group_flushes: Arc<Counter>,
    carried_commits: Arc<Counter>,
    bytes_flushed: Arc<Counter>,
    flush_lat: Arc<LatencyRecorder>,
    trace: Arc<TraceLog>,
}

impl Wal {
    /// Wrap a backend with a detached metrics registry.
    pub fn new(backend: Box<dyn LogBackend>) -> Self {
        Self::with_metrics(
            backend,
            FlushPolicy::PerCommit,
            &MetricsRegistry::detached(),
        )
    }

    /// Wrap a backend, publishing WAL counters/latencies into `registry`.
    pub fn with_metrics(
        backend: Box<dyn LogBackend>,
        policy: FlushPolicy,
        registry: &MetricsRegistry,
    ) -> Self {
        let next = backend.next_lsn();
        let max_io = backend.max_append().min(256 * 1024);
        Wal {
            backend,
            state: Mutex::new(WalBuffer {
                buf: Vec::new(),
                frames: Vec::new(),
                next_lsn: next,
            }),
            flushed: AtomicU64::new(next),
            flush_lock: Mutex::new(()),
            policy,
            group: GroupCommitConsolidator::new(),
            max_io,
            bytes_logged: registry.counter("core", "wal_bytes_logged"),
            flushes: registry.counter("core", "wal_flushes"),
            group_flushes: registry.counter("core", "wal_group_flushes"),
            carried_commits: registry.counter("core", "wal_carried_commits"),
            bytes_flushed: registry.counter("core", "wal_bytes_flushed"),
            flush_lat: registry.latency("core", "wal_flush"),
            trace: Arc::clone(registry.trace()),
        }
    }

    /// The backend (recovery needs direct access).
    pub fn backend(&self) -> &dyn LogBackend {
        self.backend.as_ref()
    }

    /// Log a non-page record (commit/abort). Buffered; not yet durable.
    pub fn log(&self, ctx: &mut SimCtx, rec: &WalRecord) -> Result<Lsn> {
        Ok(self.write_frame(ctx, |_, out| encode_wal_record(rec, out)))
    }

    /// Log a page mutation: assigns the record's LSN (fixing up the REDO
    /// half) and returns the finalized REDO record for shipping. Buffered.
    pub fn log_page(
        &self,
        ctx: &mut SimCtx,
        mut redo: RedoRecord,
        undo: Option<&UndoInfo>,
    ) -> Result<(Lsn, RedoRecord)> {
        let lsn = self.write_frame(ctx, |lsn, out| {
            redo.lsn = lsn;
            encode_page_record(&redo, undo, out);
        });
        Ok((lsn, redo))
    }

    /// The one frame writer: reserve the 4-byte length, let `encode` (told
    /// the record's LSN) write the body straight into the log buffer under
    /// the state lock, back-patch the length. Returns the record's LSN.
    fn write_frame(&self, ctx: &mut SimCtx, encode: impl FnOnce(Lsn, &mut Vec<u8>)) -> Lsn {
        let sp = self.trace.span(ctx, "wal", "serialize");
        let mut state = self.state.lock();
        let lsn = state.next_lsn;
        let at = state.buf.len();
        state.frames.push(at);
        state.buf.extend_from_slice(&[0; 4]);
        encode(lsn, &mut state.buf);
        let body = state.buf.len() - at - 4;
        state.buf[at..at + 4].copy_from_slice(&(body as u32).to_le_bytes());
        state.next_lsn += 4 + body as u64;
        drop(state);
        self.bytes_logged.add(4 + body as u64);
        // Log-buffer memcpy cost.
        ctx.advance(VTime::from_nanos(200 + body as u64 / 16));
        sp.finish(ctx);
        lsn
    }

    /// Make everything logged at or before `upto` durable, per the
    /// configured [`FlushPolicy`]. Returns once the covering backend
    /// write(s) complete — under `Group`, a carried committer returns at
    /// the virtual time its batch became durable, never before.
    ///
    /// Under `Group` this yields and parks ([`SimCtx::park`]), so the
    /// caller must hold no host lock and no page latch: it is the commit
    /// path's call. Everyone else calls [`force`](Self::force).
    pub fn flush(&self, ctx: &mut SimCtx, upto: Lsn) -> Result<()> {
        self.write_out(ctx, upto, self.policy)
    }

    /// [`flush`](Self::flush) for a caller that holds latches or locks (an
    /// eviction, a page miss, a checkpoint, engine open): writes the buffer
    /// out itself at once — no election, no dwell, never parks — whatever
    /// the policy. A dwelling leader that then finds the buffer taken acks
    /// from the flush history, as its followers do.
    pub fn force(&self, ctx: &mut SimCtx, upto: Lsn) -> Result<()> {
        self.write_out(ctx, upto, FlushPolicy::PerCommit)
    }

    /// The one flush body: ack if already durable → (`Group` only: become
    /// the leader or park behind one; the leader dwells) → under
    /// `flush_lock`, take the buffer and write it as one batched append →
    /// publish the durable point → (`Group` only) release leadership.
    fn write_out(&self, ctx: &mut SimCtx, upto: Lsn, policy: FlushPolicy) -> Result<()> {
        if self.ack_if_durable(ctx, upto) {
            return Ok(());
        }
        let sp = self.trace.span(ctx, "wal", "flush");
        let leading = match policy {
            FlushPolicy::PerCommit => false,
            FlushPolicy::Group {
                max_batch_bytes,
                max_wait,
            } => {
                // Lead, or park until the current leader's batch lands.
                loop {
                    let mut g = self.group.state.lock();
                    if self.flushed.load(Ordering::Acquire) > upto {
                        drop(g);
                        self.ack_if_durable(ctx, upto);
                        sp.finish(ctx);
                        return Ok(());
                    }
                    if !g.leader {
                        g.leader = true;
                        break;
                    }
                    g.waiters.push(ctx.waker());
                    drop(g);
                    ctx.park(None);
                }
                self.dwell(ctx, max_batch_bytes, max_wait);
                true
            }
        };
        let result = self.take_and_append(ctx, upto, leading);
        if leading {
            self.group.release();
        }
        sp.finish(ctx);
        result
    }

    /// If `upto` is already durable, move the clock to the covering
    /// batch's durable point (ack-after-persist) and report true.
    fn ack_if_durable(&self, ctx: &mut SimCtx, upto: Lsn) -> bool {
        if self.flushed.load(Ordering::Acquire) <= upto {
            return false;
        }
        if let Some(t) = self.group.ack_time(upto) {
            if t > ctx.now() {
                ctx.wait_until(t);
            }
        }
        true
    }

    /// The leader's dwell: let committers behind it in virtual time reach
    /// the buffer, one `max_wait / 4` step at a time.
    fn dwell(&self, ctx: &mut SimCtx, max_batch_bytes: usize, max_wait: VTime) {
        const DWELL_STEPS: u64 = 4;
        let step = VTime::from_nanos((max_wait.as_nanos() / DWELL_STEPS).max(1));
        for i in 0..DWELL_STEPS {
            if self.state.lock().buf.len() >= max_batch_bytes {
                break;
            }
            // Solo fast path: after one arrival window with nobody parked
            // behind us, stop dwelling — a lone committer pays at most one
            // step of extra latency.
            if i > 0 && self.group.state.lock().waiters.is_empty() {
                break;
            }
            ctx.advance(step);
            ctx.yield_now();
        }
    }

    /// Take the buffer and write it out as one batched append, under
    /// `flush_lock`. `leading`: the caller is the elected leader, and the
    /// committers parked behind it are carried by this batch.
    fn take_and_append(&self, ctx: &mut SimCtx, upto: Lsn, leading: bool) -> Result<()> {
        let _serialize = self.flush_lock.lock();
        // Another flush may have carried our bytes while we dwelt or
        // waited for the lock.
        if self.ack_if_durable(ctx, upto) {
            return Ok(());
        }
        let Some(taken) = self.take_buffer() else {
            return Ok(());
        };
        // Everyone parked behind a leader right now rides this batch.
        let carried = leading.then(|| self.group.state.lock().waiters.len() as u64);
        let t0 = ctx.now();
        let records = Self::split_records(&taken.bytes, &taken.frames, self.max_io);
        if let Err(e) = self.backend.append_batch(ctx, &records) {
            // Affected committers wake, retry as leaders, and fail loudly
            // if the backend is truly gone — none acks on a guess.
            self.flush_failed(ctx, taken);
            return Err(e);
        }
        if let Some(carried) = carried {
            self.group_flushes.inc();
            self.carried_commits.add(carried);
        }
        self.flush_completed(ctx, &taken, t0);
        Ok(())
    }

    /// Take the whole buffer; `None` if it is empty.
    fn take_buffer(&self) -> Option<Taken> {
        let mut state = self.state.lock();
        if state.buf.is_empty() {
            return None;
        }
        Some(Taken {
            bytes: std::mem::take(&mut state.buf),
            frames: std::mem::take(&mut state.frames),
            end: state.next_lsn,
        })
    }

    /// The backend holds everything `taken` held: move the watermark and
    /// publish the durable point carried and late committers ack at.
    fn flush_completed(&self, ctx: &SimCtx, taken: &Taken, t0: VTime) {
        let durable_at = ctx.now();
        self.flushed.fetch_max(taken.end, Ordering::AcqRel);
        self.flushes.inc();
        self.bytes_flushed.add(taken.bytes.len() as u64);
        self.flush_lat.record(durable_at - t0);
        self.group.record(taken.end, durable_at);
    }

    /// A backend append failed part-way through `taken`. Whatever the
    /// backend did not take — its own `next_lsn()` says how much it did —
    /// goes back to the head of the buffer, in front of anything logged
    /// since, so the next flush resumes at the byte the backend stopped at:
    /// no later `flush` can ack an LSN whose bytes were dropped, and no
    /// later record lands at an offset that disagrees with its LSN. The
    /// watermark moves over the whole frames the backend took and no
    /// further (a torn frame is not durable).
    fn flush_failed(&self, ctx: &SimCtx, taken: Taken) {
        let Taken {
            mut bytes,
            frames,
            end,
        } = taken;
        let start = end - bytes.len() as u64;
        let kept = (self.backend.next_lsn().saturating_sub(start) as usize).min(bytes.len());
        let whole_frames_end = if kept == bytes.len() {
            Some(kept)
        } else {
            frames.iter().copied().rfind(|&f| f <= kept)
        };
        bytes.drain(..kept);
        {
            let mut state = self.state.lock();
            let mut restored: Vec<usize> = frames
                .into_iter()
                .filter(|&f| f >= kept)
                .map(|f| f - kept)
                .collect();
            restored.extend(state.frames.iter().map(|&f| f + bytes.len()));
            bytes.extend_from_slice(&state.buf);
            state.buf = bytes;
            state.frames = restored;
        }
        self.bytes_flushed.add(kept as u64);
        if let Some(whole) = whole_frames_end.filter(|&w| w > 0) {
            let durable = start + whole as u64;
            self.flushed.fetch_max(durable, Ordering::AcqRel);
            self.group.record(durable, ctx.now());
        }
    }

    /// Split the taken buffer into batch records: whole frames, merged up
    /// to `max_io` bytes per record (an oversized frame falls back to raw
    /// chunking — it cannot ride in one backend write anyway). Walks the
    /// frame *ends*, so the remainder of a torn frame that
    /// [`flush_failed`](Self::flush_failed) put back at the head, which has
    /// no start of its own in `frames`, rides like a frame.
    fn split_records<'a>(bytes: &'a [u8], frames: &[usize], max_io: usize) -> Vec<&'a [u8]> {
        let mut records = Vec::new();
        let mut start = 0usize;
        let mut frame_start = 0usize;
        let ends = frames.iter().copied().filter(|&f| f > 0);
        for frame_end in ends.chain([bytes.len()]) {
            if frame_end - start > max_io && frame_start > start {
                records.push(&bytes[start..frame_start]);
                start = frame_start;
            }
            if frame_end - start > max_io {
                // Single frame larger than one write: split it raw.
                for chunk in bytes[start..frame_end].chunks(max_io) {
                    records.push(chunk);
                }
                start = frame_end;
            }
            frame_start = frame_end;
        }
        if start < bytes.len() {
            records.push(&bytes[start..]);
        }
        records
    }

    /// LSN below which everything is durable.
    pub fn flushed_lsn(&self) -> Lsn {
        self.flushed.load(Ordering::Acquire)
    }

    /// Read and decode every *durable* record from `lsn`.
    pub fn records_from(&self, ctx: &mut SimCtx, lsn: Lsn) -> Result<Vec<(Lsn, WalRecord)>> {
        let (start, bytes) = self.backend.read_from(ctx, lsn)?;
        Ok(iter_frames(start, &bytes))
    }

    /// Next LSN (end of log, including buffered records).
    pub fn next_lsn(&self) -> Lsn {
        self.state.lock().next_lsn
    }

    /// Truncate below `upto`.
    pub fn truncate(&self, ctx: &mut SimCtx, upto: Lsn) -> Result<()> {
        self.backend.truncate(ctx, upto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vedb_astore::PageId;
    use vedb_pagestore::redo::PageOp;
    use vedb_pagestore::PageType;

    fn page_rec(txn: u64) -> WalRecord {
        WalRecord::Page {
            redo: RedoRecord {
                lsn: 0,
                prev_same_segment: 0,
                txn_id: txn,
                page: PageId::new(1, 2),
                op: PageOp::InsertAt {
                    slot: 3,
                    cell: b"cell-bytes".to_vec(),
                },
            },
            undo: Some(UndoInfo {
                index_space: 1,
                op: UndoOp::Revert {
                    key: b"k1".to_vec(),
                    old_cell: b"old".to_vec(),
                },
            }),
        }
    }

    #[test]
    fn wal_record_roundtrip() {
        for rec in [
            page_rec(7),
            WalRecord::Page {
                redo: RedoRecord {
                    lsn: 5,
                    prev_same_segment: 0,
                    txn_id: 1,
                    page: PageId::new(0, 1),
                    op: PageOp::Format {
                        ty: PageType::BTreeLeaf,
                        level: 0,
                    },
                },
                undo: None,
            },
            WalRecord::Commit { txn_id: 99 },
            WalRecord::Abort { txn_id: 100 },
        ] {
            let mut buf = Vec::new();
            encode_wal_record(&rec, &mut buf);
            assert_eq!(decode_wal_record(&buf).unwrap(), rec);
        }
    }

    #[test]
    fn undo_variants_roundtrip() {
        for op in [
            UndoOp::Remove { key: b"k".to_vec() },
            UndoOp::Revert {
                key: b"k".to_vec(),
                old_cell: b"v1".to_vec(),
            },
            UndoOp::ReInsert {
                key: b"k".to_vec(),
                old_cell: b"v2".to_vec(),
            },
        ] {
            let u = UndoInfo { index_space: 9, op };
            let mut buf = Vec::new();
            encode_undo(&u, &mut buf);
            let mut r = Reader::new(&buf, "undo");
            assert_eq!(decode_undo(&mut r).unwrap(), u);
            assert_eq!(r.pos(), buf.len());
        }
    }

    #[test]
    fn frame_iteration_and_torn_tail() {
        let mut stream = Vec::new();
        let mut lsns = Vec::new();
        for i in 0..3u64 {
            let mut body = Vec::new();
            encode_wal_record(&WalRecord::Commit { txn_id: i }, &mut body);
            lsns.push(stream.len() as u64 + 100);
            stream.extend_from_slice(&(body.len() as u32).to_le_bytes());
            stream.extend_from_slice(&body);
        }
        // Torn final frame: only half its bytes made it.
        let cut = stream.len() - 4;
        let frames = iter_frames(100, &stream[..cut]);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].0, lsns[0]);
        assert_eq!(frames[1], (lsns[1], WalRecord::Commit { txn_id: 1 }));
        // Intact stream decodes fully.
        assert_eq!(iter_frames(100, &stream).len(), 3);
    }
}
