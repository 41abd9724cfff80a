//! # vedb-pmem — a simulated Optane-style persistent-memory device
//!
//! The paper's AStore servers expose raw PMem over one-sided RDMA. The
//! crash-consistency subtlety (§IV-B) is that an RDMA WRITE that has been
//! acknowledged by the NIC is **not yet persistent**: with Intel DDIO
//! enabled the payload may sit in the CPU's L3 cache, and even with DDIO
//! disabled it may sit in PCIe/iMC buffers outside the ADR (Asynchronous
//! DRAM Refresh) persistence domain. AStore therefore disables DDIO and
//! issues a trailing one-sided RDMA READ, which forces the preceding writes
//! through to the memory controller — inside the ADR domain — before the
//! write is acknowledged to the client.
//!
//! [`PmemDevice`] models exactly that state machine with three "places"
//! bytes can live:
//!
//! 1. **in-flight** — written but not yet flushed (always lost on crash),
//! 2. **cache** — flushed while DDIO is *enabled* (still lost on crash:
//!    this is the bug the paper engineered around),
//! 3. **media** — flushed while DDIO is *disabled* (ADR-protected; survives
//!    crash).
//!
//! Reads always observe the newest data regardless of placement (cache
//! coherence). [`PmemDevice::crash`] reverts the device to its durable
//! contents, which is what lets the higher layers (AStore recovery, EBP
//! rebuild, SegmentRing recovery) be tested against *real* crash semantics.
//!
//! The device holds **one** byte image — what a read observes — plus an
//! undo list: each write not yet in the persistence domain (places 1 and
//! 2) keeps the bytes it overwrote. A flush with DDIO disabled drops the
//! list (the image *is* the media now), a crash plays it back newest-first,
//! and the durable contents of a range are that range of the image with
//! the list played back over it. Place 3 is therefore "the image, minus
//! the undo list", never a second copy.
//!
//! The undo list holds only writes that no flush in the same call
//! persisted. [`PmemDevice::persist`] writes a chain and flushes it in one
//! step, so with DDIO disabled its writes keep no undo image and each
//! persisted byte is copied once; [`PmemDevice::write`] followed by
//! [`PmemDevice::flush`] leaves the same device, but copies each byte
//! twice (once into the undo image the flush then drops).
//!
//! Timing: every access charges service time from the shared
//! [`LatencyModel`] on the device's [`Resource`] (a small number of lanes —
//! Optane's limited internal parallelism), so concurrency collapse emerges
//! under load.

use std::sync::Arc;

use parking_lot::RwLock;
use vedb_sim::{Counter, Gauge, LatencyModel, MetricsRegistry, Resource, VTime};

/// Errors returned by the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PmemError {
    /// Access beyond the device capacity.
    OutOfBounds {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: usize,
        /// Device capacity in bytes.
        capacity: usize,
    },
}

impl std::fmt::Display for PmemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PmemError::OutOfBounds {
                offset,
                len,
                capacity,
            } => write!(
                f,
                "pmem access out of bounds: offset={offset} len={len} capacity={capacity}"
            ),
        }
    }
}

impl std::error::Error for PmemError {}

/// Result alias for device operations.
pub type Result<T> = std::result::Result<T, PmemError>;

/// Where a flushed-but-not-crashed byte range currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Written, not yet flushed (PCIe/NIC buffers).
    InFlight,
    /// Flushed with DDIO enabled — sits in L3, volatile.
    Cache,
}

/// A write that has not reached the persistence domain.
#[derive(Debug, Clone)]
struct PendingRange {
    offset: u64,
    /// The bytes this write replaced (what a crash puts back).
    overwritten: Vec<u8>,
    stage: Stage,
}

struct Inner {
    /// The one image: what any read observes.
    live: Vec<u8>,
    /// Writes in `live` a crash would lose, oldest first. Ranges may
    /// overlap; undoing them newest-first restores the durable contents.
    pending: Vec<PendingRange>,
}

impl Inner {
    /// Overwrite `live[offset..]` with `data`. With `keep_undo` the bytes
    /// that were there join the undo list; without it the write is durable
    /// as it lands (a flush in the same step persists it).
    fn write(&mut self, offset: u64, data: &[u8], keep_undo: bool) {
        let at = offset as usize;
        let target = &mut self.live[at..at + data.len()];
        if keep_undo {
            self.pending.push(PendingRange {
                offset,
                overwritten: target.to_vec(),
                stage: Stage::InFlight,
            });
        }
        target.copy_from_slice(data);
    }

    fn pending_bytes(&self) -> usize {
        self.pending.iter().map(|p| p.overwritten.len()).sum()
    }
}

/// Undo `pending` (oldest first) newest-first over `image`, which holds the
/// live bytes of `[base, base + image.len())`: what is left is that range's
/// durable contents.
fn roll_back(pending: &[PendingRange], base: usize, image: &mut [u8]) {
    let end = base + image.len();
    for p in pending.iter().rev() {
        let start = p.offset as usize;
        let lo = start.max(base);
        let hi = (start + p.overwritten.len()).min(end);
        if lo < hi {
            image[lo - base..hi - base].copy_from_slice(&p.overwritten[lo - start..hi - start]);
        }
    }
}

/// Cached handles into the deployment's [`MetricsRegistry`] (component
/// `"pmem"`). Several devices in one deployment share the same handles, so
/// the registry reports subsystem totals.
struct PmemStats {
    writes: Arc<Counter>,
    reads: Arc<Counter>,
    bytes_written: Arc<Counter>,
    bytes_read: Arc<Counter>,
    flushes: Arc<Counter>,
    bytes_persisted: Arc<Counter>,
    crashes: Arc<Counter>,
    bytes_lost_on_crash: Arc<Counter>,
    unpersisted_bytes: Arc<Gauge>,
}

impl PmemStats {
    fn register(reg: &MetricsRegistry) -> Self {
        PmemStats {
            writes: reg.counter("pmem", "writes"),
            reads: reg.counter("pmem", "reads"),
            bytes_written: reg.counter("pmem", "bytes_written"),
            bytes_read: reg.counter("pmem", "bytes_read"),
            flushes: reg.counter("pmem", "flushes"),
            bytes_persisted: reg.counter("pmem", "bytes_persisted"),
            crashes: reg.counter("pmem", "crashes"),
            bytes_lost_on_crash: reg.counter("pmem", "bytes_lost_on_crash"),
            unpersisted_bytes: reg.gauge("pmem", "unpersisted_bytes"),
        }
    }
}

/// A simulated PMem DIMM attached to one AStore server.
pub struct PmemDevice {
    name: String,
    capacity: usize,
    ddio_enabled: bool,
    inner: RwLock<Inner>,
    resource: Arc<Resource>,
    model: LatencyModel,
    stats: PmemStats,
}

impl PmemDevice {
    /// Create a device of `capacity` bytes, zero-filled, using the given
    /// contention resource (typically `NodeRes::pmem`) and calibration.
    ///
    /// `ddio_enabled = false` reproduces the paper's deployment; `true`
    /// exists to demonstrate (and test) the data-loss mode the paper avoids.
    ///
    /// Metrics go to a detached registry; production assembly uses
    /// [`with_metrics`](Self::with_metrics) so device counters land in the
    /// deployment report.
    pub fn new(
        name: impl Into<String>,
        capacity: usize,
        ddio_enabled: bool,
        resource: Arc<Resource>,
        model: LatencyModel,
    ) -> Self {
        Self::with_metrics(
            name,
            capacity,
            ddio_enabled,
            resource,
            model,
            &MetricsRegistry::detached(),
        )
    }

    /// Like [`new`](Self::new), but publishing device counters (`pmem.writes`,
    /// `pmem.flushes`, `pmem.bytes_persisted`, the `pmem.unpersisted_bytes`
    /// gauge, …) into `registry`.
    pub fn with_metrics(
        name: impl Into<String>,
        capacity: usize,
        ddio_enabled: bool,
        resource: Arc<Resource>,
        model: LatencyModel,
        registry: &MetricsRegistry,
    ) -> Self {
        PmemDevice {
            name: name.into(),
            capacity,
            ddio_enabled,
            inner: RwLock::new(Inner {
                live: vec![0; capacity],
                pending: Vec::new(),
            }),
            resource,
            model,
            stats: PmemStats::register(registry),
        }
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether DDIO is enabled (see crate docs).
    pub fn ddio_enabled(&self) -> bool {
        self.ddio_enabled
    }

    /// The device's contention resource (exposed so the RDMA layer can
    /// co-charge NIC and media time).
    pub fn resource(&self) -> &Arc<Resource> {
        &self.resource
    }

    fn check(&self, offset: u64, len: usize) -> Result<()> {
        let end = usize::try_from(offset)
            .ok()
            .and_then(|o| o.checked_add(len));
        if end.filter(|&end| end <= self.capacity).is_none() {
            return Err(PmemError::OutOfBounds {
                offset,
                len,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// Write `data` at `offset`. The bytes become *visible* immediately but
    /// *durable* only after [`flush`](Self::flush) (and only if DDIO is
    /// disabled). Returns the virtual completion time (media service charged
    /// on the device resource).
    pub fn write(&self, now: VTime, offset: u64, data: &[u8]) -> Result<VTime> {
        self.check(offset, data.len())?;
        let done = self
            .resource
            .acquire(now, self.model.pmem_write_svc(data.len()));
        self.land(&mut self.inner.write(), offset, data, true);
        Ok(done)
    }

    /// Write a chain of `(offset, data)` at `base + offset`, in order, then
    /// [`flush`](Self::flush): the AStore commit chain's WRITEs and the
    /// persistence its trailing READ forces. Leaves the device, its
    /// counters and the resource's books exactly as `write`…`write` then
    /// `flush` would, and returns the same completion time (each write
    /// queues behind the one before). Every write's bounds are checked
    /// before any byte lands, so an out-of-bounds entry lands nothing.
    ///
    /// With DDIO disabled the flush persists every byte of the chain in
    /// the same step, so no write keeps an undo image: each byte is copied
    /// once. With DDIO enabled they keep one as [`write`](Self::write)
    /// does, and the flush only moves them to the cache.
    pub fn persist(&self, now: VTime, base: u64, writes: &[(u64, &[u8])]) -> Result<VTime> {
        for &(offset, data) in writes {
            self.check(base.saturating_add(offset), data.len())?;
        }
        let mut done = now;
        for &(_, data) in writes {
            done = self
                .resource
                .acquire(done, self.model.pmem_write_svc(data.len()));
        }
        let keep_undo = self.ddio_enabled;
        let mut inner = self.inner.write();
        let mut landed = 0;
        for &(offset, data) in writes {
            self.land(&mut inner, base + offset, data, keep_undo);
            landed += data.len();
        }
        self.flush_locked(&mut inner, if keep_undo { 0 } else { landed });
        Ok(done)
    }

    /// Land one checked write in the image and count it as unpersisted.
    fn land(&self, inner: &mut Inner, offset: u64, data: &[u8], keep_undo: bool) {
        inner.write(offset, data, keep_undo);
        self.stats.writes.inc();
        self.stats.bytes_written.add(data.len() as u64);
        self.stats.unpersisted_bytes.add(data.len() as i64);
    }

    /// Read `len` bytes at `offset` — always the newest data, wherever the
    /// bytes currently live. Returns the data and virtual completion time.
    pub fn read(&self, now: VTime, offset: u64, len: usize) -> Result<(Vec<u8>, VTime)> {
        self.check(offset, len)?;
        let done = self.resource.acquire(now, self.model.pmem_read_svc(len));
        let inner = self.inner.read();
        self.stats.reads.inc();
        self.stats.bytes_read.add(len as u64);
        Ok((
            inner.live[offset as usize..offset as usize + len].to_vec(),
            done,
        ))
    }

    /// Flush everything in flight toward the persistence domain. With DDIO
    /// disabled the bytes reach ADR-protected media (crash-durable); with
    /// DDIO enabled they only reach the (volatile) cache. Models what the
    /// trailing one-sided RDMA READ of the AStore write chain forces; the
    /// chain itself uses [`persist`](Self::persist), and the READ's own
    /// media time is charged by the caller as a small read.
    pub fn flush(&self, now: VTime) -> VTime {
        self.flush_locked(&mut self.inner.write(), 0);
        now
    }

    /// The one flush body, under the caller's write lock. `landed` counts
    /// the bytes the caller wrote in the same step without an undo image
    /// (only with DDIO disabled): they persist with the rest.
    fn flush_locked(&self, inner: &mut Inner, landed: usize) {
        self.stats.flushes.inc();
        if self.ddio_enabled {
            debug_assert_eq!(landed, 0, "with DDIO on every write keeps its undo");
            for p in &mut inner.pending {
                if p.stage == Stage::InFlight {
                    p.stage = Stage::Cache;
                }
            }
        } else {
            // The image already holds the bytes; persisting them is
            // forgetting how to undo them.
            let persisted = inner.pending_bytes() + landed;
            inner.pending.clear();
            self.stats.bytes_persisted.add(persisted as u64);
            self.stats.unpersisted_bytes.sub(persisted as i64);
        }
    }

    /// Bytes written but not yet crash-durable (in flight or in cache).
    pub fn unpersisted_bytes(&self) -> usize {
        self.inner.read().pending_bytes()
    }

    /// Power-fail the device: the live view reverts to the durable
    /// (ADR-protected) contents; everything in flight or in cache is lost.
    pub fn crash(&self) {
        let mut inner = self.inner.write();
        let lost = inner.pending_bytes();
        let pending = std::mem::take(&mut inner.pending);
        roll_back(&pending, 0, &mut inner.live);
        self.stats.crashes.inc();
        self.stats.bytes_lost_on_crash.add(lost as u64);
        self.stats.unpersisted_bytes.sub(lost as i64);
    }

    /// Read without charging any virtual time (server-local access during
    /// recovery scans, and assertions in tests).
    pub fn peek(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.check(offset, len)?;
        let inner = self.inner.read();
        Ok(inner.live[offset as usize..offset as usize + len].to_vec())
    }

    /// What a crash *would* preserve right now (tests/verification only).
    pub fn durable_snapshot(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.check(offset, len)?;
        let inner = self.inner.read();
        let mut image = inner.live[offset as usize..offset as usize + len].to_vec();
        roll_back(&inner.pending, offset as usize, &mut image);
        Ok(image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device(ddio: bool) -> PmemDevice {
        PmemDevice::new(
            "pmem-0",
            1 << 20,
            ddio,
            Arc::new(Resource::new("pmem", 7)),
            LatencyModel::paper_default(),
        )
    }

    #[test]
    fn write_then_read_sees_data() {
        let d = device(false);
        let t = d.write(VTime::ZERO, 100, b"hello").unwrap();
        assert!(t > VTime::ZERO);
        let (data, t2) = d.read(t, 100, 5).unwrap();
        assert_eq!(&data, b"hello");
        assert!(t2 > t);
    }

    #[test]
    fn unflushed_write_lost_on_crash() {
        let d = device(false);
        d.write(VTime::ZERO, 0, b"volatile").unwrap();
        assert_eq!(d.unpersisted_bytes(), 8);
        d.crash();
        assert_eq!(d.peek(0, 8).unwrap(), vec![0; 8]);
    }

    #[test]
    fn flushed_write_survives_crash_with_ddio_off() {
        let d = device(false);
        d.write(VTime::ZERO, 64, b"durable!").unwrap();
        d.flush(VTime::ZERO);
        assert_eq!(d.unpersisted_bytes(), 0);
        d.crash();
        assert_eq!(d.peek(64, 8).unwrap(), b"durable!");
    }

    #[test]
    fn flushed_write_lost_on_crash_with_ddio_on() {
        // The failure mode the paper disables DDIO to avoid.
        let d = device(true);
        d.write(VTime::ZERO, 64, b"unsafe!!").unwrap();
        d.flush(VTime::ZERO);
        assert_eq!(d.unpersisted_bytes(), 8); // still volatile (L3)
        d.crash();
        assert_eq!(d.peek(64, 8).unwrap(), vec![0; 8]);
    }

    #[test]
    fn crash_preserves_older_flushed_data_under_overwrite() {
        let d = device(false);
        d.write(VTime::ZERO, 0, b"AAAA").unwrap();
        d.flush(VTime::ZERO);
        d.write(VTime::ZERO, 0, b"BBBB").unwrap(); // not flushed
        assert_eq!(d.peek(0, 4).unwrap(), b"BBBB"); // visible
        d.crash();
        assert_eq!(d.peek(0, 4).unwrap(), b"AAAA"); // durable version restored
    }

    #[test]
    fn out_of_bounds_rejected() {
        let d = device(false);
        let cap = d.capacity() as u64;
        assert!(matches!(
            d.write(VTime::ZERO, cap - 2, b"xyz"),
            Err(PmemError::OutOfBounds { .. })
        ));
        assert!(d.read(VTime::ZERO, cap, 1).is_err());
        assert!(d.peek(cap - 1, 2).is_err());
        // Exactly at the boundary is fine.
        assert!(d.write(VTime::ZERO, cap - 3, b"xyz").is_ok());
    }

    #[test]
    fn offset_near_u64_max_is_out_of_bounds_not_wrapped() {
        let d = device(false);
        let offset = u64::MAX - 3;
        assert!(matches!(
            d.write(VTime::ZERO, offset, &[0u8; 8]),
            Err(PmemError::OutOfBounds { .. })
        ));
        assert!(d.read(VTime::ZERO, offset, 8).is_err());
        assert!(d.peek(offset, 8).is_err());
    }

    #[test]
    fn writes_queue_on_device_lanes() {
        let r = Arc::new(Resource::new("pmem", 1));
        let d = PmemDevice::new("p", 4096, false, r, LatencyModel::paper_default());
        let t1 = d.write(VTime::ZERO, 0, &[1u8; 1024]).unwrap();
        let t2 = d.write(VTime::ZERO, 1024, &[2u8; 1024]).unwrap();
        assert!(t2 > t1, "single-lane device must serialize");
        assert_eq!(t2.as_nanos(), t1.as_nanos() * 2);
    }

    #[test]
    fn attached_device_resource_publishes_saturation_metrics() {
        use vedb_sim::MetricsRegistry;
        let reg = MetricsRegistry::new();
        let r = Arc::new(Resource::with_metrics("astore-0.pmem", 1, &reg));
        let d = PmemDevice::new("p", 4096, false, r, LatencyModel::paper_default());
        d.write(VTime::ZERO, 0, &[1u8; 1024]).unwrap();
        d.write(VTime::ZERO, 1024, &[2u8; 1024]).unwrap(); // queues
        assert_eq!(reg.gauge_values()["astore-0.pmem.lanes"], 1);
        assert_eq!(reg.counter_values()["astore-0.pmem.ops"], 2);
        let lats = reg.latency_handles();
        let (_, wait) = lats
            .iter()
            .find(|(k, _)| k == "astore-0.pmem.wait")
            .unwrap();
        let (_, svc) = lats
            .iter()
            .find(|(k, _)| k == "astore-0.pmem.service")
            .unwrap();
        assert_eq!(wait.count(), 2);
        assert_eq!(svc.count(), 2);
        // The second write queues behind the first on the single lane, so
        // its wait equals one full service interval.
        assert!(wait.max() > VTime::ZERO);
        assert_eq!(wait.max(), svc.max());
    }

    #[test]
    fn read_is_cheaper_than_write() {
        let d = device(false);
        let w = d.write(VTime::ZERO, 0, &[0u8; 4096]).unwrap();
        let (_, r) = d.read(VTime::ZERO, 0, 4096).unwrap();
        // Same start time; read completes first even queued behind the write
        // on a 7-lane device (separate lanes).
        assert!(r < w);
    }

    #[test]
    fn overlapping_pending_ranges_flush_in_order() {
        let d = device(false);
        d.write(VTime::ZERO, 0, b"XXXXXXXX").unwrap();
        d.write(VTime::ZERO, 4, b"YYYY").unwrap();
        d.flush(VTime::ZERO);
        d.crash();
        assert_eq!(d.peek(0, 8).unwrap(), b"XXXXYYYY");
    }

    #[test]
    fn metrics_track_persistence_lifecycle() {
        let reg = MetricsRegistry::detached();
        let d = PmemDevice::with_metrics(
            "p",
            4096,
            false,
            Arc::new(Resource::new("pmem", 7)),
            LatencyModel::paper_default(),
            &reg,
        );
        d.write(VTime::ZERO, 0, &[1u8; 100]).unwrap();
        d.write(VTime::ZERO, 200, &[2u8; 50]).unwrap();
        assert_eq!(reg.counter("pmem", "writes").get(), 2);
        assert_eq!(reg.counter("pmem", "bytes_written").get(), 150);
        assert_eq!(reg.gauge("pmem", "unpersisted_bytes").get(), 150);
        d.flush(VTime::ZERO);
        assert_eq!(reg.counter("pmem", "flushes").get(), 1);
        assert_eq!(reg.counter("pmem", "bytes_persisted").get(), 150);
        assert_eq!(reg.gauge("pmem", "unpersisted_bytes").get(), 0);
        d.write(VTime::ZERO, 0, &[3u8; 30]).unwrap();
        d.crash();
        assert_eq!(reg.counter("pmem", "bytes_lost_on_crash").get(), 30);
        assert_eq!(reg.gauge("pmem", "unpersisted_bytes").get(), 0);
        d.read(VTime::ZERO, 0, 64).unwrap();
        assert_eq!(reg.counter("pmem", "reads").get(), 1);
        assert_eq!(reg.counter("pmem", "bytes_read").get(), 64);
    }

    #[test]
    fn error_display() {
        let e = PmemError::OutOfBounds {
            offset: 10,
            len: 5,
            capacity: 12,
        };
        assert!(e.to_string().contains("offset=10"));
    }
}
