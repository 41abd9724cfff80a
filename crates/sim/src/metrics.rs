//! Latency histograms, subsystem metric registry, and benchmark trial results.
//!
//! [`LatencyRecorder`] is a log-bucketed concurrent histogram (HdrHistogram
//! style, ~3% relative error): 64 power-of-two magnitude groups × 32 linear
//! sub-buckets, all atomic, so hundreds of driver threads can record without
//! locks. Percentiles, mean and max are derived from the buckets.
//!
//! [`MetricsRegistry`] is the repo-wide observability hub: every subsystem
//! (pmem, rdma, astore, core, pagestore, …) registers [`Counter`]s,
//! [`Gauge`]s and `LatencyRecorder`s keyed by static `(component, name)`
//! pairs. Registration takes a short lock once per handle; the hot path is a
//! single relaxed atomic op on the returned `Arc` handle, so instrumentation
//! stays cheap enough to leave on unconditionally.

use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::contention::LockContention;
use crate::time::VTime;
use crate::trace::TraceLog;

const SUB_BITS: u32 = 5; // 32 sub-buckets per magnitude
const SUB: usize = 1 << SUB_BITS;
const GROUPS: usize = 64;

/// Concurrent log-bucketed latency histogram over virtual-time samples.
pub struct LatencyRecorder {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyRecorder {
    /// Create an empty recorder.
    pub fn new() -> Self {
        LatencyRecorder {
            buckets: (0..GROUPS * SUB).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    #[inline]
    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let mag = 63 - ns.leading_zeros(); // >= SUB_BITS
        let group = (mag - SUB_BITS + 1) as usize;
        let sub = ((ns >> (mag - SUB_BITS)) - SUB as u64) as usize;
        // group 0 handles values < SUB directly above
        (group * SUB + sub).min(GROUPS * SUB - 1)
    }

    /// Representative (midpoint-ish) value of bucket `i` in nanoseconds.
    fn bucket_value(i: usize) -> u64 {
        let group = i / SUB;
        let sub = (i % SUB) as u64;
        if group == 0 {
            return sub;
        }
        let shift = (group - 1) as u32;
        ((SUB as u64 + sub) << shift) + (1u64 << shift) / 2
    }

    /// Record one latency sample.
    pub fn record(&self, lat: VTime) {
        let ns = lat.as_nanos();
        self.buckets[Self::index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// [`record`](Self::record) for a recorder with one writer, which a
    /// lock held by the caller serialises: loads and stores, no
    /// read-modify-write. Readers see the same values `record` would leave.
    pub(crate) fn record_single_writer(&self, lat: VTime) {
        let ns = lat.as_nanos();
        bump(&self.buckets[Self::index(ns)], 1);
        bump(&self.count, 1);
        bump(&self.sum_ns, ns);
        if ns > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.store(ns, Ordering::Relaxed);
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of every recorded sample (not bucketed). This is what the
    /// wait/service conservation property checks against: bucketing loses
    /// precision per sample, but the sum is accumulated from the raw values.
    pub fn total(&self) -> VTime {
        VTime::from_nanos(self.sum_ns.load(Ordering::Relaxed))
    }

    /// Mean latency (zero if empty).
    pub fn mean(&self) -> VTime {
        let n = self.count();
        if n == 0 {
            return VTime::ZERO;
        }
        VTime::from_nanos(self.sum_ns.load(Ordering::Relaxed) / n)
    }

    /// Maximum recorded latency (exact, not bucketed).
    pub fn max(&self) -> VTime {
        VTime::from_nanos(self.max_ns.load(Ordering::Relaxed))
    }

    /// Percentile in `[0, 100]`; returns the representative value of the
    /// bucket containing that rank (zero if empty).
    pub fn percentile(&self, p: f64) -> VTime {
        let n = self.count();
        if n == 0 {
            return VTime::ZERO;
        }
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return VTime::from_nanos(Self::bucket_value(i));
            }
        }
        self.max()
    }

    /// Median (P50).
    pub fn p50(&self) -> VTime {
        self.percentile(50.0)
    }

    /// P95.
    pub fn p95(&self) -> VTime {
        self.percentile(95.0)
    }

    /// P99.
    pub fn p99(&self) -> VTime {
        self.percentile(99.0)
    }

    /// Merge another recorder's samples into this one.
    pub fn merge(&self, other: &LatencyRecorder) {
        for (a, b) in self.buckets.iter().zip(other.buckets.iter()) {
            let v = b.load(Ordering::Relaxed);
            if v > 0 {
                a.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum_ns
            .fetch_add(other.sum_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_ns
            .fetch_max(other.max_ns.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// A monotonically increasing event counter. Handles are shared via `Arc`
/// from the [`MetricsRegistry`]; incrementing is one relaxed atomic add.
#[derive(Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Fresh zero counter (detached from any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.v.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// [`add`](Self::add) for a counter with one writer, which a lock held
    /// by the caller serialises: a load and a store, no read-modify-write.
    #[inline]
    pub(crate) fn add_single_writer(&self, n: u64) {
        bump(&self.v, n);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// `a += n` for an atomic with one writer (see
/// [`Counter::add_single_writer`]).
#[inline]
fn bump(a: &AtomicU64, n: u64) {
    a.store(a.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// A signed instantaneous value (bytes outstanding, queue depth, lag).
#[derive(Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// Fresh zero gauge (detached from any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Increase by `n`.
    #[inline]
    pub fn add(&self, n: i64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Decrease by `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.v.fetch_sub(n, Ordering::Relaxed);
    }

    /// Overwrite with `n`.
    #[inline]
    pub fn set(&self, n: i64) {
        self.v.store(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Busy time per virtual-time bucket: the series behind a resource's
/// utilization. [`add_busy`](Timeline::add_busy) sums each busy interval's
/// overlap into the buckets it covers; dividing a bucket's sum by
/// `bucket_ns * lanes` gives that bucket's utilization. Buckets are keyed by
/// integer bucket index (`t / bucket_ns`) in a `BTreeMap`, so snapshots are
/// deterministic and in time order.
pub struct Timeline {
    bucket_ns: u64,
    /// The bucket written last ([`NO_BUCKET`] before the first write) and
    /// the busy time summed into it since it opened, not yet in `samples`.
    /// Consecutive intervals mostly fall in the same bucket, so the map is
    /// touched only when the bucket changes; a snapshot adds this in. Both
    /// move only under the `samples` lock or by the timeline's single
    /// writer, and `open_bucket` only under the lock.
    open_bucket: AtomicU64,
    open_sum: AtomicI64,
    samples: Mutex<BTreeMap<u64, i64>>,
}

/// `open_bucket` before anything was written: no interval reaches bucket
/// `u64::MAX`, which would need an end past `u64::MAX`.
const NO_BUCKET: u64 = u64::MAX;

impl Timeline {
    /// Default bucket width: 1 ms of virtual time.
    pub const DEFAULT_BUCKET_NS: u64 = 1_000_000;

    /// New empty timeline with `bucket_ns`-wide buckets.
    pub fn new(bucket_ns: u64) -> Self {
        Timeline {
            bucket_ns: bucket_ns.max(1),
            open_bucket: AtomicU64::new(NO_BUCKET),
            open_sum: AtomicI64::new(0),
            samples: Mutex::new(BTreeMap::new()),
        }
    }

    /// Bucket width in virtual nanoseconds.
    pub fn bucket_ns(&self) -> u64 {
        self.bucket_ns
    }

    /// Accumulate a busy interval `[start_ns, end_ns)` into every bucket it
    /// overlaps, summing the per-bucket overlap in nanoseconds.
    pub fn add_busy(&self, start_ns: u64, end_ns: u64) {
        let mut samples = self.samples.lock();
        self.deposit(start_ns, end_ns, |bucket, busy| {
            self.reopen(&mut samples, bucket, busy)
        });
    }

    /// [`add_busy`](Self::add_busy) for a timeline with one writer, which a
    /// lock held by the caller serialises: an interval inside the open
    /// bucket is a load and a store, and the map's lock is taken only when
    /// an interval leaves that bucket. Snapshots see what `add_busy` would
    /// leave.
    pub(crate) fn add_busy_single_writer(&self, start_ns: u64, end_ns: u64) {
        self.deposit(start_ns, end_ns, |bucket, busy| {
            self.reopen(&mut self.samples.lock(), bucket, busy)
        });
    }

    /// Split `[start_ns, end_ns)` at bucket boundaries: a piece in the open
    /// bucket is summed into it, any other goes to `reopen`.
    #[inline]
    fn deposit(&self, start_ns: u64, end_ns: u64, mut reopen: impl FnMut(u64, i64)) {
        let mut s = start_ns;
        while s < end_ns {
            let bucket = s / self.bucket_ns;
            let e = end_ns.min((bucket + 1) * self.bucket_ns);
            let busy = (e - s) as i64;
            if self.open_bucket.load(Ordering::Relaxed) == bucket {
                let sum = &self.open_sum;
                sum.store(sum.load(Ordering::Relaxed) + busy, Ordering::Relaxed);
            } else {
                reopen(bucket, busy);
            }
            s = e;
        }
    }

    /// Close the open bucket into `samples` (its lock held) and open
    /// `bucket` with `busy` in it.
    fn reopen(&self, samples: &mut BTreeMap<u64, i64>, bucket: u64, busy: i64) {
        self.close_open_bucket(samples);
        self.open_sum.store(busy, Ordering::Relaxed);
        self.open_bucket.store(bucket, Ordering::Relaxed);
    }

    /// Add the open bucket's sum into `samples` (its lock held).
    fn close_open_bucket(&self, samples: &mut BTreeMap<u64, i64>) {
        let open = self.open_bucket.load(Ordering::Relaxed);
        if open != NO_BUCKET {
            *samples.entry(open).or_insert(0) += self.open_sum.load(Ordering::Relaxed);
        }
    }

    /// Copy of the samples, keyed by bucket index, in time order.
    pub fn snapshot(&self) -> BTreeMap<u64, i64> {
        let samples = self.samples.lock();
        let mut copy = samples.clone();
        self.close_open_bucket(&mut copy);
        copy
    }
}

type MetricKey = (Cow<'static, str>, Cow<'static, str>);

/// Repo-wide metric registry: counters, gauges and latency histograms keyed
/// by `(component, name)` pairs, plus the causal [`TraceLog`] and the
/// [`LockContention`] profile. Components with a fixed identity pass
/// `&'static str` keys (zero-cost); per-instance resources (`astore-0.pmem`)
/// pass owned `String`s.
///
/// One registry is created per [`SimEnv`](crate::cluster::SimEnv) and shared
/// (via `Arc`) by every subsystem of that deployment; components that are
/// built outside a cluster (unit-test harnesses) get a
/// [`detached`](Self::detached) registry so instrumentation code never has to
/// branch. Lookup locks a short [`parking_lot::Mutex`]; components do it once
/// at construction and cache the `Arc` handles, so steady-state recording is
/// lock-free.
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<MetricKey, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<MetricKey, Arc<Gauge>>>,
    latencies: Mutex<BTreeMap<MetricKey, Arc<LatencyRecorder>>>,
    timelines: Mutex<BTreeMap<MetricKey, Arc<Timeline>>>,
    trace: Arc<TraceLog>,
    contention: Arc<LockContention>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            latencies: Mutex::new(BTreeMap::new()),
            timelines: Mutex::new(BTreeMap::new()),
            trace: Arc::new(TraceLog::new(TraceLog::DEFAULT_CAPACITY)),
            contention: Arc::new(LockContention::new()),
        }
    }

    /// A private registry for components constructed without a cluster
    /// (harness code, unit tests). Metrics still work; they are just not
    /// visible in any deployment-wide report.
    pub fn detached() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Get-or-register the counter `component/name`.
    pub fn counter(
        &self,
        component: impl Into<Cow<'static, str>>,
        name: impl Into<Cow<'static, str>>,
    ) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .entry((component.into(), name.into()))
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Get-or-register the gauge `component/name`.
    pub fn gauge(
        &self,
        component: impl Into<Cow<'static, str>>,
        name: impl Into<Cow<'static, str>>,
    ) -> Arc<Gauge> {
        Arc::clone(
            self.gauges
                .lock()
                .entry((component.into(), name.into()))
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// Register the gauge `component/name`, or `None` if it already is: for
    /// a metric with exactly one owner.
    pub(crate) fn new_gauge(
        &self,
        component: impl Into<Cow<'static, str>>,
        name: impl Into<Cow<'static, str>>,
    ) -> Option<Arc<Gauge>> {
        match self.gauges.lock().entry((component.into(), name.into())) {
            Entry::Occupied(_) => None,
            Entry::Vacant(slot) => Some(Arc::clone(slot.insert(Arc::new(Gauge::new())))),
        }
    }

    /// Get-or-register the latency histogram `component/name`.
    pub fn latency(
        &self,
        component: impl Into<Cow<'static, str>>,
        name: impl Into<Cow<'static, str>>,
    ) -> Arc<LatencyRecorder> {
        Arc::clone(
            self.latencies
                .lock()
                .entry((component.into(), name.into()))
                .or_insert_with(|| Arc::new(LatencyRecorder::new())),
        )
    }

    /// Get-or-register the timeline `component/name` with the default 1 ms
    /// bucket width.
    pub fn timeline(
        &self,
        component: impl Into<Cow<'static, str>>,
        name: impl Into<Cow<'static, str>>,
    ) -> Arc<Timeline> {
        Arc::clone(
            self.timelines
                .lock()
                .entry((component.into(), name.into()))
                .or_insert_with(|| Arc::new(Timeline::new(Timeline::DEFAULT_BUCKET_NS))),
        )
    }

    /// Handles to every registered timeline, sorted by key.
    pub fn timeline_handles(&self) -> Vec<(String, Arc<Timeline>)> {
        self.timelines
            .lock()
            .iter()
            .map(|((c, n), v)| (format!("{c}.{n}"), Arc::clone(v)))
            .collect()
    }

    /// The causal trace log shared by every span in this deployment.
    pub fn trace(&self) -> &Arc<TraceLog> {
        &self.trace
    }

    /// The deployment-wide lock-contention profile (fed by the engine's
    /// lock manager, folded into reports by
    /// [`Profile`](crate::profile::Profile)).
    pub fn lock_contention(&self) -> &Arc<LockContention> {
        &self.contention
    }

    /// Snapshot every counter as `"component.name" -> value`, sorted by key
    /// (BTreeMap order makes snapshots deterministic).
    pub fn counter_values(&self) -> BTreeMap<String, u64> {
        self.counters
            .lock()
            .iter()
            .map(|((c, n), v)| (format!("{c}.{n}"), v.get()))
            .collect()
    }

    /// Snapshot every gauge as `"component.name" -> value`, sorted by key.
    pub fn gauge_values(&self) -> BTreeMap<String, i64> {
        self.gauges
            .lock()
            .iter()
            .map(|((c, n), v)| (format!("{c}.{n}"), v.get()))
            .collect()
    }

    /// Handles to every registered latency histogram, sorted by key.
    pub fn latency_handles(&self) -> Vec<(String, Arc<LatencyRecorder>)> {
        self.latencies
            .lock()
            .iter()
            .map(|((c, n), v)| (format!("{c}.{n}"), Arc::clone(v)))
            .collect()
    }
}

/// Outcome of one benchmark trial: operation counts over a virtual-time
/// window plus the latency distribution.
pub struct TrialResult {
    /// Successfully committed operations/transactions.
    pub committed: u64,
    /// Aborted/retried operations.
    pub aborted: u64,
    /// Virtual-time length of the measurement window.
    pub window: VTime,
    /// Latency distribution of committed operations.
    pub latency: LatencyRecorder,
}

impl TrialResult {
    /// Empty result for a window (drivers fill it in).
    pub fn new(window: VTime) -> Self {
        TrialResult {
            committed: 0,
            aborted: 0,
            window,
            latency: LatencyRecorder::new(),
        }
    }

    /// Committed operations per virtual second.
    pub fn throughput(&self) -> f64 {
        if self.window == VTime::ZERO {
            return 0.0;
        }
        self.committed as f64 / self.window.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder() {
        let r = LatencyRecorder::new();
        assert_eq!(r.count(), 0);
        assert_eq!(r.mean(), VTime::ZERO);
        assert_eq!(r.p99(), VTime::ZERO);
        assert_eq!(r.max(), VTime::ZERO);
    }

    #[test]
    fn single_sample() {
        let r = LatencyRecorder::new();
        r.record(VTime::from_micros(100));
        assert_eq!(r.count(), 1);
        assert_eq!(r.mean(), VTime::from_micros(100));
        let p = r.p50().as_nanos() as f64;
        assert!((p - 100_000.0).abs() / 100_000.0 < 0.05, "p50={p}");
        assert_eq!(r.max(), VTime::from_micros(100));
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let r = LatencyRecorder::new();
        for i in 1..=10_000u64 {
            r.record(VTime::from_micros(i));
        }
        let p50 = r.p50().as_micros_f64();
        let p95 = r.p95().as_micros_f64();
        let p99 = r.p99().as_micros_f64();
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.06, "p50={p50}");
        assert!((p95 - 9_500.0).abs() / 9_500.0 < 0.06, "p95={p95}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.06, "p99={p99}");
        assert_eq!(r.max(), VTime::from_micros(10_000));
    }

    #[test]
    fn small_values_are_exact() {
        let r = LatencyRecorder::new();
        for ns in 0..32u64 {
            r.record(VTime::from_nanos(ns));
        }
        assert_eq!(r.count(), 32);
        // Buckets below SUB are exact: rank 1 is the 0ns sample, rank 2 is 1ns.
        assert_eq!(r.percentile(100.0 / 32.0).as_nanos(), 0);
        assert_eq!(r.percentile(200.0 / 32.0).as_nanos(), 1);
        assert_eq!(r.percentile(100.0).as_nanos(), 31);
    }

    #[test]
    fn merge_combines() {
        let a = LatencyRecorder::new();
        let b = LatencyRecorder::new();
        a.record(VTime::from_micros(10));
        b.record(VTime::from_micros(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), VTime::from_micros(1000));
        assert_eq!(a.mean(), VTime::from_micros(505));
    }

    #[test]
    fn trial_throughput() {
        let mut t = TrialResult::new(VTime::from_secs(2));
        t.committed = 1000;
        assert!((t.throughput() - 500.0).abs() < 1e-9);
        let empty = TrialResult::new(VTime::ZERO);
        assert_eq!(empty.throughput(), 0.0);
    }

    #[test]
    fn timeline_add_busy_splits_across_buckets() {
        let tl = Timeline::new(1_000);
        // 300ns..2_500ns spans buckets 0 (700ns), 1 (1000ns), 2 (500ns).
        tl.add_busy(300, 2_500);
        let snap = tl.snapshot();
        assert_eq!(snap[&0], 700);
        assert_eq!(snap[&1], 1_000);
        assert_eq!(snap[&2], 500);
        // Total deposited equals the interval length.
        assert_eq!(snap.values().sum::<i64>(), 2_200);
        // Degenerate interval deposits nothing.
        tl.add_busy(10, 10);
        assert_eq!(tl.snapshot().values().sum::<i64>(), 2_200);
    }

    #[test]
    fn single_writer_timeline_matches_add_busy_after_every_interval() {
        let locked = Timeline::new(1_000);
        let single = Timeline::new(1_000);
        let intervals = [
            (100, 400),     // opens bucket 0
            (450, 900),     // inside the open bucket
            (900, 1_300),   // crosses one boundary
            (1_300, 1_310), // inside the new open bucket
            (1_500, 4_200), // crosses three boundaries
            (200, 350),     // behind: reopens bucket 0
            (4_300, 4_400), // back to bucket 4
            (2_990, 5_001), // crosses three, into closed buckets 3 and 4
            (7_000, 7_000), // empty
        ];
        for (s, e) in intervals {
            locked.add_busy(s, e);
            single.add_busy_single_writer(s, e);
            assert_eq!(locked.snapshot(), single.snapshot(), "after [{s}, {e})");
        }
        let snap = single.snapshot();
        assert_eq!(snap[&0], 300 + 450 + 100 + 150);
        assert_eq!(snap.values().sum::<i64>(), 6_121);
    }

    #[test]
    fn registry_accepts_owned_keys() {
        let reg = MetricsRegistry::new();
        let name = format!("astore-{}.pmem", 0);
        reg.counter(name.clone(), "busy_ns").add(7);
        // Same dynamic key resolves to the same handle as a fresh String.
        assert_eq!(reg.counter("astore-0.pmem".to_string(), "busy_ns").get(), 7);
        assert_eq!(reg.counter_values()["astore-0.pmem.busy_ns"], 7);
        // Static and owned keys share one namespace.
        reg.gauge("engine.cpu", "lanes").set(20);
        assert_eq!(reg.gauge_values()["engine.cpu.lanes"], 20);
    }

    #[test]
    fn recorder_total_is_exact_sum() {
        let r = LatencyRecorder::new();
        r.record(VTime::from_nanos(123_457));
        r.record(VTime::from_nanos(1));
        assert_eq!(r.total(), VTime::from_nanos(123_458));
    }

    #[test]
    fn registry_timelines_register() {
        let reg = MetricsRegistry::new();
        reg.timeline("disk", "util_busy_ns")
            .add_busy(3_000_000, 3_000_007);
        let handles = reg.timeline_handles();
        assert_eq!(handles.len(), 1);
        assert_eq!(handles[0].0, "disk.util_busy_ns");
        assert_eq!(handles[0].1.snapshot()[&3], 7);
    }

    #[test]
    fn concurrent_record() {
        use std::sync::Arc;
        let r = Arc::new(LatencyRecorder::new());
        let mut hs = vec![];
        for t in 0..4 {
            let r = Arc::clone(&r);
            hs.push(std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    r.record(VTime::from_nanos(i * (t + 1)));
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(r.count(), 40_000);
    }
}
