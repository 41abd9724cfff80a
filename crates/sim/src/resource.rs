//! Contended k-lane resources with virtual-time queueing.
//!
//! A [`Resource`] models a piece of hardware with `k` parallel servers: a
//! CPU with `k` cores, a PMem DIMM with `k` concurrent access lanes, an SSD
//! with `k` channels, a NIC link with `k` in-flight slots. Each lane keeps a
//! short calendar of future reservations. To use the resource, a client
//! books the earliest-completing slot across lanes:
//!
//! ```text
//! completion = earliest gap of length `service` at or after `now`
//! ```
//!
//! Crucially, reservations are **gap-aware**: a client whose clock is
//! behind another's can backfill an idle interval *before* someone else's
//! future reservation, exactly as the real device would serve the request
//! that arrives first. A simple busy-until watermark would instead let one
//! future reservation block the whole lane — inflating queueing delay by
//! the clock skew at every hop. Skew is not bounded: under the baton
//! ([`run_clients`](crate::sched::run_clients)) a turn starts at the lowest
//! clock, but one turn can carry its client far ahead (a scan runs inside
//! one turn; a lock-wait timeout charges a 200 ms budget), so the next
//! turns arrive at earlier clocks.
//!
//! **Pruned history.** A lane forgets reservations that ended more than
//! `HISTORY_NS` (50 ms) before the latest `now` it has seen; an arrival
//! earlier than that horizon finds the forgotten intervals idle. Counted
//! over the workspace suite, that happens to 68 723 acquires in five tests
//! (besides the reference-model proptest, which does it on purpose): a
//! proptest opening a fresh client per case on a shared deployment
//! (66 222, 50–64 ms late), a second context started after a multi-client
//! trial (1 239, 154–164 ms late), 16 clients on hot rows whose lock-wait
//! timeouts carry victims ahead (1 261 on baton threads, 55–70 ms late),
//! and a test that jumps 500 ms (1). In the four host-benchmark workloads
//! at seed 7 it happens only in `commit_wide`'s durability check, whose
//! recovery context restarts at clock 0 (294 363 acquires, 34–45 s late);
//! no measured repetition books into pruned history.
//!
//! **Cost.** An acquire that arrives at or after a lane's last reservation
//! starts there at once, with no search: O(1) per lane tried. Counted in
//! 200 000-acquire windows of the host benchmark at seed 7, that is
//! 99.7–99.99% of `engine.cpu`'s acquires in `tpcc_mix`, all of them in
//! `commit_wide` and 99.3–99.5% in `lookup_ebp`, while its 20 lanes hold
//! 650–1 900, ~2 500 and ~1 880 reservations between them. Behind
//! arrivals are the storage nodes' lot: in `commit_wide`, `storage-N.cpu`
//! tries 1.66 lanes per acquire and 1.02 of them hold a future
//! reservation, and `storage-N.nic` meets 0.65 such lanes per acquire;
//! either lands about 9 slots from the tail of a lane holding ~1 100–1 170.
//! So an acquire that lands behind a reservation gallops back from the
//! tail in doubling steps, binary-searches the bracket for the first
//! interval that ends after it, then walks the future gaps, which
//! coalescing keeps few. Pruning pops expired reservations off the front
//! of the lane's `VecDeque`, so it costs what it prunes.
//!
//! **Books.** The wait/service histograms, `busy_ns` / `ops` counters and
//! the utilization timeline move inside the same critical section as the
//! calendar: the resource is their only writer, so they take plain loads
//! and stores rather than atomic read-modify-writes, and the timeline
//! takes its own mutex only when an interval leaves its open bucket.
//!
//! This is a standard G/G/k calendar-queue simulation; throughput
//! saturation and latency blow-up under concurrency emerge naturally,
//! which is the behaviour the paper's Figures 6, 7 and 13 hinge on.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::metrics::{Counter, LatencyRecorder, MetricsRegistry, Timeline};
use crate::time::VTime;

/// How much history a lane retains. Reservations ending further than this
/// before the newest observed clock are pruned. Nothing bounds how far
/// behind an arrival can be, and some are further (module docs, *Pruned
/// history*); they are served as if the pruned interval were idle.
const HISTORY_NS: u64 = 50_000_000; // 50ms

#[derive(Default)]
struct Lane {
    /// Sorted, non-overlapping reservations (start, end) in nanoseconds.
    slots: VecDeque<(u64, u64)>,
}

impl Lane {
    /// Earliest (start, completion, insert_index) for a job of `svc` ns
    /// arriving at `now`. An arrival at or after the lane's last
    /// reservation starts at once, with no search. A behind arrival finds
    /// the first interval that ends after `now` from the tail
    /// ([`first_ending_after`](Self::first_ending_after)), so its cost is
    /// logarithmic in how far back it lands plus the number of *future*
    /// gaps, which coalescing keeps tiny.
    fn earliest(&self, now: u64, svc: u64) -> (u64, u64, usize) {
        let len = self.slots.len();
        if self.slots.back().is_none_or(|&(_, e)| e <= now) {
            return (now, now + svc, len);
        }
        let first = self.first_ending_after(now);
        let mut candidate = now;
        for (i, &(s, e)) in self.slots.range(first..).enumerate() {
            if candidate + svc <= s {
                return (candidate, candidate + svc, first + i);
            }
            candidate = candidate.max(e);
        }
        (candidate, candidate + svc, len)
    }

    /// `self.slots.partition_point(|&(_, e)| e <= now)`, searched from the
    /// tail: a behind arrival lands a few slots from it (module docs,
    /// *Cost*), so gallop back in doubling steps to bracket the answer,
    /// then binary-search the bracket.
    fn first_ending_after(&self, now: u64) -> usize {
        let ends_by_now = |i: usize| self.slots[i].1 <= now;
        // Every slot before `lo` ends by `now`; `hi` is the length or a slot
        // that ends after it.
        let (mut lo, mut hi) = (0, self.slots.len());
        let mut step = 1;
        while step <= hi {
            let probe = hi - step;
            if ends_by_now(probe) {
                lo = probe + 1;
                break;
            }
            hi = probe;
            step *= 2;
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if ends_by_now(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Insert a reservation, coalescing with adjacent intervals so dense
    /// back-to-back traffic collapses into a single interval per lane.
    fn reserve(&mut self, start: u64, end: u64, idx: usize) {
        let merges_prev = idx > 0 && self.slots[idx - 1].1 == start;
        let merges_next = idx < self.slots.len() && self.slots[idx].0 == end;
        match (merges_prev, merges_next) {
            (true, true) => {
                self.slots[idx - 1].1 = self.slots[idx].1;
                self.slots.remove(idx);
            }
            (true, false) => self.slots[idx - 1].1 = end,
            (false, true) => self.slots[idx].0 = start,
            (false, false) => self.slots.insert(idx, (start, end)),
        }
    }

    /// Forget the reservations that ended before `horizon`, popping them
    /// off the front: the cost is the number pruned.
    fn prune(&mut self, horizon: u64) {
        while self.slots.front().is_some_and(|&(_, e)| e < horizon) {
            self.slots.pop_front();
        }
    }
}

struct State {
    lanes: Vec<Lane>,
    max_seen_now: u64,
}

/// Metric handles a resource publishes into: the wait/service split, total
/// busy time and op counts, plus a busy-ns-per-bucket utilization
/// [`Timeline`].
struct ResourceMetrics {
    wait: Arc<LatencyRecorder>,
    service: Arc<LatencyRecorder>,
    busy_ns: Arc<Counter>,
    ops: Arc<Counter>,
    util: Arc<Timeline>,
}

/// A named, contended resource with `k` parallel lanes.
pub struct Resource {
    name: String,
    state: Mutex<State>,
    n_lanes: usize,
    metrics: ResourceMetrics,
}

impl Resource {
    /// Create a resource with `lanes` parallel servers, publishing into a
    /// [detached](MetricsRegistry::detached) registry.
    ///
    /// # Panics
    /// Panics if `lanes == 0`.
    pub fn new(name: impl Into<String>, lanes: usize) -> Self {
        Self::with_metrics(name, lanes, &MetricsRegistry::detached())
    }

    /// Create a resource with `lanes` parallel servers, publishing its
    /// saturation metrics into `registry` under its own name as the
    /// component:
    ///
    /// * `<name>.wait` / `<name>.service` latency histograms — every
    ///   acquisition split into queueing delay (`start - now`) and service
    ///   time, so `wait + service` equals the caller-observed latency
    ///   exactly;
    /// * `<name>.busy_ns` / `<name>.ops` counters (totals);
    /// * `<name>.lanes` gauge — marks the component as a resource for
    ///   report discovery and carries the parallelism for utilization math;
    /// * `<name>.util_busy_ns` timeline — per-bucket busy nanoseconds
    ///   (bucket utilization = value / (bucket_ns × lanes)).
    ///
    /// The resource is the only writer of these metrics: it updates them
    /// under its own lock with plain loads and stores, so a second writer
    /// would lose increments.
    ///
    /// # Panics
    /// Panics if `lanes == 0`, or if `registry` already holds a resource
    /// called `name`.
    pub fn with_metrics(name: impl Into<String>, lanes: usize, registry: &MetricsRegistry) -> Self {
        assert!(lanes > 0, "a resource needs at least one lane");
        let name = name.into();
        registry
            .new_gauge(name.clone(), "lanes")
            .unwrap_or_else(|| panic!("resource {name:?} already registered"))
            .set(lanes as i64);
        let metrics = ResourceMetrics {
            wait: registry.latency(name.clone(), "wait"),
            service: registry.latency(name.clone(), "service"),
            busy_ns: registry.counter(name.clone(), "busy_ns"),
            ops: registry.counter(name.clone(), "ops"),
            util: registry.timeline(name.clone(), "util_busy_ns"),
        };
        Resource {
            name,
            state: Mutex::new(State {
                lanes: (0..lanes).map(|_| Lane::default()).collect(),
                max_seen_now: 0,
            }),
            n_lanes: lanes,
            metrics,
        }
    }

    /// Name given at construction (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of parallel lanes.
    pub fn lanes(&self) -> usize {
        self.n_lanes
    }

    /// Reserve `service` time on the earliest-available lane slot at or
    /// after `now`. Returns the completion time (≥ `now + service`).
    pub fn acquire(&self, now: VTime, service: VTime) -> VTime {
        if service == VTime::ZERO {
            return now;
        }
        let now_ns = now.as_nanos();
        let svc = service.as_nanos();
        let m = &self.metrics;
        let mut st = self.state.lock();
        st.max_seen_now = st.max_seen_now.max(now_ns);
        // Periodic pruning of ancient reservations: every 64th acquire
        // (`ops` only moves under the state lock).
        if m.ops.get().is_multiple_of(64) {
            let horizon = st.max_seen_now.saturating_sub(HISTORY_NS);
            for lane in &mut st.lanes {
                lane.prune(horizon);
            }
        }
        let mut best: Option<(u64, u64, usize, usize)> = None; // start,end,lane,idx
        for (li, lane) in st.lanes.iter().enumerate() {
            let (start, end, idx) = lane.earliest(now_ns, svc);
            if best.map(|(_, be, _, _)| end < be).unwrap_or(true) {
                best = Some((start, end, li, idx));
                if start == now_ns {
                    break; // cannot do better than starting immediately
                }
            }
        }
        let (start, end, li, idx) = best.expect("at least one lane");
        st.lanes[li].reserve(start, end, idx);
        // The books move inside the same critical section: the state lock
        // makes this call their only writer (`with_metrics` admits one
        // resource per name), so they take loads and stores, not atomic
        // read-modify-writes. By construction start >= now and
        // end == start + svc, so wait + service == end - now exactly (the
        // conservation the attribution proptest pins).
        m.ops.add_single_writer(1);
        m.busy_ns.add_single_writer(svc);
        m.wait
            .record_single_writer(VTime::from_nanos(start - now_ns));
        m.service.record_single_writer(service);
        m.util.add_busy_single_writer(start, end);
        VTime::from_nanos(end)
    }

    /// Total service time ever charged (`<name>.busy_ns`).
    pub fn total_busy(&self) -> VTime {
        VTime::from_nanos(self.metrics.busy_ns.get())
    }

    /// Number of operations ever served (`<name>.ops`).
    pub fn ops(&self) -> u64 {
        self.metrics.ops.get()
    }

    /// Utilization over a window of virtual time (1.0 = all lanes busy the
    /// whole window). Values above 1.0 mean the accounting window was shorter
    /// than the busy period (e.g. warm-up excluded); callers clamp as needed.
    pub fn utilization(&self, window: VTime) -> f64 {
        if window == VTime::ZERO {
            return 0.0;
        }
        self.total_busy().as_nanos() as f64 / (window.as_nanos() as f64 * self.n_lanes as f64)
    }
}

impl std::fmt::Debug for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resource")
            .field("name", &self.name)
            .field("lanes", &self.n_lanes)
            .field("ops", &self.ops())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_serves_immediately() {
        let r = Resource::new("cpu", 2);
        let done = r.acquire(VTime::from_micros(100), VTime::from_micros(10));
        assert_eq!(done, VTime::from_micros(110));
    }

    #[test]
    fn zero_service_is_free() {
        let r = Resource::new("cpu", 1);
        assert_eq!(
            r.acquire(VTime::from_micros(5), VTime::ZERO),
            VTime::from_micros(5)
        );
        assert_eq!(r.ops(), 0);
    }

    #[test]
    fn single_lane_serializes() {
        let r = Resource::new("disk", 1);
        let d1 = r.acquire(VTime::ZERO, VTime::from_micros(10));
        let d2 = r.acquire(VTime::ZERO, VTime::from_micros(10));
        let d3 = r.acquire(VTime::ZERO, VTime::from_micros(10));
        assert_eq!(d1, VTime::from_micros(10));
        assert_eq!(d2, VTime::from_micros(20));
        assert_eq!(d3, VTime::from_micros(30));
    }

    #[test]
    fn two_lanes_run_two_in_parallel() {
        let r = Resource::new("nic", 2);
        let d1 = r.acquire(VTime::ZERO, VTime::from_micros(10));
        let d2 = r.acquire(VTime::ZERO, VTime::from_micros(10));
        let d3 = r.acquire(VTime::ZERO, VTime::from_micros(10));
        assert_eq!(d1, VTime::from_micros(10));
        assert_eq!(d2, VTime::from_micros(10));
        assert_eq!(d3, VTime::from_micros(20));
    }

    #[test]
    fn late_arrival_does_not_wait() {
        let r = Resource::new("disk", 1);
        let _ = r.acquire(VTime::ZERO, VTime::from_micros(10));
        // Arrives after the first job is done: starts at its own `now`.
        let done = r.acquire(VTime::from_micros(50), VTime::from_micros(10));
        assert_eq!(done, VTime::from_micros(60));
    }

    #[test]
    fn earlier_arrival_backfills_before_future_reservation() {
        let r = Resource::new("disk", 1);
        // A client "ahead" in virtual time books 100us..110us.
        let d1 = r.acquire(VTime::from_micros(100), VTime::from_micros(10));
        assert_eq!(d1, VTime::from_micros(110));
        // A client "behind" at t=0 fits entirely before that reservation
        // and must not queue behind it.
        let d2 = r.acquire(VTime::ZERO, VTime::from_micros(10));
        assert_eq!(d2, VTime::from_micros(10));
        // A job too large for the gap goes after.
        let d3 = r.acquire(VTime::from_micros(95), VTime::from_micros(10));
        assert_eq!(d3, VTime::from_micros(120));
    }

    #[test]
    fn backfill_between_two_reservations() {
        let r = Resource::new("disk", 1);
        let _ = r.acquire(VTime::ZERO, VTime::from_micros(10)); // 0..10
        let _ = r.acquire(VTime::from_micros(40), VTime::from_micros(10)); // 40..50
                                                                           // Fits in the 10..40 gap.
        let d = r.acquire(VTime::from_micros(5), VTime::from_micros(20));
        assert_eq!(d, VTime::from_micros(30));
    }

    #[test]
    fn utilization_accounting() {
        let r = Resource::new("cpu", 2);
        r.acquire(VTime::ZERO, VTime::from_micros(10));
        r.acquire(VTime::ZERO, VTime::from_micros(30));
        // 40us busy across 2 lanes over a 20us window -> 1.0
        assert!((r.utilization(VTime::from_micros(20)) - 1.0).abs() < 1e-9);
        assert_eq!(r.ops(), 2);
    }

    #[test]
    fn concurrent_acquire_is_consistent() {
        use std::sync::Arc;
        let r = Arc::new(Resource::new("cpu", 4));
        let svc = VTime::from_micros(5);
        let mut handles = vec![];
        for _ in 0..8 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    r.acquire(VTime::ZERO, svc);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.ops(), 8_000);
        // All service time must be accounted exactly once.
        assert_eq!(r.total_busy(), VTime::from_micros(5 * 8_000));
        assert!(r.utilization(VTime::from_millis(10)) >= 1.0);
    }

    #[test]
    fn reservations_do_not_overlap_within_a_lane() {
        let mut rng = crate::rng::SimRng::new(42);
        let r = Resource::new("x", 3);
        for _ in 0..2000 {
            let now = VTime::from_nanos(rng.gen_range(0..1_000_000u64));
            let svc = VTime::from_nanos(rng.gen_range(1..50_000u64));
            r.acquire(now, svc);
        }
        let st = r.state.lock();
        for lane in &st.lanes {
            for (a, b) in lane.slots.iter().zip(lane.slots.iter().skip(1)) {
                assert!(a.1 <= b.0, "overlap: {a:?} then {b:?}");
            }
        }
    }

    #[test]
    fn tail_search_finds_what_partition_point_finds() {
        let mut rng = crate::rng::SimRng::new(7);
        for len in [0usize, 1, 2, 3, 2_000] {
            for _ in 0..200 {
                // A sorted, coalesced calendar: gaps of at least 1 ns.
                let mut lane = Lane::default();
                let mut t = rng.gen_range(0..1_000u64);
                for _ in 0..len {
                    let start = t + rng.gen_range(1..500u64);
                    let end = start + rng.gen_range(1..500u64);
                    lane.slots.push_back((start, end));
                    t = end;
                }
                let bounds: Vec<u64> = lane.slots.iter().flat_map(|&(s, e)| [s, e]).collect();
                let mut arrivals = vec![0, t, t + 1];
                for _ in 0..16 {
                    if bounds.is_empty() {
                        break;
                    }
                    // Just behind the tail and deep in history, on a
                    // boundary or one either side of it.
                    let back = rng.gen_range(0..bounds.len().min(24) as u64) as usize;
                    let deep = rng.gen_range(0..bounds.len() as u64) as usize;
                    for b in [bounds[bounds.len() - 1 - back], bounds[deep]] {
                        arrivals.extend([b.saturating_sub(1), b, b + 1]);
                    }
                }
                for now in arrivals {
                    assert_eq!(
                        lane.first_ending_after(now),
                        lane.slots.partition_point(|&(_, e)| e <= now),
                        "len {len}, now {now}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_panics() {
        let _ = Resource::new("bad", 0);
    }

    #[test]
    #[should_panic(expected = "resource \"x\" already registered")]
    fn second_resource_of_one_name_on_one_registry_panics() {
        // Two would share one `ops`, `busy_ns` and histogram pair, and the
        // second one's `lanes` would overwrite the first's.
        let reg = MetricsRegistry::new();
        let _first = Resource::with_metrics("x", 2, &reg);
        let _second = Resource::with_metrics("x", 4, &reg);
    }

    #[test]
    fn history_pruning_never_undercounts_total_busy() {
        // Regression guard for the utilization accounting: `HISTORY_NS`
        // pruning drains old lane *reservations* (calendar slots) but must
        // never touch `busy_ns`, which accumulates independently per
        // acquire. Drive a long-lived single-lane resource far past the
        // 50ms history horizon (pruning runs every 64 ops) and check every
        // charged nanosecond is still accounted.
        let r = Resource::new("pmem", 1);
        let svc = VTime::from_micros(100);
        let step = VTime::from_millis(2);
        let n: u64 = 1000; // spans 2s of virtual time, 40x the horizon
        for i in 0..n {
            r.acquire(step * i, svc);
        }
        assert_eq!(r.total_busy(), svc * n);
        assert_eq!(r.ops(), n);
        // The lanes themselves were pruned (bounded memory), proving the
        // horizon actually passed through the calendar.
        let slots: usize = r.state.lock().lanes.iter().map(|l| l.slots.len()).sum();
        assert!(
            slots < (n as usize) / 2,
            "pruning never ran: {slots} slots retained"
        );
    }

    #[test]
    fn attached_resource_splits_wait_and_service() {
        let reg = MetricsRegistry::new();
        let r = Resource::with_metrics("disk", 1, &reg);
        let d1 = r.acquire(VTime::ZERO, VTime::from_micros(10));
        let d2 = r.acquire(VTime::ZERO, VTime::from_micros(10));
        assert_eq!(d1, VTime::from_micros(10));
        assert_eq!(d2, VTime::from_micros(20)); // queued 10us behind d1
        let lats = reg.latency_handles();
        let get = |name: &str| {
            lats.iter()
                .find(|(k, _)| k == name)
                .map(|(_, h)| Arc::clone(h))
                .unwrap()
        };
        let wait = get("disk.wait");
        let service = get("disk.service");
        assert_eq!(wait.count(), 2);
        assert_eq!(wait.total(), VTime::from_micros(10)); // 0 + 10us
        assert_eq!(service.total(), VTime::from_micros(20));
        // wait + service == total caller-observed latency (20us + 20us).
        assert_eq!(
            wait.total() + service.total(),
            (d1 - VTime::ZERO) + (d2 - VTime::ZERO)
        );
        assert_eq!(reg.gauge_values()["disk.lanes"], 1);
        assert_eq!(reg.counter_values()["disk.busy_ns"], 20_000);
        assert_eq!(reg.counter_values()["disk.ops"], 2);
        // Both 10us services land in utilization bucket 0 (1ms buckets).
        let tl = &reg.timeline_handles()[0];
        assert_eq!(tl.0, "disk.util_busy_ns");
        assert_eq!(tl.1.snapshot()[&0], 20_000);
    }
}
