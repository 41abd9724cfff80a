//! Property tests for resource saturation attribution.
//!
//! 1. **Conservation**: for every acquisition on a metrics-attached
//!    [`Resource`], `wait + service == completion - request` *exactly* —
//!    the calendar queue grants at `start >= now` and completes at
//!    `start + service`, so the wait/service split partitions each
//!    client-observed acquisition latency with no residue, under arbitrary
//!    interleavings of concurrent virtual-time clients.
//! 2. **Totals**: the registry's `busy_ns`/`ops` counters agree with the
//!    resource's own accumulators, and the wait/service histograms saw
//!    exactly one sample per acquisition.
//! 3. **Exactness against a reference model**: [`reference`] is the
//!    straightforward implementation — the gap-aware calendar with its
//!    history pruning, every book an atomic handle updated after the
//!    calendar lock, and the utilisation timeline a `BTreeMap` entry per
//!    bucket touched. Random single-client sequences (arrivals out of order,
//!    far jumps past the history horizon and back, services that cross
//!    bucket boundaries), and long mostly in-order runs that keep
//!    thousands of slots on a lane, must leave `Resource` with the same
//!    completion times, counters, histograms and timeline after every
//!    step, at every lane count the cluster builds.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use vedb_sim::{LatencyRecorder, MetricsRegistry, Resource, VTime};

#[derive(Debug, Clone)]
struct Acq {
    /// Virtual-time step the client takes before requesting.
    advance_ns: u64,
    /// Requested service interval.
    service_ns: u64,
}

fn acq_strategy() -> impl Strategy<Value = Vec<Acq>> {
    proptest::collection::vec(
        (0u64..50_000, 1u64..20_000).prop_map(|(advance_ns, service_ns)| Acq {
            advance_ns,
            service_ns,
        }),
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wait_plus_service_equals_acquisition_latency(
        per_client in proptest::collection::vec(acq_strategy(), 1..5),
        lanes in 1usize..4,
    ) {
        let reg = MetricsRegistry::new();
        let res = Arc::new(Resource::with_metrics("node.dev", lanes, &reg));

        // Concurrent clients, each with its own virtual clock, hammering
        // the same resource from OS threads (the registry handles are the
        // same Arcs the threads record into).
        let mut handles = Vec::new();
        for ops in per_client.clone() {
            let res = Arc::clone(&res);
            handles.push(std::thread::spawn(move || {
                let mut now = VTime::ZERO;
                let mut residue = 0u64;
                let mut total_lat = 0u64;
                for op in ops {
                    now += VTime::from_nanos(op.advance_ns);
                    let svc = VTime::from_nanos(op.service_ns);
                    let done = res.acquire(now, svc);
                    // Completion is never before now + service.
                    assert!(done >= now + svc);
                    let lat = (done - now).as_nanos();
                    let wait = lat - op.service_ns; // == start - now
                    residue += lat - (wait + op.service_ns);
                    total_lat += lat;
                    now = done;
                }
                (residue, total_lat)
            }));
        }
        let mut latency_sum = 0u64;
        for h in handles {
            let (residue, lat) = h.join().unwrap();
            prop_assert_eq!(residue, 0, "wait + service must cover latency exactly");
            latency_sum += lat;
        }

        // Registry totals: one histogram sample per acquisition; the exact
        // sums of the wait and service recorders partition the summed
        // client-observed latency.
        let n: u64 = per_client.iter().map(|c| c.len() as u64).sum();
        let svc_sum: u64 = per_client
            .iter()
            .flatten()
            .map(|a| a.service_ns)
            .sum();
        let counters = reg.counter_values();
        prop_assert_eq!(counters["node.dev.ops"], n);
        prop_assert_eq!(counters["node.dev.busy_ns"], svc_sum);
        prop_assert_eq!(res.total_busy().as_nanos(), svc_sum);

        let lats = reg.latency_handles();
        let wait = &lats.iter().find(|(k, _)| k == "node.dev.wait").unwrap().1;
        let service = &lats.iter().find(|(k, _)| k == "node.dev.service").unwrap().1;
        prop_assert_eq!(wait.count(), n);
        prop_assert_eq!(service.count(), n);
        prop_assert_eq!(service.total().as_nanos(), svc_sum);
        prop_assert_eq!(
            wait.total().as_nanos() + service.total().as_nanos(),
            latency_sum,
            "summed wait + service histograms must equal summed acquisition latency"
        );
    }
}

/// The resource as written without any attention to host cost: the same
/// calendar, its books as separately updated atomic handles, and the
/// utilisation timeline as one map entry per bucket.
mod reference {
    use std::collections::BTreeMap;

    use vedb_sim::{Counter, LatencyRecorder, VTime};

    const HISTORY_NS: u64 = 50_000_000;
    pub const BUCKET_NS: u64 = 1_000_000;

    #[derive(Default)]
    struct Lane {
        slots: Vec<(u64, u64)>,
    }

    impl Lane {
        fn earliest(&self, now: u64, svc: u64) -> (u64, u64, usize) {
            let first = self.slots.partition_point(|&(_, e)| e <= now);
            let mut candidate = now;
            for (i, &(s, e)) in self.slots.iter().enumerate().skip(first) {
                if candidate + svc <= s {
                    return (candidate, candidate + svc, i);
                }
                candidate = candidate.max(e);
            }
            (candidate, candidate + svc, self.slots.len())
        }

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

        fn prune(&mut self, horizon: u64) {
            let keep_from = self.slots.partition_point(|&(_, e)| e < horizon);
            self.slots.drain(..keep_from);
        }
    }

    pub struct Model {
        lanes: Vec<Lane>,
        max_seen_now: u64,
        pub ops: Counter,
        pub busy_ns: Counter,
        pub wait: LatencyRecorder,
        pub service: LatencyRecorder,
        pub util: BTreeMap<u64, i64>,
    }

    impl Model {
        pub fn new(lanes: usize) -> Model {
            Model {
                lanes: (0..lanes).map(|_| Lane::default()).collect(),
                max_seen_now: 0,
                ops: Counter::new(),
                busy_ns: Counter::new(),
                wait: LatencyRecorder::new(),
                service: LatencyRecorder::new(),
                util: BTreeMap::new(),
            }
        }

        pub fn acquire(&mut self, now: u64, svc: u64) -> u64 {
            if svc == 0 {
                return now;
            }
            self.max_seen_now = self.max_seen_now.max(now);
            if self.ops.get().is_multiple_of(64) {
                let horizon = self.max_seen_now.saturating_sub(HISTORY_NS);
                for lane in &mut self.lanes {
                    lane.prune(horizon);
                }
            }
            let mut best: Option<(u64, u64, usize, usize)> = None;
            for (li, lane) in self.lanes.iter().enumerate() {
                let (start, end, idx) = lane.earliest(now, svc);
                if best.map(|(_, be, _, _)| end < be).unwrap_or(true) {
                    best = Some((start, end, li, idx));
                    if start == now {
                        break;
                    }
                }
            }
            let (start, end, li, idx) = best.expect("at least one lane");
            self.lanes[li].reserve(start, end, idx);
            self.ops.inc();
            self.wait.record(VTime::from_nanos(start - now));
            self.service.record(VTime::from_nanos(svc));
            self.busy_ns.add(svc);
            let mut s = start;
            while s < end {
                let bucket = s / BUCKET_NS;
                let e = end.min((bucket + 1) * BUCKET_NS);
                *self.util.entry(bucket).or_insert(0) += (e - s) as i64;
                s = e;
            }
            end
        }
    }
}

/// Where the next arrival falls relative to the furthest clock seen so far.
#[derive(Debug, Clone)]
enum Arrival {
    /// The frontier moves forward by this much and the arrival is at it.
    Ahead(u64),
    /// The arrival is this far behind the frontier (a lagging client); the
    /// frontier stays.
    Behind(u64),
}

/// One step of a single-client sequence: acquire this much service at an
/// arrival.
#[derive(Debug, Clone)]
enum Step {
    Acquire(Arrival, u64),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let short = 1u64..20_000;
    // Up to 3.5 buckets: crosses 0-3 bucket boundaries.
    let long = 1u64..(3 * reference::BUCKET_NS + reference::BUCKET_NS / 2);
    prop_oneof![
        6 => (0u64..300_000, short.clone()).prop_map(|(d, s)| Step::Acquire(Arrival::Ahead(d), s)),
        3 => (0u64..4_000_000, short.clone()).prop_map(|(d, s)| Step::Acquire(Arrival::Behind(d), s)),
        2 => (0u64..50_000, long).prop_map(|(d, s)| Step::Acquire(Arrival::Ahead(d), s)),
        // Past the 50 ms history horizon, and back into pruned history.
        1 => (50_000_000u64..80_000_000, short.clone())
            .prop_map(|(d, s)| Step::Acquire(Arrival::Ahead(d), s)),
        1 => (50_000_000u64..70_000_000, short).prop_map(|(d, s)| Step::Acquire(Arrival::Behind(d), s)),
    ]
}

fn histogram(reg: &MetricsRegistry, name: &str) -> Arc<LatencyRecorder> {
    reg.latency_handles()
        .into_iter()
        .find(|(k, _)| k == name)
        .map(|(_, h)| h)
        .unwrap()
}

/// Count, then total, max, p50, p95 and p99.
fn summary(h: &LatencyRecorder) -> (u64, [VTime; 5]) {
    (h.count(), [h.total(), h.max(), h.p50(), h.p95(), h.p99()])
}

/// Every book `reg` holds for resource `node.dev` equals the model's.
fn assert_books_match(reg: &MetricsRegistry, model: &reference::Model, lanes: usize) {
    let want: BTreeMap<String, u64> = [
        ("node.dev.busy_ns".to_string(), model.busy_ns.get()),
        ("node.dev.ops".to_string(), model.ops.get()),
    ]
    .into();
    assert_eq!(reg.counter_values(), want);
    assert_eq!(reg.gauge_values()["node.dev.lanes"], lanes as i64);
    assert_eq!(
        summary(&histogram(reg, "node.dev.wait")),
        summary(&model.wait),
        "wait histogram"
    );
    assert_eq!(
        summary(&histogram(reg, "node.dev.service")),
        summary(&model.service),
        "service histogram"
    );
    let timelines = reg.timeline_handles();
    assert_eq!(timelines.len(), 1);
    assert_eq!(timelines[0].0, "node.dev.util_busy_ns");
    assert_eq!(timelines[0].1.snapshot(), model.util);
}

/// The lane counts `ClusterSpec` builds (one NIC link, PMem's 7 lanes, the
/// engine's 20 and storage's 64 cores) and the small ones between.
fn lanes_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(2),
        Just(3),
        Just(4),
        Just(7),
        Just(20),
        Just(64)
    ]
}

/// A long, mostly in-order run: each arrival moves the frontier past the
/// previous reservation's end, so the slots do not coalesce and the first
/// lane keeps about 2 000 of them inside the history horizon (as
/// `engine.cpu` keeps 1 100–2 200), while the run outlasts the horizon, so
/// every prune pops from that long front. Every 50th arrival lands up to
/// 4 ms behind and searches the calendar.
fn long_run_strategy() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (5_000u64..45_000, 1u64..5_000, 0u64..4_000_000),
        3_000..3_400,
    )
    .prop_map(|draws| {
        draws
            .into_iter()
            .enumerate()
            .map(|(i, (ahead, svc, behind))| {
                if i % 50 == 49 {
                    Step::Acquire(Arrival::Behind(behind), svc)
                } else {
                    Step::Acquire(Arrival::Ahead(ahead), svc)
                }
            })
            .collect()
    })
}

/// Feed `steps` to a `Resource` of `lanes` lanes and to the reference
/// model, comparing every book after every step.
fn books_match_the_model(steps: Vec<Step>, lanes: usize) {
    // `watched` is compared after every acquire, so its timeline is
    // snapshotted between any two; `unwatched` is fed the same
    // sequence and compared once at the end.
    let watched = MetricsRegistry::new();
    let unwatched = MetricsRegistry::new();
    let res = Resource::with_metrics("node.dev", lanes, &watched);
    let twin = Resource::with_metrics("node.dev", lanes, &unwatched);
    let mut model = reference::Model::new(lanes);
    let mut frontier = 0u64;
    let mut at = |arrival: Arrival| match arrival {
        Arrival::Ahead(d) => {
            frontier += d;
            frontier
        }
        Arrival::Behind(d) => frontier.saturating_sub(d),
    };
    for Step::Acquire(arrival, svc) in steps {
        let now = at(arrival);
        let want = model.acquire(now, svc);
        let (now, svc) = (VTime::from_nanos(now), VTime::from_nanos(svc));
        assert_eq!(res.acquire(now, svc).as_nanos(), want);
        assert_eq!(twin.acquire(now, svc).as_nanos(), want);
        assert_books_match(&watched, &model, lanes);
    }
    assert_books_match(&unwatched, &model, lanes);
    assert_eq!(res.ops(), model.ops.get());
    assert_eq!(res.total_busy().as_nanos(), model.busy_ns.get());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn books_match_the_reference_model_after_every_step(
        steps in proptest::collection::vec(step_strategy(), 1..400),
        lanes in lanes_strategy(),
    ) {
        books_match_the_model(steps, lanes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn books_match_the_reference_model_over_a_long_in_order_run(
        steps in long_run_strategy(),
        lanes in lanes_strategy(),
    ) {
        books_match_the_model(steps, lanes);
    }
}
