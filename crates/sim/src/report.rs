//! Serialisable run reports: registry snapshots + trial results as JSON.
//!
//! A [`RunReport`] freezes one benchmark run — its measured [`Trial`]s (one
//! for a single run, one per point for a sweep, none for a registry-only
//! snapshot) and every subsystem counter/gauge/histogram from the
//! deployment's [`MetricsRegistry`] — into a plain-data struct whose JSON
//! encoding is **byte-deterministic** ([`crate::json`]: `BTreeMap` key order,
//! integer nanoseconds, no wall-clock anywhere). Two runs of the same seeded
//! workload therefore serialise to identical bytes, which the determinism
//! regression test asserts, and `crates/bench` writes these out as
//! `BENCH_<figure>.json` artifacts so every PR leaves a machine-readable perf
//! baseline behind.

use std::collections::BTreeMap;

use crate::json::{render, Json};
use crate::metrics::{LatencyRecorder, MetricsRegistry, Timeline, TrialResult};
use crate::profile::Profile;

/// Schema tag of the serialised report.
pub const SCHEMA: &str = "vedb-bench-report/v4";

/// Five-number summary of a latency histogram, in integer nanoseconds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Mean, ns.
    pub mean_ns: u64,
    /// Median, ns.
    pub p50_ns: u64,
    /// 95th percentile, ns.
    pub p95_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// Maximum (exact, not bucketed), ns.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarise a recorder's current contents.
    pub fn from_recorder(r: &LatencyRecorder) -> Self {
        LatencySummary {
            count: r.count(),
            mean_ns: r.mean().as_nanos(),
            p50_ns: r.p50().as_nanos(),
            p95_ns: r.p95().as_nanos(),
            p99_ns: r.p99().as_nanos(),
            max_ns: r.max().as_nanos(),
        }
    }

    fn to_value(&self) -> Json {
        Json::obj([
            ("count", self.count.into()),
            ("mean_ns", self.mean_ns.into()),
            ("p50_ns", self.p50_ns.into()),
            ("p95_ns", self.p95_ns.into()),
            ("p99_ns", self.p99_ns.into()),
            ("max_ns", self.max_ns.into()),
        ])
    }
}

/// Saturation summary of one simulated resource (a `Resource` built with
/// `with_metrics`): parallelism, totals, the wait/service split, and a
/// steady-state utilization estimate from the trailing half of the
/// resource's `util_busy_ns` timeline buckets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResourceSummary {
    /// Parallel lanes (servers) of the resource.
    pub lanes: i64,
    /// Operations served.
    pub ops: u64,
    /// Total service time charged, ns.
    pub busy_ns: u64,
    /// Steady-state utilization in hundredths of a percent (integer math;
    /// `1234` renders as `12.34`). Computed over the trailing half of the
    /// sampled utilization buckets, so warm-up ramp is excluded.
    pub steady_util_x100: u64,
    /// Queueing-delay distribution (`start - now` per acquisition).
    pub wait: LatencySummary,
    /// Service-time distribution.
    pub service: LatencySummary,
}

/// Steady-state utilization from a busy-ns-per-bucket timeline: sum the
/// trailing half of the sampled buckets and divide by the covered bucket
/// span times the lane count. Returns hundredths of a percent.
fn steady_util_x100(tl: &Timeline, lanes: i64) -> u64 {
    if lanes <= 0 {
        return 0;
    }
    let samples = tl.snapshot();
    if samples.is_empty() {
        return 0;
    }
    let idxs: Vec<u64> = samples.keys().copied().collect();
    let first = idxs[idxs.len() / 2];
    let last = *idxs.last().unwrap();
    let busy: i64 = samples.range(first..).map(|(_, v)| *v).sum();
    let window = (last - first + 1) as u128 * tl.bucket_ns() as u128 * lanes as u128;
    if window == 0 || busy <= 0 {
        return 0;
    }
    (busy as u128 * 10_000 / window) as u64
}

/// One measured point of a run: what was varied, what came out, and — for
/// a paper table or figure — what the paper reported for the same point.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trial {
    /// The point's coordinates in the sweep (strings or numbers), e.g.
    /// `policy: "group", clients: 64`. Empty for a single-trial report.
    pub params: BTreeMap<String, Json>,
    /// Measured values by name.
    pub result: BTreeMap<String, f64>,
    /// The paper's values for the same names; left out of the JSON when
    /// empty.
    pub paper: BTreeMap<String, f64>,
}

impl Trial {
    /// A driver trial's numbers: `committed`, `aborted`, `window_ns`,
    /// `throughput_per_s` and the committed-op latency summary (`mean_ns`,
    /// `p50_ns`, `p95_ns`, `p99_ns`, `max_ns`; its sample count is
    /// `committed`).
    pub fn measured(t: &TrialResult) -> Trial {
        let lat = LatencySummary::from_recorder(&t.latency);
        Trial::default()
            .with_result("committed", t.committed as f64)
            .with_result("aborted", t.aborted as f64)
            .with_result("window_ns", t.window.as_nanos() as f64)
            .with_result("throughput_per_s", t.throughput())
            .with_result("mean_ns", lat.mean_ns as f64)
            .with_result("p50_ns", lat.p50_ns as f64)
            .with_result("p95_ns", lat.p95_ns as f64)
            .with_result("p99_ns", lat.p99_ns as f64)
            .with_result("max_ns", lat.max_ns as f64)
    }

    /// Add a sweep coordinate.
    pub fn with_param(mut self, key: &str, value: impl Into<Json>) -> Trial {
        self.params.insert(key.to_string(), value.into());
        self
    }

    /// Add a measured value.
    pub fn with_result(mut self, key: &str, value: f64) -> Trial {
        self.result.insert(key.to_string(), value);
        self
    }

    /// Add the paper's value for a measured name.
    pub fn with_paper(mut self, key: &str, value: f64) -> Trial {
        self.paper.insert(key.to_string(), value);
        self
    }

    fn to_value(&self) -> Json {
        let numbers =
            |m: &BTreeMap<String, f64>| Json::obj(m.iter().map(|(k, v)| (k, (*v).into())));
        let mut members = vec![
            ("params", Json::Obj(self.params.clone())),
            ("result", numbers(&self.result)),
        ];
        if !self.paper.is_empty() {
            members.push(("paper", numbers(&self.paper)));
        }
        Json::obj(members)
    }
}

/// One benchmark run, frozen for export (see module docs).
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Report name; becomes the `<figure>` part of `BENCH_<figure>.json`.
    pub name: String,
    /// The run's measured points, in the order the bench pushed them.
    pub trials: Vec<Trial>,
    /// Every registry counter, keyed `"component.name"`.
    pub counters: BTreeMap<String, u64>,
    /// Every registry gauge, keyed `"component.name"`.
    pub gauges: BTreeMap<String, i64>,
    /// Every registry latency histogram, summarised, keyed
    /// `"component.name"`.
    pub op_latencies: BTreeMap<String, LatencySummary>,
    /// Per-resource saturation summaries, keyed by resource name
    /// (`engine.cpu`, `astore-0.pmem`, …). A component counts as a
    /// resource when it registered a `<name>.lanes` gauge — which
    /// `Resource::with_metrics` does.
    pub resources: BTreeMap<String, ResourceSummary>,
    /// Folded trace profile: per-op inclusive/self time, commit-phase
    /// accounting, lock contention. Empty (but present in the JSON) when
    /// tracing was off for the run.
    pub profile: Profile,
}

impl RunReport {
    /// Freeze `registry` into a report named `name`, with `trial` (when
    /// present) as its one [`Trial::measured`] point. A sweep passes `None`
    /// and pushes its own trials.
    pub fn collect(name: &str, trial: Option<&TrialResult>, registry: &MetricsRegistry) -> Self {
        let counters = registry.counter_values();
        let gauges = registry.gauge_values();
        let op_latencies: BTreeMap<String, LatencySummary> = registry
            .latency_handles()
            .into_iter()
            .map(|(k, r)| (k, LatencySummary::from_recorder(&r)))
            .collect();
        let timelines: BTreeMap<String, std::sync::Arc<Timeline>> =
            registry.timeline_handles().into_iter().collect();
        let empty = LatencySummary::from_recorder(&LatencyRecorder::new());
        let resources: BTreeMap<String, ResourceSummary> = gauges
            .iter()
            .filter_map(|(k, lanes)| {
                let name = k.strip_suffix(".lanes")?;
                Some((
                    name.to_string(),
                    ResourceSummary {
                        lanes: *lanes,
                        ops: counters.get(&format!("{name}.ops")).copied().unwrap_or(0),
                        busy_ns: counters
                            .get(&format!("{name}.busy_ns"))
                            .copied()
                            .unwrap_or(0),
                        steady_util_x100: timelines
                            .get(&format!("{name}.util_busy_ns"))
                            .map(|tl| steady_util_x100(tl, *lanes))
                            .unwrap_or(0),
                        wait: op_latencies
                            .get(&format!("{name}.wait"))
                            .cloned()
                            .unwrap_or_else(|| empty.clone()),
                        service: op_latencies
                            .get(&format!("{name}.service"))
                            .cloned()
                            .unwrap_or_else(|| empty.clone()),
                    },
                ))
            })
            .collect();
        RunReport {
            name: name.to_string(),
            trials: trial.map(Trial::measured).into_iter().collect(),
            counters,
            gauges,
            op_latencies,
            resources,
            profile: Profile::from_registry(registry),
        }
    }

    /// Value of counter `"component.name"`, zero if absent.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// The report as a JSON tree (schema [`SCHEMA`]): times as integer ns,
    /// shares and utilizations as two-decimal percentages derived from
    /// integers.
    pub fn to_value(&self) -> Json {
        let resources = self.resources.iter().map(|(k, r)| {
            let summary = Json::obj([
                ("lanes", r.lanes.into()),
                ("ops", r.ops.into()),
                ("busy_ns", r.busy_ns.into()),
                (
                    "steady_util_pct",
                    (r.steady_util_x100 as f64 / 100.0).into(),
                ),
                ("wait", r.wait.to_value()),
                ("service", r.service.to_value()),
            ]);
            (k, summary)
        });
        Json::obj([
            ("schema", SCHEMA.into()),
            ("name", self.name.as_str().into()),
            (
                "trials",
                Json::Arr(self.trials.iter().map(Trial::to_value).collect()),
            ),
            (
                "counters",
                Json::obj(self.counters.iter().map(|(k, v)| (k, (*v).into()))),
            ),
            (
                "gauges",
                Json::obj(self.gauges.iter().map(|(k, v)| (k, (*v).into()))),
            ),
            (
                "op_latencies",
                Json::obj(self.op_latencies.iter().map(|(k, v)| (k, v.to_value()))),
            ),
            ("resources", Json::obj(resources)),
            ("profile", self.profile.to_value()),
        ])
    }

    /// [`to_value`](Self::to_value) rendered: byte-identical across runs of
    /// the same seeded workload.
    pub fn to_json(&self) -> String {
        render(&self.to_value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use crate::time::VTime;

    fn sample_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("pmem", "flushes").add(3);
        reg.counter("rdma", "reads").add(7);
        reg.gauge("pmem", "unpersisted_bytes").set(256);
        reg.latency("astore", "append")
            .record(VTime::from_micros(4));
        reg
    }

    #[test]
    fn collect_snapshots_registry() {
        let reg = sample_registry();
        let mut trial = TrialResult::new(VTime::from_millis(100));
        trial.committed = 500;
        trial.latency.record(VTime::from_micros(80));
        let rep = RunReport::collect("unit", Some(&trial), &reg);
        assert_eq!(rep.counter("pmem.flushes"), 3);
        assert_eq!(rep.counter("rdma.reads"), 7);
        assert_eq!(rep.counter("absent.metric"), 0);
        assert_eq!(rep.gauges["pmem.unpersisted_bytes"], 256);
        assert_eq!(rep.op_latencies["astore.append"].count, 1);
        // The trial is the report's one point; no trial, no points.
        assert_eq!(rep.trials.len(), 1);
        assert!(rep.trials[0].params.is_empty());
        assert_eq!(rep.trials[0].result["committed"], 500.0);
        assert_eq!(rep.trials[0].result["window_ns"], 100e6);
        assert_eq!(rep.trials[0].result["max_ns"], 80_000.0);
        assert!((rep.trials[0].result["throughput_per_s"] - 5000.0).abs() < 1e-9);
        assert!(RunReport::collect("unit", None, &reg).trials.is_empty());
    }

    #[test]
    fn trials_serialise_params_results_and_paper_values() {
        let mut rep = RunReport::collect("sweep", None, &sample_registry());
        rep.trials.push(
            Trial::default()
                .with_param("store", "astore")
                .with_param("clients", 64.0)
                .with_result("avg_write_ns", 86_500.0)
                .with_paper("avg_write_ns", 86_000.0),
        );
        rep.trials
            .push(Trial::default().with_result("iops", 1527.5));
        let doc = parse_json(&rep.to_json()).unwrap();
        let Some(Json::Arr(trials)) = doc.get("trials") else {
            panic!("trials is an array")
        };
        assert_eq!(trials.len(), 2);
        assert_eq!(
            trials[0].get("params"),
            Some(&Json::obj([
                ("clients", 64.0.into()),
                ("store", "astore".into())
            ]))
        );
        assert_eq!(
            trials[0].get("paper"),
            Some(&Json::obj([("avg_write_ns", 86_000.0.into())]))
        );
        // No paper values, no `paper` member.
        assert_eq!(
            trials[1],
            Json::obj([
                ("params", Json::obj::<&str>([])),
                ("result", Json::obj([("iops", 1527.5.into())]))
            ])
        );
    }

    #[test]
    fn json_is_deterministic_and_parsable_shape() {
        let rep = RunReport::collect("fig\"x\"", None, &sample_registry());
        let a = rep.to_json();
        let b = rep.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"vedb-bench-report/v4\""));
        assert!(a.contains("\"trials\": []"));
        assert!(a.contains("\"resources\""));
        assert!(a.contains("\"profile\""));
        assert!(a.contains("\"fig\\\"x\\\"\""));
        assert!(a.contains("\"pmem.flushes\": 3"));
        assert!(a.contains("\"rdma.reads\": 7"));
        // Counters serialise in sorted key order.
        let pm = a.find("pmem.flushes").unwrap();
        let rd = a.find("rdma.reads").unwrap();
        assert!(pm < rd);
        // What the writer emits is the renderer's fixed point.
        assert_eq!(render(&parse_json(&a).unwrap()), a);
    }

    /// Every string a caller supplies — the report name, a lock-table label
    /// (`define_schema` / `set_label`), hence `locks.top[].table` — comes
    /// back from the parser as it went in.
    #[test]
    fn caller_supplied_strings_survive_the_round_trip() {
        let label = "ware\"house\\\n";
        let reg = sample_registry();
        let c = reg.lock_contention();
        c.set_label(7, label);
        c.note_acquire(7);
        c.note_wait(7, b"\x09", VTime::from_micros(4));
        let rep = RunReport::collect(label, None, &reg);
        let doc = parse_json(&rep.to_json()).expect("the report parses");
        assert_eq!(doc.get("name").and_then(Json::as_str), Some(label));
        let locks = doc.get("profile").and_then(|p| p.get("locks")).unwrap();
        assert!(locks.get("tables").and_then(|t| t.get(label)).is_some());
        let Some(Json::Arr(top)) = locks.get("top") else {
            panic!("locks.top is an array")
        };
        assert_eq!(top[0].get("table").and_then(Json::as_str), Some(label));
    }

    #[test]
    fn identical_registries_identical_bytes() {
        let a = RunReport::collect("same", None, &sample_registry()).to_json();
        let b = RunReport::collect("same", None, &sample_registry()).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn resources_discovered_via_lanes_gauge() {
        use crate::resource::Resource;
        let reg = sample_registry();
        let r = Resource::with_metrics("astore-0.pmem", 2, &reg);
        // Two back-to-back acquisitions: the second queues behind the
        // first once both lanes fill, so wait histograms see traffic.
        for _ in 0..3 {
            r.acquire(VTime::ZERO, VTime::from_micros(10));
        }
        let rep = RunReport::collect("res", None, &reg);
        let rs = &rep.resources["astore-0.pmem"];
        assert_eq!(rs.lanes, 2);
        assert_eq!(rs.ops, 3);
        assert_eq!(rs.busy_ns, 30_000);
        assert_eq!(rs.wait.count, 3);
        assert_eq!(rs.service.count, 3);
        assert_eq!(rs.service.mean_ns, 10_000);
        assert_eq!(rs.service.max_ns, 10_000);
        // Non-resource components don't leak into the section.
        assert!(!rep.resources.contains_key("pmem"));
        let doc = parse_json(&rep.to_json()).unwrap();
        let res = doc
            .get("resources")
            .and_then(|r| r.get("astore-0.pmem"))
            .unwrap();
        assert_eq!(res.get("lanes"), Some(&Json::Num(2.0)));
        assert_eq!(
            res.get("steady_util_pct").and_then(Json::as_f64),
            Some(rs.steady_util_x100 as f64 / 100.0)
        );
    }

    #[test]
    fn profile_section_reflects_trace_spans() {
        use crate::time::SimCtx;
        let reg = sample_registry();
        reg.trace().enable();
        let mut ctx = SimCtx::new(1, 7);
        let commit = reg.trace().span(&ctx, "core", "commit");
        let flush = reg.trace().span(&ctx, "wal", "flush");
        ctx.advance(VTime::from_micros(4));
        flush.finish(&ctx);
        ctx.advance(VTime::from_micros(6));
        commit.finish(&ctx);
        let rep = RunReport::collect("traced", None, &reg);
        assert_eq!(rep.profile.ops["core/commit"].total_ns, 10_000);
        let json = rep.to_json();
        assert!(json.contains("\"commit_phases\""));
        assert!(json.contains("\"wal/flush\""));
    }
}
