//! Serialisable run reports: registry snapshots + trial results as JSON.
//!
//! A [`RunReport`] freezes one benchmark run — throughput, the committed-op
//! latency distribution, and every subsystem counter/gauge/histogram from the
//! deployment's [`MetricsRegistry`] — into a plain-data struct with a
//! hand-rolled, **byte-deterministic** JSON encoding (`BTreeMap` key order,
//! integer nanoseconds, no wall-clock anywhere). Two runs of the same seeded
//! workload therefore serialise to identical bytes, which the determinism
//! regression test asserts, and `crates/bench` writes these out as
//! `BENCH_<figure>.json` artifacts so every PR leaves a machine-readable perf
//! baseline behind.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::{LatencyRecorder, MetricsRegistry, Timeline, TrialResult};
use crate::profile::Profile;

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

    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"count\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
            self.count, self.mean_ns, self.p50_ns, self.p95_ns, self.p99_ns, self.max_ns
        );
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

/// One benchmark run, frozen for export (see module docs).
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Report name; becomes the `<figure>` part of `BENCH_<figure>.json`.
    pub name: String,
    /// Committed operations in the measurement window.
    pub committed: u64,
    /// Aborted operations in the measurement window.
    pub aborted: u64,
    /// Measurement window length, virtual ns.
    pub window_ns: u64,
    /// Latency distribution of committed operations.
    pub latency: LatencySummary,
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
    /// accounting, timeline snapshots. Empty (but present in the JSON) when
    /// tracing was off for the run.
    pub profile: Profile,
}

impl RunReport {
    /// Freeze `registry` (and, when present, a trial's throughput/latency
    /// numbers) into a report named `name`.
    pub fn collect(name: &str, trial: Option<&TrialResult>, registry: &MetricsRegistry) -> Self {
        let (committed, aborted, window_ns, latency) = match trial {
            Some(t) => (
                t.committed,
                t.aborted,
                t.window.as_nanos(),
                LatencySummary::from_recorder(&t.latency),
            ),
            None => (
                0,
                0,
                0,
                LatencySummary::from_recorder(&LatencyRecorder::new()),
            ),
        };
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
            committed,
            aborted,
            window_ns,
            latency,
            counters,
            gauges,
            op_latencies,
            resources,
            profile: Profile::from_registry(registry),
        }
    }

    /// Committed operations per virtual second.
    pub fn throughput(&self) -> f64 {
        if self.window_ns == 0 {
            return 0.0;
        }
        self.committed as f64 / (self.window_ns as f64 / 1e9)
    }

    /// Value of counter `"component.name"`, zero if absent.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Deterministic JSON encoding: keys sorted (BTreeMap order), times as
    /// integer ns, throughput as a fixed three-decimal number. Byte-identical
    /// across runs of the same seeded workload.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"vedb-bench-report/v3\",");
        let _ = writeln!(out, "  \"name\": \"{}\",", escape(&self.name));
        let _ = writeln!(out, "  \"committed\": {},", self.committed);
        let _ = writeln!(out, "  \"aborted\": {},", self.aborted);
        let _ = writeln!(out, "  \"window_ns\": {},", self.window_ns);
        let _ = writeln!(out, "  \"throughput_per_s\": {:.3},", self.throughput());
        out.push_str("  \"latency\": ");
        self.latency.write_json(&mut out);
        out.push_str(",\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {}", escape(k), v);
        }
        out.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (k, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {}", escape(k), v);
        }
        out.push_str("\n  },\n  \"op_latencies\": {");
        first = true;
        for (k, v) in &self.op_latencies {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": ", escape(k));
            v.write_json(&mut out);
        }
        out.push_str("\n  },\n  \"resources\": {");
        first = true;
        for (k, r) in &self.resources {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    \"{}\": {{\"lanes\": {}, \"ops\": {}, \"busy_ns\": {}, \
                 \"steady_util_pct\": {}.{:02}, \"wait\": ",
                escape(k),
                r.lanes,
                r.ops,
                r.busy_ns,
                r.steady_util_x100 / 100,
                r.steady_util_x100 % 100,
            );
            r.wait.write_json(&mut out);
            out.push_str(", \"service\": ");
            r.service.write_json(&mut out);
            out.push('}');
        }
        out.push_str("\n  },\n  \"profile\": ");
        self.profile.write_json(&mut out, "  ");
        out.push_str("\n}\n");
        out
    }
}

/// Minimal JSON string escape; metric keys are `[a-z0-9._-]` but report names
/// are caller-supplied.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!((rep.throughput() - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn json_is_deterministic_and_parsable_shape() {
        let rep = RunReport::collect("fig\"x\"", None, &sample_registry());
        let a = rep.to_json();
        let b = rep.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"vedb-bench-report/v3\""));
        assert!(a.contains("\"resources\""));
        assert!(a.contains("\"profile\""));
        assert!(a.contains("\"fig\\\"x\\\"\""));
        assert!(a.contains("\"pmem.flushes\": 3"));
        assert!(a.contains("\"rdma.reads\": 7"));
        // Counters serialise in sorted key order.
        let pm = a.find("pmem.flushes").unwrap();
        let rd = a.find("rdma.reads").unwrap();
        assert!(pm < rd);
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
        let json = rep.to_json();
        assert!(json.contains("\"astore-0.pmem\": {\"lanes\": 2"));
        assert!(json.contains("\"steady_util_pct\""));
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
