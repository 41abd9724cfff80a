//! Flamegraph export and `vedb-top` rendering from a serialized bench
//! report — the only renderer of either.
//!
//! Both are derived from the report's JSON tree, so one code path serves a
//! live run ([`crate::write_bench_report`] summarises the tree it writes)
//! and the `report_flame` binary inspecting artifacts long after the run —
//! the committed baseline, a CI download — without re-running anything.
//!
//! The folded output is the classic `stack weight` line format consumed by
//! inferno / flamegraph.pl: frames are `component/op` joined by `;`,
//! weights are span self-times in virtual nanoseconds.

use std::fmt::Write as _;

use crate::diff::Json;

/// Render the report's `profile.folded` section as inferno-style folded
/// lines (`stack weight\n`, stacks sorted). Errors when the document has
/// no folded section (not a bench report).
pub fn folded_lines(doc: &Json) -> Result<String, String> {
    let folded = doc
        .get("profile")
        .and_then(|p| p.get("folded"))
        .and_then(Json::as_obj)
        .ok_or("document has no `profile.folded` section (not a bench report?)")?;
    let mut out = String::new();
    for (stack, w) in folded {
        if let Some(w) = w.as_f64() {
            let _ = writeln!(out, "{stack} {}", w as u64);
        }
    }
    Ok(out)
}

fn ns(v: f64) -> String {
    // Mirror VTime's Display: scale to the largest unit that keeps the
    // number readable. Values are integer nanoseconds stored in f64.
    let n = v as u64;
    if n >= 1_000_000_000 {
        format!("{:.2}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.2}ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.2}us", n as f64 / 1e3)
    } else {
        format!("{n}ns")
    }
}

/// Re-render a `vedb-top`-style one-screen summary from a parsed report:
/// resources by steady-state utilization, hottest spans by self-time, most
/// contended locks, and any fault injections.
pub fn top_summary(doc: &Json) -> String {
    let name = doc.get("name").and_then(Json::as_str).unwrap_or("?");
    let trials = match doc.get("trials") {
        Some(Json::Arr(trials)) => trials.as_slice(),
        _ => &[],
    };
    // One trial is a run and reads as one; a sweep's points are in the
    // bench's own table.
    let headline = match trials {
        [only] => {
            let f = |k: &str| {
                only.get("result")
                    .and_then(|r| r.get(k))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            format!(
                "{:.0} op/s over {}",
                f("throughput_per_s"),
                ns(f("window_ns"))
            )
        }
        _ => format!("{} trials", trials.len()),
    };
    let mut out = String::new();
    let _ = writeln!(out, "== vedb-top: {name} ({headline}) ==");

    if let Some(resources) = doc.get("resources").and_then(Json::as_obj) {
        let mut rows: Vec<(&String, &Json)> = resources.iter().collect();
        rows.sort_by(|(an, a), (bn, b)| {
            let util = |r: &Json| {
                r.get("steady_util_pct")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            util(b).partial_cmp(&util(a)).unwrap().then(an.cmp(bn))
        });
        let _ = writeln!(
            out,
            "  {:<16} {:>5} {:>10} {:>7} {:>10} {:>10}",
            "resource", "lanes", "ops", "util%", "wait-p99", "svc-p99"
        );
        for (rname, r) in rows {
            let f = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let p99 = |k: &str| {
                r.get(k)
                    .and_then(|l| l.get("p99_ns"))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            let _ = writeln!(
                out,
                "  {:<16} {:>5} {:>10} {:>6.2}% {:>10} {:>10}",
                rname,
                f("lanes") as u64,
                f("ops") as u64,
                f("steady_util_pct"),
                ns(p99("wait")),
                ns(p99("service")),
            );
        }
    }

    if let Some(ops) = doc
        .get("profile")
        .and_then(|p| p.get("ops"))
        .and_then(Json::as_obj)
    {
        let mut spans: Vec<(&String, u64)> = ops
            .iter()
            .filter_map(|(k, v)| {
                v.get("self_ns")
                    .and_then(Json::as_f64)
                    .map(|s| (k, s as u64))
            })
            .collect();
        spans.sort_by(|(an, a), (bn, b)| b.cmp(a).then(an.cmp(bn)));
        if !spans.is_empty() {
            let _ = writeln!(out, "  top spans by self time:");
            for (op, self_ns) in spans.into_iter().take(8) {
                let _ = writeln!(out, "    {op:<28} {}", ns(self_ns as f64));
            }
        }
    }

    if let Some(Json::Arr(top)) = doc
        .get("profile")
        .and_then(|p| p.get("locks"))
        .and_then(|l| l.get("top"))
    {
        if !top.is_empty() {
            let _ = writeln!(out, "  top contended locks:");
            for l in top.iter().take(5) {
                let s = |k: &str| l.get(k).and_then(Json::as_str).unwrap_or("?");
                let f = |k: &str| l.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                let _ = writeln!(
                    out,
                    "    {}[{}] waits={} total={} max={}",
                    s("table"),
                    s("key"),
                    f("waits") as u64,
                    ns(f("wait_total_ns")),
                    ns(f("wait_max_ns")),
                );
            }
        }
    }

    if let Some(Json::Arr(faults)) = doc.get("profile").and_then(|p| p.get("fault_events")) {
        if !faults.is_empty() {
            let first = faults[0].get("at_ns").and_then(Json::as_f64).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "  fault injections: {} (first at {})",
                faults.len(),
                ns(first)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::parse_json;

    const DOC: &str = r#"{
  "schema": "vedb-bench-report/v4",
  "name": "unit",
  "trials": [{"params": {}, "result": {"throughput_per_s": 1234.5, "window_ns": 2000000}}],
  "resources": {
    "engine.nic": {"lanes": 2, "ops": 7, "busy_ns": 70, "steady_util_pct": 3.10, "wait": {"p99_ns": 5}, "service": {"p99_ns": 10}},
    "astore-0.pmem": {"lanes": 4, "ops": 40, "busy_ns": 400, "steady_util_pct": 42.17, "wait": {"p99_ns": 900}, "service": {"p99_ns": 1000}}
  },
  "profile": {
    "ops": {
      "core/commit": {"count": 10, "total_ns": 9000, "self_ns": 4000, "self_share_pct": 44.44},
      "wal/flush": {"count": 10, "total_ns": 5000, "self_ns": 5000, "self_share_pct": 55.55}
    },
    "locks": {
      "tables": {"orders": {"space": 3, "acquires": 2, "waits": 1, "wait_total_ns": 30000, "wait_p99_ns": 30000, "wait_max_ns": 30000, "holds": 2, "hold_total_ns": 30000, "hold_p50_ns": 15000, "hold_p99_ns": 20000, "hold_max_ns": 20000}},
      "top": [{"table": "orders", "space": 3, "key": "03", "waits": 1, "wait_total_ns": 30000, "wait_max_ns": 30000}]
    },
    "fault_events": [{"at_ns": 1500, "op": "crash", "node": 2}],
    "folded": {
      "core/commit": 4000,
      "core/commit;wal/flush": 5000
    }
  }
}"#;

    /// A live traced run's report, serialized: one resource busier than
    /// another, a contended lock, one span, one fault injection.
    fn live_doc() -> Json {
        use vedb_sim::{MetricsRegistry, Resource, RunReport, SimCtx, TrialResult, VTime};
        let reg = MetricsRegistry::new();
        Resource::with_metrics("engine.cpu", 1, &reg).acquire(VTime::ZERO, VTime::from_micros(50));
        Resource::with_metrics("engine.nic", 1, &reg).acquire(VTime::ZERO, VTime::from_micros(5));
        let c = reg.lock_contention();
        c.set_label(3, "warehouse");
        c.note_acquire(3);
        c.note_wait(3, b"\x01", VTime::from_micros(9));
        reg.trace().enable();
        let mut ctx = SimCtx::new(1, 7);
        let sp = reg.trace().span(&ctx, "core", "commit");
        ctx.advance(VTime::from_micros(4));
        sp.finish(&ctx);
        reg.trace()
            .instant(VTime::from_micros(2), "fault", "crash", 1);
        let mut trial = TrialResult::new(VTime::from_millis(10));
        trial.committed = 42;
        let json = RunReport::collect("smoke", Some(&trial), &reg).to_json();
        parse_json(&json).unwrap()
    }

    #[test]
    fn folded_lines_match_inferno_contract() {
        let doc = parse_json(DOC).unwrap();
        let folded = folded_lines(&doc).unwrap();
        assert_eq!(folded, "core/commit 4000\ncore/commit;wal/flush 5000\n");
        // Straight off a live run: each line ends with the integer
        // self-weight of the span.
        assert_eq!(folded_lines(&live_doc()).unwrap(), "core/commit 4000\n");
    }

    #[test]
    fn folded_lines_error_without_profile_section() {
        let doc = parse_json(r#"{"schema": "vedb-bench-report/v4", "name": "bare"}"#).unwrap();
        assert!(folded_lines(&doc).is_err());
    }

    #[test]
    fn top_summary_covers_every_section() {
        // (report, title, busier resource, idler resource, util, span, lock, faults)
        let cases = [
            (
                parse_json(DOC).unwrap(),
                "vedb-top: unit (1234 op/s over 2.00ms)",
                "astore-0.pmem",
                "engine.nic",
                "42.17%",
                "wal/flush",
                "orders[03] waits=1",
                "fault injections: 1 (first at 1.50us)",
            ),
            (
                live_doc(),
                "vedb-top: smoke (4200 op/s over 10.00ms)",
                "engine.cpu",
                "engine.nic",
                "5.00%",
                "core/commit",
                "warehouse[01] waits=1",
                "fault injections: 1 (first at 2.00us)",
            ),
        ];
        for (doc, title, busy, idle, util, span, lock, faults) in cases {
            let top = top_summary(&doc);
            assert!(top.contains(title), "{top}");
            // Sorted by utilization, busiest first.
            assert!(top.find(busy).unwrap() < top.find(idle).unwrap(), "{top}");
            assert!(top.contains(util), "{top}");
            assert!(top.contains("top spans by self time"), "{top}");
            assert!(top.contains(span), "{top}");
            assert!(top.contains(lock), "{top}");
            assert!(top.contains(faults), "{top}");
            assert!(top.lines().count() <= 24, "one screen: {top}");
        }
    }
}
