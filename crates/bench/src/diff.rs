//! What moved between two `BENCH_<figure>.json` reports.
//!
//! The bench reports are functions of their seeds, so the gate on a
//! committed artifact is `cmp`: any byte that moves is a model change.
//! [`walk`] is what explains a failed `cmp` — it compares two parsed
//! documents member by member, knowing nothing of the report schema, and
//! lists every path whose value differs. The `report_diff` binary prints
//! that list; re-base commits quote it.

use std::collections::BTreeMap;

use vedb_sim::json::render;
pub use vedb_sim::json::{parse_json, Json};

/// A member's place in its container.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Key<'a> {
    Index(usize),
    Name(&'a str),
}

/// One line per path whose value differs between `old` and `new`:
/// `path: old -> new`, with the relative change for two numbers and
/// `(absent)` for a member only one side has. Object members are joined
/// with `.`, array elements are `[i]`; containers are compared member by
/// member, so an added or removed subtree lists each of its leaves.
pub fn walk(old: &Json, new: &Json) -> Vec<String> {
    let mut lines = Vec::new();
    walk_at("", Some(old), Some(new), &mut lines);
    lines
}

fn walk_at(path: &str, old: Option<&Json>, new: Option<&Json>, lines: &mut Vec<String>) {
    if old == new {
        return;
    }
    let mut members: BTreeMap<Key<'_>, [Option<&Json>; 2]> = BTreeMap::new();
    let mut scalars = [None, None];
    for (side, value) in [old, new].into_iter().enumerate() {
        match value {
            Some(Json::Obj(m)) => {
                for (name, member) in m {
                    members.entry(Key::Name(name)).or_default()[side] = Some(member);
                }
            }
            Some(Json::Arr(a)) => {
                for (i, member) in a.iter().enumerate() {
                    members.entry(Key::Index(i)).or_default()[side] = Some(member);
                }
            }
            scalar => scalars[side] = scalar,
        }
    }
    if members.is_empty() {
        // Two scalars, or an empty container against anything else.
        lines.push(line(path, old, new));
    } else if scalars != [None, None] {
        // A scalar on one side, a container's members (below) on the other.
        lines.push(line(path, scalars[0], scalars[1]));
    }
    for (key, [a, b]) in members {
        let child = match key {
            Key::Index(i) => format!("{path}[{i}]"),
            Key::Name(name) if path.is_empty() => name.to_string(),
            Key::Name(name) => format!("{path}.{name}"),
        };
        walk_at(&child, a, b, lines);
    }
}

fn line(path: &str, old: Option<&Json>, new: Option<&Json>) -> String {
    let show = |v: Option<&Json>| match v {
        Some(v) => render(v).trim_end().to_string(),
        None => "(absent)".to_string(),
    };
    let delta = match (old, new) {
        (Some(Json::Num(a)), Some(Json::Num(b))) if *a != 0.0 => {
            format!(" ({:+.2}%)", (b - a) / a * 100.0)
        }
        _ => String::new(),
    };
    format!("{path}: {} -> {}{delta}", show(old), show(new))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Json {
        parse_json(text).unwrap()
    }

    const BASE: &str = r#"{
      "schema": "vedb-bench-report/v4",
      "name": "unit",
      "trials": [
        {"params": {"clients": 1}, "result": {"p50_ns": 200, "throughput_per_s": 5000}},
        {"params": {"clients": 64}, "result": {"p50_ns": 400, "throughput_per_s": 9000}}
      ],
      "counters": {"astore.appends": 40, "core.txn_commits": 100},
      "profile": {"locks": {"top": []}}
    }"#;

    #[test]
    fn identical_reports_pass() {
        assert!(walk(&doc(BASE), &doc(BASE)).is_empty());
        // Layout is not content: a re-indented copy is the same tree.
        assert!(walk(&doc(BASE), &doc(&BASE.replace("\n      ", "\n"))).is_empty());
    }

    #[test]
    fn a_moved_leaf_is_one_line_with_its_relative_change() {
        let new = BASE.replace("\"p50_ns\": 400", "\"p50_ns\": 450");
        assert_eq!(
            walk(&doc(BASE), &doc(&new)),
            ["trials[1].result.p50_ns: 400 -> 450 (+12.50%)"]
        );
        let renamed = BASE.replace("\"name\": \"unit\"", "\"name\": \"other\"");
        assert_eq!(
            walk(&doc(BASE), &doc(&renamed)),
            ["name: \"unit\" -> \"other\""]
        );
    }

    #[test]
    fn added_and_removed_keys_show_the_absent_side() {
        let added = BASE.replace(
            "\"astore.appends\": 40",
            "\"astore.appends\": 40, \"astore.reads\": 0",
        );
        assert_eq!(
            walk(&doc(BASE), &doc(&added)),
            ["counters.astore.reads: (absent) -> 0"]
        );
        assert_eq!(
            walk(&doc(&added), &doc(BASE)),
            ["counters.astore.reads: 0 -> (absent)"]
        );
        // A removed subtree lists its leaves; an emptied one is itself a leaf.
        let no_profile = BASE.replace(",\n      \"profile\": {\"locks\": {\"top\": []}}", "");
        assert_eq!(
            walk(&doc(BASE), &doc(&no_profile)),
            ["profile.locks.top: [] -> (absent)"]
        );
    }

    #[test]
    fn arrays_of_different_length_compare_by_index() {
        let shorter = BASE.replace(
            ",\n        {\"params\": {\"clients\": 64}, \"result\": {\"p50_ns\": 400, \"throughput_per_s\": 9000}}",
            "",
        );
        assert_eq!(
            walk(&doc(BASE), &doc(&shorter)),
            [
                "trials[1].params.clients: 64 -> (absent)",
                "trials[1].result.p50_ns: 400 -> (absent)",
                "trials[1].result.throughput_per_s: 9000 -> (absent)",
            ]
        );
    }

    #[test]
    fn a_v3_file_against_a_v4_file_lists_the_schema_change() {
        let v3 = doc(r#"{
          "schema": "vedb-bench-report/v3",
          "name": "unit",
          "committed": 100,
          "throughput_per_s": 5000.000,
          "latency": {"count": 100, "p50_ns": 200},
          "counters": {"astore.appends": 40, "core.txn_commits": 100},
          "gauges": {"bench.tps_group_64": 9000}
        }"#);
        let v4 = doc(r#"{
          "schema": "vedb-bench-report/v4",
          "name": "unit",
          "trials": [{"params": {}, "result": {"committed": 100, "p50_ns": 200, "throughput_per_s": 5000}}],
          "counters": {"astore.appends": 40, "core.txn_commits": 100},
          "gauges": {}
        }"#);
        assert_eq!(
            walk(&v3, &v4),
            [
                "committed: 100 -> (absent)",
                "gauges.bench.tps_group_64: 9000 -> (absent)",
                "latency.count: 100 -> (absent)",
                "latency.p50_ns: 200 -> (absent)",
                "schema: \"vedb-bench-report/v3\" -> \"vedb-bench-report/v4\"",
                "throughput_per_s: 5000 -> (absent)",
                "trials[0].params: (absent) -> {}",
                "trials[0].result.committed: (absent) -> 100",
                "trials[0].result.p50_ns: (absent) -> 200",
                "trials[0].result.throughput_per_s: (absent) -> 5000",
            ]
        );
    }

    #[test]
    fn a_scalar_against_a_container_shows_both() {
        let old = doc(r#"{"latency": 5}"#);
        let new = doc(r#"{"latency": {"p50_ns": 5}}"#);
        assert_eq!(
            walk(&old, &new),
            ["latency: 5 -> (absent)", "latency.p50_ns: (absent) -> 5"]
        );
    }
}
