//! The committed `BENCH_*.json` files are what this tree's writer writes.
//!
//! Tier-1 does not run bench targets, so a changed *value* is caught by
//! CI's `cmp` against a fresh run. What this catches without running
//! anything: an artifact left at an old schema, or edited by hand — parsed
//! by the one parser and rendered by the one writer, a committed file must
//! come back byte for byte.

use std::path::PathBuf;

use vedb_bench::diff::{parse_json, Json};
use vedb_sim::json::render;
use vedb_sim::report::SCHEMA;

fn check(bytes: &str) -> Result<(), String> {
    let doc = parse_json(bytes)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => {}
        other => return Err(format!("schema is {other:?}, the writer's is {SCHEMA}")),
    }
    if render(&doc) != bytes {
        return Err("not the bytes the writer renders for this tree".into());
    }
    Ok(())
}

#[test]
fn committed_artifacts_are_current_and_in_the_writers_bytes() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut seen = Vec::new();
    for entry in std::fs::read_dir(&root).expect("workspace root") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            let bytes = std::fs::read_to_string(&path).expect("artifact is UTF-8");
            check(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
            seen.push(name);
        }
    }
    seen.sort();
    assert_eq!(
        seen,
        [
            "BENCH_fig11.json",
            "BENCH_group_commit.json",
            "BENCH_recovery.json",
            "BENCH_table2.json",
            "BENCH_tpcc_smoke.json"
        ]
    );
}

#[test]
fn files_the_writer_did_not_produce_are_rejected() {
    let good = "{\n  \"counters\": {\"a.b\": 1, \"c.d\": 2},\n  \"gauges\": {\"e.f\": 5},\n  \
                \"schema\": \"vedb-bench-report/v4\"\n}\n";
    assert_eq!(check(good), Ok(()));
    // A leftover at the old schema.
    assert!(check(&good.replace("/v4", "/v3")).is_err());
    // Re-indented, re-ordered or re-formatted by hand: same tree, other bytes.
    assert!(check(&good.replace("\n  \"", "\n    \"")).is_err());
    assert!(check(&good.replace("\"a.b\": 1, \"c.d\": 2", "\"c.d\": 2, \"a.b\": 1")).is_err());
    assert!(check(&good.replace("\"e.f\": 5", "\"e.f\": 5.0")).is_err());
    assert!(check(good.trim_end()).is_err());
}
