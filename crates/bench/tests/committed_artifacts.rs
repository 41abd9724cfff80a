//! The committed `BENCH_*.json` files are what this tree's writer writes,
//! one per figure of `vedb_bench::figures::FIGURES`.
//!
//! Tier-1 does not run the figures, so a changed *value* is caught by CI's
//! `cmp` against a fresh run. What this catches without running anything:
//! an artifact left at an old schema, edited by hand, missing, or left over
//! from a figure that is gone — parsed by the one parser and rendered by the
//! one writer, a committed file must come back byte for byte — and a trial
//! that breaks the figures' conventions: a `paper` value with no measured
//! value under its name, or a check whose `holds` is not 0 or 1.

use std::path::PathBuf;

use vedb_bench::diff::{parse_json, Json};
use vedb_bench::figures::FIGURES;
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
    let trials = match doc.get("trials") {
        Some(Json::Arr(trials)) => trials.as_slice(),
        _ => &[],
    };
    for (i, trial) in trials.iter().enumerate() {
        let result = trial.get("result");
        for k in trial
            .get("paper")
            .and_then(Json::as_obj)
            .into_iter()
            .flatten()
            .map(|(k, _)| k)
        {
            if result.and_then(|r| r.get(k)).is_none() {
                return Err(format!("trials[{i}] has paper.{k} but no result.{k}"));
            }
        }
        if trial.get("params").and_then(|p| p.get("check")).is_some() {
            let holds = result.and_then(|r| r.get("holds")).and_then(Json::as_f64);
            if holds != Some(0.0) && holds != Some(1.0) {
                return Err(format!("trials[{i}] is a check whose holds is {holds:?}"));
            }
        }
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
    let mut expected: Vec<String> = FIGURES
        .iter()
        .map(|(name, _)| format!("BENCH_{name}.json"))
        .collect();
    expected.sort();
    assert_eq!(seen, expected);
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

#[test]
fn paper_values_need_a_result_and_checks_hold_zero_or_one() {
    let with_trials = |trials: &str| {
        format!("{{\n  \"schema\": \"vedb-bench-report/v4\",\n  \"trials\": [\n{trials}\n  ]\n}}\n")
    };
    let measured = "    {\n      \"paper\": {\"iops\": 1527},\n      \"params\": {\"store\": \"logstore\"},\n      \"result\": {\"iops\": 1440}\n    }";
    let holds = |h: &str| {
        format!("    {{\n      \"params\": {{\"check\": \"faster\"}},\n      \"result\": {{\"holds\": {h}, \"speedup\": 8}}\n    }}")
    };
    assert_eq!(
        check(&with_trials(&format!("{measured},\n{}", holds("1")))),
        Ok(())
    );
    assert_eq!(check(&with_trials(&holds("0"))), Ok(()));
    // The paper's value under a name the trial did not measure.
    let stray = measured.replace("\"paper\": {\"iops\"", "\"paper\": {\"ops\"");
    assert!(check(&with_trials(&stray))
        .unwrap_err()
        .contains("paper.ops"));
    // A check that is neither held nor failed.
    assert!(check(&with_trials(&holds("2"))).is_err());
    assert!(check(&with_trials(&holds("0.5"))).is_err());
    let no_holds = holds("1").replace("\"holds\": 1, ", "");
    assert!(check(&with_trials(&no_holds)).is_err());
}
