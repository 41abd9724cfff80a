//! Determinism regression: two fresh, identically-seeded simulation runs
//! must produce **byte-identical** `RunReport` snapshots — at one client
//! and at 64, under either flush policy.
//!
//! This is the property the whole virtual-time methodology rests on — if
//! two same-seed runs diverge in any counter, latency bucket, or the JSON
//! encoding itself, figures stop being reproducible and CI artifact diffs
//! become noise. Clients run under the `run_clients` baton, so which of
//! them runs next is a function of their virtual clocks and a multi-client
//! trial is as repeatable as a single-client one.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vedb_bench::diff::{parse_json, Json};
use vedb_bench::Deployment;
use vedb_core::db::{DbConfig, LogBackendKind};
use vedb_core::ebp::EbpConfig;
use vedb_core::query::{execute, QuerySession};
use vedb_core::FlushPolicy;
use vedb_sim::{ClusterSpec, RunReport, VTime};
use vedb_workloads::driver::OpOutcome;
use vedb_workloads::lookup::{self, LookupScale};
use vedb_workloads::tpcc::{self, TpccScale};
use vedb_workloads::{chbench, orders};

const TPCC_TINY: TpccScale = TpccScale {
    warehouses: 2,
    districts: 2,
    customers: 20,
    items: 60,
    initial_orders: 5,
};

#[derive(Debug, Clone, Copy)]
enum Workload {
    Tpcc,
    SingleInsert,
    Lookup,
    /// The 22 CH queries with push-down, round-robin from the client's index.
    ChQueries,
}

/// Everything a repeat of the same case must reproduce.
#[derive(PartialEq)]
struct Outcome {
    json: String,
    /// Latest clock any client's operation ended at.
    final_clock: u64,
    counters: BTreeMap<String, u64>,
}

/// A fresh deployment, `workload` loaded, one traced trial of `clients`.
fn run_case(workload: Workload, clients: usize, policy: FlushPolicy) -> (RunReport, Outcome) {
    let mut dep = Deployment::open(
        DbConfig::builder()
            .bp_pages(64)
            .bp_shards(4)
            .log(LogBackendKind::AStore)
            .ring_segments(8)
            .ebp(EbpConfig::default())
            .flush_policy(policy)
            .build()
            .unwrap(),
    );
    let (ctx, db) = (&mut dep.ctx, Arc::clone(&dep.db));
    let lookups = LookupScale::tiny();
    match workload {
        Workload::Tpcc => {
            db.define_schema(tpcc::define_schema);
            db.create_tables(ctx).unwrap();
            tpcc::load(ctx, &db, &TPCC_TINY).unwrap();
        }
        Workload::SingleInsert => {
            db.define_schema(orders::define_schema);
            db.create_tables(ctx).unwrap();
            orders::load(ctx, &db).unwrap();
        }
        Workload::Lookup => {
            db.define_schema(lookup::define_schema);
            db.create_tables(ctx).unwrap();
            lookup::load(ctx, &db, lookups).unwrap();
        }
        Workload::ChQueries => {
            db.define_schema(|cat| {
                tpcc::define_schema(cat);
                chbench::extend_schema(cat);
            });
            db.create_tables(ctx).unwrap();
            tpcc::load(ctx, &db, &TPCC_TINY).unwrap();
            chbench::load_extra(ctx, &db).unwrap();
            db.flush_ship(ctx, true);
        }
    }
    dep.metrics().trace().set_capacity(1 << 18);
    dep.metrics().trace().enable();

    let plans = chbench::all_queries();
    let pushdown = QuerySession::with_pushdown();
    let turns: Vec<AtomicU64> = (0..clients).map(|_| AtomicU64::new(0)).collect();
    let final_clock = AtomicU64::new(0);
    let trial = dep.trial(
        clients,
        VTime::from_millis(2),
        VTime::from_millis(10),
        |ctx, client| {
            let outcome = match workload {
                Workload::Tpcc => tpcc::run_transaction(ctx, &db, &TPCC_TINY),
                Workload::SingleInsert => orders::single_insert(ctx, &db),
                Workload::Lookup => lookup::lookup_op(ctx, &db, lookups),
                Workload::ChQueries => {
                    let turn = turns[client].fetch_add(1, Ordering::Relaxed) as usize;
                    let (n, plan) = &plans[(client + turn) % plans.len()];
                    execute(ctx, &db, &pushdown, plan)
                        .unwrap_or_else(|e| panic!("Q{n} failed with pushdown: {e}"));
                    OpOutcome::Committed
                }
            };
            final_clock.fetch_max(ctx.now().as_nanos(), Ordering::Relaxed);
            outcome
        },
    );
    let report = dep.report("det", Some(&trial));
    let outcome = Outcome {
        json: report.to_json(),
        final_clock: final_clock.into_inner(),
        counters: dep.metrics().counter_values(),
    };
    (report, outcome)
}

/// Byte-level mismatch: show the first differing line for triage.
fn assert_same_json(ja: &str, jb: &str) {
    if ja != jb {
        for (la, lb) in ja.lines().zip(jb.lines()) {
            if la != lb {
                panic!("reports diverge:\n  run A: {la}\n  run B: {lb}");
            }
        }
        panic!(
            "reports differ in length: {} vs {} bytes",
            ja.len(),
            jb.len()
        );
    }
}

/// What the writer wrote, the parser reads back: every trial value,
/// counter and gauge of `json` equals the struct's field.
fn assert_parses_back(report: &RunReport, json: &str, case: &str) {
    let doc = parse_json(json).unwrap_or_else(|e| panic!("{case}: {e}"));
    let num = |v: &Json, section: &str, key: &str| {
        v.get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{case}: {section}.{key} missing"))
    };
    let Some(Json::Arr(trials)) = doc.get("trials") else {
        panic!("{case}: trials is an array")
    };
    assert_eq!(trials.len(), report.trials.len(), "{case}");
    for (parsed, trial) in trials.iter().zip(&report.trials) {
        for (key, value) in &trial.result {
            assert_eq!(num(parsed, "result", key), *value, "{case}: result.{key}");
        }
    }
    for (key, value) in &report.counters {
        assert_eq!(num(&doc, "counters", key), *value as f64, "{case}: {key}");
    }
    for (key, value) in &report.gauges {
        assert_eq!(num(&doc, "gauges", key), *value as f64, "{case}: {key}");
    }
}

/// The table: four workload shapes × {1, 64} clients × both flush policies,
/// each run twice in this process. The report, the final clock and every
/// registry counter repeat.
#[test]
fn seeded_runs_are_byte_identical_at_1_and_64_clients_under_both_policies() {
    let group = FlushPolicy::Group {
        max_batch_bytes: 64 * 1024,
        max_wait: VTime::from_micros(100),
    };
    for workload in [
        Workload::Tpcc,
        Workload::SingleInsert,
        Workload::Lookup,
        Workload::ChQueries,
    ] {
        for clients in [1, 64] {
            for policy in [FlushPolicy::PerCommit, group] {
                let case = format!("{workload:?} x {clients} clients, {policy:?}");
                let (report, a) = run_case(workload, clients, policy);
                let (_, b) = run_case(workload, clients, policy);

                // Sanity: the run actually did work — an empty report being
                // equal to another empty report would prove nothing.
                assert!(
                    report.trials[0].result["throughput_per_s"] > 0.0,
                    "{case}: committed nothing"
                );
                assert!(report.counter("pmem.writes") > 0, "{case}");
                assert!(report.counter("rdma.chain_writes") > 0, "{case}");
                // ... and at 64 clients through the waits the baton orders:
                // parked row-lock waiters, committers carried by a leader.
                if clients == 64 && matches!(workload, Workload::Tpcc) {
                    assert!(report.counter("core.lock_waits") > 0, "{case}");
                }
                if clients == 64 && policy == group && matches!(workload, Workload::SingleInsert) {
                    assert!(report.counter("core.wal_carried_commits") > 0, "{case}");
                }

                assert_same_json(&a.json, &b.json);
                assert_parses_back(&report, &a.json, &case);
                assert_eq!(a.final_clock, b.final_clock, "{case}: final clock");
                assert_eq!(a.counters, b.counters, "{case}: counters");
            }
        }
    }
}

fn run_once(name: &str) -> RunReport {
    let scale = TPCC_TINY;
    let mut dep = Deployment::open_with(
        DbConfig::builder()
            .bp_pages(512)
            .bp_shards(4)
            .log(LogBackendKind::AStore)
            .ring_segments(8)
            .build()
            .unwrap(),
        ClusterSpec::paper_default(),
        192 << 20,
        1 << 20,
    );
    dep.db.define_schema(tpcc::define_schema);
    dep.db.create_tables(&mut dep.ctx).unwrap();
    tpcc::load(&mut dep.ctx, &dep.db, &scale).unwrap();

    // Trace the trial so determinism also covers the profile section
    // (span ids, phase sums, timeline buckets).
    dep.metrics().trace().set_capacity(1 << 18);
    dep.metrics().trace().enable();

    let db = Arc::clone(&dep.db);
    let r = dep.trial(
        1,
        VTime::from_millis(5),
        VTime::from_millis(50),
        |ctx, _| tpcc::run_transaction(ctx, &db, &scale),
    );
    dep.report(name, Some(&r))
}

/// Same property through the apply pipeline: apply partitions book the
/// node's CPU lanes deterministically and the checkpointer runs on a
/// forked context, so counters, truncation totals and latency buckets must
/// still be byte-identical between same-seed runs.
#[test]
fn parallel_apply_and_checkpointer_runs_are_byte_identical() {
    let a = run_once("det-par");
    let b = run_once("det-par");

    // Sanity: the pipeline was live — replay applied records and the
    // checkpointer fired and truncated replayed log.
    assert!(
        a.counter("pagestore.records_applied") > 0,
        "replay never ran"
    );
    assert!(a.counter("pagestore.checkpoints") > 0, "checkpointer idle");
    assert!(
        a.counter("pagestore.log_truncated_records") > 0,
        "checkpoints must truncate replayed log"
    );

    assert_same_json(&a.to_json(), &b.to_json());
}

#[test]
fn report_json_round_trips_expected_fields() {
    let rep = run_once("fields");
    let json = rep.to_json();
    // Spot-check the schema the EXPERIMENTS.md tooling greps for.
    assert!(json.contains("\"schema\": \"vedb-bench-report/v4\""));
    assert!(json.contains("\"trials\""));
    assert!(json.contains("\"throughput_per_s\""));
    assert!(json.contains("\"p50_ns\""));
    assert!(json.contains("\"p95_ns\""));
    assert!(json.contains("\"p99_ns\""));
    assert!(json.contains("\"core.txn_commits\""));
    assert!(json.contains("\"pmem.bytes_persisted\""));
    assert!(json.contains("\"rdma.chain_writes\""));
    // The profile section: per-op attribution and the commit-phase split.
    assert!(json.contains("\"profile\""));
    assert!(json.contains("\"commit_phases\""));
    assert!(json.contains("\"core/commit\""));
    assert!(json.contains("\"wal/flush\""));
    // Resource saturation, lock contention, folded flamegraph stacks.
    assert!(json.contains("\"resources\""));
    assert!(json.contains("\"steady_util_pct\""));
    assert!(json.contains("\"astore-0.pmem\""));
    assert!(json.contains("\"locks\""));
    assert!(json.contains("\"folded\""));
    assert!(!rep.resources.is_empty(), "no resources discovered");
    assert!(
        rep.resources.values().all(|r| r.wait.count == r.ops),
        "wait histogram must sample once per acquisition"
    );
    assert!(!rep.profile.folded.is_empty(), "no folded stacks");
    assert!(rep.profile.spans > 0, "trial ran with tracing off");
    let commit_total = rep.profile.ops["core/commit"].total_ns;
    let phase_sum: u64 = rep.profile.commit_phases.values().map(|p| p.total_ns).sum();
    assert!(
        commit_total.abs_diff(phase_sum) * 100 <= commit_total,
        "commit_phases sum {phase_sum} vs commit total {commit_total}"
    );
}
