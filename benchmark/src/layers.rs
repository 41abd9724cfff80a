//! Per-layer metrics of the traced run, from (a) the harness's spans around
//! its calls into each layer, (b) the public `MetricsRegistry` differenced
//! around the measured window, and the product's `TraceLog` folded into
//! virtual self times. Probe values are merged in by the caller before
//! [`estimates`] combines them with the counts.
//!
//! `_us` is speed-normalised host time; `_per_op`/`_pct` are exact counts;
//! everything under `sim.` is on the simulator's virtual clock and exact per
//! seed.

use std::collections::BTreeMap;

use crate::harness::{p99, percentile, Rep};

/// Product spans whose virtual self time is reported, as `component/op`.
const SIM_SPANS: [&str; 10] = [
    "core/insert",
    "core/get",
    "core/commit",
    "wal/flush",
    "astore/append",
    "rdma/write_chain",
    "rdma/rpc",
    "pagestore/ship",
    "pagestore/apply",
    "pagestore/read_page",
];

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// `plain` is the untraced repetition, `traced` the one with harness spans,
/// `deep` the one with the product's `TraceLog` on as well.
pub fn metrics(plain: &Rep, traced: &Rep, deep: &Rep) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    let count = |key: &str| traced.delta.get(key).copied().unwrap_or(0);
    let per_op = |key: &str| traced.per_op(key);
    let kb_per_op = |key: &str| traced.per_op(key) / 1024.0;

    // (a) The harness's calls into each layer, mean per call.
    for (name, (norm_ns, calls)) in &traced.calls {
        put(&format!("{name}_us"), norm_ns / *calls as f64 / 1e3);
    }

    // (b) Registry counters over the measured window.
    let (bp_hits, bp_misses) = (count("core.bp_hits"), count("core.bp_misses"));
    put("core.bp_hit_pct", pct(bp_hits, bp_hits + bp_misses));
    put("core.bp_misses_per_op", per_op("core.bp_misses"));
    put("core.bp_evictions_per_op", per_op("core.bp_evictions"));
    let (ebp_hits, ebp_misses) = (count("core.ebp_hits"), count("core.ebp_misses"));
    put("core.ebp_hit_pct", pct(ebp_hits, ebp_hits + ebp_misses));
    put("core.ebp_writes_per_op", per_op("core.ebp_writes"));
    put("core.wal_flushes_per_op", per_op("core.wal_flushes"));
    put("core.wal_kb_per_op", kb_per_op("core.wal_bytes_flushed"));
    put("core.lock_acquires_per_op", per_op("core.lock_acquires"));
    put("core.lock_waits_per_op", per_op("core.lock_waits"));
    put(
        "core.txn_abort_pct",
        pct(count("core.txn_aborts"), traced.attempted),
    );
    put("astore.appends_per_op", per_op("astore.appends"));
    put("astore.append_kb_per_op", kb_per_op("astore.append_bytes"));
    put("astore.reads_per_op", per_op("astore.reads"));
    put(
        "astore.cm_lookups_per_op",
        per_op("astore.cm_route_lookups"),
    );
    put("rdma.chain_writes_per_op", per_op("rdma.chain_writes"));
    put("rdma.doorbells_per_op", per_op("rdma.doorbells"));
    put("rdma.rpc_calls_per_op", per_op("rdma.rpc_calls"));
    put("rdma.read_kb_per_op", kb_per_op("rdma.read_bytes"));
    put("pmem.writes_per_op", per_op("pmem.writes"));
    put("pmem.flushes_per_op", per_op("pmem.flushes"));
    put("pmem.kb_read_per_op", kb_per_op("pmem.bytes_read"));
    put("pagestore.ships_per_op", per_op("pagestore.ships"));
    put(
        "pagestore.records_applied_per_op",
        per_op("pagestore.records_applied"),
    );
    put(
        "pagestore.page_reads_per_op",
        per_op("pagestore.page_reads"),
    );
    put(
        "pagestore.checkpoints_per_kop",
        1000.0 * per_op("pagestore.checkpoints"),
    );
    put(
        "pagestore.apply_lag_records",
        traced
            .gauges
            .get("pagestore.apply_lag_records")
            .copied()
            .unwrap_or(0) as f64,
    );
    // A resource is any component that published a `.lanes` gauge.
    let acquires: u64 = traced
        .gauges
        .keys()
        .filter_map(|g| g.strip_suffix(".lanes"))
        .map(|resource| count(&format!("{resource}.ops")))
        .sum();
    put(
        "sim.resource_acquires_per_op",
        acquires as f64 / traced.committed as f64,
    );

    // The virtual clock.
    put(
        "sim.txn_per_s",
        traced.committed as f64 / (traced.virtual_ns as f64 / 1e9),
    );
    let virtual_lat: Vec<f64> = traced.virtual_lat_ns.iter().map(|ns| *ns as f64).collect();
    put("sim.lat_p50_us", percentile(&virtual_lat, 50.0) / 1e3);
    put("sim.lat_p99_us", p99(&virtual_lat) / 1e3);
    for span in SIM_SPANS {
        let self_ns = deep.sim_self_ns.get(span).copied().unwrap_or(0);
        put(
            &format!("sim.self_us_per_op.{}", span.replace('/', ".")),
            self_ns as f64 / deep.committed as f64 / 1e3,
        );
    }

    // The host and the tracing itself.
    put(
        "trace.overhead_pct",
        100.0 * (plain.tput_ops_s() - traced.tput_ops_s()) / plain.tput_ops_s(),
    );
    put("host.raw_tput_ops_s", plain.committed as f64 / plain.raw_s);
    let factors: Vec<f64> = [plain, traced, deep]
        .iter()
        .flat_map(|r| r.factors.iter().copied())
        .collect();
    put("host.speed_factor_p10", percentile(&factors, 10.0));
    put("host.speed_factor_p90", percentile(&factors, 90.0));
    let (heap_bytes, heap_allocs) = traced.heap;
    put(
        "host.alloc_kb_per_op",
        heap_bytes as f64 / 1024.0 / traced.committed as f64,
    );
    put(
        "host.allocs_per_op",
        heap_allocs as f64 / traced.committed as f64,
    );
    m
}

/// Probe time × call count per op, per layer, and what that leaves for the
/// engine itself. Needs the probe values already in `m`.
pub fn estimates(m: &mut BTreeMap<String, f64>, traced: &Rep) {
    let get = |m: &BTreeMap<String, f64>, name: &str| m.get(name).copied().unwrap_or(0.0);
    let astore = get(m, "astore.append_us") * get(m, "astore.appends_per_op")
        + get(m, "astore.read_page_us") * get(m, "astore.reads_per_op");
    // `pagestore.ships` counts one per replica; the ship probe times one
    // facade call that reaches all three.
    let pagestore = get(m, "pagestore.ship16_us") * get(m, "pagestore.ships_per_op") / 3.0
        + get(m, "pagestore.apply_us_per_record") * get(m, "pagestore.records_applied_per_op")
        + get(m, "pagestore.read_page_us") * get(m, "pagestore.page_reads_per_op");
    let op_us = traced.norm_s * 1e6 / traced.committed as f64;
    m.insert("astore.est_us_per_op".into(), astore);
    m.insert("pagestore.est_us_per_op".into(), pagestore);
    m.insert("core.est_self_us_per_op".into(), op_us - astore - pagestore);
    m.insert(
        "trace.coverage_pct".into(),
        100.0 * (astore + pagestore) / op_us,
    );
}
