//! Fixture suite for `vedb-lint`: every lint must fire on its positive
//! fixture, stay quiet on its negative one, respect path scoping, and the
//! suppression machinery and cycle detector must behave exactly as
//! documented. These tests pin the analyzer's approximations — if one of
//! them changes, this file is where the contract is renegotiated.

use vedb_lint::lockgraph::{
    build_graph, diff_against_golden, extract_edges, find_cycles, parse_golden, render_golden, Edge,
};
use vedb_lint::{analyze_source, scan::scan};

const WALL_CLOCK_BAD: &str = include_str!("fixtures/wall_clock_bad.rs");
const WALL_CLOCK_OK: &str = include_str!("fixtures/wall_clock_ok.rs");
const RNG_BAD: &str = include_str!("fixtures/rng_bad.rs");
const RNG_OK: &str = include_str!("fixtures/rng_ok.rs");
const ORDERED_BAD: &str = include_str!("fixtures/ordered_bad.rs");
const ORDERED_OK: &str = include_str!("fixtures/ordered_ok.rs");
const PANIC_BAD: &str = include_str!("fixtures/panic_bad.rs");
const PANIC_OK: &str = include_str!("fixtures/panic_ok.rs");
const GLOBAL_STATE_BAD: &str = include_str!("fixtures/global_state_bad.rs");
const GLOBAL_STATE_OK: &str = include_str!("fixtures/global_state_ok.rs");
const SUPPRESSED: &str = include_str!("fixtures/suppressed.rs");
const BAD_SUPPRESSION: &str = include_str!("fixtures/bad_suppression.rs");
const LOCK_OK: &str = include_str!("fixtures/lock_order_ok.rs");
const LOCK_CYCLE: &str = include_str!("fixtures/lock_order_cycle.rs");

/// A path inside every lint's scope (a server-side request path).
const RUNTIME: &str = "crates/core/src/db.rs";
/// A report-path module (outside the no-panic scope).
const REPORT: &str = "crates/sim/src/metrics.rs";

fn lines_of(diags: &[vedb_lint::Diagnostic], lint: &str) -> Vec<usize> {
    diags
        .iter()
        .filter(|d| d.lint == lint)
        .map(|d| d.line)
        .collect()
}

// ---------------------------------------------------------------- lint 1

#[test]
fn wall_clock_fires_on_instant_systemtime_and_sleep() {
    let diags = analyze_source(RUNTIME, WALL_CLOCK_BAD);
    assert_eq!(lines_of(&diags, "no-wall-clock"), vec![3, 4, 5]);
}

#[test]
fn wall_clock_quiet_on_virtual_time_and_duration() {
    assert!(analyze_source(RUNTIME, WALL_CLOCK_OK).is_empty());
}

#[test]
fn wall_clock_exempt_inside_sim_clock_internals() {
    // The same offending source is legal where virtual time is implemented.
    assert!(analyze_source("crates/sim/src/time.rs", WALL_CLOCK_BAD).is_empty());
}

// ---------------------------------------------------------------- lint 2

#[test]
fn rng_fires_on_all_entropy_draws() {
    let diags = analyze_source(RUNTIME, RNG_BAD);
    assert_eq!(lines_of(&diags, "no-unseeded-rng"), vec![3, 4, 5, 6]);
}

#[test]
fn rng_quiet_on_seeded_ctx_rng() {
    // Includes a local *named* `random` — must not trip the path-form check.
    assert!(analyze_source(RUNTIME, RNG_OK).is_empty());
}

// ---------------------------------------------------------------- lint 3

#[test]
fn ordered_serialization_fires_on_every_hash_iteration_form() {
    // Lines 17-31: `.values_mut()`, `.iter_mut()`, `.into_keys()`, a
    // receiver on the previous line (`groups⏎.into_iter()`) whose chain
    // runs past the old three-line window, and `.into_values()`. Lines
    // 43-54: through a `.lock()`/`.read()`/`.write()` guard, on the line or
    // with the receiver above, and over a `type` alias of a hash map.
    for path in [REPORT, RUNTIME, "crates/core/src/query/pushdown.rs"] {
        let diags = analyze_source(path, ORDERED_BAD);
        assert_eq!(
            lines_of(&diags, "ordered-serialization"),
            vec![6, 9, 10, 17, 20, 23, 25, 31, 43, 47, 50, 54],
            "{path}"
        );
    }
}

#[test]
fn ordered_serialization_quiet_when_sorted_or_btree() {
    // Among the forms: a chain whose receiver sits below a `let` that
    // binds a `BTreeMap` (`let by_page: BTreeMap<..> = t⏎.index⏎.read()⏎
    // .iter()…`): the statement is read from its `let` line.
    assert!(analyze_source(REPORT, ORDERED_OK).is_empty());
    assert!(analyze_source(RUNTIME, ORDERED_OK).is_empty());
}

#[test]
fn ordered_serialization_scoped_to_product_modules() {
    // Every non-test module under `crates/*/src` is in scope; the facade,
    // the examples and `#[cfg(test)]` code are not.
    assert!(analyze_source("examples/quickstart.rs", ORDERED_BAD).is_empty());
    assert!(analyze_source("src/lib.rs", ORDERED_BAD).is_empty());
    let in_tests = format!("#[cfg(test)]\nmod tests {{\n{ORDERED_BAD}}}\n");
    assert!(analyze_source(RUNTIME, &in_tests).is_empty());
}

// ---------------------------------------------------------------- lint 4

#[test]
fn panic_lint_fires_on_each_panic_shape() {
    let diags = analyze_source(RUNTIME, PANIC_BAD);
    assert_eq!(
        lines_of(&diags, "no-panic-in-runtime"),
        vec![4, 5, 7, 10, 11]
    );
}

#[test]
fn panic_lint_quiet_on_typed_errors_and_cfg_test() {
    assert!(analyze_source(RUNTIME, PANIC_OK).is_empty());
}

#[test]
fn panic_lint_scoped_to_runtime_paths_only() {
    assert!(analyze_source("crates/sim/src/metrics.rs", PANIC_BAD).is_empty());
}

// ---------------------------------------------------------------- lint 6

#[test]
fn global_state_fires_on_every_process_global_form() {
    // An atomic, a `Mutex`, a path-qualified `RwLock`, a `Cell`, a
    // `RefCell`, a `OnceLock`, a `OnceCell`, a `Lazy`, a `static mut`, a
    // `thread_local!` and an array of atomics.
    for path in [REPORT, RUNTIME, "crates/workloads/src/orders.rs"] {
        let diags = analyze_source(path, GLOBAL_STATE_BAD);
        assert_eq!(
            lines_of(&diags, "no-global-state"),
            vec![2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 14],
            "{path}"
        );
        assert_eq!(diags.len(), 11, "{path}");
    }
}

#[test]
fn global_state_quiet_on_fields_consts_and_plain_statics() {
    // A `OnceLock` or atomic field, a `const`, a `static` of a `&str` or
    // an array of plain values, and `'static` lifetimes.
    assert!(analyze_source(RUNTIME, GLOBAL_STATE_OK).is_empty());
}

#[test]
fn global_state_scoped_to_product_modules() {
    assert!(analyze_source("examples/quickstart.rs", GLOBAL_STATE_BAD).is_empty());
    assert!(analyze_source("src/lib.rs", GLOBAL_STATE_BAD).is_empty());
    let in_tests = format!("#[cfg(test)]\nmod tests {{\n{GLOBAL_STATE_BAD}}}\n");
    assert!(analyze_source(RUNTIME, &in_tests).is_empty());
}

// ---------------------------------------------------------- suppressions

#[test]
fn suppressions_cover_preceding_and_trailing_forms() {
    let diags = analyze_source(RUNTIME, SUPPRESSED);
    // Only the deliberately unsuppressed site survives.
    assert_eq!(lines_of(&diags, "no-wall-clock"), vec![7]);
    assert_eq!(diags.len(), 1);
}

#[test]
fn suppression_parsing_captures_lint_reason_and_position() {
    let s = scan(RUNTIME, SUPPRESSED);
    assert_eq!(s.suppressions.len(), 2);
    let pre = &s.suppressions[0];
    assert_eq!(pre.lint, "no-wall-clock");
    assert_eq!(pre.reason, "host-side budget, never reported");
    assert!(!pre.trailing);
    let trail = &s.suppressions[1];
    assert_eq!(trail.line, 6);
    assert!(trail.trailing);
    assert!(s.bad_directives.is_empty());
}

#[test]
fn reasonless_suppressions_are_rejected_and_do_not_suppress() {
    let diags = analyze_source(RUNTIME, BAD_SUPPRESSION);
    // The malformed directives are findings themselves...
    assert_eq!(lines_of(&diags, "bad-suppression"), vec![4, 6]);
    // ...and they suppress nothing: the wall-clock reads still fire.
    assert_eq!(lines_of(&diags, "no-wall-clock"), vec![5, 7]);
}

// ------------------------------------------------------------ lock-order

const FACADE: &str = "crates/core/src/facade.rs";

#[test]
fn consistent_lock_order_yields_one_edge_and_no_cycle() {
    let s = scan(FACADE, LOCK_OK);
    let graph = build_graph(&extract_edges(&s));
    let edges: Vec<&Edge> = graph.keys().collect();
    assert_eq!(edges.len(), 1, "both fns dedup to one class edge");
    assert_eq!(edges[0].from, "core/facade::alpha");
    assert_eq!(edges[0].to, "core/facade::beta");
    assert!(find_cycles(&graph).is_empty());
}

#[test]
fn abba_order_is_detected_as_a_cycle() {
    let s = scan(FACADE, LOCK_CYCLE);
    let graph = build_graph(&extract_edges(&s));
    assert_eq!(graph.len(), 2);
    let cycles = find_cycles(&graph);
    assert_eq!(
        cycles,
        vec![vec![
            "core/facade::alpha".to_string(),
            "core/facade::beta".to_string()
        ]]
    );
}

#[test]
fn golden_diff_reports_new_edges_stale_edges_and_cycles() {
    let s = scan(FACADE, LOCK_CYCLE);
    let graph = build_graph(&extract_edges(&s));

    // Empty golden: both edges are new, and the cycle always fails.
    let mut diags = Vec::new();
    diff_against_golden(
        &graph,
        &parse_golden(""),
        "g.golden",
        std::slice::from_ref(&s),
        &mut diags,
    );
    let new_edges = diags
        .iter()
        .filter(|d| d.message.contains("new lock-acquisition edge"))
        .count();
    let cycles = diags
        .iter()
        .filter(|d| d.message.contains("lock-order cycle"))
        .count();
    assert_eq!((new_edges, cycles), (2, 1));

    // Golden matching the tree: only the cycle remains.
    let mut diags = Vec::new();
    let golden = parse_golden(&render_golden(&graph));
    diff_against_golden(
        &graph,
        &golden,
        "g.golden",
        std::slice::from_ref(&s),
        &mut diags,
    );
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("lock-order cycle"));

    // Golden with an edge the tree no longer has: stale-entry diagnostic.
    let ok = scan(FACADE, LOCK_OK);
    let ok_graph = build_graph(&extract_edges(&ok));
    let mut diags = Vec::new();
    let stale_golden = parse_golden(
        "core/facade::alpha -> core/facade::beta\n\
         core/facade::gamma -> core/facade::alpha\n",
    );
    diff_against_golden(&ok_graph, &stale_golden, "g.golden", &[ok], &mut diags);
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("stale golden edge"));
    assert!(diags[0].message.contains("core/facade::gamma"));
}

#[test]
fn golden_render_parse_roundtrip_preserves_edges() {
    let s = scan(FACADE, LOCK_OK);
    let graph = build_graph(&extract_edges(&s));
    let parsed = parse_golden(&render_golden(&graph));
    assert_eq!(parsed.len(), graph.len());
    for e in graph.keys() {
        assert!(parsed.contains(e));
    }
}
