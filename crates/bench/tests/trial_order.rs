//! A sweep point is a function of its own params: `figures::point` runs
//! each on a deployment of its own, so running a sweep's points in another
//! order gives the same bytes, and a check that looks its points up with
//! `figures::find` reads the one it names whatever the order.

use std::panic;

use vedb_bench::figures::{find, point};
use vedb_bench::Deployment;
use vedb_core::db::{DbConfig, LogBackendKind};
use vedb_sim::Trial;
use vedb_workloads::tpcc::{self, TpccScale};

const TINY: TpccScale = TpccScale {
    warehouses: 2,
    districts: 2,
    customers: 20,
    items: 60,
    initial_orders: 5,
};

fn key(clients: usize) -> Trial {
    Trial::default()
        .with_param("log", "astore")
        .with_param("clients", clients as f64)
}

/// TPC-C at `clients` clients on a small deployment of its own: the trial
/// and its deployment's registry, rendered.
fn tpcc_point(clients: usize) -> String {
    let open = || {
        let cfg = DbConfig::builder()
            .bp_pages(64)
            .bp_shards(4)
            .log(LogBackendKind::AStore)
            .ring_segments(8)
            .build()
            .unwrap();
        let mut dep = Deployment::open(cfg);
        dep.db.define_schema(tpcc::define_schema);
        dep.db.create_tables(&mut dep.ctx).unwrap();
        tpcc::load(&mut dep.ctx, &dep.db, &TINY).unwrap();
        dep
    };
    let (trial, mut registry) = point(key(clients), clients, (2, 10), open, |ctx, db, _| {
        tpcc::run_transaction(ctx, db, &TINY)
    });
    assert!(
        trial.result["committed"] > 0.0,
        "{clients} clients committed nothing"
    );
    registry.trials = vec![trial];
    registry.to_json()
}

#[test]
fn a_sweep_run_forward_and_reversed_gives_the_same_bytes() {
    let clients = [1usize, 4, 16];
    let forward: Vec<String> = clients.iter().map(|&n| tpcc_point(n)).collect();
    let mut reversed: Vec<String> = clients.iter().rev().map(|&n| tpcc_point(n)).collect();
    reversed.reverse();
    for ((a, b), n) in forward.iter().zip(&reversed).zip(clients) {
        assert!(
            a == b,
            "the {n}-client point depends on the points run before it"
        );
    }
}

/// Points with distinct results, so a lookup that returns the wrong one shows.
fn points(order: &[usize]) -> Vec<Trial> {
    order
        .iter()
        .map(|&n| key(n).with_result("throughput_per_s", 100.0 * n as f64))
        .collect()
}

fn panic_message(f: impl FnOnce() + panic::UnwindSafe) -> String {
    let err = panic::catch_unwind(f).expect_err("the lookup should have panicked");
    err.downcast_ref::<String>().cloned().unwrap_or_default()
}

#[test]
fn find_reads_the_trial_its_params_name_whatever_the_order() {
    for order in [[1usize, 8, 64], [64, 8, 1], [8, 64, 1]] {
        let trials = points(&order);
        for n in [1usize, 8, 64] {
            let t = find(&trials, &key(n));
            assert_eq!(t.result["throughput_per_s"], 100.0 * n as f64, "{order:?}");
        }
        // A key may name fewer params than the trials carry.
        let by_clients = Trial::default().with_param("clients", 8.0);
        assert_eq!(find(&trials, &by_clients).result["throughput_per_s"], 800.0);
    }
}

#[test]
fn a_lookup_that_misses_or_is_ambiguous_panics_naming_its_params() {
    let trials = points(&[1, 8]);
    let miss = panic_message(|| {
        find(&trials, &key(2));
    });
    assert!(miss.contains("0 trials"), "{miss}");
    assert!(
        miss.contains(r#"{"clients": 2, "log": "astore"}"#),
        "{miss}"
    );

    let both = Trial::default().with_param("log", "astore");
    let ambiguous = panic_message(|| {
        find(&trials, &both);
    });
    assert!(ambiguous.contains("2 trials"), "{ambiguous}");
    assert!(ambiguous.contains(r#"{"log": "astore"}"#), "{ambiguous}");
}
