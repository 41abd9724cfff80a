//! Two deployments in one process share no state: a Fig 8 `single_insert`
//! point run while another deployment loads and inserts on a second thread
//! gives the bytes it gives when run alone. Order-flow ids come from each
//! `Db`'s own counter, so one deployment's `orders::load` cannot restart
//! the ids another is inserting with.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::thread;

use vedb_bench::figures::point;
use vedb_bench::Deployment;
use vedb_core::db::{DbConfig, LogBackendKind};
use vedb_sim::Trial;
use vedb_workloads::orders;

/// How a point takes part in a handoff with a point on another thread. The
/// two meet at one barrier three times, so that one deployment's
/// `orders::load` lands after the other's first insert and before its
/// second, and the loader's first insert comes after that second one. The
/// waits are in host time only: no virtual clock sees them.
#[derive(Clone, Copy)]
enum Side<'a> {
    Alone,
    Inserting(&'a Barrier),
    Loading(&'a Barrier),
}

/// Fig 8's `single_insert` point at 8 clients on a deployment of its own,
/// rendered.
fn single_insert_point(log: LogBackendKind, side: Side<'_>) -> String {
    let open = || {
        let cfg = DbConfig::builder()
            .bp_pages(4096)
            .bp_shards(16)
            .log(log)
            .ring_segments(12)
            .build()
            .unwrap();
        let mut dep = Deployment::open(cfg);
        dep.db.define_schema(orders::define_schema);
        dep.db.create_tables(&mut dep.ctx).unwrap();
        if let Side::Loading(meet) = side {
            meet.wait();
        }
        orders::load(&mut dep.ctx, &dep.db).unwrap();
        if let Side::Loading(meet) = side {
            meet.wait();
        }
        dep
    };
    let ops = AtomicUsize::new(0);
    let key = Trial::default().with_param("workload", "single_insert");
    let (trial, mut registry) = point(key, 8, (20, 120), open, |ctx, db, _| {
        let n = ops.fetch_add(1, Ordering::Relaxed);
        if let (Side::Loading(meet), 0) = (side, n) {
            meet.wait();
        }
        let outcome = orders::single_insert(ctx, db);
        if let Side::Inserting(meet) = side {
            // Around the other's load after the first insert; before its
            // first insert after the second.
            let meetings = match n {
                0 => 2,
                1 => 1,
                _ => 0,
            };
            for _ in 0..meetings {
                meet.wait();
            }
        }
        outcome
    });
    assert!(trial.result["committed"] > 0.0, "{log:?} committed nothing");
    registry.trials = vec![trial];
    registry.to_json()
}

#[test]
fn two_orders_deployments_side_by_side_give_their_solo_bytes() {
    let astore_alone = single_insert_point(LogBackendKind::AStore, Side::Alone);
    let logstore_alone = single_insert_point(LogBackendKind::BlobStore, Side::Alone);

    // The LogStore deployment loads its vendors between the AStore one's
    // first and second insert, then both insert at once.
    let meet = Barrier::new(2);
    let (astore, logstore) = thread::scope(|s| {
        let astore =
            s.spawn(|| single_insert_point(LogBackendKind::AStore, Side::Inserting(&meet)));
        let logstore =
            s.spawn(|| single_insert_point(LogBackendKind::BlobStore, Side::Loading(&meet)));
        (astore.join().unwrap(), logstore.join().unwrap())
    });
    assert!(
        astore == astore_alone,
        "the AStore deployment's report depends on the deployment beside it"
    );
    assert!(
        logstore == logstore_alone,
        "the LogStore deployment's report depends on the deployment beside it"
    );
}
