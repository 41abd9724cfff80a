//! Cross-crate integration tests: the paper's storyline end to end, plus
//! failure injection that crosses layer boundaries.

use vedb::prelude::*;
use vedb::workloads::{chbench, tpcc};

fn fabric() -> StorageFabric {
    StorageFabric::build(ClusterSpec::paper_default(), 96 << 20, 1 << 20)
}

/// The paper's three claims in one test: (1) AStore cuts commit latency
/// several-fold, (2) the EBP serves cold reads ~50x faster than PageStore,
/// (3) push-down returns identical results while using storage CPU.
#[test]
fn paper_storyline() {
    // (1) commit latency: baseline vs AStore.
    let mut lat = Vec::new();
    for log in [LogBackendKind::BlobStore, LogBackendKind::AStore] {
        let f = fabric();
        let mut ctx = SimCtx::new(0, 7);
        let db = Db::open(&mut ctx, &f, DbConfig::builder().log(log).build().unwrap()).unwrap();
        db.define_schema(|cat| {
            cat.define("t")
                .col("id", ColumnType::Int)
                .col("v", ColumnType::Str)
                .pk(&["id"])
                .build();
        });
        db.create_tables(&mut ctx).unwrap();
        let t0 = ctx.now();
        for i in 0..100 {
            let mut txn = db.begin();
            db.insert(
                &mut ctx,
                &mut txn,
                "t",
                vec![Value::Int(i), Value::Str("x".into())],
            )
            .unwrap();
            db.commit(&mut ctx, &mut txn).unwrap();
        }
        lat.push((ctx.now() - t0) / 100);
    }
    assert!(
        lat[0].as_nanos() > lat[1].as_nanos() * 4,
        "AStore must cut commit latency several-fold: {} vs {}",
        lat[0],
        lat[1]
    );

    // (2) EBP read vs PageStore read for the same cold page.
    let f = fabric();
    let mut ctx = SimCtx::new(0, 7);
    let db = Db::open(
        &mut ctx,
        &f,
        DbConfig::builder()
            .bp_pages(16)
            .ebp(EbpConfig {
                capacity_bytes: 64 << 20,
                ..Default::default()
            })
            .build()
            .unwrap(),
    )
    .unwrap();
    db.define_schema(|cat| {
        cat.define("big")
            .col("id", ColumnType::Int)
            .col("pad", ColumnType::Str)
            .pk(&["id"])
            .build();
    });
    db.create_tables(&mut ctx).unwrap();
    let mut txn = db.begin();
    for i in 0..2000 {
        db.insert(
            &mut ctx,
            &mut txn,
            "big",
            vec![Value::Int(i), Value::Str("p".repeat(200))],
        )
        .unwrap();
    }
    db.commit(&mut ctx, &mut txn).unwrap();
    // Stream once: evictions fill the EBP.
    db.scan_table(&mut ctx, "big", |_| true).unwrap();
    let hits0 = db.ebp().unwrap().hits();
    let t0 = ctx.now();
    for i in (0..2000).step_by(53) {
        db.get_by_pk(&mut ctx, None, "big", &[Value::Int(i)])
            .unwrap()
            .unwrap();
    }
    let warm = ctx.now() - t0;
    assert!(
        db.ebp().unwrap().hits() - hits0 > 10,
        "EBP must serve the cold lookups"
    );
    // The same reads through PageStore only (EBP disabled) cost much more.
    let f2 = fabric();
    let mut ctx2 = SimCtx::new(0, 7);
    let db2 = Db::open(
        &mut ctx2,
        &f2,
        DbConfig::builder().bp_pages(16).build().unwrap(),
    )
    .unwrap();
    db2.define_schema(|cat| {
        cat.define("big")
            .col("id", ColumnType::Int)
            .col("pad", ColumnType::Str)
            .pk(&["id"])
            .build();
    });
    db2.create_tables(&mut ctx2).unwrap();
    let mut txn2 = db2.begin();
    for i in 0..2000 {
        db2.insert(
            &mut ctx2,
            &mut txn2,
            "big",
            vec![Value::Int(i), Value::Str("p".repeat(200))],
        )
        .unwrap();
    }
    db2.commit(&mut ctx2, &mut txn2).unwrap();
    db2.scan_table(&mut ctx2, "big", |_| true).unwrap();
    let t0 = ctx2.now();
    for i in (0..2000).step_by(53) {
        db2.get_by_pk(&mut ctx2, None, "big", &[Value::Int(i)])
            .unwrap()
            .unwrap();
    }
    let cold = ctx2.now() - t0;
    assert!(
        cold.as_nanos() > warm.as_nanos() * 5,
        "EBP-served lookups ({warm}) must be much faster than PageStore-only ({cold})"
    );
}

/// AStore node failure mid-run: the log ring replaces its segment, the EBP
/// degrades to misses, and committed data stays readable.
#[test]
fn astore_node_failure_is_survivable() {
    let f = fabric();
    let mut ctx = SimCtx::new(0, 7);
    let db = Db::open(
        &mut ctx,
        &f,
        DbConfig::builder()
            .bp_pages(32)
            .ebp(EbpConfig::default())
            .build()
            .unwrap(),
    )
    .unwrap();
    db.define_schema(|cat| {
        cat.define("t")
            .col("id", ColumnType::Int)
            .col("v", ColumnType::Int)
            .pk(&["id"])
            .build();
    });
    db.create_tables(&mut ctx).unwrap();
    let mut txn = db.begin();
    for i in 0..500 {
        db.insert(&mut ctx, &mut txn, "t", vec![Value::Int(i), Value::Int(i)])
            .unwrap();
    }
    db.commit(&mut ctx, &mut txn).unwrap();

    // Kill one AStore server.
    let victim = f.astore_servers[0].node();
    f.env.faults.crash(victim);

    // Commits continue: the first write into the dead replica's segment
    // fails, the ring freezes it and retries... but creating a replacement
    // needs 3 live servers, so restore the node after the failure is
    // detected (transient failure), then continue.
    let mut txn = db.begin();
    let r = db.insert(
        &mut ctx,
        &mut txn,
        "t",
        vec![Value::Int(9001), Value::Int(1)],
    );
    let r = r.and_then(|_| db.commit(&mut ctx, &mut txn));
    f.env.faults.restore(victim);
    if r.is_err() {
        // Retry after the node returns.
        let mut txn = db.begin();
        db.insert(
            &mut ctx,
            &mut txn,
            "t",
            vec![Value::Int(9002), Value::Int(1)],
        )
        .unwrap();
        db.commit(&mut ctx, &mut txn).unwrap();
    }
    // All committed data still readable.
    for i in (0..500).step_by(97) {
        assert!(db
            .get_by_pk(&mut ctx, None, "t", &[Value::Int(i)])
            .unwrap()
            .is_some());
    }
}

/// PageStore tolerates one dead replica (quorum 2/3 + gossip repair), and
/// reads served from the survivors stay correct.
#[test]
fn pagestore_replica_failure_quorum() {
    let f = fabric();
    let mut ctx = SimCtx::new(0, 7);
    let db = Db::open(
        &mut ctx,
        &f,
        DbConfig::builder().bp_pages(16).build().unwrap(),
    )
    .unwrap();
    db.define_schema(|cat| {
        cat.define("t")
            .col("id", ColumnType::Int)
            .col("v", ColumnType::Int)
            .pk(&["id"])
            .build();
    });
    db.create_tables(&mut ctx).unwrap();

    // Kill one storage node; quorum (2/3) keeps ships succeeding.
    let victim = db.pagestore().servers()[0].node();
    f.env.faults.crash(victim);
    let mut txn = db.begin();
    for i in 0..800 {
        db.insert(
            &mut ctx,
            &mut txn,
            "t",
            vec![Value::Int(i), Value::Int(i * 2)],
        )
        .unwrap();
    }
    db.commit(&mut ctx, &mut txn).unwrap();
    db.checkpoint(&mut ctx).unwrap();
    f.env.faults.restore(victim);

    // Force reads through PageStore (tiny BP, no EBP): correctness must
    // hold whichever replica serves, with gossip filling the dead node's
    // holes.
    for i in (0..800).step_by(61) {
        let row = db
            .get_by_pk(&mut ctx, None, "t", &[Value::Int(i)])
            .unwrap()
            .unwrap();
        assert_eq!(row[1], Value::Int(i * 2));
    }
}

/// The 22 CH queries agree between local and push-down execution on a
/// database that has seen updates, deletes, and page splits (not just a
/// fresh load).
#[test]
fn pushdown_equivalence_after_churn() {
    let f = fabric();
    let mut ctx = SimCtx::new(0, 7);
    let db = Db::open(
        &mut ctx,
        &f,
        DbConfig::builder()
            .bp_pages(128)
            .ebp(EbpConfig {
                capacity_bytes: 64 << 20,
                ..Default::default()
            })
            .build()
            .unwrap(),
    )
    .unwrap();
    let scale = tpcc::TpccScale::tiny();
    db.define_schema(|cat| {
        tpcc::define_schema(cat);
        chbench::extend_schema(cat);
    });
    db.create_tables(&mut ctx).unwrap();
    tpcc::load(&mut ctx, &db, &scale).unwrap();
    chbench::load_extra(&mut ctx, &db).unwrap();
    // Churn: a burst of TP transactions mutates the AP tables.
    for _ in 0..60 {
        let _ = tpcc::run_transaction(&mut ctx, &db, &scale);
    }
    db.checkpoint(&mut ctx).unwrap();

    let local = QuerySession::default();
    let pq = QuerySession::with_pushdown();
    for (n, plan) in chbench::all_queries() {
        let mut a: Vec<String> = execute(&mut ctx, &db, &local, &plan)
            .unwrap_or_else(|e| panic!("Q{n} local: {e}"))
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        let mut b: Vec<String> = execute(&mut ctx, &db, &pq, &plan)
            .unwrap_or_else(|e| panic!("Q{n} pushdown: {e}"))
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "Q{n} diverged after churn");
    }
}

/// The AStore space lifecycle under the engine: far more page images go
/// through a small EBP than the AStore has room for, so every slot is
/// released, cleaned up after the §IV-C delay and handed out again many
/// times over — driven by nothing but the EBP asking for segments.
#[test]
fn ebp_churn_recycles_astore_slots() {
    const SLOT: u64 = 256 << 10;
    const ROWS: i64 = 2400;
    for compaction in [true, false] {
        let f = StorageFabric::build(ClusterSpec::paper_default(), 5 << 20, SLOT);
        let slots: usize = f.astore_servers.iter().map(|s| s.free_slots()).sum();
        let mut ctx = SimCtx::new(0, 7);
        // BlobStore log: the EBP is the AStore's only tenant.
        let db = Db::open(
            &mut ctx,
            &f,
            DbConfig::builder()
                .bp_pages(16)
                .log(LogBackendKind::BlobStore)
                .ebp(EbpConfig {
                    capacity_bytes: 2 << 20,
                    compaction,
                    ..Default::default()
                })
                .build()
                .unwrap(),
        )
        .unwrap();
        db.define_schema(|cat| {
            cat.define("big")
                .col("id", ColumnType::Int)
                .col("pad", ColumnType::Str)
                .pk(&["id"])
                .build();
        });
        db.create_tables(&mut ctx).unwrap();
        let mut txn = db.begin();
        // The load evicts into the EBP too, so it is paced like the reads
        // below: a slot the EBP releases comes back only after the cleanup
        // delay.
        for i in 0..ROWS {
            db.insert(
                &mut ctx,
                &mut txn,
                "big",
                vec![Value::Int(i), Value::Str("p".repeat(2000))],
            )
            .unwrap();
            ctx.advance(VTime::from_micros(500));
        }
        db.commit(&mut ctx, &mut txn).unwrap();

        let counter = |name: &str| f.env.metrics.counter_values()[name];
        let gauge = |name: &str| f.env.metrics.gauge_values()[name] as usize;
        let target = 3 * slots as u64 * SLOT / (16 << 10);
        let mut least_free = slots;
        // Cycle through a table twenty times the BP and well over the EBP:
        // every page read evicts one, and the EBP has long since dropped it.
        // The pause keeps release rate x cleanup delay under the capacity.
        while counter("core.ebp_writes") < target {
            for i in (0..ROWS).step_by(4) {
                let row = db.get_by_pk(&mut ctx, None, "big", &[Value::Int(i)]);
                assert_eq!(row.unwrap().unwrap()[0], Value::Int(i));
                ctx.advance(VTime::from_millis(2));
            }
            least_free = least_free.min(gauge("astore.slots_free"));
        }

        let what = format!("compaction {compaction}");
        assert_eq!(counter("core.ebp_write_errors"), 0, "{what}");
        assert_eq!(counter("astore.alloc_no_space"), 0, "{what}");
        assert!(
            counter("astore.slots_reclaimed") > 2 * slots as u64,
            "{what}: {} slots reclaimed of {slots}",
            counter("astore.slots_reclaimed")
        );
        assert!(
            least_free >= slots / 4,
            "{what}: only {least_free} of {slots} slots free"
        );
        // The registry's books balance against the servers' and the CM's.
        let free: usize = f.astore_servers.iter().map(|s| s.free_slots()).sum();
        let routed: usize = f
            .astore_servers
            .iter()
            .map(|s| f.cm.routed_on(s.node()))
            .sum();
        assert_eq!(gauge("astore.slots_free"), free, "{what}");
        assert_eq!(
            slots - free,
            routed + gauge("astore.cleanup_pending"),
            "{what}"
        );

        // And the cache still works: a hot set read twice hits the second time.
        let ebp = db.ebp().unwrap();
        for pass in 0..2 {
            let hits0 = ebp.hits();
            for i in (0..ROWS / 8).step_by(4) {
                db.get_by_pk(&mut ctx, None, "big", &[Value::Int(i)])
                    .unwrap()
                    .unwrap();
            }
            let hits = ebp.hits() - hits0;
            if pass == 1 {
                assert!(hits > 20, "{what}: {hits} EBP hits");
            }
        }
    }
}
