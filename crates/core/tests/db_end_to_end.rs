//! End-to-end engine tests: transactions, persistence, eviction through
//! the EBP, crash recovery, and the baseline-vs-AStore latency gap.

use std::sync::Arc;

use vedb_core::catalog::ColumnType;
use vedb_core::db::{Db, DbConfig, LogBackendKind, StorageFabric};
use vedb_core::ebp::EbpConfig;
use vedb_core::recovery;
use vedb_core::{EngineError, Value};
use vedb_sim::{run_clients, ClusterSpec, SimCtx, VTime};

fn fabric() -> StorageFabric {
    StorageFabric::build(ClusterSpec::paper_default(), 32 << 20, 256 * 1024)
}

fn schema(cat: &mut vedb_core::Catalog) {
    cat.define("accounts")
        .col("id", ColumnType::Int)
        .col("owner", ColumnType::Str)
        .col("balance", ColumnType::Int)
        .pk(&["id"])
        .index("idx_owner", &["owner"])
        .build();
}

fn open_db(ctx: &mut SimCtx, fabric: &StorageFabric, cfg: DbConfig) -> Arc<Db> {
    let db = Db::open(ctx, fabric, cfg).unwrap();
    db.define_schema(schema);
    db.create_tables(ctx).unwrap();
    db
}

fn row(id: i64, owner: &str, balance: i64) -> Vec<Value> {
    vec![
        Value::Int(id),
        Value::Str(owner.into()),
        Value::Int(balance),
    ]
}

#[test]
fn insert_commit_read_back() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 42);
    let db = open_db(&mut ctx, &f, DbConfig::builder().build().unwrap());
    let mut txn = db.begin();
    for i in 0..50 {
        db.insert(
            &mut ctx,
            &mut txn,
            "accounts",
            row(i, &format!("owner-{i}"), 100 * i),
        )
        .unwrap();
    }
    db.commit(&mut ctx, &mut txn).unwrap();

    let got = db
        .get_by_pk(&mut ctx, None, "accounts", &[Value::Int(7)])
        .unwrap()
        .unwrap();
    assert_eq!(got[1], Value::Str("owner-7".into()));
    assert_eq!(got[2], Value::Int(700));
    assert!(db
        .get_by_pk(&mut ctx, None, "accounts", &[Value::Int(999)])
        .unwrap()
        .is_none());
}

#[test]
fn duplicate_pk_rejected() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 42);
    let db = open_db(&mut ctx, &f, DbConfig::builder().build().unwrap());
    let mut txn = db.begin();
    db.insert(&mut ctx, &mut txn, "accounts", row(1, "a", 0))
        .unwrap();
    assert!(matches!(
        db.insert(&mut ctx, &mut txn, "accounts", row(1, "b", 0)),
        Err(EngineError::DuplicateKey { .. })
    ));
}

#[test]
fn update_delete_and_secondary_index() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 42);
    let db = open_db(&mut ctx, &f, DbConfig::builder().build().unwrap());
    let mut txn = db.begin();
    for i in 0..20 {
        db.insert(
            &mut ctx,
            &mut txn,
            "accounts",
            row(i, &format!("o{}", i % 4), i),
        )
        .unwrap();
    }
    db.commit(&mut ctx, &mut txn).unwrap();

    // Secondary lookup before mutation.
    let rows = db
        .index_lookup(
            &mut ctx,
            "accounts",
            "idx_owner",
            &[Value::Str("o1".into())],
            100,
        )
        .unwrap();
    assert_eq!(rows.len(), 5); // ids 1,5,9,13,17

    let mut txn = db.begin();
    db.update_by_pk(&mut ctx, &mut txn, "accounts", &[Value::Int(1)], |r| {
        r[1] = Value::Str("renamed".into());
        r[2] = Value::Int(9999);
    })
    .unwrap();
    db.delete_by_pk(&mut ctx, &mut txn, "accounts", &[Value::Int(5)])
        .unwrap();
    db.commit(&mut ctx, &mut txn).unwrap();

    let rows = db
        .index_lookup(
            &mut ctx,
            "accounts",
            "idx_owner",
            &[Value::Str("o1".into())],
            100,
        )
        .unwrap();
    assert_eq!(rows.len(), 3, "id 1 re-keyed, id 5 deleted");
    let renamed = db
        .index_lookup(
            &mut ctx,
            "accounts",
            "idx_owner",
            &[Value::Str("renamed".into())],
            100,
        )
        .unwrap();
    assert_eq!(renamed.len(), 1);
    assert_eq!(renamed[0][2], Value::Int(9999));
    assert!(db
        .get_by_pk(&mut ctx, None, "accounts", &[Value::Int(5)])
        .unwrap()
        .is_none());
}

#[test]
fn abort_rolls_back_everything() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 42);
    let db = open_db(&mut ctx, &f, DbConfig::builder().build().unwrap());
    let mut setup = db.begin();
    db.insert(&mut ctx, &mut setup, "accounts", row(1, "keep", 100))
        .unwrap();
    db.commit(&mut ctx, &mut setup).unwrap();

    let mut txn = db.begin();
    db.insert(&mut ctx, &mut txn, "accounts", row(2, "gone", 0))
        .unwrap();
    db.update_by_pk(&mut ctx, &mut txn, "accounts", &[Value::Int(1)], |r| {
        r[2] = Value::Int(-1)
    })
    .unwrap();
    db.delete_by_pk(&mut ctx, &mut txn, "accounts", &[Value::Int(1)])
        .unwrap();
    db.abort(&mut ctx, &mut txn).unwrap();

    let r1 = db
        .get_by_pk(&mut ctx, None, "accounts", &[Value::Int(1)])
        .unwrap()
        .unwrap();
    assert_eq!(r1[2], Value::Int(100), "update+delete undone");
    assert!(db
        .get_by_pk(&mut ctx, None, "accounts", &[Value::Int(2)])
        .unwrap()
        .is_none());
    let idx = db
        .index_lookup(
            &mut ctx,
            "accounts",
            "idx_owner",
            &[Value::Str("gone".into())],
            10,
        )
        .unwrap();
    assert!(
        idx.is_empty(),
        "secondary entries of the aborted insert removed"
    );
}

#[test]
fn many_rows_split_pages_and_scan_in_order() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 42);
    let db = open_db(&mut ctx, &f, DbConfig::builder().build().unwrap());
    let n = 2000i64;
    let mut txn = db.begin();
    // Insert in shuffled order to exercise splits on both ends.
    let mut ids: Vec<i64> = (0..n).collect();
    for i in 0..ids.len() {
        let j = (i * 7919) % ids.len();
        ids.swap(i, j);
    }
    for id in &ids {
        db.insert(
            &mut ctx,
            &mut txn,
            "accounts",
            row(*id, &format!("o{}", id % 7), *id),
        )
        .unwrap();
    }
    db.commit(&mut ctx, &mut txn).unwrap();

    let mut seen = Vec::with_capacity(n as usize);
    db.scan_table(&mut ctx, "accounts", |r| {
        seen.push(r[0].as_int());
        true
    })
    .unwrap();
    assert_eq!(seen.len(), n as usize);
    let expected: Vec<i64> = (0..n).collect();
    assert_eq!(seen, expected, "clustered scan must return PK order");
    assert!(
        db.space_pages(db.with_table("accounts", |t| t.space_no).unwrap()) > 3,
        "2000 rows must have split into multiple pages"
    );
}

#[test]
fn eviction_through_ebp_and_pagestore_roundtrip() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 42);
    // Tiny pool forces eviction.
    let cfg = DbConfig::builder()
        .bp_pages(16)
        .bp_shards(2)
        .ebp(EbpConfig {
            capacity_bytes: 8 << 20,
            ..Default::default()
        })
        .build()
        .unwrap();
    let db = open_db(&mut ctx, &f, cfg);
    let mut txn = db.begin();
    for i in 0..3000 {
        db.insert(
            &mut ctx,
            &mut txn,
            "accounts",
            row(i, &format!("owner-{i}"), i),
        )
        .unwrap();
    }
    db.commit(&mut ctx, &mut txn).unwrap();

    // The pool holds 16 pages; the table is much bigger, so reads of cold
    // keys must come from the EBP or PageStore.
    let (hits0, misses0) = (db.ebp().unwrap().hits(), db.ebp().unwrap().misses());
    for i in (0..3000).step_by(97) {
        let r = db
            .get_by_pk(&mut ctx, None, "accounts", &[Value::Int(i)])
            .unwrap()
            .unwrap();
        assert_eq!(r[0], Value::Int(i));
    }
    let hits = db.ebp().unwrap().hits() - hits0;
    let misses = db.ebp().unwrap().misses() - misses0;
    assert!(
        hits > 0,
        "cold reads should be served by the EBP (hits={hits}, misses={misses})"
    );
}

#[test]
fn crash_recovery_replays_committed_and_undoes_losers() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 42);
    let cfg = DbConfig::builder()
        .bp_pages(64)
        .ebp(EbpConfig::default())
        .build()
        .unwrap();
    let db = open_db(&mut ctx, &f, cfg.clone());

    let mut committed = db.begin();
    for i in 0..200 {
        db.insert(
            &mut ctx,
            &mut committed,
            "accounts",
            row(i, &format!("c{i}"), i),
        )
        .unwrap();
    }
    db.commit(&mut ctx, &mut committed).unwrap();

    // A loser: modifies rows but never commits. A concurrent committer's
    // group-commit flush makes the loser's records durable, so recovery
    // must actively undo them (without the flush they would simply vanish
    // with the log buffer — also correct, but a weaker test).
    let mut loser = db.begin();
    db.insert(&mut ctx, &mut loser, "accounts", row(9000, "loser", 1))
        .unwrap();
    db.update_by_pk(&mut ctx, &mut loser, "accounts", &[Value::Int(3)], |r| {
        r[2] = Value::Int(-777)
    })
    .unwrap();
    let mut bystander = db.begin();
    db.insert(
        &mut ctx,
        &mut bystander,
        "accounts",
        row(8000, "bystander", 2),
    )
    .unwrap();
    db.commit(&mut ctx, &mut bystander).unwrap();

    let ring_ids = db.log_segment_ids();
    drop(loser);
    drop(db); // DBEngine crash: all volatile state gone

    let mut ctx2 = SimCtx::new(1, 43);
    let (db2, report) = recovery::recover(&mut ctx2, &f, cfg, schema, &ring_ids).unwrap();
    assert_eq!(report.losers_undone, 1, "exactly one loser txn");
    assert!(report.committed >= 1);

    // Committed data is back (including the group-commit bystander).
    let r = db2
        .get_by_pk(&mut ctx2, None, "accounts", &[Value::Int(199)])
        .unwrap()
        .unwrap();
    assert_eq!(r[2], Value::Int(199));
    assert!(db2
        .get_by_pk(&mut ctx2, None, "accounts", &[Value::Int(8000)])
        .unwrap()
        .is_some());
    // Loser's insert is gone; its update reverted.
    assert!(db2
        .get_by_pk(&mut ctx2, None, "accounts", &[Value::Int(9000)])
        .unwrap()
        .is_none());
    let r3 = db2
        .get_by_pk(&mut ctx2, None, "accounts", &[Value::Int(3)])
        .unwrap()
        .unwrap();
    assert_eq!(r3[2], Value::Int(3), "loser's update must be undone");
    // And the recovered engine keeps working.
    let mut txn = db2.begin();
    db2.insert(&mut ctx2, &mut txn, "accounts", row(5000, "post", 1))
        .unwrap();
    db2.commit(&mut ctx2, &mut txn).unwrap();
    assert!(db2
        .get_by_pk(&mut ctx2, None, "accounts", &[Value::Int(5000)])
        .unwrap()
        .is_some());
}

/// 2000 rows wide enough that `accounts` outgrows a 16-page pool.
fn load_wide_accounts(ctx: &mut SimCtx, db: &Db) {
    for batch in 0..20 {
        let mut load = db.begin();
        for i in batch * 100..(batch + 1) * 100 {
            let owner = format!("{i:0>300}");
            db.insert(ctx, &mut load, "accounts", row(i, &owner, i))
                .unwrap();
        }
        db.commit(ctx, &mut load).unwrap();
        // The fabric's ring is 256 KB segments: keep it truncated.
        db.checkpoint(ctx).unwrap();
    }
}

/// Update an unindexed column of row 3 (one page record) in a transaction
/// that stays open, then push the updated leaf out of the 16-page pool into
/// the EBP by reading the other end of the table.
fn update_then_evict_the_leaf(ctx: &mut SimCtx, db: &Db) -> vedb_core::TxnHandle {
    let mut open_txn = db.begin();
    db.update_by_pk(ctx, &mut open_txn, "accounts", &[Value::Int(3)], |r| {
        r[2] = Value::Int(-777)
    })
    .unwrap();
    for i in (1000..2000).rev() {
        db.get_by_pk(ctx, None, "accounts", &[Value::Int(i)])
            .unwrap()
            .unwrap();
    }
    open_txn
}

/// WAL rule at the boundary: the durable watermark is exclusive, so a page
/// whose newest record *starts at* it is not covered. Evict such a page,
/// power-fail every PMem device, recover: no EBP image may be ahead of the
/// recovered log, and the never-logged update must not be readable.
#[test]
fn page_evicted_at_the_watermark_is_not_persisted_ahead_of_its_log() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 42);
    let cfg = DbConfig::builder()
        .bp_pages(16)
        .bp_shards(1)
        .ebp(EbpConfig::default())
        .build()
        .unwrap();
    let db = open_db(&mut ctx, &f, cfg.clone());
    load_wide_accounts(&mut ctx, &db);
    assert_eq!(db.wal().flushed_lsn(), db.wal().next_lsn());

    // The one page record of the update starts exactly at the watermark.
    let watermark = db.wal().flushed_lsn();
    let open_txn = update_then_evict_the_leaf(&mut ctx, &db);
    let ebp = db.ebp().unwrap();
    let at_watermark = ebp
        .cached_pages(usize::MAX)
        .into_iter()
        .filter(|p| ebp.locate(*p).is_some_and(|l| l.lsn == watermark))
        .count();
    assert_eq!(at_watermark, 1, "the updated leaf was evicted to the EBP");

    let ring_ids = db.log_segment_ids();
    drop(open_txn);
    drop(db);
    for s in &f.astore_servers {
        s.crash();
        s.restart(&mut ctx).unwrap();
    }

    let mut ctx2 = SimCtx::new(1, 43);
    ctx2.wait_until(ctx.now());
    let (db2, _) = recovery::recover(&mut ctx2, &f, cfg, schema, &ring_ids).unwrap();
    let log_end = db2.wal().next_lsn();
    let ebp2 = db2.ebp().unwrap();
    for pid in ebp2.cached_pages(usize::MAX) {
        let lsn = ebp2.locate(pid).unwrap().lsn;
        assert!(
            lsn < log_end,
            "EBP image of {pid:?} at lsn {lsn} is ahead of the recovered log end {log_end}"
        );
    }
    let r3 = db2
        .get_by_pk(&mut ctx2, None, "accounts", &[Value::Int(3)])
        .unwrap()
        .unwrap();
    assert_eq!(
        r3[2],
        Value::Int(3),
        "an uncommitted update survived a crash"
    );
}

/// An eviction and a page miss force the log; under `Group` they used to
/// lead a group flush and pay its dwell. With a 100 ms dwell step, a
/// thousand point reads and two forced flushes cost far less than one step.
#[test]
fn group_policy_eviction_and_page_miss_do_not_dwell() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 42);
    let cfg = DbConfig::builder()
        .bp_pages(16)
        .bp_shards(1)
        .ebp(EbpConfig::default())
        .flush_policy(vedb_core::FlushPolicy::Group {
            max_batch_bytes: 1 << 20,
            max_wait: VTime::from_millis(400),
        })
        .build()
        .unwrap();
    let db = open_db(&mut ctx, &f, cfg);
    load_wide_accounts(&mut ctx, &db);
    let flushes = f.env.metrics.counter("core", "wal_flushes");
    let (t0, flushes0) = (ctx.now(), flushes.get());

    // The eviction forces the leaf's record ...
    let mut open_txn = update_then_evict_the_leaf(&mut ctx, &db);
    assert_eq!(flushes.get(), flushes0 + 1, "the eviction forced the log");
    // ... and a second update dirties the leaf again, so reading it back
    // after another eviction is a miss that must force and ship first.
    db.update_by_pk(&mut ctx, &mut open_txn, "accounts", &[Value::Int(3)], |r| {
        r[2] = Value::Int(-778)
    })
    .unwrap();
    db.buffer_pool().clear();
    let r3 = db
        .get_by_pk(&mut ctx, None, "accounts", &[Value::Int(3)])
        .unwrap()
        .unwrap();
    assert_eq!(r3[2], Value::Int(-778));
    assert_eq!(flushes.get(), flushes0 + 2, "the page miss forced the log");

    assert!(
        ctx.now() - t0 < VTime::from_millis(100),
        "two forced flushes took {}: somebody dwelt",
        ctx.now() - t0
    );
    db.abort(&mut ctx, &mut open_txn).unwrap();
}

#[test]
fn astore_commit_latency_beats_blobstore() {
    let f = fabric();
    let mut ctx_a = SimCtx::new(1, 42);
    let db_a = open_db(
        &mut ctx_a,
        &f,
        DbConfig::builder()
            .log(LogBackendKind::AStore)
            .build()
            .unwrap(),
    );
    let mut ctx_b = SimCtx::new(2, 42);
    let db_b = open_db(
        &mut ctx_b,
        &f,
        DbConfig::builder()
            .log(LogBackendKind::BlobStore)
            .build()
            .unwrap(),
    );

    let measure = |db: &Arc<Db>, ctx: &mut SimCtx, base: i64| {
        let t0 = ctx.now();
        for i in 0..50 {
            let mut txn = db.begin();
            db.insert(ctx, &mut txn, "accounts", row(base + i, "x", i))
                .unwrap();
            db.commit(ctx, &mut txn).unwrap();
        }
        (ctx.now() - t0) / 50
    };
    let astore_lat = measure(&db_a, &mut ctx_a, 0);
    let blob_lat = measure(&db_b, &mut ctx_b, 0);
    assert!(
        astore_lat.as_nanos() * 3 < blob_lat.as_nanos(),
        "AStore txn latency ({astore_lat}) should be several times lower than \
         the SSD LogStore ({blob_lat})"
    );
}

#[test]
fn checkpoint_truncates_and_ring_survives_wraparound() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 42);
    let cfg = DbConfig::builder().ring_segments(4).build().unwrap();
    let db = open_db(&mut ctx, &f, cfg);
    // Write far more log than the ring holds, checkpointing as we go.
    for batch in 0..20 {
        let mut txn = db.begin();
        for i in 0..50 {
            db.insert(
                &mut ctx,
                &mut txn,
                "accounts",
                row(batch * 50 + i, &format!("o{batch}"), i),
            )
            .unwrap();
        }
        db.commit(&mut ctx, &mut txn).unwrap();
        db.checkpoint(&mut ctx).unwrap();
    }
    // All data readable afterwards.
    for id in [0i64, 499, 999] {
        assert!(db
            .get_by_pk(&mut ctx, None, "accounts", &[Value::Int(id)])
            .unwrap()
            .is_some());
    }
}

/// Eight clients under one baton, each committing 40 single-row
/// transactions (rows `t * 1000 + i`), yielding between them.
fn commit_320_rows_from_8_clients(db: &Db, base: VTime) {
    run_clients(8, 42, base, |ctx, t| {
        let t = t as i64;
        for i in 0..40 {
            ctx.yield_now();
            let mut txn = db.begin();
            db.insert(
                ctx,
                &mut txn,
                "accounts",
                row(t * 1000 + i, &format!("t{t}"), i),
            )
            .unwrap();
            db.commit(ctx, &mut txn).unwrap();
        }
    });
}

#[test]
fn concurrent_commits_produce_a_parseable_log() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 42);
    let db = open_db(&mut ctx, &f, DbConfig::builder().build().unwrap());
    let base = ctx.now();

    commit_320_rows_from_8_clients(&db, base);

    // The durable log must parse as a dense, gap-free frame sequence up to
    // the flushed LSN (concurrent group commits must not interleave bytes).
    let mut ctx2 = SimCtx::new(2, 43);
    ctx2.wait_until(VTime::from_secs(100));
    let records = db.wal().records_from(&mut ctx2, 0).unwrap();
    let commits = records
        .iter()
        .filter(|(_, r)| matches!(r, vedb_core::wal::WalRecord::Commit { .. }))
        .count();
    assert!(
        commits >= 320,
        "all 320 commits must be durable, found {commits}"
    );
    // Every row readable.
    for t in 0..8i64 {
        for i in (0..40).step_by(13) {
            assert!(
                db.get_by_pk(&mut ctx2, None, "accounts", &[Value::Int(t * 1000 + i)])
                    .unwrap()
                    .is_some(),
                "row {t}/{i} missing"
            );
        }
    }
}

#[test]
fn group_commit_policy_consolidates_flushes_without_losing_commits() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 42);
    let cfg = DbConfig::builder()
        .flush_policy(vedb_core::FlushPolicy::Group {
            max_batch_bytes: 64 * 1024,
            max_wait: VTime::from_micros(200),
        })
        .build()
        .unwrap();
    let db = open_db(&mut ctx, &f, cfg);
    let base = ctx.now();

    commit_320_rows_from_8_clients(&db, base);

    // Ack-after-persist: every commit that returned is durable in the log.
    let mut ctx2 = SimCtx::new(2, 43);
    ctx2.wait_until(VTime::from_secs(100));
    let records = db.wal().records_from(&mut ctx2, 0).unwrap();
    let commits = records
        .iter()
        .filter(|(_, r)| matches!(r, vedb_core::wal::WalRecord::Commit { .. }))
        .count();
    assert!(
        commits >= 320,
        "all 320 commits must be durable, found {commits}"
    );
    for t in 0..8i64 {
        for i in (0..40).step_by(7) {
            assert!(
                db.get_by_pk(&mut ctx2, None, "accounts", &[Value::Int(t * 1000 + i)])
                    .unwrap()
                    .is_some(),
                "row {t}/{i} missing"
            );
        }
    }

    // The consolidator actually consolidated: strictly fewer physical
    // flushes than transaction commits, with the difference visible as
    // carried commits.
    let flushes = f.env.metrics.counter("core", "wal_flushes").get();
    let txn_commits = f.env.metrics.counter("core", "txn_commits").get();
    let carried = f.env.metrics.counter("core", "wal_carried_commits").get();
    assert!(
        flushes < txn_commits,
        "group policy must merge flushes: {flushes} flushes for {txn_commits} commits"
    );
    assert!(
        carried > 0,
        "concurrent committers must ride another leader's batch"
    );
}

#[test]
fn flush_policy_validation_rejects_zero_knobs() {
    assert!(matches!(
        DbConfig::builder()
            .flush_policy(vedb_core::FlushPolicy::Group {
                max_batch_bytes: 0,
                max_wait: VTime::from_micros(200),
            })
            .build(),
        Err(EngineError::Config(_))
    ));
    assert!(matches!(
        DbConfig::builder()
            .flush_policy(vedb_core::FlushPolicy::Group {
                max_batch_bytes: 64 * 1024,
                max_wait: VTime::ZERO,
            })
            .build(),
        Err(EngineError::Config(_))
    ));
    assert!(DbConfig::builder()
        .flush_policy(vedb_core::FlushPolicy::PerCommit)
        .build()
        .is_ok());
}
