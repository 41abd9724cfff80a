//! Crash-recovery chaos tests for the PageStore apply pipeline (ROADMAP
//! item 5): kill replicas mid-apply and mid-checkpoint, restart them from
//! their durable redo + checkpoints, and point-in-time-restore the store —
//! no acknowledged commit may be lost, and page images must come back
//! byte-identical.
//!
//! The durability contract under test: a replica's retained redo, parked
//! records and checkpoints survive a crash; its page images, apply queue
//! and apply watermark do not. `PageStoreServer::restart` must rebuild the
//! volatile half from the durable half, and the engine's read path must
//! heal replicas whose durable log itself has holes (via gossip from the
//! surviving quorum).

use std::sync::Arc;

use vedb_core::catalog::ColumnType;
use vedb_core::db::{Db, DbConfig, StorageFabric, META_PAGE};
use vedb_core::recovery;
use vedb_core::Value;
use vedb_sim::{ClusterSpec, SimCtx};

fn fabric() -> StorageFabric {
    StorageFabric::build(ClusterSpec::paper_default(), 32 << 20, 256 * 1024)
}

fn schema(cat: &mut vedb_core::Catalog) {
    cat.define("accounts")
        .col("id", ColumnType::Int)
        .col("owner", ColumnType::Str)
        .col("balance", ColumnType::Int)
        .pk(&["id"])
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

fn commit_rows(ctx: &mut SimCtx, db: &Db, ids: std::ops::Range<i64>, owner: &str) {
    let mut txn = db.begin();
    for i in ids {
        db.insert(ctx, &mut txn, "accounts", row(i, owner, i))
            .unwrap();
    }
    db.commit(ctx, &mut txn).unwrap();
}

fn assert_rows(ctx: &mut SimCtx, db: &Db, ids: std::ops::Range<i64>, owner: &str) {
    db.buffer_pool().clear();
    for i in ids {
        let got = db
            .get_by_pk(ctx, None, "accounts", &[Value::Int(i)])
            .unwrap()
            .unwrap_or_else(|| panic!("acked row {i} lost"));
        assert_eq!(got[1], Value::Str(owner.into()), "row {i}");
        assert_eq!(got[2], Value::Int(i), "row {i}");
    }
}

/// Kill every PageStore replica mid-apply (records acked and queued, pages
/// possibly half-materialized), restart them from the durable log, and
/// verify no acknowledged commit is lost and a page image is
/// byte-identical across the restart.
#[test]
fn restart_mid_apply_loses_no_acked_commit() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 7);
    let db = open_db(&mut ctx, &f, DbConfig::builder().build().unwrap());

    commit_rows(&mut ctx, &db, 0..120, "pre-crash");
    let shipped = db.shipped_lsn();
    assert!(shipped > 0);
    let meta_before = db
        .pagestore()
        .read_page(&mut ctx, META_PAGE, 0)
        .expect("meta page present before crash");

    // Crash-restart every replica: volatile page images and apply queues
    // vanish; the retained redo replays through `apply_batch`, its four
    // page partitions booked on the node's CPU.
    for server in f.pagestore.servers() {
        let replayed = server.restart(&mut ctx).unwrap();
        assert!(replayed > 0, "restart must replay the retained log");
    }

    assert_rows(&mut ctx, &db, 0..120, "pre-crash");
    let meta_after = db
        .pagestore()
        .read_page(&mut ctx, META_PAGE, 0)
        .expect("meta page present after restart");
    assert_eq!(
        meta_before, meta_after,
        "page images must be byte-identical across a restart"
    );

    // The restarted store keeps accepting writes.
    commit_rows(&mut ctx, &db, 120..140, "post-crash");
    assert_rows(&mut ctx, &db, 120..140, "post-crash");
}

/// Kill a replica between two background checkpoints: restart must rebuild
/// from the *last completed* checkpoint plus the redo tail, and reads must
/// heal the replica whose durable log has a hole (it was down while the
/// quorum accepted records).
#[test]
fn restart_mid_checkpoint_recovers_from_snapshot_plus_tail() {
    const BATCHES: i64 = 24;
    const ROWS: i64 = BATCHES * 50;
    let f = fabric();
    let mut ctx = SimCtx::new(1, 11);
    let db = open_db(&mut ctx, &f, DbConfig::builder().build().unwrap());

    // Enough commit batches to ship past `CHECKPOINT_EVERY_RECORDS`, so the
    // checkpointer fires while the workload runs.
    for b in 0..BATCHES {
        commit_rows(&mut ctx, &db, b * 50..(b + 1) * 50, "batch");
    }
    let checkpoints = f.env.metrics.counter("pagestore", "checkpoints").get();
    assert!(
        checkpoints > 0,
        "workload must have driven background checkpoints"
    );

    // Crash one replica node mid-workload: the quorum keeps acking.
    let victim = Arc::clone(&f.pagestore.servers()[0]);
    f.env.faults.crash(victim.node());
    commit_rows(&mut ctx, &db, ROWS..ROWS + 60, "degraded");
    f.env.faults.restore(victim.node());

    // The victim restarts from checkpoint + retained tail; the records it
    // missed while down are healed by gossip on the read path.
    victim.restart(&mut ctx).unwrap();
    for server in f.pagestore.servers() {
        if server.node() != victim.node() {
            server.restart(&mut ctx).unwrap();
        }
    }

    assert_rows(&mut ctx, &db, 0..ROWS, "batch");
    assert_rows(&mut ctx, &db, ROWS..ROWS + 60, "degraded");
    assert!(
        f.env.metrics.counter("pagestore", "restores").get() >= 3,
        "every replica restarted"
    );
}

/// Point-in-time restore of a quiesced store: `restore_to_lsn` at the
/// shipped LSN must reproduce exactly the current state, and the re-anchored
/// ship chain must accept new writes afterwards.
#[test]
fn restore_to_quiesced_lsn_preserves_state_and_chain() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 13);
    let db = open_db(&mut ctx, &f, DbConfig::builder().build().unwrap());

    commit_rows(&mut ctx, &db, 0..200, "quiesced");
    db.checkpoint(&mut ctx).unwrap(); // ship + flush everything
    let target = db.shipped_lsn();
    let meta_before = db.pagestore().read_page(&mut ctx, META_PAGE, 0).unwrap();

    let replayed = recovery::restore_pagestore_to_lsn(&mut ctx, &f, target).unwrap();
    assert!(replayed > 0, "restore must replay from the base images");

    assert_rows(&mut ctx, &db, 0..200, "quiesced");
    let meta_after = db.pagestore().read_page(&mut ctx, META_PAGE, 0).unwrap();
    assert_eq!(
        meta_before, meta_after,
        "restore to the quiesced LSN must be an identity on page images"
    );

    commit_rows(&mut ctx, &db, 200..230, "after-restore");
    assert_rows(&mut ctx, &db, 200..230, "after-restore");
}

/// Full disaster path: engine crash + storage restored to a mid-workload
/// LSN, then ARIES recovery rolls the WAL forward over the restored store.
/// Every acknowledged commit — including those beyond the restore point —
/// must come back.
#[test]
fn restore_then_wal_roll_forward_recovers_all_commits() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 17);
    let cfg = DbConfig::builder().build().unwrap();
    let db = open_db(&mut ctx, &f, cfg.clone());

    commit_rows(&mut ctx, &db, 0..100, "phase-1");
    db.flush_ship(&mut ctx, true);
    let mid = db.shipped_lsn();
    commit_rows(&mut ctx, &db, 100..180, "phase-2");
    db.flush_ship(&mut ctx, true);

    let ring_ids = db.log_segment_ids();
    drop(db); // engine crash

    // Storage rolls back to the phase-1 boundary (e.g. restoring a node
    // fleet from a consistent backup point)...
    let mut ctx2 = SimCtx::new(1, 18);
    recovery::restore_pagestore_to_lsn(&mut ctx2, &f, mid).unwrap();
    // ...and WAL-driven recovery re-ships history on top of it.
    let (db2, report) = recovery::recover(&mut ctx2, &f, cfg, schema, &ring_ids).unwrap();
    assert!(report.committed >= 2, "both phases' commits found in WAL");

    assert_rows(&mut ctx2, &db2, 0..100, "phase-1");
    assert_rows(&mut ctx2, &db2, 100..180, "phase-2");
}
