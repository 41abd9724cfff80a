//! Regression tests for the stale-page flake (ROADMAP item 6).
//!
//! The failure chain: concurrent committers could hand REDO batches to the
//! PageStore facade in inverted LSN order (the drain and the `ship()` call
//! were not one atomic step), and a quorum-failed ship silently *dropped*
//! the drained batch. Replicas then either discarded records as back-link
//! duplicates or could never replay past the hole — cold page reads came
//! back stale (`slot N out of range`) or permanently `NotYetApplied`.
//!
//! The fix has three parts, each pinned here:
//! * stale-replica errors (`SlotOutOfRange`, `NotYetApplied`) classify as
//!   retryable,
//! * the engine read path ships everything it logged for the page before
//!   it reads, and the replica that answers replays (gossiping from its
//!   peers) up to the LSN the engine asks for,
//! * a quorum-failed ship re-queues its records, so a later flush (e.g.
//!   the read-path barrier after the partition heals) can deliver them.

use std::sync::Arc;

use vedb_core::catalog::ColumnType;
use vedb_core::db::{Db, DbConfig, LogBackendKind, StorageFabric};
use vedb_core::{EngineError, Value};
use vedb_pagestore::PageStoreError;
use vedb_sim::fault::NodeId;
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

/// PageStore server node ids (`StorageFabric::build` assigns `200 + i`
/// over the storage nodes).
fn pagestore_nodes(f: &StorageFabric) -> Vec<NodeId> {
    (0..f.env.storage_nodes.len())
        .map(|i| 200 + i as NodeId)
        .collect()
}

#[test]
fn stale_replica_errors_classify_as_retryable() {
    let stale = PageStoreError::SlotOutOfRange { idx: 9, n_slots: 4 };
    assert!(
        stale.is_retryable(),
        "stale directory read must be retryable"
    );
    assert!(EngineError::PageStore(stale).is_retryable());

    let lagging = PageStoreError::NotYetApplied {
        need: 100,
        applied: 40,
    };
    assert!(
        lagging.is_retryable(),
        "lagging watermark must be retryable"
    );
    assert!(EngineError::PageStore(lagging).is_retryable());

    // Structural / logical errors must NOT be retried: re-driving them
    // can't succeed and would just burn the retry budget.
    assert!(!PageStoreError::Codec("bad".into()).is_retryable());
    assert!(!PageStoreError::BadPageImage {
        expected: 8192,
        got: 17
    }
    .is_retryable());
}

/// End-to-end: commit under a full PageStore partition (the ship fails
/// quorum and must re-queue), then heal and read cold — the read-path
/// barrier re-ships the queued records and the rows come back. Without the
/// re-queue, the records are gone and the cold read can never be satisfied.
#[test]
fn reads_recover_after_pagestore_partition_heals() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 7);
    let db = open_db(
        &mut ctx,
        &f,
        DbConfig::builder()
            .log(LogBackendKind::BlobStore)
            .build()
            .unwrap(),
    );

    // Baseline data, fully shipped and applied.
    let mut t1 = db.begin();
    for i in 0..8 {
        db.insert(&mut ctx, &mut t1, "accounts", row(i, "before", 10 * i))
            .unwrap();
    }
    db.commit(&mut ctx, &mut t1).unwrap();
    db.checkpoint(&mut ctx).unwrap();

    // Partition every PageStore replica. The WAL lives on the blob servers
    // (different node ids), so commits still reach durability — only REDO
    // shipping is cut off.
    for n in pagestore_nodes(&f) {
        f.env.faults.partition(n);
    }

    let mut t2 = db.begin();
    for i in 8..16 {
        db.insert(&mut ctx, &mut t2, "accounts", row(i, "during", 10 * i))
            .unwrap();
    }
    db.commit(&mut ctx, &mut t2)
        .expect("commit needs the log, not PageStore");

    // A cold read while partitioned must surface a *retryable* error, not
    // a panic and not a permanent one.
    db.buffer_pool().clear();
    let err = db
        .get_by_pk(&mut ctx, None, "accounts", &[Value::Int(3)])
        .expect_err("no replica is reachable");
    assert!(
        err.is_retryable(),
        "partition errors must classify retryable, got: {err}"
    );

    // Heal and read cold again: the read path re-flushes the (re-queued)
    // ship buffer and replays the replicas up to the required LSN.
    for n in pagestore_nodes(&f) {
        f.env.faults.heal(n);
    }
    db.buffer_pool().clear();
    for i in 0..16 {
        let got = db
            .get_by_pk(&mut ctx, None, "accounts", &[Value::Int(i)])
            .unwrap()
            .unwrap_or_else(|| panic!("row {i} lost after partition healed"));
        let want = if i < 8 { "before" } else { "during" };
        assert_eq!(got[1], Value::Str(want.into()), "row {i}");
    }
}

/// The same recovery must hold when reads race the healing window: a
/// lagging apply watermark (replicas healed but replay behind the
/// engine's `min_lsn`) is replayed by the replica that answers the read.
#[test]
fn cold_reads_replay_through_lagging_watermark() {
    let f = fabric();
    let mut ctx = SimCtx::new(1, 11);
    let db = open_db(
        &mut ctx,
        &f,
        DbConfig::builder()
            .log(LogBackendKind::BlobStore)
            .build()
            .unwrap(),
    );

    // Interleave partitioned commits and heals several times so the ship
    // buffer accumulates and drains repeatedly; every row must survive.
    let mut next_id = 0i64;
    for round in 0..3 {
        for n in pagestore_nodes(&f) {
            f.env.faults.partition(n);
        }
        let mut txn = db.begin();
        for _ in 0..5 {
            db.insert(
                &mut ctx,
                &mut txn,
                "accounts",
                row(next_id, &format!("round-{round}"), next_id),
            )
            .unwrap();
            next_id += 1;
        }
        db.commit(&mut ctx, &mut txn).unwrap();
        for n in pagestore_nodes(&f) {
            f.env.faults.heal(n);
        }
        // Cold read immediately after healing: replay happens on demand.
        db.buffer_pool().clear();
        let got = db
            .get_by_pk(&mut ctx, None, "accounts", &[Value::Int(next_id - 1)])
            .unwrap()
            .expect("latest row readable right after heal");
        assert_eq!(got[1], Value::Str(format!("round-{round}")));
    }
}
