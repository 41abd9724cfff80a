//! Crash recovery of the DBEngine (§V-E + standard ARIES structure).
//!
//! When the DBEngine process dies, everything volatile is gone: buffer
//! pool, EBP index, lock table, ship buffer, transaction table. What
//! survives is AStore's PMem (the SegmentRing log + EBP page images) and
//! PageStore. Recovery:
//!
//! 1. **Ring recovery** — adopt the log segments, binary-search headers for
//!    the newest segment, recover the end-of-log from the io-meta (§V-A).
//! 2. **Analysis** — scan the retained log; transactions with a Commit or
//!    Abort record are winners (history will be repeated for them);
//!    transactions with page records but no terminal record are losers.
//! 3. **Redo** — re-ship every page record to PageStore (idempotent:
//!    replicas drop records at or below their high-water LSN), so the page
//!    service reflects all logged work, then reload the meta page (roots +
//!    allocation marks).
//! 4. **Undo** — apply the losers' logical undo chains in reverse LSN
//!    order and log their Abort records.
//! 5. **EBP rebuild** — ask every AStore server to scan its PMem and
//!    return valid cached pages (stale ones pruned by the page→LSN batches
//!    the old engine shipped), and rebuild the EBP index from the result.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use vedb_astore::{Lsn, PageId, SegmentId, SegmentRing};
use vedb_sim::{FxHashMap, SimCtx};

use crate::catalog::Catalog;
use crate::db::{connect_astore, Db, DbConfig, LogBackendKind, StorageFabric, META_PAGE};
use crate::ebp::Ebp;
use crate::wal::{RingLog, UndoInfo, Wal, WalRecord};
use crate::{EngineError, Result};

/// What recovery did (assertable in tests).
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Log records scanned.
    pub records_scanned: usize,
    /// Committed transactions found.
    pub committed: usize,
    /// Loser transactions rolled back.
    pub losers_undone: usize,
    /// EBP pages restored to the index.
    pub ebp_pages_recovered: usize,
}

/// Recover a crashed AStore-backed engine. `ring_segment_ids` come from
/// the previous incarnation's bootstrap catalog
/// ([`Db::log_segment_ids`]); `schema` re-registers the same schema.
pub fn recover(
    ctx: &mut SimCtx,
    fabric: &StorageFabric,
    cfg: DbConfig,
    schema: impl FnOnce(&mut Catalog),
    ring_segment_ids: &[SegmentId],
) -> Result<(Arc<Db>, RecoveryReport)> {
    assert_eq!(
        cfg.log,
        LogBackendKind::AStore,
        "crash recovery is AStore's capability (§V-E); the baseline \
         LogStore's blob metadata lives outside this reproduction"
    );
    let mut report = RecoveryReport::default();

    // 1. New incarnation: fresh lease (fences the dead engine), ring
    //    recovery from segment headers + io-meta.
    let client = connect_astore(ctx, fabric);
    let ring = SegmentRing::recover(ctx, Arc::clone(&client), ring_segment_ids)?;
    let log_segments = ring.segment_ids();
    let wal = Wal::with_metrics(Box::new(RingLog::new(ring)), cfg.flush, &fabric.env.metrics);

    // 2. Analysis.
    let records = wal.records_from(ctx, 0)?;
    report.records_scanned = records.len();
    let mut terminal: HashSet<u64> = HashSet::new();
    let mut touched: HashSet<u64> = HashSet::new();
    let mut page_lsns: FxHashMap<PageId, Lsn> = FxHashMap::default();
    let mut undo_chains: HashMap<u64, Vec<(Lsn, UndoInfo)>> = HashMap::new();
    let mut redo_records = Vec::new();
    for (lsn, rec) in &records {
        match rec {
            WalRecord::Page { redo, undo } => {
                touched.insert(redo.txn_id);
                page_lsns
                    .entry(redo.page)
                    .and_modify(|l| *l = (*l).max(redo.lsn))
                    .or_insert(redo.lsn);
                if let Some(u) = undo {
                    undo_chains
                        .entry(redo.txn_id)
                        .or_default()
                        .push((*lsn, u.clone()));
                }
                redo_records.push(redo.clone());
            }
            WalRecord::Commit { txn_id } => {
                terminal.insert(*txn_id);
                report.committed += 1;
            }
            WalRecord::Abort { txn_id } => {
                terminal.insert(*txn_id);
            }
        }
    }
    let losers: Vec<u64> = {
        // Txn id 0 is the system transaction (bootstrap, page allocation,
        // tree creation): redo-only structural work with no commit record
        // and nothing to undo.
        let mut l: Vec<u64> = touched
            .difference(&terminal)
            .copied()
            .filter(|t| *t != 0)
            .collect();
        l.sort_unstable();
        l
    };

    // 3. Redo: repeat history at PageStore (duplicates are dropped by the
    //    replicas' LSN high-water check).
    let ebp_cfg = cfg.ebp.clone();
    let ebp = match ebp_cfg {
        Some(ecfg) => {
            let e = Ebp::recover(ctx, Arc::clone(&client), ecfg)?;
            report.ebp_pages_recovered = e.len();
            Some(e)
        }
        None => None,
    };
    let db = Db::assemble(fabric, cfg, wal, Some(client), ebp, log_segments);
    db.define_schema(schema);
    {
        // Ship through the engine's buffer so ordering/back-links hold.
        for redo in redo_records {
            db.enqueue_redo_for_recovery(redo);
        }
        db.flush_ship(ctx, true);
    }
    db.install_page_lsns(page_lsns.clone());

    // Reload the meta page (roots + allocation marks) from PageStore.
    let meta_lsn = page_lsns.get(&META_PAGE).copied().unwrap_or(0);
    let bytes = db
        .pagestore()
        .read_page(ctx, META_PAGE, meta_lsn)
        .map_err(|_| EngineError::PageUnavailable(META_PAGE))?;
    let page = vedb_pagestore::Page::from_bytes(&bytes)?;
    let blob = page.get(0)?;
    db.install_meta(blob)?;

    // 4. Undo the losers (reverse LSN order), then mark them aborted.
    for loser in &losers {
        if let Some(mut chain) = undo_chains.remove(loser) {
            chain.sort_by_key(|(lsn, _)| *lsn);
            for (_, u) in chain.iter().rev() {
                db.apply_undo(ctx, *loser, u)?;
            }
        }
        db.wal().log(ctx, &WalRecord::Abort { txn_id: *loser })?;
        report.losers_undone += 1;
    }
    db.flush_ship(ctx, true);
    Ok((db, report))
}

/// Point-in-time restore of the storage layer: rebuild every PageStore
/// replica from checkpoint + log replay to exactly `target`, durably
/// discarding redo beyond it. Returns the total records replayed across
/// replicas.
///
/// This is the storage half of a PITR: run it *before* [`recover`], which
/// then re-ships the engine WAL's surviving records on top (replicas drop
/// the duplicates via their LSN high-water check). Restoring below the
/// checkpointer's truncation horizon fails with
/// [`NotYetApplied`](vedb_pagestore::PageStoreError::NotYetApplied) and
/// leaves the stores untouched.
pub fn restore_pagestore_to_lsn(
    ctx: &mut SimCtx,
    fabric: &StorageFabric,
    target: Lsn,
) -> Result<usize> {
    fabric
        .pagestore
        .restore_to_lsn(ctx, target)
        .map_err(EngineError::from)
}
