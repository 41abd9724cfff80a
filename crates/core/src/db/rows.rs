//! Rows and transactions: [`Db::transact`], the one transaction shape,
//! and the row operations inside it. A row operation takes its S2PL row
//! lock and runs a list of index-write steps; a rollback runs each step's
//! undo back through the same dispatch to the B+Tree (DESIGN.md §3 "The
//! transaction shape").

use super::*;

/// One logical index write: insert, update or delete of a key in one
/// space's B+Tree, borrowing its key and cell. A row operation's forward
/// writes and the compensations of its undo records all take this shape.
enum IndexWrite<'a> {
    Insert { key: &'a [u8], cell: &'a [u8] },
    Update { key: &'a [u8], cell: &'a [u8] },
    Delete { key: &'a [u8] },
}

impl Db {
    /// Begin a transaction.
    pub fn begin(&self) -> TxnHandle {
        TxnHandle::new(self.next_txn.fetch_add(1, Ordering::Relaxed))
    }

    /// The next id from `table`'s own counter: 1, 2, 3, … in each `Db`,
    /// like InnoDB's AUTO_INCREMENT. An id is used up whether or not the
    /// transaction that took it commits. The counter lives in memory only:
    /// a `Db` that `recovery::recover` returns starts every table at 1
    /// again, so a caller that inserts after a recovery brings its own ids.
    pub fn next_id(&self, table: &str) -> Result<i64> {
        let space = self.catalog.read().table(table)?.space_no;
        let mut ids = self.next_ids.lock();
        let next = ids.entry(space).or_insert(1);
        let id = *next;
        *next += 1;
        Ok(id)
    }

    /// Run `body` in a fresh transaction, the one shape of a workload
    /// transaction. The body's `Ok(true)` commits and `Ok(false)` rolls
    /// back; the answer says which. A body error rolls back and is returned
    /// as it is. A commit error is returned with no rollback.
    pub fn transact(
        &self,
        ctx: &mut SimCtx,
        body: impl FnOnce(&mut SimCtx, &mut TxnHandle) -> Result<bool>,
    ) -> Result<bool> {
        let mut txn = self.begin();
        match body(ctx, &mut txn) {
            Ok(true) => self.commit(ctx, &mut txn).map(|()| true),
            Ok(false) => self.abort(ctx, &mut txn).map(|()| false),
            Err(e) => {
                // The body's error is the answer; a failed rollback adds
                // nothing a caller could act on.
                let _ = self.abort(ctx, &mut txn);
                Err(e)
            }
        }
    }

    fn pk_key(table: &TableDef, row: &Row) -> Vec<u8> {
        encode_key(table.pk_cols.iter().map(|i| &row[*i]))
    }

    fn sec_key(table: &TableDef, ix: &crate::catalog::IndexDef, row: &Row) -> Vec<u8> {
        encode_key(ix.key_cols.iter().chain(&table.pk_cols).map(|i| &row[*i]))
    }

    /// Insert a row.
    pub fn insert(
        &self,
        ctx: &mut SimCtx,
        txn: &mut TxnHandle,
        table: &str,
        row: Row,
    ) -> Result<()> {
        if !txn.is_active() {
            return Err(EngineError::TxnFinished);
        }
        // Error paths drop the guard → the span records as abandoned.
        let sp = self.stats.trace.span(ctx, "core", "insert");
        let t = Arc::clone(self.catalog.read().table(table)?);
        let lk = (t.space_no, Self::pk_key(&t, &row));
        self.lock_row(ctx, txn, &lk, LockMode::Exclusive)?;
        let mut cell = Vec::with_capacity(64);
        encode_row(&row, &mut cell);
        self.write_row(ctx, txn, &t, &lk.1, None, Some((&cell, &row)))?;
        sp.finish(ctx);
        Ok(())
    }

    /// Point read by primary key. With a transaction, takes a shared row
    /// lock; without, reads at read-committed (page latch only).
    pub fn get_by_pk(
        &self,
        ctx: &mut SimCtx,
        txn: Option<&mut TxnHandle>,
        table: &str,
        key_vals: &[Value],
    ) -> Result<Option<Row>> {
        if txn.as_ref().is_some_and(|txn| !txn.is_active()) {
            return Err(EngineError::TxnFinished);
        }
        let sp = self.stats.trace.span(ctx, "core", "get");
        let t = Arc::clone(self.catalog.read().table(table)?);
        let lk = (t.space_no, encode_key(key_vals));
        if let Some(txn) = txn {
            self.lock_row(ctx, txn, &lk, LockMode::Shared)?;
        }
        let cell = BTree::new(t.space_no).get(ctx, self, &lk.1)?;
        let row = cell.map(|cell| decode_row(&cell)).transpose()?;
        sp.finish(ctx);
        Ok(row)
    }

    /// Update a row by primary key through a mutator closure.
    pub fn update_by_pk(
        &self,
        ctx: &mut SimCtx,
        txn: &mut TxnHandle,
        table: &str,
        key_vals: &[Value],
        mutate: impl FnOnce(&mut Row),
    ) -> Result<()> {
        self.change_by_pk(ctx, txn, "update", table, key_vals, |old| {
            let mut new = old.clone();
            mutate(&mut new);
            Some(new)
        })
    }

    /// Delete a row by primary key.
    pub fn delete_by_pk(
        &self,
        ctx: &mut SimCtx,
        txn: &mut TxnHandle,
        table: &str,
        key_vals: &[Value],
    ) -> Result<()> {
        self.change_by_pk(ctx, txn, "delete", table, key_vals, |_| None)
    }

    /// Replace the row `key_vals` names by what `change` makes of it
    /// (`None` deletes it), under the span `op`. A missing row is
    /// [`EngineError::NotFound`].
    fn change_by_pk(
        &self,
        ctx: &mut SimCtx,
        txn: &mut TxnHandle,
        op: &'static str,
        table: &str,
        key_vals: &[Value],
        change: impl FnOnce(&Row) -> Option<Row>,
    ) -> Result<()> {
        if !txn.is_active() {
            return Err(EngineError::TxnFinished);
        }
        let sp = self.stats.trace.span(ctx, "core", op);
        let t = Arc::clone(self.catalog.read().table(table)?);
        let lk = (t.space_no, encode_key(key_vals));
        self.lock_row(ctx, txn, &lk, LockMode::Exclusive)?;
        let old_cell = BTree::new(t.space_no).get(ctx, self, &lk.1)?;
        let old_cell = old_cell.ok_or(EngineError::NotFound)?;
        let old_row = decode_row(&old_cell)?;
        let new_row = change(&old_row);
        let new_cell = new_row.as_ref().map(|row| {
            let mut cell = Vec::with_capacity(old_cell.len());
            encode_row(row, &mut cell);
            cell
        });
        let new = new_cell.as_deref().zip(new_row.as_ref());
        self.write_row(ctx, txn, &t, &lk.1, Some((old_cell, &old_row)), new)?;
        sp.finish(ctx);
        Ok(())
    }

    /// The index-write steps of one row change under primary `key`, from
    /// `old` to `new` (cell and values; an insert has no old row, a delete
    /// no new one), run in order. A step writes the key its undo names,
    /// logs the undo beside the redo, and then pushes it onto `txn`.
    fn write_row(
        &self,
        ctx: &mut SimCtx,
        txn: &mut TxnHandle,
        t: &TableDef,
        key: &[u8],
        old: Option<(Vec<u8>, &Row)>,
        new: Option<(&[u8], &Row)>,
    ) -> Result<()> {
        let ((old_cell, old_row), (cell, new_row)) = (old.unzip(), new.unzip());
        let key_vec = || key.to_vec();
        let clustered = match (old_cell, cell) {
            (None, _) => UndoOp::Remove { key: key_vec() },
            (Some(old_cell), Some(_)) => UndoOp::Revert {
                key: key_vec(),
                old_cell,
            },
            (Some(old_cell), None) => UndoOp::ReInsert {
                key: key_vec(),
                old_cell,
            },
        };
        // A secondary entry's cell is the primary key (a delete ignores it).
        let secondary = t.secondary.iter().flat_map(|ix| {
            let old_k = old_row.map(|r| Self::sec_key(t, ix, r));
            let new_k = new_row.map(|r| Self::sec_key(t, ix, r));
            let moved = old_k != new_k;
            let delete = old_k.filter(|_| moved).map(|k| UndoOp::ReInsert {
                key: k,
                old_cell: key_vec(),
            });
            let insert = new_k.filter(|_| moved).map(|k| UndoOp::Remove { key: k });
            delete
                .into_iter()
                .chain(insert)
                .map(|op| (ix.space_no, op, key))
        });
        let steps = std::iter::once((t.space_no, clustered, cell.unwrap_or_default()));
        for (space, op, cell) in steps.chain(secondary) {
            let undo = UndoInfo {
                index_space: space,
                op,
            };
            let write = match &undo.op {
                UndoOp::Remove { key } => IndexWrite::Insert { key, cell },
                UndoOp::Revert { key, .. } => IndexWrite::Update { key, cell },
                UndoOp::ReInsert { key, .. } => IndexWrite::Delete { key },
            };
            self.index_write(ctx, txn.id, space, write, Some(&undo))
                .map_err(|e| match e {
                    EngineError::DuplicateKey { .. } => EngineError::DuplicateKey {
                        table: t.name.clone(),
                    },
                    e => e,
                })?;
            txn.undo.push(undo);
        }
        Ok(())
    }

    /// The one dispatch of a logical index write onto `space`'s B+Tree,
    /// with `undo` logged beside its redo: a row operation's steps and
    /// [`apply_undo`](Db::apply_undo) both write through here.
    fn index_write(
        &self,
        ctx: &mut SimCtx,
        txn: u64,
        space: u32,
        write: IndexWrite<'_>,
        undo: Option<&UndoInfo>,
    ) -> Result<()> {
        let tree = BTree::new(space);
        match write {
            IndexWrite::Insert { key, cell } => tree.insert(ctx, self, txn, key, cell, undo),
            IndexWrite::Update { key, cell } => tree.update(ctx, self, txn, key, cell, undo),
            IndexWrite::Delete { key } => tree.delete(ctx, self, txn, key, undo),
        }
    }

    /// Apply one logical undo operation (abort and crash recovery paths):
    /// the write it names, through [`index_write`](Db::index_write).
    /// Idempotent: a missing key on Remove, or an existing key on
    /// ReInsert, are tolerated (the compensation may already be in place),
    /// and a Revert whose key is gone re-inserts the old cell.
    pub(crate) fn apply_undo(&self, ctx: &mut SimCtx, txn_id: u64, u: &UndoInfo) -> Result<()> {
        let mut write = |w: IndexWrite<'_>| self.index_write(ctx, txn_id, u.index_space, w, None);
        match &u.op {
            UndoOp::Remove { key } => match write(IndexWrite::Delete { key }) {
                Err(EngineError::NotFound) => Ok(()),
                r => r,
            },
            UndoOp::Revert {
                key,
                old_cell: cell,
            } => match write(IndexWrite::Update { key, cell }) {
                Err(EngineError::NotFound) => write(IndexWrite::Insert { key, cell }),
                r => r,
            },
            UndoOp::ReInsert {
                key,
                old_cell: cell,
            } => match write(IndexWrite::Insert { key, cell }) {
                Err(EngineError::DuplicateKey { .. }) => Ok(()),
                r => r,
            },
        }
    }

    /// Lock `lk` for `txn`; the transaction's list takes a copy of the key
    /// the first time it holds it.
    fn lock_row(
        &self,
        ctx: &mut SimCtx,
        txn: &mut TxnHandle,
        lk: &LockKey,
        mode: LockMode,
    ) -> Result<()> {
        if !self.locks.acquire(ctx, txn.id, lk, mode)? {
            txn.locks.push(lk.clone());
        }
        Ok(())
    }

    /// Commit: persist the commit record (the commit latency), release
    /// locks, ship REDO off the critical path.
    pub fn commit(&self, ctx: &mut SimCtx, txn: &mut TxnHandle) -> Result<()> {
        if !txn.is_active() {
            return Err(EngineError::TxnFinished);
        }
        let t0 = ctx.now();
        let sp = self.stats.trace.span(ctx, "core", "commit");
        let done = self.env.engine_cpu.acquire(
            ctx.now(),
            VTime::from_nanos(self.env.model.cpu_txn_overhead_ns),
        );
        ctx.wait_until(done);
        let commit_lsn = self.wal.log(ctx, &WalRecord::Commit { txn_id: txn.id })?;
        // The commit latency: flush the global log buffer (group commit).
        let durable = self.wal.flush(ctx, commit_lsn).and_then(|()| {
            self.flush_ship(ctx, false);
            self.maybe_auto_checkpoint(ctx)
        });
        // Once its Commit record is logged the transaction is over, whether
        // or not the flush went through: a failed flush keeps the record
        // queued ahead of every later one, so no transaction that takes
        // these locks next can become durable before it.
        self.locks.release_all(ctx.now(), txn.id, &txn.locks);
        txn.locks.clear();
        txn.undo.clear();
        txn.status = TxnStatus::Committed;
        durable?;
        self.stats.commits.inc();
        self.stats.commit_lat.record(ctx.now() - t0);
        sp.finish(ctx);
        Ok(())
    }

    /// Abort: apply logical undo in reverse, log the abort, release locks.
    pub fn abort(&self, ctx: &mut SimCtx, txn: &mut TxnHandle) -> Result<()> {
        if !txn.is_active() {
            return Err(EngineError::TxnFinished);
        }
        let sp = self.stats.trace.span(ctx, "core", "abort");
        for u in std::mem::take(&mut txn.undo).iter().rev() {
            self.apply_undo(ctx, txn.id, u)?;
        }
        self.wal.log(ctx, &WalRecord::Abort { txn_id: txn.id })?;
        self.flush_ship(ctx, false);
        self.locks.release_all(ctx.now(), txn.id, &txn.locks);
        txn.locks.clear();
        txn.status = TxnStatus::Aborted;
        self.stats.aborts.inc();
        sp.finish(ctx);
        Ok(())
    }
}
