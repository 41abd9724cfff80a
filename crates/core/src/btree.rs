//! Clustered B+Trees over buffer-pool pages.
//!
//! Every index (clustered table or secondary) is a B+Tree in its own
//! tablespace. Leaf cells are `[klen u16][key][payload]`; internal cells
//! are `[klen u16][key][child u32]` where the first cell of the leftmost
//! node carries the empty key (−∞). Keys are memcomparable byte strings
//! ([`crate::row::encode_key`]), so pages binary-search raw bytes. All
//! trees have unique keys — non-unique secondary indexes append the
//! primary key to the index key before reaching this layer.
//!
//! Every mutation is logged through `Db::log_and_apply` *before*
//! the page change becomes visible (the WAL rule), and splits decompose
//! into plain page-level REDO ops (`Format`, `InsertAt`, `Delete`,
//! `SetNextPage`), so PageStore replays structure changes with the same
//! code path as row changes.
//!
//! Concurrency: a per-space `RwLock` (`Db::space_latch`)
//! serializes structural writers against readers in *real* time; virtual
//! time is unaffected (contended virtual resources are charged
//! explicitly), so this latch protects memory safety without distorting
//! the simulation.

use vedb_astore::PageId;
use vedb_pagestore::page::{Page, PageType};
use vedb_pagestore::redo::PageOp;
use vedb_sim::SimCtx;

use crate::db::Db;
use crate::wal::UndoInfo;
use crate::{EngineError, Result};

/// Build a leaf cell.
pub fn leaf_cell(key: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut c = Vec::with_capacity(2 + key.len() + payload.len());
    c.extend_from_slice(&(key.len() as u16).to_le_bytes());
    c.extend_from_slice(key);
    c.extend_from_slice(payload);
    c
}

/// Split a leaf cell into (key, payload).
pub fn parse_leaf_cell(cell: &[u8]) -> (&[u8], &[u8]) {
    let klen = u16::from_le_bytes([cell[0], cell[1]]) as usize;
    (&cell[2..2 + klen], &cell[2 + klen..])
}

fn internal_cell(key: &[u8], child: u32) -> Vec<u8> {
    let mut c = Vec::with_capacity(6 + key.len());
    c.extend_from_slice(&(key.len() as u16).to_le_bytes());
    c.extend_from_slice(key);
    c.extend_from_slice(&child.to_le_bytes());
    c
}

fn parse_internal_cell(cell: &[u8]) -> (&[u8], u32) {
    let klen = u16::from_le_bytes([cell[0], cell[1]]) as usize;
    let child = u32::from_le_bytes(cell[2 + klen..2 + klen + 4].try_into().unwrap());
    (&cell[2..2 + klen], child)
}

/// Binary search a page's cells for `key`. `Ok(slot)` = exact match,
/// `Err(slot)` = insertion position.
fn search_cells(page: &Page, key: &[u8]) -> std::result::Result<usize, usize> {
    let (mut lo, mut hi) = (0usize, page.n_slots());
    while lo < hi {
        let mid = (lo + hi) / 2;
        let cell = page.get(mid).expect("slot in range");
        let (ckey, _) = parse_leaf_cell(cell); // same prefix layout for both kinds
        match ckey.cmp(key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// Child pointer to follow for `key` in an internal page: the last cell
/// whose key is `<= key`.
fn child_for(page: &Page, key: &[u8]) -> u32 {
    let slot = match search_cells(page, key) {
        Ok(s) => s,
        Err(0) => 0, // shouldn't happen (cell 0 is -inf), but be safe
        Err(s) => s - 1,
    };
    let (_, child) = parse_internal_cell(page.get(slot).expect("internal cell"));
    child
}

/// One B+Tree (stateless handle; all state lives in pages + meta).
pub struct BTree {
    /// Tablespace of the tree.
    pub space: u32,
}

impl BTree {
    /// Handle for the tree in `space`.
    pub fn new(space: u32) -> BTree {
        BTree { space }
    }

    fn pid(&self, page_no: u32) -> PageId {
        PageId::new(self.space, page_no)
    }

    /// Create the (empty) tree: allocates and formats the root leaf.
    pub fn create(&self, ctx: &mut SimCtx, access: &Db, txn: u64) -> Result<()> {
        let latch = access.space_latch(self.space);
        let _g = latch.write();
        let (root, _) = access.root_of(self.space);
        if root != 0 {
            return Ok(()); // already exists
        }
        let (page_no, frame) = access.alloc_page(ctx, txn, self.space)?;
        {
            let mut page = frame.page.write();
            access.log_and_apply(
                ctx,
                txn,
                self.pid(page_no),
                PageOp::Format {
                    ty: PageType::BTreeLeaf,
                    level: 0,
                },
                None,
                &mut page,
            )?;
        }
        access.set_root(ctx, txn, self.space, page_no, 0)
    }

    /// Descend to the leaf that should hold `key`; returns the path of
    /// page numbers from root (exclusive of leaf) and the leaf page no.
    fn descend(&self, ctx: &mut SimCtx, access: &Db, key: &[u8]) -> Result<(Vec<u32>, u32)> {
        let (root, mut level) = access.root_of(self.space);
        if root == 0 {
            return Err(EngineError::Query(format!(
                "tree {} not created",
                self.space
            )));
        }
        let mut path = Vec::new();
        let mut current = root;
        while level > 0 {
            access.charge_cpu(ctx, 400);
            let frame = access.get_frame(ctx, self.pid(current))?;
            let page = frame.page.read();
            path.push(current);
            current = child_for(&page, key);
            level -= 1;
        }
        access.charge_cpu(ctx, 400);
        Ok((path, current))
    }

    /// Point lookup: the payload stored under `key`.
    pub fn get(&self, ctx: &mut SimCtx, access: &Db, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let latch = access.space_latch(self.space);
        let _g = latch.read();
        let (root, _) = access.root_of(self.space);
        if root == 0 {
            return Ok(None);
        }
        let (_, leaf) = self.descend(ctx, access, key)?;
        let frame = access.get_frame(ctx, self.pid(leaf))?;
        let page = frame.page.read();
        match search_cells(&page, key) {
            Ok(slot) => {
                let (_, payload) = parse_leaf_cell(page.get(slot)?);
                Ok(Some(payload.to_vec()))
            }
            Err(_) => Ok(None),
        }
    }

    /// Insert `key -> payload`. Fails with [`EngineError::DuplicateKey`] if
    /// present. `undo` is attached to the leaf insert record.
    pub fn insert(
        &self,
        ctx: &mut SimCtx,
        access: &Db,
        txn: u64,
        key: &[u8],
        payload: &[u8],
        undo: Option<&UndoInfo>,
    ) -> Result<()> {
        let latch = access.space_latch(self.space);
        let _g = latch.write();
        let cell = leaf_cell(key, payload);
        loop {
            let (path, leaf_no) = self.descend(ctx, access, key)?;
            let frame = access.get_frame(ctx, self.pid(leaf_no))?;
            let mut page = frame.page.write();
            let slot = match search_cells(&page, key) {
                Ok(_) => {
                    return Err(EngineError::DuplicateKey {
                        table: format!("space {}", self.space),
                    })
                }
                Err(s) => s,
            };
            if page.can_insert(cell.len()) {
                access.log_and_apply(
                    ctx,
                    txn,
                    self.pid(leaf_no),
                    PageOp::InsertAt {
                        slot: slot as u16,
                        cell,
                    },
                    undo,
                    &mut page,
                )?;
                frame.mark_dirty();
                access.charge_cpu(ctx, 1_000);
                return Ok(());
            }
            drop(page);
            // Split and retry.
            self.split(ctx, access, txn, &path, leaf_no)?;
        }
    }

    /// Split page `target_no` (leaf or internal), pushing a separator into
    /// its parent (splitting upward as needed).
    fn split(
        &self,
        ctx: &mut SimCtx,
        access: &Db,
        txn: u64,
        path: &[u32],
        target_no: u32,
    ) -> Result<()> {
        let target_pid = self.pid(target_no);
        let frame = access.get_frame(ctx, target_pid)?;
        let (new_no, new_frame) = access.alloc_page(ctx, txn, self.space)?;
        let new_pid = self.pid(new_no);

        let (is_leaf, level, n, next_link) = {
            let p = frame.page.read();
            (
                p.page_type() == PageType::BTreeLeaf,
                p.level(),
                p.n_slots(),
                p.next_page(),
            )
        };
        assert!(n >= 2, "cannot split a page with {n} cells");
        let mid = n / 2;

        // Format the right sibling.
        {
            let mut np = new_frame.page.write();
            access.log_and_apply(
                ctx,
                txn,
                new_pid,
                PageOp::Format {
                    ty: if is_leaf {
                        PageType::BTreeLeaf
                    } else {
                        PageType::BTreeInternal
                    },
                    level,
                },
                None,
                &mut np,
            )?;
            if is_leaf {
                access.log_and_apply(
                    ctx,
                    txn,
                    new_pid,
                    PageOp::SetNextPage { page_no: next_link },
                    None,
                    &mut np,
                )?;
            }
        }
        // Move the upper half.
        let moved: Vec<Vec<u8>> = {
            let p = frame.page.read();
            (mid..n).map(|i| p.get(i).expect("cell").to_vec()).collect()
        };
        let sep_key = parse_leaf_cell(&moved[0]).0.to_vec();
        {
            let mut np = new_frame.page.write();
            for (i, cell) in moved.into_iter().enumerate() {
                access.log_and_apply(
                    ctx,
                    txn,
                    new_pid,
                    PageOp::InsertAt {
                        slot: i as u16,
                        cell,
                    },
                    None,
                    &mut np,
                )?;
            }
            new_frame.mark_dirty();
        }
        {
            let mut p = frame.page.write();
            for i in (mid..n).rev() {
                access.log_and_apply(
                    ctx,
                    txn,
                    target_pid,
                    PageOp::Delete { slot: i as u16 },
                    None,
                    &mut p,
                )?;
            }
            if is_leaf {
                access.log_and_apply(
                    ctx,
                    txn,
                    target_pid,
                    PageOp::SetNextPage { page_no: new_no },
                    None,
                    &mut p,
                )?;
            }
            frame.mark_dirty();
        }

        // Insert the separator into the parent (or grow a new root).
        let parent_cell = internal_cell(&sep_key, new_no);
        match path.last() {
            Some(&parent_no) => {
                let parent_pid = self.pid(parent_no);
                let pframe = access.get_frame(ctx, parent_pid)?;
                let fits = {
                    let pp = pframe.page.read();
                    pp.can_insert(parent_cell.len())
                };
                if !fits {
                    self.split(ctx, access, txn, &path[..path.len() - 1], parent_no)?;
                    // The separator's home may have moved: re-descend to the
                    // internal node now covering sep_key at this level.
                    return self.insert_separator(ctx, access, txn, &sep_key, new_no, level + 1);
                }
                let mut pp = pframe.page.write();
                let slot = match search_cells(&pp, &sep_key) {
                    Ok(s) => s + 1,
                    Err(s) => s,
                };
                access.log_and_apply(
                    ctx,
                    txn,
                    parent_pid,
                    PageOp::InsertAt {
                        slot: slot as u16,
                        cell: parent_cell,
                    },
                    None,
                    &mut pp,
                )?;
                pframe.mark_dirty();
            }
            None => {
                // Root split.
                let (new_root_no, rframe) = access.alloc_page(ctx, txn, self.space)?;
                let root_pid = self.pid(new_root_no);
                let mut rp = rframe.page.write();
                access.log_and_apply(
                    ctx,
                    txn,
                    root_pid,
                    PageOp::Format {
                        ty: PageType::BTreeInternal,
                        level: level + 1,
                    },
                    None,
                    &mut rp,
                )?;
                access.log_and_apply(
                    ctx,
                    txn,
                    root_pid,
                    PageOp::InsertAt {
                        slot: 0,
                        cell: internal_cell(&[], target_no),
                    },
                    None,
                    &mut rp,
                )?;
                access.log_and_apply(
                    ctx,
                    txn,
                    root_pid,
                    PageOp::InsertAt {
                        slot: 1,
                        cell: parent_cell,
                    },
                    None,
                    &mut rp,
                )?;
                rframe.mark_dirty();
                drop(rp);
                access.set_root(ctx, txn, self.space, new_root_no, level + 1)?;
            }
        }
        Ok(())
    }

    /// After a parent split, place a separator at `target_level` by
    /// descending from the root.
    fn insert_separator(
        &self,
        ctx: &mut SimCtx,
        access: &Db,
        txn: u64,
        sep_key: &[u8],
        child: u32,
        target_level: u8,
    ) -> Result<()> {
        let (root, mut level) = access.root_of(self.space);
        let mut current = root;
        while level > target_level {
            let frame = access.get_frame(ctx, self.pid(current))?;
            let page = frame.page.read();
            current = child_for(&page, sep_key);
            level -= 1;
        }
        let pid = self.pid(current);
        let frame = access.get_frame(ctx, pid)?;
        let mut page = frame.page.write();
        let cell = internal_cell(sep_key, child);
        debug_assert!(page.can_insert(cell.len()), "freshly split parent must fit");
        let slot = match search_cells(&page, sep_key) {
            Ok(s) => s + 1,
            Err(s) => s,
        };
        access.log_and_apply(
            ctx,
            txn,
            pid,
            PageOp::InsertAt {
                slot: slot as u16,
                cell,
            },
            None,
            &mut page,
        )?;
        frame.mark_dirty();
        Ok(())
    }

    /// Replace the payload under `key`. Falls back to delete+insert when
    /// the grown cell no longer fits its page.
    pub fn update(
        &self,
        ctx: &mut SimCtx,
        access: &Db,
        txn: u64,
        key: &[u8],
        payload: &[u8],
        undo: Option<&UndoInfo>,
    ) -> Result<()> {
        let latch = access.space_latch(self.space);
        let _g = latch.write();
        let (_, leaf_no) = self.descend(ctx, access, key)?;
        let frame = access.get_frame(ctx, self.pid(leaf_no))?;
        let mut page = frame.page.write();
        let slot = match search_cells(&page, key) {
            Ok(s) => s,
            Err(_) => return Err(EngineError::NotFound),
        };
        let cell = leaf_cell(key, payload);
        let old_len = page.get(slot)?.len();
        let fits =
            cell.len() <= old_len || cell.len() <= page.free_space_after_compaction() + old_len;
        if fits {
            access.log_and_apply(
                ctx,
                txn,
                self.pid(leaf_no),
                PageOp::Update {
                    slot: slot as u16,
                    cell,
                },
                undo,
                &mut page,
            )?;
            frame.mark_dirty();
            access.charge_cpu(ctx, 1_000);
            return Ok(());
        }
        // Grow beyond the page: delete + re-insert (REDO-wise two ops; the
        // caller's single logical undo still reverts it correctly).
        access.log_and_apply(
            ctx,
            txn,
            self.pid(leaf_no),
            PageOp::Delete { slot: slot as u16 },
            None,
            &mut page,
        )?;
        frame.mark_dirty();
        drop(page);
        drop(_g);
        self.insert(ctx, access, txn, key, payload, undo)
    }

    /// Delete `key`.
    pub fn delete(
        &self,
        ctx: &mut SimCtx,
        access: &Db,
        txn: u64,
        key: &[u8],
        undo: Option<&UndoInfo>,
    ) -> Result<()> {
        let latch = access.space_latch(self.space);
        let _g = latch.write();
        let (_, leaf_no) = self.descend(ctx, access, key)?;
        let frame = access.get_frame(ctx, self.pid(leaf_no))?;
        let mut page = frame.page.write();
        let slot = match search_cells(&page, key) {
            Ok(s) => s,
            Err(_) => return Err(EngineError::NotFound),
        };
        access.log_and_apply(
            ctx,
            txn,
            self.pid(leaf_no),
            PageOp::Delete { slot: slot as u16 },
            undo,
            &mut page,
        )?;
        frame.mark_dirty();
        access.charge_cpu(ctx, 1_000);
        Ok(())
    }

    /// Range scan: call `f(key, payload)` for every entry with
    /// `start <= key < end` (whole tree when both are `None`); stop early
    /// if `f` returns `false`.
    pub fn scan(
        &self,
        ctx: &mut SimCtx,
        access: &Db,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<()> {
        let latch = access.space_latch(self.space);
        let _g = latch.read();
        let (root, _) = access.root_of(self.space);
        if root == 0 {
            return Ok(());
        }
        let seek = start.unwrap_or(&[]);
        let (_, leaf_no) = self.descend(ctx, access, seek)?;
        {
            let frame = access.get_frame(ctx, self.pid(leaf_no))?;
            let page = frame.page.read();
            let from = match start {
                Some(k) => match search_cells(&page, k) {
                    Ok(s) => s,
                    Err(s) => s,
                },
                None => 0,
            };
            for i in from..page.n_slots() {
                let (k, v) = parse_leaf_cell(page.get(i)?);
                if let Some(e) = end {
                    if k >= e {
                        return Ok(());
                    }
                }
                access.charge_cpu(ctx, 150);
                if !f(k, v) {
                    return Ok(());
                }
            }
            let next = page.next_page();
            if next == 0 {
                return Ok(());
            }
            // After the first leaf the start bound no longer matters.
            self.scan_rest(ctx, access, next, end, &mut f)
        }
    }

    /// Linear read-ahead depth for scans: the engine fetches this many
    /// pages of the space concurrently ahead of the scan cursor (the
    /// equivalent of MySQL's linear read-ahead; without it a cold scan
    /// pays a full remote round trip per page).
    pub const READ_AHEAD: u32 = 16;

    fn scan_rest(
        &self,
        ctx: &mut SimCtx,
        access: &Db,
        mut leaf_no: u32,
        end: Option<&[u8]>,
        f: &mut impl FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<()> {
        let mut window_end = 0u32;
        loop {
            // Read-ahead: prefetch the next window of pages in parallel.
            if leaf_no >= window_end {
                let total = access.space_pages(self.space);
                let to = (leaf_no + Self::READ_AHEAD).min(total + 1);
                let mut done = ctx.now();
                for p in leaf_no..to {
                    let mut pf = ctx.fork();
                    if access.get_frame(&mut pf, self.pid(p)).is_ok() {
                        done = done.max(pf.now());
                    }
                }
                ctx.wait_until(done);
                window_end = to;
            }
            let frame = access.get_frame(ctx, self.pid(leaf_no))?;
            let page = frame.page.read();
            for i in 0..page.n_slots() {
                let (k, v) = parse_leaf_cell(page.get(i)?);
                if let Some(e) = end {
                    if k >= e {
                        return Ok(());
                    }
                }
                access.charge_cpu(ctx, 150);
                if !f(k, v) {
                    return Ok(());
                }
            }
            let next = page.next_page();
            if next == 0 {
                return Ok(());
            }
            leaf_no = next;
        }
    }
}
