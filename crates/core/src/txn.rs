//! Transaction handles.
//!
//! A [`TxnHandle`] carries the per-transaction state the engine needs:
//! the held locks (released at commit/abort) and the logical undo chain
//! (applied in reverse on abort). Isolation is strict two-phase locking on
//! rows; durability is the WAL commit record (§III).

use crate::lock::LockKey;
use crate::wal::UndoInfo;

/// Transaction status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    /// Running.
    Active,
    /// Its Commit record is logged; durable once `commit` returned `Ok`.
    Committed,
    /// Rolled back.
    Aborted,
}

/// A client-held transaction handle.
pub struct TxnHandle {
    /// Transaction id (unique per engine incarnation).
    pub id: u64,
    /// Current status.
    pub status: TxnStatus,
    /// Locks held (row keys), released at completion.
    pub(crate) locks: Vec<LockKey>,
    /// Logical undo chain, newest last.
    pub(crate) undo: Vec<UndoInfo>,
}

impl TxnHandle {
    /// New active transaction.
    pub(crate) fn new(id: u64) -> TxnHandle {
        TxnHandle {
            id,
            status: TxnStatus::Active,
            locks: Vec::new(),
            undo: Vec::new(),
        }
    }

    /// Is the transaction still running?
    pub fn is_active(&self) -> bool {
        self.status == TxnStatus::Active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_flags() {
        let t = TxnHandle::new(7);
        assert!(t.is_active());
        assert!(t.locks.is_empty() && t.undo.is_empty());
        let mut t2 = TxnHandle::new(8);
        t2.status = TxnStatus::Committed;
        assert!(!t2.is_active());
    }
}
