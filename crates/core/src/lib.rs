//! # vedb-core — the veDB DBEngine
//!
//! The compute layer of the reproduction (§III, §V, §VI): clustered B+Tree
//! tables over 16 KB slotted pages, a sharded-LRU buffer pool, row-level
//! two-phase locking, ARIES-style write-ahead REDO logging with logical
//! undo, and a Volcano-style query executor with the paper's push-down
//! framework.
//!
//! The engine is generic over its **log backend** ([`wal::LogBackend`]):
//!
//! * [`wal::BlobGroupLog`] — the baseline SSD LogStore (TCP + BlobGroups),
//! * [`wal::RingLog`] — AStore's SegmentRing over PMem + one-sided RDMA,
//!
//! and optionally attaches an **Extended Buffer Pool** ([`ebp::Ebp`])
//! between the local buffer pool and PageStore. Those two switches are
//! exactly the paper's "veDB" vs "veDB + AStore (+EBP)" configurations and
//! drive every experiment in §VII.

pub mod btree;
pub mod buffer;
pub mod catalog;
pub mod db;
pub mod ebp;
pub mod lock;
mod lru;
pub mod query;
pub mod recovery;
pub mod row;
pub mod txn;
pub mod wal;

pub use catalog::{Catalog, ColumnDef, ColumnType, IndexDef, TableDef};
pub use db::{Db, DbConfig, DbConfigBuilder, LogBackendKind};
pub use row::{Row, Value};
pub use txn::TxnHandle;
pub use wal::FlushPolicy;

use vedb_astore::PageId;

/// Errors surfaced by the engine.
///
/// The enum is `#[non_exhaustive]`: callers must not match on variants to
/// drive recovery decisions — use [`EngineError::is_retryable`] /
/// [`EngineError::is_fencing`] instead, so new failure modes can be added
/// without breaking downstream code.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Storage-layer failure (AStore).
    AStore(vedb_astore::AStoreError),
    /// Storage-layer failure (PageStore / page format).
    PageStore(vedb_pagestore::PageStoreError),
    /// Baseline blob-store failure.
    Blob(vedb_blobstore::BlobError),
    /// Duplicate primary key on insert.
    DuplicateKey {
        /// Table the insert targeted.
        table: String,
    },
    /// Row not found (update/delete/get by key).
    NotFound,
    /// Lock wait timed out (deadlock victim).
    LockTimeout {
        /// Page/row the transaction was waiting for.
        context: String,
    },
    /// Transaction already finished.
    TxnFinished,
    /// Catalog lookup failure.
    UnknownTable(String),
    /// Encoding failure.
    Codec(String),
    /// A page read could not be satisfied anywhere.
    PageUnavailable(PageId),
    /// Query planning/execution error.
    Query(String),
    /// Invalid engine configuration (rejected by `DbConfigBuilder::build`).
    Config(String),
}

impl EngineError {
    /// Is this a transient storage/network fault that retrying the same
    /// operation may clear? Delegates to the storage layers' own
    /// classification (see [`vedb_astore::AStoreError::is_retryable`]).
    pub fn is_retryable(&self) -> bool {
        match self {
            EngineError::AStore(e) => e.is_retryable(),
            EngineError::PageStore(e) => e.is_retryable(),
            EngineError::LockTimeout { .. } => true,
            _ => false,
        }
    }

    /// Is this a lease-fencing error — the engine's storage lease was
    /// superseded by a newer incarnation? Fencing is final once renewal is
    /// refused; the engine must shut down rather than retry.
    pub fn is_fencing(&self) -> bool {
        match self {
            EngineError::AStore(e) => e.is_fencing(),
            _ => false,
        }
    }
}

impl From<vedb_astore::AStoreError> for EngineError {
    fn from(e: vedb_astore::AStoreError) -> Self {
        EngineError::AStore(e)
    }
}

impl From<vedb_pagestore::PageStoreError> for EngineError {
    fn from(e: vedb_pagestore::PageStoreError) -> Self {
        EngineError::PageStore(e)
    }
}

impl From<vedb_rdma::RdmaError> for EngineError {
    fn from(e: vedb_rdma::RdmaError) -> Self {
        EngineError::AStore(vedb_astore::AStoreError::Network(e))
    }
}

impl From<vedb_blobstore::BlobError> for EngineError {
    fn from(e: vedb_blobstore::BlobError) -> Self {
        EngineError::Blob(e)
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::AStore(e) => write!(f, "astore: {e}"),
            EngineError::PageStore(e) => write!(f, "pagestore: {e}"),
            EngineError::Blob(e) => write!(f, "blobstore: {e}"),
            EngineError::DuplicateKey { table } => write!(f, "duplicate key in {table}"),
            EngineError::NotFound => write!(f, "row not found"),
            EngineError::LockTimeout { context } => write!(f, "lock timeout on {context}"),
            EngineError::TxnFinished => write!(f, "transaction already finished"),
            EngineError::UnknownTable(t) => write!(f, "unknown table {t}"),
            EngineError::Codec(m) => write!(f, "codec: {m}"),
            EngineError::PageUnavailable(p) => write!(f, "page {p} unavailable"),
            EngineError::Query(m) => write!(f, "query: {m}"),
            EngineError::Config(m) => write!(f, "config: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
