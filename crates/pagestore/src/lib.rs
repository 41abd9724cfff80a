//! # vedb-pagestore — page persistence and REDO replay (§III "PageStore")
//!
//! PageStore is the page-serving half of veDB's storage layer: it receives
//! REDO records from the DBEngine (grouped by PageStore *segment*), keeps
//! them durable with **quorum replication**, repairs holes with a **gossip
//! protocol** driven by per-record back-links, continuously applies records
//! to reconstruct the latest page images, and serves 16 KB page reads —
//! checkpointing in the compute layer is never needed.
//!
//! This crate also owns the two formats shared with the engine above it:
//!
//! * [`page`] — the 16 KB slotted page,
//! * [`redo`] — physiological REDO records and their application.
//!
//! The remote-read path costs an RPC + server CPU + SSD time (~1 ms for a
//! cold 16 KB page with the paper-default calibration), which is exactly
//! the latency the Extended Buffer Pool exists to avoid.
//!
//! ## The apply pipeline, checkpoints, and point-in-time restore
//!
//! Every server runs one apply pipeline, with no knobs. It replays a
//! segment's queued redo in the background once 64 records queue up,
//! through a per-node pool of four workers: records partition by page id,
//! so one page's records stay on one worker in LSN order while distinct
//! pages apply concurrently on the node's CPU lanes. After every
//! [`CHECKPOINT_EVERY_RECORDS`] accepted records of a segment a background
//! checkpointer snapshots the segment's images durably and truncates
//! replayed redo below the previous checkpoint, which bounds what a
//! restart replays; gossip peers that fell behind the truncation horizon
//! install the snapshot itself.
//! Page images are `Arc<Page>` shared by the live map, the checkpoint and
//! readers and copied only when replay touches a shared one, so a
//! checkpoint costs memory in proportion to the pages dirtied since it was
//! taken; shipped records are `Arc<RedoRecord>` shared by every replica.
//!
//! The replicas of one [`PageStore`] also share page images: a page at a
//! given page-LSN is the same fold of the log on every replica, so a
//! replica whose apply batch takes a page to an LSN another replica's image
//! already has adopts that image instead of replaying the records (they
//! are still counted and charged as applied). The fleet keeps one weak
//! pointer per page to the newest image; a point-in-time restore drops
//! those beyond its target, since the LSNs above it may be issued again.
//! Debug builds replay every adopted page anyway and assert the bytes are
//! equal.
//!
//! Recovery is first-class: [`PageStoreServer::restart`] rebuilds a
//! crashed node from checkpoint + log replay (volatile page images, apply
//! queue and watermark are lost; retained redo, parked records and
//! checkpoints are durable), and [`PageStore::restore_to_lsn`] /
//! [`PageStoreServer::restore_to_lsn`] perform a **point-in-time
//! restore**: replay to an exact LSN, durably discarding everything
//! beyond it. `restore_to_lsn(l)` yields page images byte-identical to a
//! fresh run whose redo stream was truncated at `l`.

pub mod page;
pub mod redo;
pub mod server;

pub use page::{Page, PageType, PAGE_SIZE};
pub use redo::{PageOp, RedoRecord};
pub use server::{
    PageStore, PageStoreConfig, PageStoreServer, PsSegmentKey, CHECKPOINT_EVERY_RECORDS,
    PAGES_PER_SEGMENT, QUORUM, REPLICATION,
};

/// Errors from page/REDO/PageStore operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageStoreError {
    /// A page image had the wrong size.
    BadPageImage {
        /// Expected byte count.
        expected: usize,
        /// Actual byte count.
        got: usize,
    },
    /// Slot index beyond the directory.
    SlotOutOfRange {
        /// Requested slot.
        idx: usize,
        /// Slots present.
        n_slots: usize,
    },
    /// Not enough room in the page.
    PageFull {
        /// Bytes needed.
        need: usize,
        /// Bytes available (after compaction).
        free: usize,
    },
    /// Encoding/decoding failure.
    Codec(String),
    /// The requested page does not exist on this store.
    UnknownPage(vedb_astore::PageId),
    /// Fewer than quorum replicas acknowledged a ship.
    QuorumFailed {
        /// Acks received.
        acked: usize,
        /// Quorum required.
        quorum: usize,
    },
    /// Replay cannot reach the requested LSN (missing records even after
    /// gossip).
    NotYetApplied {
        /// LSN required.
        need: vedb_astore::Lsn,
        /// LSN reached.
        applied: vedb_astore::Lsn,
    },
    /// Network-level failure.
    Network(vedb_rdma::RdmaError),
}

impl PageStoreError {
    /// Is this a transient fault that re-driving the same request may
    /// clear? Beyond network faults, *stale-replica* reads are transient:
    /// a replica whose apply watermark lags the shipped LSN can serve a
    /// page image that is behind (`NotYetApplied`) or structurally older
    /// than the reader expects (`SlotOutOfRange` against a newer
    /// directory) — both heal once replay catches up, so the engine's
    /// read path re-ships and retries instead of failing the query.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            PageStoreError::Network(_)
                | PageStoreError::SlotOutOfRange { .. }
                | PageStoreError::NotYetApplied { .. }
                | PageStoreError::QuorumFailed { .. }
        )
    }
}

impl From<vedb_rdma::RdmaError> for PageStoreError {
    fn from(e: vedb_rdma::RdmaError) -> Self {
        PageStoreError::Network(e)
    }
}

impl From<vedb_sim::bytes::Truncated> for PageStoreError {
    fn from(e: vedb_sim::bytes::Truncated) -> Self {
        PageStoreError::Codec(e.to_string())
    }
}

impl std::fmt::Display for PageStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageStoreError::BadPageImage { expected, got } => {
                write!(f, "bad page image: expected {expected} bytes, got {got}")
            }
            PageStoreError::SlotOutOfRange { idx, n_slots } => {
                write!(f, "slot {idx} out of range ({n_slots} slots)")
            }
            PageStoreError::PageFull { need, free } => {
                write!(f, "page full: need {need}, free {free}")
            }
            PageStoreError::Codec(m) => write!(f, "codec: {m}"),
            PageStoreError::UnknownPage(p) => write!(f, "unknown page {p}"),
            PageStoreError::QuorumFailed { acked, quorum } => {
                write!(f, "ship acked by {acked} replicas, quorum is {quorum}")
            }
            PageStoreError::NotYetApplied { need, applied } => {
                write!(f, "replay at lsn {applied}, need {need}")
            }
            PageStoreError::Network(e) => write!(f, "network: {e}"),
        }
    }
}

impl std::error::Error for PageStoreError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, PageStoreError>;
