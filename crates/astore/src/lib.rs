//! # vedb-astore — the distributed PMem storage engine (the paper's §IV)
//!
//! AStore pools PMem from a cluster of storage servers behind one-sided
//! RDMA. It has three modules, mirroring Fig. 3:
//!
//! * [`AStoreServer`] — owns one node's PMem device: on-media layout
//!   (superblock / segment meta / segment storage), a bitmap allocator for
//!   segment slots, delayed stale-segment cleanup, and the page→LSN map
//!   used to rebuild the Extended Buffer Pool after a DBEngine crash.
//! * [`ClusterManager`] — the central control plane: node registry and
//!   heartbeats, segment placement by free capacity, routing, client
//!   leases with epoch fencing, failure detection and replica repair.
//! * [`AStoreClient`] — the access SDK embedded in the DBEngine: caches
//!   routes, creates/deletes segments over RPC (milliseconds), and reads/
//!   writes segment data with **one-sided verbs only** (tens of µs) — the
//!   write is the chained 2×WRITE + READ-flush of §IV-B.
//!
//! On top of the client sits [`SegmentRing`] (§V-A): the ring of
//! pre-created append-only segments that replaces the BlobGroup for REDO
//! logging, including the header binary-search used for crash recovery.
//!
//! Read-write consistency with one-sided verbs (§IV-C) is preserved by the
//! same three mechanisms as the paper: short-period client route refresh,
//! server-side *delayed* cleanup of deallocated segments ([`CLEANUP_DELAY`]
//! ≥ 10 × [`ROUTE_REFRESH`], a compile-time check), and client leases
//! fenced by epoch at the CM.

pub mod client;
pub mod cm;
pub mod ebp_format;
pub mod layout;
pub mod retry;
pub mod ring;
pub mod server;

pub use client::{AStoreClient, SegmentHandle, ROUTE_REFRESH};
pub use cm::{ClusterManager, Lease};
pub use layout::SegmentClass;
pub use retry::{AppendOpts, SegmentOpts};
pub use ring::SegmentRing;
pub use server::{AStoreServer, CLEANUP_DELAY};

use vedb_rdma::RdmaError;
use vedb_sim::fault::NodeId;

/// Segment identifier, unique cluster-wide (assigned by the CM).
pub type SegmentId = u64;

/// Log sequence number: a byte offset in the global REDO stream.
pub type Lsn = u64;

/// Identifier of a data page: `(space_no, page_no)` as in the paper's EBP
/// index key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId {
    /// Tablespace number.
    pub space_no: u32,
    /// Page number within the space.
    pub page_no: u32,
}

impl PageId {
    /// Construct a page id.
    pub fn new(space_no: u32, page_no: u32) -> Self {
        PageId { space_no, page_no }
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.space_no, self.page_no)
    }
}

/// Errors surfaced by AStore operations.
///
/// The enum is `#[non_exhaustive]`: code outside this crate must not match
/// on variants to drive recovery decisions — use the classification methods
/// ([`AStoreError::is_retryable`], [`AStoreError::is_fencing`],
/// [`AStoreError::is_segment_unwritable`]) instead, so new failure modes
/// can be added without breaking callers.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AStoreError {
    /// Network / node failure.
    Network(RdmaError),
    /// The client's lease is expired or superseded (epoch fencing, §IV-C).
    LeaseExpired {
        /// Epoch presented by the client.
        presented: u64,
        /// Epoch the CM currently holds.
        current: u64,
    },
    /// No server has room for the requested segment.
    NoSpace,
    /// Segment unknown to the CM / server.
    UnknownSegment(SegmentId),
    /// A write could not reach every replica; the segment is frozen.
    ReplicaFailed {
        /// Replicas that acknowledged.
        acked: usize,
        /// Replicas required.
        required: usize,
    },
    /// Append to a frozen segment.
    SegmentFrozen(SegmentId),
    /// Segment has no room for the append.
    SegmentFull {
        /// Bytes used.
        used: u64,
        /// Segment capacity.
        capacity: u64,
    },
    /// The SegmentRing is out of reusable segments (log not truncated).
    LogFull,
    /// On-media data failed validation.
    Corrupt(String),
    /// Not enough live servers to satisfy the replication factor.
    NotEnoughServers {
        /// Live servers available.
        live: usize,
        /// Replicas required.
        required: usize,
    },
}

impl AStoreError {
    /// Is this a *transient* fault that a capped-backoff retry of the same
    /// operation may clear (dropped message, unreachable node that the CM
    /// may repair around)? Retry code must branch on this — never on the
    /// enum variants directly.
    pub fn is_retryable(&self) -> bool {
        matches!(self, AStoreError::Network(_))
    }

    /// Is this a fencing error — the client's lease epoch was superseded or
    /// expired? Fencing is only recoverable by *renewing the same epoch*;
    /// if renewal is refused the client has been superseded and must stop
    /// (retrying can never bypass the fence).
    pub fn is_fencing(&self) -> bool {
        matches!(self, AStoreError::LeaseExpired { .. })
    }

    /// Can this segment no longer accept appends (full, frozen, or a
    /// replica set that lost a member mid-write)? Callers holding a ring of
    /// segments roll over to a fresh one on these.
    pub fn is_segment_unwritable(&self) -> bool {
        matches!(
            self,
            AStoreError::SegmentFull { .. }
                | AStoreError::SegmentFrozen(_)
                | AStoreError::ReplicaFailed { .. }
        )
    }

    /// If this error identifies a concrete unreachable node, its id. The
    /// recovery layer reports such nodes to the CM, which verifies the claim
    /// and re-replicates or shrinks the affected routes.
    pub fn unreachable_node(&self) -> Option<NodeId> {
        match self {
            AStoreError::Network(RdmaError::NodeUnreachable(n)) => Some(*n),
            _ => None,
        }
    }
}

impl From<RdmaError> for AStoreError {
    fn from(e: RdmaError) -> Self {
        AStoreError::Network(e)
    }
}

impl std::fmt::Display for AStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AStoreError::Network(e) => write!(f, "network: {e}"),
            AStoreError::LeaseExpired { presented, current } => {
                write!(
                    f,
                    "lease expired: presented epoch {presented}, current {current}"
                )
            }
            AStoreError::NoSpace => write!(f, "no server has space for the segment"),
            AStoreError::UnknownSegment(s) => write!(f, "unknown segment {s}"),
            AStoreError::ReplicaFailed { acked, required } => {
                write!(f, "write reached {acked}/{required} replicas")
            }
            AStoreError::SegmentFrozen(s) => write!(f, "segment {s} is frozen"),
            AStoreError::SegmentFull { used, capacity } => {
                write!(f, "segment full: {used}/{capacity} bytes")
            }
            AStoreError::LogFull => write!(f, "segment ring exhausted (log not truncated)"),
            AStoreError::Corrupt(m) => write!(f, "corrupt data: {m}"),
            AStoreError::NotEnoughServers { live, required } => {
                write!(
                    f,
                    "only {live} live servers for replication factor {required}"
                )
            }
        }
    }
}

impl std::error::Error for AStoreError {}

/// Result alias for AStore operations.
pub type Result<T> = std::result::Result<T, AStoreError>;

/// Location of one replica of a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentLoc {
    /// Node hosting the replica.
    pub node: NodeId,
    /// Byte offset of the slot within the node's PMem data area.
    pub offset: u64,
}
