//! The fault-recovery ladder's constants — capped exponential backoff
//! over virtual time — and the option structs of the consolidated client
//! surface.
//!
//! The paper's §IV-C consistency machinery (epoch-fenced leases, route
//! refresh, delayed cleanup) and its failure-detection/repair design only
//! pay off if the client *recovers* from faults instead of surfacing them.
//! Every one-sided read/write and CM RPC issued by `AStoreClient` is
//! wrapped in a bounded retry loop that sleeps in **virtual time**
//! (`SimCtx::advance`), renews leases, re-resolves routes, and fails over
//! across replicas. [`MAX_RETRIES`] caps the attempts and [`MAX_BACKOFF`]
//! the per-attempt sleep, so a partitioned cluster degrades into a bounded
//! error, never an unbounded stall: at most ~20 ms of backoff per
//! operation, far below the CM lease TTL.

use vedb_sim::time::VTime;

use crate::layout::SegmentClass;

/// Retries after the initial attempt: an operation issues at most
/// `MAX_RETRIES + 1` attempts.
pub const MAX_RETRIES: u32 = 6;

/// Backoff before the first retry.
pub const BASE_BACKOFF: VTime = VTime::from_micros(100);

/// Upper bound on a single backoff sleep.
pub const MAX_BACKOFF: VTime = VTime::from_millis(10);

/// Backoff to sleep before retry number `retry` (0-based), i.e.
/// `BASE_BACKOFF * 2^retry` capped at [`MAX_BACKOFF`].
pub fn backoff(retry: u32) -> VTime {
    let scaled = BASE_BACKOFF
        .as_nanos()
        .saturating_mul(1u64 << retry.min(32));
    VTime::from_nanos(scaled.min(MAX_BACKOFF.as_nanos()))
}

/// May retry number `retry` (0-based) still be attempted?
pub fn allows(retry: u32) -> bool {
    retry < MAX_RETRIES
}

/// Options for [`crate::AStoreClient::append_with`] — the consolidated
/// append entry point (replaces the `append` / `append_with_tail` pair).
#[derive(Debug, Clone, Copy, Default)]
pub struct AppendOpts<'a> {
    /// Extra bytes written *past* the appended record without advancing the
    /// segment's used length — §V-A's speculative tail-header write used by
    /// the SegmentRing to stamp the next slot's header in the same chained
    /// WRITE. `None` for a plain append.
    pub tail: Option<&'a [u8]>,
}

impl<'a> AppendOpts<'a> {
    /// Plain append, no speculative tail.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a speculative tail write.
    pub fn with_tail(mut self, tail: &'a [u8]) -> Self {
        self.tail = Some(tail);
        self
    }
}

/// Options for [`crate::AStoreClient::create_segment_with`] — the
/// consolidated creation entry point (replaces `create_segment` /
/// `create_segment_with_replication`).
#[derive(Debug, Clone, Copy)]
pub struct SegmentOpts {
    /// Replication class of the segment (drives the default factor).
    pub class: SegmentClass,
    /// Explicit replication factor; `None` uses the class default
    /// (§IV-A: Log = 3, EBP = 1).
    pub replication: Option<usize>,
}

impl SegmentOpts {
    /// Options for a segment of `class` with the class-default replication.
    pub fn new(class: SegmentClass) -> Self {
        SegmentOpts {
            class,
            replication: None,
        }
    }

    /// Override the replication factor.
    pub fn with_replication(mut self, replication: usize) -> Self {
        self.replication = Some(replication);
        self
    }

    /// The effective replication factor.
    pub fn effective_replication(&self) -> usize {
        self.replication
            .unwrap_or_else(|| self.class.default_replication())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        assert_eq!(backoff(0), VTime::from_micros(100));
        assert_eq!(backoff(1), VTime::from_micros(200));
        assert_eq!(backoff(2), VTime::from_micros(400));
        assert_eq!(backoff(6), VTime::from_micros(6400));
        assert_eq!(backoff(7), MAX_BACKOFF); // capped
        assert_eq!(backoff(40), MAX_BACKOFF);
    }

    #[test]
    fn allows_exactly_max_retries() {
        assert!((0..MAX_RETRIES).all(allows));
        assert!(!allows(MAX_RETRIES));
    }

    #[test]
    fn default_total_backoff_is_bounded() {
        let total: u64 = (0..MAX_RETRIES).map(|k| backoff(k).as_nanos()).sum();
        // Must stay well under the CM heartbeat/lease scale (seconds).
        assert!(
            total < VTime::from_millis(100).as_nanos(),
            "total backoff {total}ns"
        );
    }

    #[test]
    fn segment_opts_effective_replication() {
        assert_eq!(
            SegmentOpts::new(SegmentClass::Log).effective_replication(),
            3
        );
        assert_eq!(
            SegmentOpts::new(SegmentClass::Ebp).effective_replication(),
            1
        );
        assert_eq!(
            SegmentOpts::new(SegmentClass::Log)
                .with_replication(2)
                .effective_replication(),
            2
        );
    }
}
