//! Fault-recovery policy types: capped exponential backoff over virtual
//! time, and the option structs of the consolidated client surface.
//!
//! The paper's §IV-C consistency machinery (epoch-fenced leases, route
//! refresh, delayed cleanup) and its failure-detection/repair design only
//! pay off if the client *recovers* from faults instead of surfacing them.
//! [`RetryPolicy`] is that contract: every one-sided read/write and CM RPC
//! issued by `AStoreClient` is wrapped in a bounded retry loop that sleeps
//! in **virtual time** (`SimCtx::advance`), renews leases, re-resolves
//! routes, and fails over across replicas. The policy caps both the number
//! of attempts and the per-attempt backoff so a partitioned cluster
//! degrades into a bounded error, never an unbounded stall.

use vedb_sim::time::VTime;

use crate::layout::SegmentClass;

/// Capped exponential backoff policy over simulated virtual time.
///
/// Attempt `k` (0-based retry index) sleeps `base * 2^k`, capped at `cap`.
/// `max_retries` bounds the retries *after* the initial attempt, so an
/// operation issues at most `max_retries + 1` attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: VTime,
    /// Upper bound on a single backoff sleep.
    pub max_backoff: VTime,
}

impl Default for RetryPolicy {
    /// Paper-scale defaults: 6 retries, 100 µs base, 10 ms cap — a worst
    /// case of ~20 ms of backoff per operation, far below the CM lease TTL.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 6,
            base_backoff: VTime::from_micros(100),
            max_backoff: VTime::from_millis(10),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (surface the first error).
    pub fn disabled() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: VTime::ZERO,
            max_backoff: VTime::ZERO,
        }
    }

    /// Backoff to sleep before retry number `retry` (0-based), i.e.
    /// `base * 2^retry` capped at `max_backoff`.
    pub fn backoff(&self, retry: u32) -> VTime {
        let base = self.base_backoff.as_nanos();
        if base == 0 {
            return VTime::ZERO;
        }
        let scaled = base.saturating_mul(1u64 << retry.min(32));
        VTime::from_nanos(scaled.min(self.max_backoff.as_nanos().max(base)))
    }

    /// May retry number `retry` (0-based) still be attempted?
    pub fn allows(&self, retry: u32) -> bool {
        retry < self.max_retries
    }
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
        let p = RetryPolicy {
            max_retries: 10,
            base_backoff: VTime::from_micros(100),
            max_backoff: VTime::from_millis(1),
        };
        assert_eq!(p.backoff(0), VTime::from_micros(100));
        assert_eq!(p.backoff(1), VTime::from_micros(200));
        assert_eq!(p.backoff(2), VTime::from_micros(400));
        assert_eq!(p.backoff(3), VTime::from_micros(800));
        assert_eq!(p.backoff(4), VTime::from_millis(1)); // capped
        assert_eq!(p.backoff(30), VTime::from_millis(1));
    }

    #[test]
    fn disabled_never_allows() {
        let p = RetryPolicy::disabled();
        assert!(!p.allows(0));
        assert_eq!(p.backoff(0), VTime::ZERO);
    }

    #[test]
    fn default_total_backoff_is_bounded() {
        let p = RetryPolicy::default();
        let total: u64 = (0..p.max_retries).map(|k| p.backoff(k).as_nanos()).sum();
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
