//! Failure injection shared across all simulated components.
//!
//! A [`FaultPlan`] is a small bag of switches consulted by the device and
//! network layers: which nodes are currently crashed, and with what
//! probability messages should be dropped (used by the PageStore gossip
//! tests). Components hold an `Arc<FaultPlan>` and check it on every
//! operation, so tests can kill an AStore server mid-write or partition a
//! replica without any special hooks in the code under test.
//!
//! When a [`TraceLog`] is attached (done by
//! [`ClusterSpec::build`](crate::cluster::ClusterSpec::build)), the
//! timestamped injection variants ([`crash_at`](FaultPlan::crash_at),
//! [`partition_at`](FaultPlan::partition_at), …) additionally record each
//! injection as an instantaneous `fault/<op>` trace event carrying the
//! node id, so chaos runs can correlate failures with latency spikes in
//! the exported report. The un-timestamped originals stay silent — they
//! have no virtual clock to stamp.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::time::VTime;
use crate::trace::TraceLog;

/// Identifier of a simulated node (assigned by the node registry).
pub type NodeId = u32;

/// Shared failure-injection state.
///
/// Every RDMA verb and RPC asks [`is_crashed`](Self::is_crashed) and
/// [`is_partitioned`](Self::is_partitioned), and in a fault-free run the
/// answer is always no. So each set has an atomic count of its members,
/// written under the set's write lock (Release) and read first (Acquire):
/// while it is zero, the predicate answers without taking the lock.
#[derive(Default)]
pub struct FaultPlan {
    crashed: RwLock<HashSet<NodeId>>,
    crashed_n: AtomicUsize,
    /// Partitioned nodes: alive (state intact, heartbeats may be stale) but
    /// unreachable over the fabric — every message to them is dropped.
    partitioned: RwLock<HashSet<NodeId>>,
    partitioned_n: AtomicUsize,
    /// f64 bits of the message-drop probability.
    drop_prob_bits: AtomicU64,
    /// Trace log fault events are recorded into, when attached.
    trace: RwLock<Option<Arc<TraceLog>>>,
}

impl FaultPlan {
    /// A plan with nothing failing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark `node` crashed: RDMA and RPC operations against it fail until
    /// [`FaultPlan::restore`].
    pub fn crash(&self, node: NodeId) {
        let mut crashed = self.crashed.write();
        crashed.insert(node);
        self.crashed_n.store(crashed.len(), Ordering::Release);
    }

    /// Bring `node` back (its persistent state — PMem contents — survives;
    /// volatile state does not; that split is enforced by `vedb-pmem`).
    pub fn restore(&self, node: NodeId) {
        let mut crashed = self.crashed.write();
        crashed.remove(&node);
        self.crashed_n.store(crashed.len(), Ordering::Release);
    }

    /// Is `node` currently crashed?
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed_n.load(Ordering::Acquire) > 0 && self.crashed.read().contains(&node)
    }

    /// Number of currently-crashed nodes.
    pub fn crashed_count(&self) -> usize {
        self.crashed_n.load(Ordering::Acquire)
    }

    /// Partition `node` off the network: it stays up (volatile state
    /// intact, unlike [`FaultPlan::crash`]) but every message to it is
    /// dropped until [`FaultPlan::heal`].
    pub fn partition(&self, node: NodeId) {
        let mut partitioned = self.partitioned.write();
        partitioned.insert(node);
        self.partitioned_n
            .store(partitioned.len(), Ordering::Release);
    }

    /// Heal a network partition injected by [`FaultPlan::partition`].
    pub fn heal(&self, node: NodeId) {
        let mut partitioned = self.partitioned.write();
        partitioned.remove(&node);
        self.partitioned_n
            .store(partitioned.len(), Ordering::Release);
    }

    /// Is `node` currently partitioned off the network?
    pub fn is_partitioned(&self, node: NodeId) -> bool {
        self.partitioned_n.load(Ordering::Acquire) > 0 && self.partitioned.read().contains(&node)
    }

    /// Set the probability in `[0,1]` that any single message is dropped.
    pub fn set_drop_prob(&self, p: f64) {
        self.drop_prob_bits
            .store(p.clamp(0.0, 1.0).to_bits(), Ordering::Relaxed);
    }

    /// Current message-drop probability.
    pub fn drop_prob(&self) -> f64 {
        f64::from_bits(self.drop_prob_bits.load(Ordering::Relaxed))
    }

    /// Attach the trace log the timestamped injection variants record
    /// into. [`ClusterSpec::build`](crate::cluster::ClusterSpec::build)
    /// wires the deployment's log here so chaos suites get fault events in
    /// their exported reports for free.
    pub fn attach_trace(&self, trace: Arc<TraceLog>) {
        *self.trace.write() = Some(trace);
    }

    fn note(&self, at: VTime, op: &'static str, node: NodeId) {
        if let Some(t) = self.trace.read().as_ref() {
            t.instant(at, "fault", op, node as u64);
        }
    }

    /// [`crash`](Self::crash) plus a `fault/crash` trace event at virtual
    /// time `at`.
    pub fn crash_at(&self, at: VTime, node: NodeId) {
        self.crash(node);
        self.note(at, "crash", node);
    }

    /// [`restore`](Self::restore) plus a `fault/restore` trace event.
    pub fn restore_at(&self, at: VTime, node: NodeId) {
        self.restore(node);
        self.note(at, "restore", node);
    }

    /// [`partition`](Self::partition) plus a `fault/partition` trace event.
    pub fn partition_at(&self, at: VTime, node: NodeId) {
        self.partition(node);
        self.note(at, "partition", node);
    }

    /// [`heal`](Self::heal) plus a `fault/heal` trace event.
    pub fn heal_at(&self, at: VTime, node: NodeId) {
        self.heal(node);
        self.note(at, "heal", node);
    }

    /// [`set_drop_prob`](Self::set_drop_prob) plus a trace event:
    /// `fault/drops_on` when `p > 0`, `fault/drops_off` when the
    /// probability returns to zero. The node field is unused (drops are
    /// fabric-wide) and recorded as 0.
    pub fn set_drop_prob_at(&self, at: VTime, p: f64) {
        self.set_drop_prob(p);
        self.note(at, if p > 0.0 { "drops_on" } else { "drops_off" }, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_and_restore() {
        let f = FaultPlan::new();
        assert!(!f.is_crashed(3));
        f.crash(3);
        f.crash(5);
        assert!(f.is_crashed(3));
        assert_eq!(f.crashed_count(), 2);
        f.restore(3);
        assert!(!f.is_crashed(3));
        assert!(f.is_crashed(5));
    }

    #[test]
    fn partition_and_heal() {
        let f = FaultPlan::new();
        assert!(!f.is_partitioned(2));
        f.partition(2);
        assert!(f.is_partitioned(2));
        assert!(!f.is_crashed(2), "partition must not imply crash");
        f.heal(2);
        assert!(!f.is_partitioned(2));
    }

    #[test]
    fn lock_free_counts_follow_crash_restore_partition_heal() {
        let f = FaultPlan::new();
        let state = |f: &FaultPlan| {
            [
                (f.is_crashed(1), f.is_partitioned(1)),
                (f.is_crashed(2), f.is_partitioned(2)),
            ]
        };
        assert_eq!(state(&f), [(false, false), (false, false)]);
        f.crash(1);
        assert_eq!(state(&f), [(true, false), (false, false)]);
        assert_eq!(f.crashed_count(), 1);
        f.crash(1); // idempotent: the count follows the set
        assert_eq!(f.crashed_count(), 1);
        f.restore(1);
        assert_eq!(state(&f), [(false, false), (false, false)]);
        assert_eq!(f.crashed_count(), 0);
        f.partition(2);
        assert_eq!(state(&f), [(false, false), (false, true)]);
        f.partition(1);
        assert_eq!(state(&f), [(false, true), (false, true)]);
        f.heal(2);
        assert_eq!(state(&f), [(false, true), (false, false)]);
        f.heal(1);
        f.heal(1); // healing a healed node leaves the count at zero
        assert_eq!(state(&f), [(false, false), (false, false)]);
        assert_eq!(f.partitioned_n.load(Ordering::Acquire), 0);
    }

    #[test]
    fn timestamped_injections_record_trace_instants() {
        let f = FaultPlan::new();
        // Without an attached trace, the *_at variants still inject.
        f.crash_at(VTime::from_millis(1), 4);
        assert!(f.is_crashed(4));

        let log = Arc::new(TraceLog::new(16));
        log.enable();
        f.attach_trace(Arc::clone(&log));
        f.restore_at(VTime::from_millis(2), 4);
        f.partition_at(VTime::from_millis(3), 5);
        f.heal_at(VTime::from_millis(4), 5);
        f.set_drop_prob_at(VTime::from_millis(5), 0.3);
        f.set_drop_prob_at(VTime::from_millis(6), 0.0);
        assert!(!f.is_crashed(4));
        assert!(!f.is_partitioned(5));
        assert_eq!(f.drop_prob(), 0.0);

        let evs = log.events();
        let ops: Vec<&str> = evs.iter().map(|e| e.op).collect();
        assert_eq!(
            ops,
            ["restore", "partition", "heal", "drops_on", "drops_off"]
        );
        assert!(evs.iter().all(|e| e.component == "fault"));
        assert_eq!(evs[0].client, 4);
        assert_eq!(evs[1].start, VTime::from_millis(3));
    }

    #[test]
    fn drop_probability_roundtrip_and_clamp() {
        let f = FaultPlan::new();
        assert_eq!(f.drop_prob(), 0.0);
        f.set_drop_prob(0.25);
        assert!((f.drop_prob() - 0.25).abs() < 1e-12);
        f.set_drop_prob(7.0);
        assert_eq!(f.drop_prob(), 1.0);
        f.set_drop_prob(-1.0);
        assert_eq!(f.drop_prob(), 0.0);
    }
}
