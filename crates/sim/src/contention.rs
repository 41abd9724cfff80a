//! Lock-contention accounting: per-table wait/hold statistics and the
//! top-K contended keys.
//!
//! The engine's lock manager (in `vedb-core`) reports three events into a
//! deployment-wide [`LockContention`] instance (held by the
//! [`MetricsRegistry`](crate::metrics::MetricsRegistry), like the trace
//! log): an *acquire* on an index space, a *wait* (the acquirer's virtual
//! clock had to jump past a conflicting release) and a *hold* (grant to
//! release). Aggregation happens per index space — labelled with the table
//! or index name by the engine's catalog — plus a per-key table that only
//! materialises keys which actually experienced a wait, so memory stays
//! proportional to contention rather than to the working set.
//!
//! [`LockContention::snapshot`] folds the state into a deterministic
//! [`LockProfile`] (BTreeMap per-table stats, top-K keys sorted by total
//! wait time with a `(space, key)` tiebreak) which
//! [`Profile`](crate::profile::Profile) embeds in the run report.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::metrics::LatencyRecorder;
use crate::time::VTime;

/// How many contended keys a snapshot reports by default.
pub const DEFAULT_TOP_K: usize = 8;

/// Per-space (table or index) live accumulators.
#[derive(Default)]
struct SpaceStats {
    /// Lock grants on this space.
    acquires: std::sync::atomic::AtomicU64,
    /// Grants that had to wait for a conflicting release.
    waits: std::sync::atomic::AtomicU64,
    /// Virtual-time wait distribution (only contended grants record).
    wait_lat: LatencyRecorder,
    /// Grant-to-release hold-time distribution (every release records).
    hold_lat: LatencyRecorder,
}

impl SpaceStats {
    fn note_acquire(&self) {
        self.acquires
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    fn note_wait(&self, wait: VTime) {
        self.waits
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.wait_lat.record(wait);
    }

    fn note_hold(&self, hold: VTime) {
        self.hold_lat.record(hold);
    }
}

/// Per-key wait accumulator (only keys that experienced ≥1 wait exist).
#[derive(Clone, Copy, Default)]
struct KeyWait {
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

/// Deployment-wide lock-contention accounting (see module docs).
#[derive(Default)]
pub struct LockContention {
    /// Index space → table/index name, set by the engine's catalog.
    labels: RwLock<BTreeMap<u32, String>>,
    /// Per-space accumulators.
    spaces: RwLock<BTreeMap<u32, Arc<SpaceStats>>>,
    /// Per-key wait totals, populated on first wait only.
    hot: Mutex<HashMap<(u32, Vec<u8>), KeyWait>>,
}

impl LockContention {
    /// Fresh, empty accounting.
    pub fn new() -> Self {
        Self::default()
    }

    /// Label `space` with a human-readable table/index name for reports.
    pub fn set_label(&self, space: u32, name: impl Into<String>) {
        self.labels.write().insert(space, name.into());
    }

    /// Get-or-create the accumulator for `space`. Read-locks on the hit
    /// path.
    fn space(&self, space: u32) -> Arc<SpaceStats> {
        if let Some(s) = self.spaces.read().get(&space) {
            return Arc::clone(s);
        }
        Arc::clone(
            self.spaces
                .write()
                .entry(space)
                .or_insert_with(|| Arc::new(SpaceStats::default())),
        )
    }

    /// Record one lock grant on `space`.
    pub fn note_acquire(&self, space: u32) {
        self.space(space).note_acquire();
    }

    /// Record a contended grant: the acquirer waited `wait` virtual time on
    /// `key` before running.
    pub fn note_wait(&self, space: u32, key: &[u8], wait: VTime) {
        self.space(space).note_wait(wait);
        let mut hot = self.hot.lock();
        let e = hot.entry((space, key.to_vec())).or_default();
        e.count += 1;
        e.total_ns += wait.as_nanos();
        e.max_ns = e.max_ns.max(wait.as_nanos());
    }

    /// Record a release: the lock was held for `hold` virtual time.
    pub fn note_hold(&self, space: u32, hold: VTime) {
        self.space(space).note_hold(hold);
    }

    /// Fold the live state into a deterministic [`LockProfile`] with at
    /// most `top_k` hot keys.
    pub fn snapshot(&self, top_k: usize) -> LockProfile {
        let labels = self.labels.read();
        let label_of = |space: u32| -> String {
            labels
                .get(&space)
                .cloned()
                .unwrap_or_else(|| format!("space-{space}"))
        };
        let tables: BTreeMap<String, TableLockStat> = self
            .spaces
            .read()
            .iter()
            .map(|(space, st)| {
                (
                    label_of(*space),
                    TableLockStat {
                        space: *space,
                        acquires: st.acquires.load(std::sync::atomic::Ordering::Relaxed),
                        waits: st.waits.load(std::sync::atomic::Ordering::Relaxed),
                        wait_total_ns: st.wait_lat.total().as_nanos(),
                        wait_p99_ns: st.wait_lat.p99().as_nanos(),
                        wait_max_ns: st.wait_lat.max().as_nanos(),
                        holds: st.hold_lat.count(),
                        hold_total_ns: st.hold_lat.total().as_nanos(),
                        hold_p50_ns: st.hold_lat.p50().as_nanos(),
                        hold_p99_ns: st.hold_lat.p99().as_nanos(),
                        hold_max_ns: st.hold_lat.max().as_nanos(),
                    },
                )
            })
            .collect();
        let mut top: Vec<HotKeyStat> = self
            .hot
            .lock()
            .iter()
            .map(|((space, key), w)| HotKeyStat {
                table: label_of(*space),
                space: *space,
                key_hex: hex(key),
                waits: w.count,
                wait_total_ns: w.total_ns,
                wait_max_ns: w.max_ns,
            })
            .collect();
        // Deterministic order: heaviest wait first, then (space, key).
        top.sort_by(|a, b| {
            b.wait_total_ns
                .cmp(&a.wait_total_ns)
                .then(a.space.cmp(&b.space))
                .then(a.key_hex.cmp(&b.key_hex))
        });
        top.truncate(top_k);
        LockProfile { tables, top }
    }
}

/// Folded per-table lock statistics (one snapshot entry).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TableLockStat {
    /// Index space number the label resolves to.
    pub space: u32,
    /// Lock grants.
    pub acquires: u64,
    /// Grants that waited for a conflicting release.
    pub waits: u64,
    /// Sum of virtual wait time, ns.
    pub wait_total_ns: u64,
    /// P99 wait, ns.
    pub wait_p99_ns: u64,
    /// Max wait, ns (exact).
    pub wait_max_ns: u64,
    /// Releases that recorded a hold interval.
    pub holds: u64,
    /// Sum of grant-to-release hold time, ns.
    pub hold_total_ns: u64,
    /// Median hold, ns.
    pub hold_p50_ns: u64,
    /// P99 hold, ns.
    pub hold_p99_ns: u64,
    /// Max hold, ns (exact).
    pub hold_max_ns: u64,
}

/// One row of the top-K contended-lock table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HotKeyStat {
    /// Table/index label of the key's space.
    pub table: String,
    /// Index space number.
    pub space: u32,
    /// Encoded row key, hex.
    pub key_hex: String,
    /// Number of waits on this key.
    pub waits: u64,
    /// Sum of virtual wait time, ns.
    pub wait_total_ns: u64,
    /// Longest single wait, ns.
    pub wait_max_ns: u64,
}

/// Deterministic snapshot of the deployment's lock contention.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LockProfile {
    /// Per-table statistics, keyed by catalog label (or `space-N`).
    pub tables: BTreeMap<String, TableLockStat>,
    /// Top-K contended keys by total wait time.
    pub top: Vec<HotKeyStat>,
}

impl LockProfile {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

fn hex(bytes: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(s, "{b:02x}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquires_waits_and_holds_aggregate_per_space() {
        let c = LockContention::new();
        c.set_label(3, "warehouse");
        c.note_acquire(3);
        c.note_acquire(3);
        c.note_wait(3, b"w1", VTime::from_micros(10));
        c.note_hold(3, VTime::from_micros(50));
        c.note_hold(3, VTime::from_micros(150));
        let p = c.snapshot(4);
        let t = &p.tables["warehouse"];
        assert_eq!(t.space, 3);
        assert_eq!(t.acquires, 2);
        assert_eq!(t.waits, 1);
        assert_eq!(t.wait_total_ns, 10_000);
        assert_eq!(t.holds, 2);
        assert_eq!(t.hold_total_ns, 200_000);
        assert_eq!(t.hold_max_ns, 150_000);
    }

    #[test]
    fn unlabelled_space_gets_a_placeholder() {
        let c = LockContention::new();
        c.note_acquire(9);
        let p = c.snapshot(4);
        assert!(p.tables.contains_key("space-9"));
    }

    #[test]
    fn top_k_sorted_by_wait_with_deterministic_tiebreak() {
        let c = LockContention::new();
        c.set_label(1, "district");
        c.note_wait(1, b"\x01", VTime::from_micros(5));
        c.note_wait(1, b"\x01", VTime::from_micros(5));
        c.note_wait(1, b"\x02", VTime::from_micros(7));
        c.note_wait(2, b"\x00", VTime::from_micros(7));
        let p = c.snapshot(2);
        assert_eq!(p.top.len(), 2);
        // 01 has 10us total, then ties at 7us break by space.
        assert_eq!(p.top[0].key_hex, "01");
        assert_eq!(p.top[0].waits, 2);
        assert_eq!(p.top[0].wait_total_ns, 10_000);
        assert_eq!(p.top[1].space, 1);
        assert_eq!(p.top[1].key_hex, "02");
        assert_eq!(p.top[1].table, "district");
    }

    #[test]
    fn only_contended_keys_materialise() {
        let c = LockContention::new();
        for i in 0..100u8 {
            c.note_acquire(1);
            c.note_hold(1, VTime::from_nanos(i as u64));
        }
        c.note_wait(1, b"hot", VTime::from_micros(1));
        assert_eq!(c.hot.lock().len(), 1);
    }
}
