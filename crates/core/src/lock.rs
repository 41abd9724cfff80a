//! Row-level two-phase locking, aware of virtual time.
//!
//! Locks are keyed by `(index space, encoded primary key)`. A client that
//! finds an incompatible holder parks ([`SimCtx::park`]) and `release`
//! wakes it, and the *virtual* cost of waiting is accounted by stamping
//! each key with the virtual time of its last conflicting release: a waiter
//! that is granted the lock advances its clock to that stamp. Hot-row
//! contention therefore serializes transactions in virtual time exactly as
//! it would on the real system — which is what the order-processing
//! experiment (Fig. 8) is about.
//!
//! Deadlocks are broken by a virtual wait budget ([`LOCK_WAIT_BUDGET`]): the
//! victim is the waiter whose deadline is the lowest time on the board — a
//! function of the clocks. It aborts and the workload retries (the
//! behaviour MySQL-family engines exhibit).

use std::sync::Arc;

use parking_lot::Mutex;
use vedb_sim::metrics::{Counter, LatencyRecorder};
use vedb_sim::trace::TraceLog;
use vedb_sim::{FxHashMap, LockContention, MetricsRegistry, SimCtx, VTime, Waker};

use crate::{EngineError, Result};

/// Longest virtual time a client waits for a row lock before it is declared
/// the deadlock victim.
pub const LOCK_WAIT_BUDGET: VTime = VTime::from_millis(200);

/// Hash shards of the lock table. A shard's mutex guards its keys, and a
/// release wakes every client parked on any key of the shard.
pub const LOCK_SHARDS: usize = 64;

/// Lock key: (index space, encoded row key).
pub type LockKey = (u32, Vec<u8>);

/// Lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (readers).
    Shared,
    /// Exclusive (writers).
    Exclusive,
}

#[derive(Default)]
struct LockState {
    /// (txn id, mode, grant vtime) for each holder. Multiple Shared
    /// holders, or exactly one Exclusive holder. The grant stamp is the
    /// holder's virtual clock at acquisition, so release can attribute the
    /// hold interval to the contention profile.
    holders: Vec<(u64, LockMode, VTime)>,
    /// Virtual time of the most recent release of *any* mode (an exclusive
    /// acquirer runs after every prior holder).
    last_any_release: VTime,
    /// Virtual time of the most recent *exclusive* release (a shared
    /// acquirer only waits for writers — readers never serialize readers).
    last_x_release: VTime,
}

#[derive(Default)]
struct ShardTable {
    locks: FxHashMap<LockKey, LockState>,
    /// Clients parked on a key of this shard; every release wakes them all
    /// to look again.
    waiters: Vec<Waker>,
}

/// The lock manager.
pub struct LockManager {
    shards: Vec<Mutex<ShardTable>>,
    acquires: Arc<Counter>,
    waits: Arc<Counter>,
    timeouts: Arc<Counter>,
    wait_lat: Arc<LatencyRecorder>,
    trace: Arc<TraceLog>,
    /// Per-space (table/index) contention profile: wait-for counts, hold
    /// histograms, and the hot-key table surfaced in run reports.
    contention: Arc<LockContention>,
}

impl LockManager {
    /// Create a manager of [`LOCK_SHARDS`] shards, publishing lock counters
    /// into `registry`.
    pub fn new(registry: &MetricsRegistry) -> LockManager {
        LockManager {
            shards: (0..LOCK_SHARDS).map(|_| Mutex::default()).collect(),
            acquires: registry.counter("core", "lock_acquires"),
            waits: registry.counter("core", "lock_waits"),
            timeouts: registry.counter("core", "lock_timeouts"),
            wait_lat: registry.latency("core", "lock_wait"),
            trace: Arc::clone(registry.trace()),
            contention: Arc::clone(registry.lock_contention()),
        }
    }

    /// Label `space` in the contention profile (reports render the label
    /// instead of a bare space number). Called by the catalog when tables
    /// and indexes are defined.
    pub fn set_space_label(&self, space: u32, label: impl Into<String>) {
        self.contention.set_label(space, label);
    }

    fn shard_of(&self, key: &LockKey) -> &Mutex<ShardTable> {
        let mut h = key.0 as u64;
        for &b in &key.1 {
            h = h.wrapping_mul(0x100_0000_01b3) ^ b as u64;
        }
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    fn compatible(state: &LockState, txn: u64, mode: LockMode) -> bool {
        if state.holders.is_empty() {
            return true;
        }
        if state.holders.iter().all(|(t, _, _)| *t == txn) {
            // Re-entrant (covers upgrade by the sole holder).
            return true;
        }
        mode == LockMode::Shared && state.holders.iter().all(|(_, m, _)| *m == LockMode::Shared)
    }

    /// Acquire `key` in `mode` for `txn`; `Ok(true)` when `txn` already held
    /// it, so the caller copies the key into its own list only the first
    /// time. A shared request for a key `txn` holds in either mode returns
    /// at once, counting nothing. Otherwise parks until granted, so the
    /// caller must hold no host lock and no page latch; its virtual clock
    /// is advanced past the conflicting release. Returns `LockTimeout` once
    /// the wait has used up [`LOCK_WAIT_BUDGET`]. The key is copied only
    /// when the table first sees it.
    pub fn acquire(
        &self,
        ctx: &mut SimCtx,
        txn: u64,
        key: &LockKey,
        mode: LockMode,
    ) -> Result<bool> {
        let shard = self.shard_of(key);
        let deadline = ctx.now() + LOCK_WAIT_BUDGET;
        // Opened at the clock of the call, before any park and never under
        // a shard lock. Timeout (deadlock-victim) paths drop the guard →
        // abandoned span.
        let mut sp = None;
        loop {
            let mut table = shard.lock();
            let state = match table.locks.get_mut(key) {
                Some(state) => state,
                None => table.locks.entry(key.clone()).or_default(),
            };
            let held = state.holders.iter().position(|(t, _, _)| *t == txn);
            if held.is_some() && mode == LockMode::Shared {
                return Ok(true);
            }
            if Self::compatible(state, txn, mode) {
                let release = match mode {
                    LockMode::Shared => state.last_x_release,
                    LockMode::Exclusive => state.last_any_release,
                };
                // Grant stamp == the acquirer's clock after the virtual
                // wait below; an upgrade keeps the original grant (the
                // hold started at the first acquisition).
                let grant = ctx.now().max(release);
                match held {
                    // An exclusive request by a holder: the upgrade.
                    Some(h) => state.holders[h].1 = LockMode::Exclusive,
                    None => state.holders.push((txn, mode, grant)),
                }
                drop(table);
                let sp = sp.unwrap_or_else(|| self.trace.span(ctx, "lock", "wait"));
                self.acquires.inc();
                self.contention.note_acquire(key.0);
                if release > ctx.now() {
                    self.waits.inc();
                    self.wait_lat.record(release - ctx.now());
                    self.contention
                        .note_wait(key.0, &key.1, release - ctx.now());
                }
                // Account the virtual wait: we run after the conflicting
                // holder's release.
                ctx.wait_until(release);
                sp.finish(ctx);
                return Ok(held.is_some());
            }
            table.waiters.push(ctx.waker());
            drop(table);
            if sp.is_none() {
                sp = Some(self.trace.span(ctx, "lock", "wait"));
            }
            if ctx.park(Some(deadline)) {
                self.timeouts.inc();
                return Err(EngineError::LockTimeout {
                    context: format!("space {} key {:02x?}", key.0, &key.1[..key.1.len().min(8)]),
                });
            }
        }
    }

    /// Release one lock held by `txn`, stamping the release virtual time
    /// (per mode: see `LockState`).
    pub fn release(&self, now: VTime, txn: u64, key: &LockKey) {
        let mut table = self.shard_of(key).lock();
        let mut held = None;
        if let Some(state) = table.locks.get_mut(key) {
            held = state
                .holders
                .iter()
                .find(|(t, _, _)| *t == txn)
                .map(|(_, m, g)| (*m, *g));
            state.holders.retain(|(t, _, _)| *t != txn);
            state.last_any_release = state.last_any_release.max(now);
            if matches!(held, Some((LockMode::Exclusive, _))) {
                state.last_x_release = state.last_x_release.max(now);
            }
        }
        let waiters = std::mem::take(&mut table.waiters);
        drop(table);
        waiters.iter().for_each(Waker::wake);
        if let Some((_, grant)) = held {
            let hold = if now > grant {
                now - grant
            } else {
                VTime::ZERO
            };
            self.contention.note_hold(key.0, hold);
        }
    }

    /// Release every lock in `keys` (commit/abort path).
    pub fn release_all(&self, now: VTime, txn: u64, keys: &[LockKey]) {
        for key in keys {
            self.release(now, txn, key);
        }
    }

    /// Number of keys with at least one holder (tests).
    pub fn held_keys(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .locks
                    // vedb-lint: allow(ordered-serialization, "a count: the order the lock states are visited in cannot change it")
                    .values()
                    .filter(|st| !st.holders.is_empty())
                    .count()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(k: u8) -> LockKey {
        (1, vec![k])
    }

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::new(&MetricsRegistry::detached());
        let mut c1 = SimCtx::new(1, 7);
        let mut c2 = SimCtx::new(2, 7);
        lm.acquire(&mut c1, 1, &key(1), LockMode::Shared).unwrap();
        lm.acquire(&mut c2, 2, &key(1), LockMode::Shared).unwrap();
        assert_eq!(lm.held_keys(), 1);
    }

    #[test]
    fn exclusive_conflicts_and_timeout() {
        let lm = LockManager::new(&MetricsRegistry::detached());
        let mut c1 = SimCtx::new(1, 7);
        let mut c2 = SimCtx::new(2, 7);
        lm.acquire(&mut c1, 1, &key(1), LockMode::Exclusive)
            .unwrap();
        let err = lm.acquire(&mut c2, 2, &key(1), LockMode::Exclusive);
        assert!(matches!(err, Err(EngineError::LockTimeout { .. })));
        // The victim paid the whole budget, in virtual time only.
        assert_eq!(c2.now(), LOCK_WAIT_BUDGET);
    }

    #[test]
    fn reentrant_and_upgrade() {
        let reg = MetricsRegistry::new();
        let lm = LockManager::new(&reg);
        let acquires = reg.counter("core", "lock_acquires");
        let mut c1 = SimCtx::new(1, 7);
        // `true` once the transaction already held the key; a shared
        // request by a holder counts nothing.
        assert!(!lm.acquire(&mut c1, 1, &key(1), LockMode::Shared).unwrap());
        assert!(lm.acquire(&mut c1, 1, &key(1), LockMode::Shared).unwrap());
        assert_eq!(acquires.get(), 1);
        // The upgrade is an acquisition of a key already held.
        assert!(lm
            .acquire(&mut c1, 1, &key(1), LockMode::Exclusive)
            .unwrap());
        assert!(lm.acquire(&mut c1, 1, &key(1), LockMode::Shared).unwrap());
        assert_eq!(acquires.get(), 2);
        // Another txn cannot share now.
        let mut c2 = SimCtx::new(2, 7);
        assert!(lm.acquire(&mut c2, 2, &key(1), LockMode::Shared).is_err());
    }

    #[test]
    fn waiter_inherits_release_vtime() {
        let lm = LockManager::new(&MetricsRegistry::detached());
        let clocks = vedb_sim::run_clients(2, 7, VTime::ZERO, |ctx, client| {
            if client == 0 {
                lm.acquire(ctx, 1, &key(9), LockMode::Exclusive).unwrap();
                // Let the waiter, "early" in vtime, reach the lock and park.
                ctx.advance(VTime::from_millis(1));
                ctx.yield_now();
                // Holder releases at a much later virtual time.
                lm.release(VTime::from_millis(5), 1, &key(9));
            } else {
                ctx.advance(VTime::from_micros(10));
                lm.acquire(ctx, 2, &key(9), LockMode::Exclusive).unwrap();
            }
            ctx.now()
        });
        let waiter_now = clocks[1];
        assert!(
            waiter_now >= VTime::from_millis(5),
            "waiter must be pushed past the release vtime, got {waiter_now}"
        );
    }

    #[test]
    fn contention_profile_records_waits_and_holds() {
        let reg = MetricsRegistry::new();
        let lm = LockManager::new(&reg);
        lm.set_space_label(1, "orders");
        let mut c1 = SimCtx::new(1, 7);
        lm.acquire(&mut c1, 1, &key(3), LockMode::Exclusive)
            .unwrap();
        c1.advance(VTime::from_micros(30));
        lm.release(c1.now(), 1, &key(3));
        // Second txn starts "early": its grant waits on the release stamp.
        let mut c2 = SimCtx::new(2, 7);
        lm.acquire(&mut c2, 2, &key(3), LockMode::Exclusive)
            .unwrap();
        assert_eq!(c2.now(), c1.now());
        lm.release(c2.now(), 2, &key(3));

        let prof = reg.lock_contention().snapshot(4);
        let t = &prof.tables["orders"];
        assert_eq!(t.acquires, 2);
        assert_eq!(t.waits, 1);
        assert_eq!(t.wait_total_ns, 30_000);
        // Both holds recorded; the second hold is zero-length (released at
        // its own grant time).
        assert_eq!(t.holds, 2);
        assert_eq!(t.hold_total_ns, 30_000);
        assert_eq!(prof.top.len(), 1);
        assert_eq!(prof.top[0].key_hex, "03");
        assert_eq!(prof.top[0].table, "orders");
    }

    #[test]
    fn release_all_clears() {
        let lm = LockManager::new(&MetricsRegistry::detached());
        let mut c1 = SimCtx::new(1, 7);
        let keys: Vec<LockKey> = (0..5).map(key).collect();
        for k in &keys {
            lm.acquire(&mut c1, 1, k, LockMode::Exclusive).unwrap();
        }
        assert_eq!(lm.held_keys(), 5);
        lm.release_all(c1.now(), 1, &keys);
        assert_eq!(lm.held_keys(), 0);
        // Re-acquirable by someone else.
        let mut c2 = SimCtx::new(2, 7);
        lm.acquire(&mut c2, 2, &key(0), LockMode::Exclusive)
            .unwrap();
    }
}
