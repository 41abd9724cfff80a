//! The multi-client virtual-time trial driver.
//!
//! Each simulated client has its own virtual clock and runs under the
//! [`run_clients`] baton: between operations a client yields, so the next
//! operation always belongs to the client with the lowest clock and a
//! trial's interleaving is a function of its seed. A trial has a warm-up
//! phase (operations run, nothing recorded) and a measurement window;
//! throughput is committed operations per virtual second of the window, and
//! the latency histogram collects per-operation virtual durations. Resource
//! contention (engine CPU, PMem lanes, SSD channels, NIC links) and lock
//! contention are shared across clients, so throughput saturates and
//! collapses exactly where the simulated hardware says it should.

use vedb_core::EngineError;
use vedb_sim::{run_clients, LatencyRecorder, SimCtx, TrialResult, VTime};

/// Trial shape.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Concurrent clients.
    pub clients: usize,
    /// Virtual warm-up time per client.
    pub warmup: VTime,
    /// Virtual measurement window per client.
    pub measure: VTime,
    /// Base RNG seed (client seeds derive from it).
    pub seed: u64,
    /// Virtual time the trial starts at. Must be at or after the load
    /// phase's final clock — shared resources and lock-release stamps are
    /// monotonic in virtual time, so clients starting "in the past" would
    /// instantly be catapulted forward and measure nothing.
    pub start: VTime,
}

impl DriverConfig {
    /// A quick configuration for tests.
    pub fn quick(clients: usize) -> DriverConfig {
        DriverConfig {
            clients,
            warmup: VTime::from_millis(5),
            measure: VTime::from_millis(100),
            seed: 42,
            start: VTime::ZERO,
        }
    }

    /// Start the trial at `t` (the load phase's final clock).
    pub fn starting_at(mut self, t: VTime) -> DriverConfig {
        self.start = t;
        self
    }
}

/// Outcome of one client operation.
pub enum OpOutcome {
    /// Committed work (counted, latency recorded).
    Committed,
    /// Aborted/retried work (counted separately).
    Aborted,
    /// Bookkeeping that should not count as an operation (e.g. think time).
    Skip,
}

/// The outcome of one transaction, from what
/// [`Db::transact`](vedb_core::db::Db::transact) answered: committed, or
/// rolled back (the workload's own rollback, or a retryable error: a lock
/// timeout — a deadlock victim — or a duplicate key two clients raced
/// for). Any other error is a fault in the workload or the engine, and
/// panics.
pub fn outcome(r: vedb_core::Result<bool>) -> OpOutcome {
    match r {
        Ok(true) => OpOutcome::Committed,
        Ok(false)
        | Err(EngineError::LockTimeout { .. })
        | Err(EngineError::DuplicateKey { .. }) => OpOutcome::Aborted,
        Err(e) => panic!("transaction failed: {e}"),
    }
}

/// Run a trial: `op` is invoked repeatedly per client until its clock
/// passes warm-up + measurement. Returns aggregate counts over the
/// measurement window only.
pub fn run_trial<F>(cfg: &DriverConfig, op: F) -> TrialResult
where
    F: Fn(&mut SimCtx, usize) -> OpOutcome + Sync,
{
    let latency = LatencyRecorder::new();
    let end = cfg.start + cfg.warmup + cfg.measure;
    let record_from = cfg.start + cfg.warmup;

    let counts = run_clients(cfg.clients, cfg.seed, cfg.start, |ctx, client| {
        let (mut committed, mut aborted) = (0u64, 0u64);
        while ctx.now() < end {
            // Whoever is furthest behind in virtual time goes next.
            ctx.yield_now();
            let t0 = ctx.now();
            let outcome = op(ctx, client);
            // Guard against operations that charge nothing (would
            // spin forever in virtual time).
            if ctx.now() == t0 {
                ctx.advance(VTime::from_nanos(100));
            }
            // Steady-state accounting: count an operation in the
            // window its *completion* falls into, so a flood of
            // first-operations from a large client fleet cannot
            // inflate the measured window.
            let done = ctx.now();
            if done < record_from || done > end {
                continue;
            }
            match outcome {
                OpOutcome::Committed => {
                    committed += 1;
                    latency.record(ctx.now() - t0);
                }
                OpOutcome::Aborted => aborted += 1,
                OpOutcome::Skip => {}
            }
        }
        (committed, aborted)
    });

    let mut result = TrialResult::new(cfg.measure);
    result.committed = counts.iter().map(|c| c.0).sum();
    result.aborted = counts.iter().map(|c| c.1).sum();
    result.latency.merge(&latency);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_counts_only_measurement_window() {
        let cfg = DriverConfig {
            clients: 4,
            warmup: VTime::from_millis(10),
            measure: VTime::from_millis(100),
            seed: 1,
            start: VTime::ZERO,
        };
        // Every op takes exactly 1ms of virtual time.
        let result = run_trial(&cfg, |ctx, _| {
            ctx.advance(VTime::from_millis(1));
            OpOutcome::Committed
        });
        // 4 clients x 100 ops in the window (first op of the window may
        // straddle the boundary).
        assert!(
            (380..=404).contains(&(result.committed as i64)),
            "expected ~400 committed, got {}",
            result.committed
        );
        let tps = result.throughput();
        assert!(
            (3500.0..=4200.0).contains(&tps),
            "expected ~4000 ops/s, got {tps}"
        );
        // Latency histogram reflects the 1ms ops.
        let p50 = result.latency.p50().as_millis_f64();
        assert!((0.9..=1.1).contains(&p50), "p50 should be ~1ms, got {p50}");
    }

    #[test]
    fn aborts_counted_separately() {
        let cfg = DriverConfig::quick(2);
        let result = run_trial(&cfg, |ctx, _| {
            ctx.advance(VTime::from_micros(100));
            if ctx.rng().gen_bool(0.5) {
                OpOutcome::Aborted
            } else {
                OpOutcome::Committed
            }
        });
        assert!(result.committed > 0);
        assert!(result.aborted > 0);
    }

    #[test]
    fn zero_cost_ops_do_not_hang() {
        let cfg = DriverConfig::quick(1);
        let result = run_trial(&cfg, |_ctx, _| OpOutcome::Skip);
        assert_eq!(result.committed, 0);
    }

    #[test]
    fn panicking_client_does_not_hang_the_fleet() {
        // A client whose op panics must not strand the survivors waiting
        // for the baton: it passes it on, the fleet drains, and the panic
        // resurfaces from `run_clients` instead of a deadlock.
        let cfg = DriverConfig::quick(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_trial(&cfg, |ctx, client| {
                ctx.advance(VTime::from_millis(1));
                if client == 0 && ctx.now() > VTime::from_millis(20) {
                    panic!("injected client fault");
                }
                OpOutcome::Committed
            })
        }));
        assert!(result.is_err(), "the injected panic must propagate");
    }
}
