//! A failed backend append must not lose the flush it was part of.
//!
//! `Wal::flush` takes the whole log buffer before it writes. When the
//! backend then fails (the ring reports `LogFull`, a replacement segment
//! cannot be created), the bytes the backend did not take have to go back:
//! dropping them lets a later `flush` of a commit that was in the taken
//! buffer return `Ok` with nothing written — an acked commit that never
//! reached the log — and lands every later record at a backend offset that
//! disagrees with its LSN.
//!
//! For both flush policies, every write size (one append per flush, frames
//! merged, frames torn across appends) and every position of the failing
//! append:
//!
//! 1. a `flush(lsn)` that returns `Ok` means `flushed_lsn() > lsn` and the
//!    backend holds that commit's whole frame at `lsn`;
//! 2. once the backend works again, its stream parses to exactly the
//!    logged commits, each at its LSN;
//! 3. `core.wal_bytes_flushed == core.wal_bytes_logged` — nothing dropped,
//!    nothing written twice.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use vedb_astore::{AStoreError, Lsn};
use vedb_core::wal::{iter_frames, FlushPolicy, LogBackend, Wal, WalRecord};
use vedb_core::{EngineError, Result};
use vedb_sim::{MetricsRegistry, SimCtx, VTime};

/// `[len u32][tag u8][txn_id u64]`.
const COMMIT_FRAME: u64 = 13;

/// In-memory log whose `fail_in`-th record from now fails, once: the
/// batch's records before it are taken, it and the rest are not.
#[derive(Clone)]
struct FlakyLog {
    stream: Arc<Mutex<Vec<u8>>>,
    fail_in: Arc<AtomicU64>,
    max_append: usize,
}

impl LogBackend for FlakyLog {
    fn next_lsn(&self) -> Lsn {
        self.stream.lock().len() as u64
    }

    fn max_append(&self) -> usize {
        self.max_append
    }

    fn append_batch(&self, ctx: &mut SimCtx, records: &[&[u8]]) -> Result<Vec<Lsn>> {
        let mut lsns = Vec::with_capacity(records.len());
        for bytes in records {
            assert!(bytes.len() <= self.max_append);
            if self.fail_in.load(Ordering::Relaxed) > 0
                && self.fail_in.fetch_sub(1, Ordering::Relaxed) == 1
            {
                return Err(EngineError::AStore(AStoreError::LogFull));
            }
            ctx.advance(VTime::from_micros(20));
            let mut stream = self.stream.lock();
            lsns.push(stream.len() as u64);
            stream.extend_from_slice(bytes);
        }
        Ok(lsns)
    }

    fn read_from(&self, _ctx: &mut SimCtx, lsn: Lsn) -> Result<(Lsn, Vec<u8>)> {
        Ok((lsn, self.stream.lock()[lsn as usize..].to_vec()))
    }

    fn truncate(&self, _ctx: &mut SimCtx, _upto: Lsn) -> Result<()> {
        Ok(())
    }
}

/// Returns whether the run got as far as the failing append.
fn one_failed_append(policy: FlushPolicy, max_append: usize, fail_in: u64) -> bool {
    let case = format!("{policy:?}, max_append {max_append}, append {fail_in} fails");
    let backend = FlakyLog {
        stream: Arc::default(),
        fail_in: Arc::default(),
        max_append,
    };
    let reg = MetricsRegistry::new();
    let wal = Wal::with_metrics(Box::new(backend.clone()), policy, &reg);
    let mut ctx = SimCtx::new(1, 7);
    // An `Ok` flush is an ack: the commit's frame is in the backend.
    let flush = |ctx: &mut SimCtx, lsn: Lsn| {
        let acked = wal.flush(ctx, lsn).is_ok();
        if acked {
            assert!(
                wal.flushed_lsn() > lsn,
                "{case}: flush({lsn}) acked with the watermark at {}",
                wal.flushed_lsn()
            );
            assert!(
                backend.next_lsn() >= lsn + COMMIT_FRAME,
                "{case}: flush({lsn}) acked with {} bytes in the backend",
                backend.next_lsn()
            );
        }
        acked
    };

    // Two commits share the buffer the failing flush takes.
    let l1 = wal.log(&mut ctx, &WalRecord::Commit { txn_id: 1 }).unwrap();
    let l2 = wal.log(&mut ctx, &WalRecord::Commit { txn_id: 2 }).unwrap();
    backend.fail_in.store(fail_in, Ordering::Relaxed);
    flush(&mut ctx, l1);
    flush(&mut ctx, l2);
    let l3 = wal.log(&mut ctx, &WalRecord::Commit { txn_id: 3 }).unwrap();
    assert_eq!([l1, l2, l3], [0, COMMIT_FRAME, 2 * COMMIT_FRAME]);
    // The failure is one-shot: within two more tries everything is acked.
    for lsn in [l3, l1, l2, l3] {
        flush(&mut ctx, lsn);
    }
    assert!(flush(&mut ctx, l3), "{case}: the backend works again");

    let stream = backend.stream.lock().clone();
    let commit = |txn_id| WalRecord::Commit { txn_id };
    assert_eq!(
        iter_frames(0, &stream),
        [(l1, commit(1)), (l2, commit(2)), (l3, commit(3))],
        "{case}: the stream is the logged commits at their LSNs"
    );
    assert_eq!(wal.flushed_lsn(), stream.len() as u64, "{case}");
    let counters = reg.counter_values();
    assert_eq!(
        counters["core.wal_bytes_flushed"], counters["core.wal_bytes_logged"],
        "{case}: every logged byte reached the backend once"
    );
    backend.fail_in.load(Ordering::Relaxed) == 0
}

fn every_failure_position(policy: FlushPolicy) {
    // One append per flush; whole frames, one per append; frames torn
    // across appends (13-byte frames in 5-byte writes).
    for max_append in [usize::MAX, 16, 5] {
        let mut fail_in = 1;
        while one_failed_append(policy, max_append, fail_in) {
            fail_in += 1;
        }
        assert!(fail_in > 2, "both flushes' appends were failed in turn");
    }
}

#[test]
fn per_commit_flush_survives_a_failed_append() {
    every_failure_position(FlushPolicy::PerCommit);
}

#[test]
fn group_flush_survives_a_failed_append() {
    every_failure_position(FlushPolicy::Group {
        max_batch_bytes: 4096,
        max_wait: VTime::from_micros(200),
    });
}
