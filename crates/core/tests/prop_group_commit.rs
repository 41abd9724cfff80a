//! Property tests for the group-commit consolidator (ISSUE 8).
//!
//! Under arbitrary interleavings of N virtual committers hammering one
//! [`Wal`], for **both** flush policies:
//!
//! 1. **Ack-after-persist**: at the moment `flush(lsn)` returns to a
//!    committer, that commit's LSN is `<=` the flushed watermark — a
//!    committer is never woken before its bytes are durable, whether it
//!    led the flush or was carried by another leader's batch.
//! 2. **Conservation**: once every committer has returned,
//!    `core.wal_bytes_flushed == core.wal_bytes_logged` — every logged
//!    byte reached the backend exactly once; batching merges writes but
//!    neither drops nor duplicates bytes (same style as
//!    `prop_resource_attribution`).
//! 3. **Stream integrity**: the backend's byte stream parses back into
//!    exactly the records that were logged, with every committer's
//!    commits in its own program order (no reordering across a batch
//!    boundary).

use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;
use vedb_astore::Lsn;
use vedb_core::wal::{FlushPolicy, LogBackend, Wal, WalRecord};
use vedb_core::Result;
use vedb_sim::{run_clients, MetricsRegistry, SimCtx, VTime};

/// In-memory log backend: durable the instant `append_batch` returns,
/// with a small virtual-time cost per record so flush latency is non-zero.
#[derive(Default)]
struct MemLog {
    buf: Mutex<Vec<u8>>,
}

impl LogBackend for MemLog {
    fn next_lsn(&self) -> Lsn {
        self.buf.lock().len() as u64
    }

    fn append_batch(&self, ctx: &mut SimCtx, records: &[&[u8]]) -> Result<Vec<Lsn>> {
        let mut lsns = Vec::with_capacity(records.len());
        for bytes in records {
            ctx.advance(VTime::from_micros(20));
            let mut buf = self.buf.lock();
            lsns.push(buf.len() as u64);
            buf.extend_from_slice(bytes);
        }
        Ok(lsns)
    }

    fn read_from(&self, _ctx: &mut SimCtx, lsn: Lsn) -> Result<(Lsn, Vec<u8>)> {
        let buf = self.buf.lock();
        Ok((lsn, buf[lsn as usize..].to_vec()))
    }

    fn truncate(&self, _ctx: &mut SimCtx, _upto: Lsn) -> Result<()> {
        Ok(())
    }
}

/// One committer's schedule: how long it "thinks" (virtual ns) before
/// each of its commits.
fn committer_strategy() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..30_000, 1..12)
}

fn run_interleaving(policy: FlushPolicy, schedules: &[Vec<u64>]) {
    let reg = MetricsRegistry::new();
    let backend = Arc::new(MemLog::default());
    let wal = Wal::with_metrics(Box::new(ArcLog(Arc::clone(&backend))), policy, &reg);
    let bytes_logged = reg.counter("core", "wal_bytes_logged");
    let bytes_flushed = reg.counter("core", "wal_bytes_flushed");

    run_clients(schedules.len(), 0x9E0, VTime::ZERO, |ctx, id| {
        for (op, think_ns) in schedules[id].iter().enumerate() {
            // The think times decide who reaches the log first.
            ctx.advance(VTime::from_nanos(*think_ns));
            ctx.yield_now();
            // txn_id encodes (committer, op) so stream order per
            // committer is checkable after the fact.
            let txn_id = (id as u64) << 32 | op as u64;
            let lsn = wal.log(ctx, &WalRecord::Commit { txn_id }).expect("log");
            wal.flush(ctx, lsn).expect("flush");
            // Ack-after-persist: our commit is durable the moment
            // flush returns, led or carried.
            assert!(
                wal.flushed_lsn() > lsn,
                "committer {id} op {op}: acked at lsn {lsn} but \
                 watermark is {}",
                wal.flushed_lsn()
            );
        }
    });

    // Conservation: every logged byte was flushed exactly once.
    assert_eq!(
        bytes_flushed.get(),
        bytes_logged.get(),
        "flushed bytes must equal logged bytes after all committers ack"
    );

    // Stream integrity: the backend holds every commit, parseable, with
    // each committer's commits in program order.
    let stream = backend.buf.lock().clone();
    let frames = vedb_core::wal::iter_frames(0, &stream);
    let total_ops: usize = schedules.iter().map(|s| s.len()).sum();
    assert_eq!(frames.len(), total_ops, "no record lost or torn");
    let mut last_op: Vec<i64> = vec![-1; schedules.len()];
    for (_, rec) in &frames {
        let WalRecord::Commit { txn_id } = rec else {
            panic!("unexpected record {rec:?}");
        };
        let (committer, op) = ((txn_id >> 32) as usize, (txn_id & 0xffff_ffff) as i64);
        assert!(
            op > last_op[committer],
            "committer {committer}'s commits reordered across a batch"
        );
        last_op[committer] = op;
    }
}

/// `Box<dyn LogBackend>` wrapper that lets the test keep a handle to the
/// backend's buffer after handing it to the Wal.
struct ArcLog(Arc<MemLog>);

impl LogBackend for ArcLog {
    fn next_lsn(&self) -> Lsn {
        self.0.next_lsn()
    }
    fn append_batch(&self, ctx: &mut SimCtx, records: &[&[u8]]) -> Result<Vec<Lsn>> {
        self.0.append_batch(ctx, records)
    }
    fn read_from(&self, ctx: &mut SimCtx, lsn: Lsn) -> Result<(Lsn, Vec<u8>)> {
        self.0.read_from(ctx, lsn)
    }
    fn truncate(&self, ctx: &mut SimCtx, upto: Lsn) -> Result<()> {
        self.0.truncate(ctx, upto)
    }
}

proptest! {
    // Each case starts a thread per committer; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn group_policy_acks_after_persist_and_conserves_bytes(
        schedules in proptest::collection::vec(committer_strategy(), 1..6),
    ) {
        run_interleaving(
            FlushPolicy::Group {
                max_batch_bytes: 4096,
                max_wait: VTime::from_micros(200),
            },
            &schedules,
        );
    }

    #[test]
    fn per_commit_policy_acks_after_persist_and_conserves_bytes(
        schedules in proptest::collection::vec(committer_strategy(), 1..4),
    ) {
        run_interleaving(FlushPolicy::PerCommit, &schedules);
    }
}
