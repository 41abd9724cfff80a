//! Property test: `PmemDevice::persist` is `write`…`write` then `flush`.
//!
//! Two devices see the same random op sequence, with DDIO off and on. A
//! persisted chain (1–4 writes, often overlapping each other and earlier
//! unflushed writes) goes to one device as `persist(now, base, writes)`
//! and to the other as one `write` per entry, each queued behind the one
//! before, then `flush`. Plain unflushed writes, flushes and crashes go to
//! both. After every step the two must agree on the returned completion
//! time, the live image, the whole device's durable contents, the
//! unpersisted byte count and every counter and gauge in their registries
//! (the `pmem.*` set and the device resource's books). A chain with one
//! out-of-bounds entry, anywhere in it, must land nothing and charge
//! nothing.

use std::sync::Arc;

use proptest::prelude::*;
use vedb_pmem::{PmemDevice, PmemError};
use vedb_sim::{LatencyModel, MetricsRegistry, Resource, VTime};

const CAP: usize = 256;

type Chain = Vec<(u64, Vec<u8>)>;

#[derive(Debug, Clone)]
enum Op {
    Write { offset: u64, data: Vec<u8> },
    Chain { base: u64, writes: Chain },
    BadChain { writes: Chain, bad: usize },
    Flush,
    Crash,
}

fn chain_strategy() -> impl Strategy<Value = Chain> {
    // base < 64, offset < 160, len ≤ 32: every entry ends inside CAP.
    proptest::collection::vec(
        (0u64..160, proptest::collection::vec(any::<u8>(), 1..33)),
        1..5,
    )
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..(CAP as u64 - 48), proptest::collection::vec(any::<u8>(), 1..48))
            .prop_map(|(offset, data)| Op::Write { offset, data }),
        4 => (0u64..64, chain_strategy()).prop_map(|(base, writes)| Op::Chain { base, writes }),
        1 => (chain_strategy(), any::<usize>())
            .prop_map(|(writes, bad)| Op::BadChain { writes, bad }),
        1 => Just(Op::Flush),
        1 => Just(Op::Crash),
    ]
}

fn device(ddio: bool, reg: &MetricsRegistry) -> PmemDevice {
    PmemDevice::with_metrics(
        "prop",
        CAP,
        ddio,
        Arc::new(Resource::with_metrics("dev.pmem", 2, reg)),
        LatencyModel::paper_default(),
        reg,
    )
}

fn refs(writes: &Chain) -> Vec<(u64, &[u8])> {
    writes.iter().map(|(o, d)| (*o, d.as_slice())).collect()
}

/// Everything a caller or a crash can observe of one device.
fn observe(dev: &PmemDevice, reg: &MetricsRegistry) -> impl PartialEq + std::fmt::Debug {
    (
        dev.peek(0, CAP).unwrap(),
        dev.durable_snapshot(0, CAP).unwrap(),
        dev.unpersisted_bytes(),
        reg.counter_values(),
        reg.gauge_values(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn persist_leaves_what_write_then_flush_leaves(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        ddio in any::<bool>(),
    ) {
        let (reg_a, reg_b) = (MetricsRegistry::new(), MetricsRegistry::new());
        let (a, b) = (device(ddio, &reg_a), device(ddio, &reg_b));

        for (step, op) in ops.iter().enumerate() {
            // Arrivals move forward but often land behind earlier bookings.
            let now = VTime::from_nanos(step as u64 * 700);
            match op {
                Op::Write { offset, data } => {
                    let ta = a.write(now, *offset, data).unwrap();
                    let tb = b.write(now, *offset, data).unwrap();
                    prop_assert_eq!(ta, tb);
                }
                Op::Chain { base, writes } => {
                    let ta = a.persist(now, *base, &refs(writes)).unwrap();
                    let mut t = now;
                    for (offset, data) in writes {
                        t = b.write(t, base + offset, data).unwrap();
                    }
                    let tb = b.flush(t);
                    prop_assert_eq!(ta, tb);
                }
                Op::BadChain { writes, bad } => {
                    let mut writes = writes.clone();
                    let at = bad % writes.len();
                    let len = writes[at].1.len() as u64;
                    // One byte past the end, or an offset that would wrap.
                    writes[at].0 = if bad % 2 == 0 { CAP as u64 - len + 1 } else { u64::MAX - 3 };
                    let before = observe(&a, &reg_a);
                    let err = a.persist(now, 0, &refs(&writes));
                    prop_assert!(matches!(err, Err(PmemError::OutOfBounds { .. })));
                    prop_assert_eq!(observe(&a, &reg_a), before);
                }
                Op::Flush => {
                    prop_assert_eq!(a.flush(now), b.flush(now));
                }
                Op::Crash => {
                    a.crash();
                    b.crash();
                }
            }
            prop_assert_eq!(observe(&a, &reg_a), observe(&b, &reg_b));
        }

        // Both crash to the same image.
        a.crash();
        b.crash();
        prop_assert_eq!(observe(&a, &reg_a), observe(&b, &reg_b));
    }
}
