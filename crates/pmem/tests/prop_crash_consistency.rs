//! Property test: the device's crash semantics match a reference model.
//!
//! The device keeps one image plus an undo list; the model here keeps the
//! two byte arrays that representation replaced — `live` and `durable` —
//! and applies the same op sequence: a write updates `live` and remembers the range as pending, `Flush` copies pending ranges
//! into `durable` (DDIO off) or leaves them volatile (DDIO on), `Crash`
//! resets `live` to `durable`. After every step the device's visible
//! contents, would-survive contents (whole device and a sub-range), its
//! unpersisted byte count and every `pmem.*` counter must equal the
//! model's. The address space is small so unflushed writes overlap often.

use std::sync::Arc;

use proptest::prelude::*;
use vedb_pmem::PmemDevice;
use vedb_sim::{LatencyModel, MetricsRegistry, Resource, VTime};

const CAP: usize = 256;

#[derive(Debug, Clone)]
enum Op {
    Write { offset: u64, data: Vec<u8> },
    Flush,
    Crash,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0u64..(CAP as u64 - 48), proptest::collection::vec(any::<u8>(), 1..48))
            .prop_map(|(offset, data)| Op::Write { offset, data }),
        2 => Just(Op::Flush),
        1 => Just(Op::Crash),
    ]
}

/// The two-image reference and the counters it implies.
struct Model {
    ddio: bool,
    live: Vec<u8>,
    durable: Vec<u8>,
    pending: Vec<(usize, Vec<u8>)>,
    writes: u64,
    bytes_written: u64,
    flushes: u64,
    bytes_persisted: u64,
    crashes: u64,
    bytes_lost: u64,
}

impl Model {
    fn pending_bytes(&self) -> usize {
        self.pending.iter().map(|(_, d)| d.len()).sum()
    }

    fn write(&mut self, at: usize, data: &[u8]) {
        self.live[at..at + data.len()].copy_from_slice(data);
        self.pending.push((at, data.to_vec()));
        self.writes += 1;
        self.bytes_written += data.len() as u64;
    }

    fn flush(&mut self) {
        self.flushes += 1;
        if !self.ddio {
            self.bytes_persisted += self.pending_bytes() as u64;
            for (at, data) in self.pending.drain(..) {
                self.durable[at..at + data.len()].copy_from_slice(&data);
            }
        }
    }

    fn crash(&mut self) {
        self.crashes += 1;
        self.bytes_lost += self.pending_bytes() as u64;
        self.pending.clear();
        self.live = self.durable.clone();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn device_matches_two_image_model(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        ddio in any::<bool>(),
    ) {
        let reg = MetricsRegistry::detached();
        let dev = PmemDevice::with_metrics(
            "prop",
            CAP,
            ddio,
            Arc::new(Resource::new("pmem", 4)),
            LatencyModel::paper_default(),
            &reg,
        );
        let mut m = Model {
            ddio,
            live: vec![0u8; CAP],
            durable: vec![0u8; CAP],
            pending: Vec::new(),
            writes: 0,
            bytes_written: 0,
            flushes: 0,
            bytes_persisted: 0,
            crashes: 0,
            bytes_lost: 0,
        };

        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Write { offset, data } => {
                    dev.write(VTime::ZERO, *offset, data).unwrap();
                    m.write(*offset as usize, data);
                }
                Op::Flush => {
                    dev.flush(VTime::ZERO);
                    m.flush();
                }
                Op::Crash => {
                    dev.crash();
                    m.crash();
                }
            }
            prop_assert_eq!(dev.peek(0, CAP).unwrap(), m.live.clone());
            prop_assert_eq!(dev.durable_snapshot(0, CAP).unwrap(), m.durable.clone());
            // A window that cuts through pending ranges on both sides.
            let lo = (step * 37) % (CAP - 40);
            prop_assert_eq!(
                dev.durable_snapshot(lo as u64, 40).unwrap(),
                m.durable[lo..lo + 40].to_vec()
            );
            prop_assert_eq!(dev.unpersisted_bytes(), m.pending_bytes());
            let counter = |name: &'static str| reg.counter("pmem", name).get();
            prop_assert_eq!(counter("writes"), m.writes);
            prop_assert_eq!(counter("bytes_written"), m.bytes_written);
            prop_assert_eq!(counter("flushes"), m.flushes);
            prop_assert_eq!(counter("bytes_persisted"), m.bytes_persisted);
            prop_assert_eq!(counter("crashes"), m.crashes);
            prop_assert_eq!(counter("bytes_lost_on_crash"), m.bytes_lost);
            prop_assert_eq!(counter("reads"), 0);
            prop_assert_eq!(
                reg.gauge("pmem", "unpersisted_bytes").get(),
                m.pending_bytes() as i64
            );
        }

        // A final crash must land exactly on the model's durable state.
        dev.crash();
        prop_assert_eq!(dev.peek(0, CAP).unwrap(), m.durable);
    }
}
