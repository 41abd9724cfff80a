//! # vedb-sim — virtual-time simulation kernel
//!
//! The paper's evaluation runs on a bare-metal cluster with Optane PMem,
//! RDMA NICs, and NVMe SSDs (Table I). This crate replaces *wall-clock time on
//! that hardware* with **virtual time**: every simulated client carries its own
//! clock ([`SimCtx`]), and every shared piece of hardware (a server's CPU
//! cores, a PMem device's internal parallelism, an SSD's channels, a NIC link)
//! is a [`Resource`] — a k-server queue whose lanes keep gap-aware calendars
//! of reservations. Queueing delay therefore **emerges from contention**
//! instead of being hard-coded, which is what lets the reproduction recover
//! the paper's shapes (throughput peaks, latency crossovers, concurrency
//! collapse).
//!
//! Nothing in this crate knows about databases; it provides:
//!
//! * [`VTime`] / [`SimCtx`] — virtual timestamps and per-client clocks,
//! * [`Resource`] — contended k-lane resources,
//! * [`run_clients`] — concurrent clients under one baton, interleaved by
//!   virtual clock ([`sched`]),
//! * [`LatencyModel`] — calibrated device/network service times,
//! * [`LatencyRecorder`] — log-bucketed latency histograms (P50/P95/P99/max),
//! * [`ClusterSpec`] — the Table I cluster encoded as resources,
//! * [`FaultPlan`] — failure-injection switches shared across components,
//! * [`FxHashMap`] — a `HashMap` with a cheap unkeyed hash, for id-keyed maps,
//! * [`MetricsRegistry`] — per-subsystem counters/gauges/histograms plus the
//!   causal [`TraceLog`] of [`span!`]-recorded operations,
//! * [`RunReport`] — deterministic JSON snapshots written by the bench
//!   harness as `BENCH_<figure>.json`, through the one JSON codec ([`json`]),
//! * [`bytes::Reader`] — the one little-endian reader for every format read
//!   back from storage or the wire.

pub mod bytes;
pub mod cluster;
pub mod contention;
pub mod fault;
pub mod fxhash;
pub mod json;
pub mod latency;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod resource;
pub mod rng;
pub mod sched;
pub mod time;
pub mod trace;

pub use cluster::{ClusterSpec, SimEnv};
pub use contention::{HotKeyStat, LockContention, LockProfile, TableLockStat};
pub use fault::FaultPlan;
pub use fxhash::{FxHashMap, FxHasher};
pub use latency::LatencyModel;
pub use metrics::{Counter, Gauge, LatencyRecorder, MetricsRegistry, Timeline, TrialResult};
pub use profile::{FaultEvent, OpStat, PhaseStat, Profile};
pub use report::{LatencySummary, ResourceSummary, RunReport, Trial};
pub use resource::Resource;
pub use rng::SimRng;
pub use sched::{run_clients, Waker};
pub use time::{SimCtx, VTime};
pub use trace::{SpanGuard, TraceEvent, TraceLog};
