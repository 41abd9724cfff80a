//! The calibrated latency model.
//!
//! The device, network and engine-CPU constants of the reproduction live in
//! [`LatencyModel`], so the simulation is calibrated in one place. A few
//! costs are literals at their call sites instead: the query executor's
//! index-lookup, aggregate, join and sort charges (`core/src/query/exec.rs`),
//! the push-down tasks' per-row costs (`core/src/query/pushdown.rs`), the
//! WAL's log-buffer memcpy (`core/src/wal.rs`), the EBP's 120 µs page-LSN
//! RPC (`core/src/ebp.rs`) and the CM's request processing (`CM_PROC`,
//! `astore/src/cm.rs`).
//! [`LatencyModel::paper_default`] is tuned to the paper's anchor numbers:
//!
//! * AStore small read ≈ 10 µs, small append ≈ 20 µs (§IV),
//! * 16 KB EBP page read ≈ 20 µs (§V-C),
//! * 256 KB one-sided RDMA write ≈ 0.1 ms (§V-A),
//! * PageStore remote page read ≈ 1 ms (§V-C),
//! * Table II: single-threaded 4 KB log write — 0.638 ms over the SSD/TCP
//!   LogStore vs 0.086 ms over AStore.
//!
//! Transfers are **pipelined**: a transfer of `n` KB costs
//! `base + n * max(wire_per_kb, media_per_kb)` — wire and media stream
//! concurrently, so the slower of the two sets the per-byte rate. This is
//! what makes a 256 KB RDMA write land near line rate (~0.1 ms) instead of
//! the sum of wire and media costs.

use crate::time::VTime;

/// Nanoseconds helper for terser constants below.
const fn us(n: u64) -> u64 {
    n * 1_000
}

/// Calibrated service times and delays for every simulated device.
///
/// All `*_base_ns` values are fixed per-operation costs; `*_per_kb_ns` values
/// are streaming costs per kilobyte. CPU costs are charged on CPU
/// [`Resource`](crate::resource::Resource)s by the component that performs the
/// work.
#[derive(Clone, Debug)]
pub struct LatencyModel {
    // ---- network fabric ----
    /// One-way propagation + switching delay of the RDMA fabric (pure delay,
    /// not a contended resource).
    pub wire_delay_ns: u64,
    /// Per-KB wire streaming cost (25 Gbps ≈ 320 ns/KB).
    pub wire_per_kb_ns: u64,
    /// Client-side cost to post one work request (MMIO doorbell etc.).
    pub rdma_issue_ns: u64,
    /// Round-trip base of the kernel TCP/RPC path used by LogStore/PageStore.
    pub rpc_rtt_ns: u64,
    /// Server CPU consumed to receive, dispatch and answer one RPC.
    pub rpc_server_cpu_ns: u64,
    /// Mean of the exponential scheduling jitter added to every RPC
    /// (thread wake-up, run-queue delay — the paper's latency spikes).
    pub rpc_jitter_mean_ns: u64,

    // ---- PMem device (per AStore server) ----
    /// Fixed media cost of a PMem read.
    pub pmem_read_base_ns: u64,
    /// Streaming read cost per KB.
    pub pmem_read_per_kb_ns: u64,
    /// Fixed media cost of a PMem write reaching the persistence domain.
    pub pmem_write_base_ns: u64,
    /// Streaming write cost per KB.
    pub pmem_write_per_kb_ns: u64,
    /// Concurrent access lanes per PMem device before queueing (Optane DIMMs
    /// degrade past a small number of concurrent accessors — §VII-A's
    /// "CPU-bound under high concurrency" observation).
    pub pmem_lanes: usize,

    // ---- SSD device (per Page/LogStore server) ----
    /// Fixed cost of an SSD read through the blob-store stack.
    pub ssd_read_base_ns: u64,
    /// Streaming read cost per KB.
    pub ssd_read_per_kb_ns: u64,
    /// Fixed cost of an SSD write through the blob-store stack (journaling,
    /// fsync batching — effective, not raw NAND, cost).
    pub ssd_write_base_ns: u64,
    /// Streaming write cost per KB.
    pub ssd_write_per_kb_ns: u64,
    /// Parallel channels per SSD box.
    pub ssd_lanes: usize,

    // ---- DBEngine CPU costs ----
    /// Buffer-pool hit: latch + pointer chase.
    pub cpu_bp_hit_ns: u64,
    /// Per-row cost of scanning a row in a page (copy + visibility).
    pub cpu_row_scan_ns: u64,
    /// Per-row cost of evaluating a simple predicate or aggregate update.
    pub cpu_row_eval_ns: u64,
    /// Per-row cost of an insert/update/delete (slot bookkeeping, logging).
    pub cpu_row_write_ns: u64,
    /// B+Tree traversal cost per level.
    pub cpu_btree_level_ns: u64,
    /// Fixed begin+commit bookkeeping per transaction.
    pub cpu_txn_overhead_ns: u64,
    /// SDK cost to build/submit one AStore write (segment meta update etc.).
    pub cpu_astore_sdk_ns: u64,
    /// SDK cost on the LogStore path (buffer copy + async submit + callback
    /// thread context switch — the costs §V-B says AStore eliminates).
    pub cpu_logstore_sdk_ns: u64,
    /// Cost to serialize/deserialize one push-down plan fragment.
    pub cpu_fragment_codec_ns: u64,

    // ---- PageStore server CPU costs ----
    /// Per-record cost of accepting shipped redo (back-link check, durable
    /// log append bookkeeping).
    pub cpu_redo_accept_ns: u64,
    /// Per-record cost of applying redo to a page image, charged to the
    /// node's CPU within the page's apply partition.
    pub cpu_redo_apply_ns: u64,
}

impl LatencyModel {
    /// The calibration used for every experiment (see module docs).
    pub fn paper_default() -> Self {
        LatencyModel {
            wire_delay_ns: 1_500,
            wire_per_kb_ns: 320,
            rdma_issue_ns: 700,
            rpc_rtt_ns: us(120),
            rpc_server_cpu_ns: us(30),
            rpc_jitter_mean_ns: us(40),

            pmem_read_base_ns: us(3),
            pmem_read_per_kb_ns: 600,
            pmem_write_base_ns: us(16),
            pmem_write_per_kb_ns: 350,
            pmem_lanes: 7,

            ssd_read_base_ns: us(250),
            ssd_read_per_kb_ns: us(20),
            ssd_write_base_ns: us(350),
            ssd_write_per_kb_ns: us(15),
            ssd_lanes: 8,

            cpu_bp_hit_ns: 500,
            cpu_row_scan_ns: 150,
            cpu_row_eval_ns: 50,
            cpu_row_write_ns: 1_000,
            cpu_btree_level_ns: 400,
            cpu_txn_overhead_ns: us(5),
            cpu_astore_sdk_ns: us(30),
            cpu_logstore_sdk_ns: us(8),
            cpu_fragment_codec_ns: us(20),

            cpu_redo_accept_ns: 800,
            cpu_redo_apply_ns: 600,
        }
    }

    /// Pipelined transfer cost: `base + kb * max(wire, media)` (see module
    /// docs). `len` in bytes; partial KBs round up.
    #[inline]
    fn xfer(base_ns: u64, media_per_kb_ns: u64, wire_per_kb_ns: u64, len: usize) -> VTime {
        let kb = (len as u64).div_ceil(1024);
        VTime::from_nanos(base_ns + kb * media_per_kb_ns.max(wire_per_kb_ns))
    }

    /// Service time of a PMem read of `len` bytes (media + streamed wire).
    pub fn pmem_read_svc(&self, len: usize) -> VTime {
        Self::xfer(
            self.pmem_read_base_ns,
            self.pmem_read_per_kb_ns,
            self.wire_per_kb_ns,
            len,
        )
    }

    /// Service time of a PMem write of `len` bytes into the persistence
    /// domain (media + streamed wire).
    pub fn pmem_write_svc(&self, len: usize) -> VTime {
        Self::xfer(
            self.pmem_write_base_ns,
            self.pmem_write_per_kb_ns,
            self.wire_per_kb_ns,
            len,
        )
    }

    /// Service time of an SSD read of `len` bytes.
    pub fn ssd_read_svc(&self, len: usize) -> VTime {
        Self::xfer(self.ssd_read_base_ns, self.ssd_read_per_kb_ns, 0, len)
    }

    /// Service time of an SSD write of `len` bytes.
    pub fn ssd_write_svc(&self, len: usize) -> VTime {
        Self::xfer(self.ssd_write_base_ns, self.ssd_write_per_kb_ns, 0, len)
    }

    /// One-way wire delay (pure latency; bandwidth is charged via
    /// `*_per_kb` inside the transfer costs).
    pub fn wire_delay(&self) -> VTime {
        VTime::from_nanos(self.wire_delay_ns)
    }

    /// Cost to post one RDMA work request from the client.
    pub fn rdma_issue(&self) -> VTime {
        VTime::from_nanos(self.rdma_issue_ns)
    }

    /// TCP/RPC round-trip base.
    pub fn rpc_rtt(&self) -> VTime {
        VTime::from_nanos(self.rpc_rtt_ns)
    }

    /// Server CPU charged per RPC.
    pub fn rpc_server_cpu(&self) -> VTime {
        VTime::from_nanos(self.rpc_server_cpu_ns)
    }

    /// Mean of the exponential RPC scheduling jitter.
    pub fn rpc_jitter_mean(&self) -> VTime {
        VTime::from_nanos(self.rpc_jitter_mean_ns)
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_rounds_up_partial_kb() {
        let m = LatencyModel::paper_default();
        assert_eq!(m.pmem_read_svc(1), m.pmem_read_svc(1024));
        assert!(m.pmem_read_svc(1025) > m.pmem_read_svc(1024));
    }

    #[test]
    fn anchor_16kb_page_read_near_20us() {
        let m = LatencyModel::paper_default();
        // media read + wire rtt + issue, as composed by the rdma layer
        let total = m.pmem_read_svc(16 * 1024).as_nanos() + 2 * m.wire_delay_ns + m.rdma_issue_ns;
        let total_us = total as f64 / 1e3;
        assert!(
            (12.0..=28.0).contains(&total_us),
            "16KB EBP read should be ~20us, got {total_us:.1}us"
        );
    }

    #[test]
    fn anchor_256kb_write_near_100us() {
        let m = LatencyModel::paper_default();
        let total = m.pmem_write_svc(256 * 1024).as_nanos() + 2 * m.wire_delay_ns;
        let total_us = total as f64 / 1e3;
        assert!(
            (80.0..=140.0).contains(&total_us),
            "256KB RDMA write should be ~100us, got {total_us:.1}us"
        );
    }

    #[test]
    fn pmem_write_faster_than_ssd_write() {
        let m = LatencyModel::paper_default();
        for len in [64, 4096, 16 * 1024, 256 * 1024] {
            assert!(m.pmem_write_svc(len) < m.ssd_write_svc(len));
            assert!(m.pmem_read_svc(len) < m.ssd_read_svc(len));
        }
    }

    #[test]
    fn serde_roundtrip() {
        let m = LatencyModel::paper_default();
        // serde support exists so benches can dump the calibration next to
        // results; spot-check it works through the Debug representation.
        let dbg = format!("{m:?}");
        assert!(dbg.contains("pmem_write_base_ns"));
    }
}
