//! Chaos suite: the fault-recovery layer under injected failures.
//!
//! Each test drives TPC-C-style committed-write traffic (mixed-size REDO
//! records through the client / SegmentRing) while the [`FaultPlan`] kills
//! servers mid-append, partitions replicas, drops messages, and expires
//! leases. The invariants, per the §IV-B/§V-E contract:
//!
//! * **Zero lost committed writes** — every append that returned `Ok` is
//!   readable afterwards, byte for byte.
//! * **No `ReplicaFailed` reaching the caller** while the cluster retains a
//!   survivor — the retry layer absorbs crashes by reporting the dead node
//!   to the CM and re-resolving the shrunk/repaired route.
//! * **Bounded retries** — the capped-backoff policy never spins; retry
//!   counts stay within `MAX_RETRIES` per operation and are visible as
//!   `astore.*` counters in the registry, hence in every `RunReport`.

use std::sync::Arc;

use vedb_astore::client::AStoreClient;
use vedb_astore::cm::ClusterManager;
use vedb_astore::layout::SegmentClass;
use vedb_astore::retry::MAX_RETRIES;
use vedb_astore::{AStoreServer, AppendOpts, SegmentOpts, SegmentRing, ROUTE_REFRESH};
use vedb_rdma::RdmaEndpoint;
use vedb_sim::fault::NodeId;
use vedb_sim::{ClusterSpec, MetricsRegistry, RunReport, SimCtx, SimEnv, VTime};

struct Cluster {
    env: Arc<SimEnv>,
    cm: Arc<ClusterManager>,
    servers: Vec<Arc<AStoreServer>>,
}

/// A cluster whose CM and clients publish into a detached registry.
fn cluster(lease_ttl: VTime) -> Cluster {
    cluster_with(lease_ttl, false)
}

/// A cluster whose CM and clients publish into `env.metrics` if `report`.
fn cluster_with(lease_ttl: VTime, report: bool) -> Cluster {
    let env = ClusterSpec::paper_default().build();
    let metrics = if report {
        Arc::clone(&env.metrics)
    } else {
        MetricsRegistry::detached()
    };
    let cm = ClusterManager::new(
        Arc::clone(&env.faults),
        lease_ttl,
        VTime::from_secs(1),
        metrics,
    );
    let servers: Vec<Arc<AStoreServer>> = env
        .astore_nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            AStoreServer::new(
                i as NodeId,
                Arc::clone(n),
                n.pmem.clone().unwrap(),
                8 << 20,
                256 * 1024,
                env.model.clone(),
            )
        })
        .collect();
    for s in &servers {
        cm.register_server(Arc::clone(s));
        cm.heartbeat(VTime::ZERO, s.node(), s.free_slots());
    }
    Cluster { env, cm, servers }
}

fn connect(c: &Cluster, ctx: &mut SimCtx, id: u64) -> Arc<AStoreClient> {
    let ep = RdmaEndpoint::new(
        c.env.model.clone(),
        Arc::clone(&c.env.faults),
        Arc::clone(&c.env.engine_nic),
    );
    AStoreClient::connect(
        ctx,
        Arc::clone(&c.cm),
        ep,
        Arc::clone(&c.env.engine_cpu),
        c.env.model.clone(),
        id,
        ROUTE_REFRESH,
    )
}

/// Value of the `astore.<name>` counter in the registry `client` publishes
/// into (the CM's: detached unless the test attached the cluster's).
fn astore_count(client: &AStoreClient, name: &'static str) -> u64 {
    client.metrics().counter("astore", name).get()
}

/// TPC-C-ish record: NewOrder/Payment-sized REDO payloads, 64–700 bytes,
/// deterministic per index so reads can verify content.
fn record(i: usize) -> Vec<u8> {
    let len = 64 + (i * 97) % 640;
    let mut v = Vec::with_capacity(len);
    v.extend_from_slice(&(i as u64).to_le_bytes());
    v.resize(len, (i % 251) as u8);
    v
}

/// The ISSUE acceptance scenario: one of three replicas crashes mid-run
/// with 1% message loss on top; a committed-write workload completes with
/// zero data loss, no `ReplicaFailed` surfacing, and retry counters
/// visible through `sim::metrics`.
#[test]
fn crash_one_replica_with_drops_loses_nothing() {
    let c = cluster(VTime::from_secs(3600));
    let mut ctx = SimCtx::new(1, 0xC0FFEE);
    let client = connect(&c, &mut ctx, 1);
    let seg = client
        .create_segment_with(&mut ctx, SegmentOpts::new(SegmentClass::Log))
        .unwrap();
    let route = client.cached_route(seg.id).unwrap();
    assert_eq!(route.replicas.len(), 3);

    c.env.faults.set_drop_prob_at(ctx.now(), 0.01);
    let n = 200;
    let mut committed: Vec<(u64, Vec<u8>)> = Vec::new();
    for i in 0..n {
        if i == n / 2 {
            // Kill one replica mid-append-stream.
            c.env.faults.crash_at(ctx.now(), route.replicas[0].node);
        }
        let data = record(i);
        let off = client
            .append_with(&mut ctx, seg, &data, AppendOpts::new())
            .unwrap_or_else(|e| panic!("append {i} must not surface an error, got {e}"));
        committed.push((off, data));
    }
    c.env.faults.set_drop_prob_at(ctx.now(), 0.0);

    // Zero lost committed writes: every acked byte reads back.
    for (off, data) in &committed {
        let got = client.read(&mut ctx, seg, *off, data.len()).unwrap();
        assert_eq!(
            &got, data,
            "committed write at offset {off} lost or corrupted"
        );
    }
    // The route shrank to the two survivors (3-node cluster has no spare).
    let after = client.cached_route(seg.id).unwrap();
    assert_eq!(after.replicas.len(), 2);
    assert!(!after
        .replicas
        .iter()
        .any(|l| l.node == route.replicas[0].node));
    assert!(!client.is_frozen(seg));

    // Recovery telemetry: retries happened, are bounded, and are visible.
    let retries = astore_count(&client, "retries");
    assert!(
        retries >= 1,
        "crash + 1% drops must force retries: {retries}"
    );
    assert!(
        retries <= (n as u64) * MAX_RETRIES as u64,
        "retry counts must stay within the policy budget: {retries}"
    );
    assert!(
        astore_count(&client, "route_refreshes") >= 1,
        "crash must force a route re-resolution"
    );
    assert!(astore_count(&client, "backoff_ns") > 0);
}

/// Recovery numbers reach the report, once. Two clients share one CM (the
/// second connected after the first, as `recovery::recover` does) and the
/// crash-plus-drops scenario runs through one of them. Whichever of the two
/// drives, the report carries the client-side recovery counts, and
/// `astore.cm_repairs` is the number of re-replications the CM performed —
/// including the other client's segments. The fault-free twin reports every
/// name at zero.
#[test]
fn recovery_counts_reach_the_report_once() {
    /// Runs the scenario; returns the report and how many segments the CM
    /// re-replicated, read off its routes.
    fn run(faults: bool, second_drives: bool) -> (RunReport, u64) {
        let c = cluster_with(VTime::from_secs(3600), true);
        let mut ctx = SimCtx::new(1, 0xC0FFEE);
        let first = connect(&c, &mut ctx, 1);
        let second = connect(&c, &mut ctx, 2);
        let (driver, other) = if second_drives {
            (&second, &first)
        } else {
            (&first, &second)
        };
        // Two-way segments on three nodes: a spare exists, so a dead
        // replica is re-replicated rather than dropped from the route.
        let two_way = SegmentOpts::new(SegmentClass::Log).with_replication(2);
        let seg = driver.create_segment_with(&mut ctx, two_way).unwrap();
        let victim = driver.cached_route(seg.id).unwrap().replicas[0].node;
        let mut on_victim = vec![seg.id];
        for _ in 0..2 {
            let s = other.create_segment_with(&mut ctx, two_way).unwrap();
            let route = other.cached_route(s.id).unwrap();
            if route.replicas.iter().any(|l| l.node == victim) {
                on_victim.push(s.id);
            }
        }
        assert!(on_victim.len() >= 2, "the victim must host both clients");

        if faults {
            c.env.faults.set_drop_prob_at(ctx.now(), 0.01);
        }
        let n = 200;
        let mut committed: Vec<(u64, Vec<u8>)> = Vec::new();
        for i in 0..n {
            if faults && i == n / 2 {
                c.env.faults.crash_at(ctx.now(), victim);
            }
            let data = record(i);
            let off = driver
                .append_with(&mut ctx, seg, &data, AppendOpts::new())
                .unwrap_or_else(|e| panic!("append {i} must not surface an error, got {e}"));
            committed.push((off, data));
        }
        c.env.faults.set_drop_prob_at(ctx.now(), 0.0);

        // Read everything back with the first routed replica cut off:
        // every read is served by the second one.
        let primary = driver.cached_route(seg.id).unwrap().replicas[0].node;
        if faults {
            c.env.faults.partition_at(ctx.now(), primary);
        }
        for (off, data) in &committed {
            let got = driver.read(&mut ctx, seg, *off, data.len()).unwrap();
            assert_eq!(&got, data, "committed write at offset {off} lost");
        }
        c.env.faults.heal_at(ctx.now(), primary);

        let repaired = on_victim
            .iter()
            .filter(|id| {
                let route = c.cm.get_route(&mut ctx, **id).unwrap();
                route.replicas.len() == 2 && route.replicas.iter().all(|l| l.node != victim)
            })
            .count() as u64;
        (RunReport::collect("chaos", None, &c.env.metrics), repaired)
    }

    for second_drives in [false, true] {
        let (report, repaired) = run(true, second_drives);
        let json = report.to_json();
        for name in ["retries", "backoff_ns", "read_failovers", "route_refreshes"] {
            let key = format!("astore.{name}");
            let v = report.counter(&key);
            assert!(
                v > 0,
                "{key} must count the recovery (driver {second_drives})"
            );
            assert!(json.contains(&format!("\"{key}\": {v}")), "{key} in JSON");
        }
        assert_eq!(report.counter("astore.read_failovers"), 200);
        assert!(repaired >= 2, "both clients' segments are re-replicated");
        assert_eq!(
            report.counter("astore.cm_repairs"),
            repaired,
            "repairs are counted once, whoever connected last"
        );
    }

    let (report, repaired) = run(false, true);
    let json = report.to_json();
    for name in [
        "retries",
        "backoff_ns",
        "read_failovers",
        "route_refreshes",
        "segments_replaced",
    ] {
        let key = format!("astore.{name}");
        assert_eq!(report.counters.get(&key), Some(&0), "{key} present at 0");
        assert!(json.contains(&format!("\"{key}\": 0")), "{key} in JSON");
    }
    assert_eq!(repaired, 0);
    assert_eq!(report.counter("astore.cm_repairs"), 0);
}

/// Replica crash while a SegmentRing (the WAL's container) is mid-stream:
/// the ring never sees an error and the full REDO byte stream survives.
#[test]
fn ring_traffic_rides_through_replica_crash() {
    let c = cluster(VTime::from_secs(3600));
    let mut ctx = SimCtx::new(1, 0xBEEF);
    let client = connect(&c, &mut ctx, 1);
    let ring = SegmentRing::create(&mut ctx, Arc::clone(&client), 6).unwrap();

    let victim = client.cached_route(ring.segment_ids()[0]).unwrap().replicas[0].node;
    let mut expected = Vec::new();
    for i in 0..150 {
        if i == 40 {
            c.env.faults.crash_at(ctx.now(), victim);
        }
        let data = record(i);
        let lsn = ring.append(&mut ctx, &data).unwrap();
        assert_eq!(
            lsn,
            expected.len() as u64,
            "LSNs stay dense across the crash"
        );
        expected.extend_from_slice(&data);
    }
    let (start, bytes) = ring.read_from(&mut ctx, 0).unwrap();
    assert_eq!(start, 0);
    assert_eq!(
        bytes, expected,
        "REDO stream must be intact after the crash"
    );
    assert!(astore_count(&client, "retries") >= 1);
}

/// ISSUE 8 group-commit scenario: the segment leader (first replica of
/// the active route) crashes in the middle of a stream of *batched* group
/// flushes driven through [`SegmentRing::append_batch`]. Invariants:
///
/// * **Zero acked-but-lost commits** — every batch that returned `Ok` is
///   readable afterwards, byte for byte.
/// * **No reordering across the batch boundary** — LSNs stay dense and in
///   submission order through the crash, and the recovered REDO stream is
///   exactly the acked batches concatenated in order.
#[test]
fn leader_crash_mid_group_flush_keeps_every_acked_batch() {
    let c = cluster(VTime::from_secs(3600));
    let mut ctx = SimCtx::new(1, 0x6C07);
    let client = connect(&c, &mut ctx, 1);
    let ring = SegmentRing::create(&mut ctx, Arc::clone(&client), 6).unwrap();
    let victim = client.cached_route(ring.segment_ids()[0]).unwrap().replicas[0].node;

    let mut expected = Vec::new();
    let mut idx = 0usize;
    for batch_no in 0..40 {
        // Consolidated group: 2–6 commit-sized records per flush.
        let group: Vec<Vec<u8>> = (0..2 + (batch_no * 7) % 5)
            .map(|_| {
                let r = record(idx);
                idx += 1;
                r
            })
            .collect();
        let refs: Vec<&[u8]> = group.iter().map(|r| r.as_slice()).collect();
        if batch_no == 20 {
            // Kill the segment leader with this batch in flight.
            c.env.faults.crash_at(ctx.now(), victim);
        }
        let lsns = ring
            .append_batch(&mut ctx, &refs)
            .unwrap_or_else(|e| panic!("batch {batch_no} must not surface an error, got {e}"));
        let mut cur = expected.len() as u64;
        for (lsn, rec) in lsns.iter().zip(&group) {
            assert_eq!(
                *lsn, cur,
                "batch {batch_no}: LSNs must stay dense and ordered across the crash"
            );
            cur += rec.len() as u64;
        }
        for rec in &group {
            expected.extend_from_slice(rec);
        }
    }

    let (start, bytes) = ring.read_from(&mut ctx, 0).unwrap();
    assert_eq!(start, 0);
    assert_eq!(
        bytes, expected,
        "every acked batch must survive the leader crash, in submission order"
    );
    assert!(astore_count(&client, "retries") >= 1);
}

/// Sustained 1% message loss over a long append+read workload: every
/// operation completes, and the total retry count stays near the expected
/// loss rate rather than exploding (bounded backoff, no retry storms).
#[test]
fn one_percent_drops_bounded_retries() {
    let c = cluster(VTime::from_secs(3600));
    let mut ctx = SimCtx::new(1, 0xD06);
    let client = connect(&c, &mut ctx, 1);
    let seg = client
        .create_segment_with(&mut ctx, SegmentOpts::new(SegmentClass::Log))
        .unwrap();
    c.env.faults.set_drop_prob_at(ctx.now(), 0.01);
    let n = 300;
    let mut offs = Vec::new();
    for i in 0..n {
        let data = record(i);
        let off = client
            .append_with(&mut ctx, seg, &data, AppendOpts::new())
            .unwrap();
        offs.push((off, data.len()));
    }
    for (i, (off, len)) in offs.iter().enumerate() {
        let got = client.read(&mut ctx, seg, *off, *len).unwrap();
        assert_eq!(got, record(i));
    }
    c.env.faults.set_drop_prob_at(ctx.now(), 0.0);
    let retries = astore_count(&client, "retries");
    // ~1% of ~900 one-sided messages + ~300 reads → a handful of retries;
    // 10× the expectation still catches a retry storm.
    assert!(retries <= 120, "retry storm under 1% drops: {retries}");
}

/// A partitioned replica (alive but unreachable) serves no reads; the read
/// path fails over to the other replicas and keeps the data available.
#[test]
fn reads_survive_partition_of_primary_replica() {
    let c = cluster(VTime::from_secs(3600));
    let mut ctx = SimCtx::new(1, 0xFA11);
    let client = connect(&c, &mut ctx, 1);
    let seg = client
        .create_segment_with(&mut ctx, SegmentOpts::new(SegmentClass::Log))
        .unwrap();
    let data = b"partitioned-but-available".to_vec();
    let off = client
        .append_with(&mut ctx, seg, &data, AppendOpts::new())
        .unwrap();

    let route = client.cached_route(seg.id).unwrap();
    c.env.metrics.trace().enable();
    c.env.faults.partition_at(ctx.now(), route.replicas[0].node);
    for _ in 0..10 {
        let got = client.read(&mut ctx, seg, off, data.len()).unwrap();
        assert_eq!(got, data);
    }
    assert!(astore_count(&client, "read_failovers") >= 10);
    c.env.faults.heal_at(ctx.now(), route.replicas[0].node);
    // Timestamped injections land in the deployment trace, so the chaos
    // window is reconstructable from the exported report.
    let faults: Vec<_> = c
        .env
        .metrics
        .trace()
        .events()
        .into_iter()
        .filter(|e| e.component == "fault")
        .collect();
    assert_eq!(faults.len(), 2);
    assert_eq!(faults[0].op, "partition");
    assert_eq!(faults[1].op, "heal");
    assert_eq!(faults[0].client, route.replicas[0].node as u64);
    c.env.metrics.trace().disable();
}

/// Lease TTL expires repeatedly while traffic runs: control-plane calls
/// renew the same epoch transparently; the client is never re-fenced and
/// never mints a new epoch.
#[test]
fn lease_expiry_mid_traffic_renews_same_epoch() {
    let ttl = VTime::from_secs(5);
    let c = cluster(ttl);
    let mut ctx = SimCtx::new(1, 0x1EA5E);
    let client = connect(&c, &mut ctx, 1);
    let epoch = client.lease().epoch;

    for round in 0..4 {
        // Let the TTL lapse, then run control-plane + data-plane traffic.
        ctx.advance(ttl + VTime::from_secs(1));
        let seg = client
            .create_segment_with(&mut ctx, SegmentOpts::new(SegmentClass::Log))
            .unwrap();
        let data = record(round);
        let off = client
            .append_with(&mut ctx, seg, &data, AppendOpts::new())
            .unwrap();
        assert_eq!(client.read(&mut ctx, seg, off, data.len()).unwrap(), data);
        client.delete_segment(&mut ctx, seg).unwrap();
    }
    assert_eq!(
        client.lease().epoch,
        epoch,
        "renewal must never mint a new epoch"
    );
    assert!(astore_count(&client, "lease_renewals") >= 4);
}

/// Fencing regression: the retry layer renews leases but must never let a
/// *superseded* incarnation back in — even though it retries and renews,
/// every control-plane call keeps failing with a fencing error.
#[test]
fn superseded_epoch_is_fenced_through_the_retry_layer() {
    let c = cluster(VTime::from_secs(3600));
    let mut ctx = SimCtx::new(1, 0xFE7CE);
    let old = connect(&c, &mut ctx, 7);
    let seg = old
        .create_segment_with(&mut ctx, SegmentOpts::new(SegmentClass::Log))
        .unwrap();
    old.append_with(&mut ctx, seg, b"epoch-1-data", AppendOpts::new())
        .unwrap();

    // A new incarnation of the same client takes over: fresh epoch.
    let new = connect(&c, &mut ctx, 7);
    assert!(new.lease().epoch > old.lease().epoch);

    // The superseded client keeps retrying/renewing — and keeps losing.
    for _ in 0..3 {
        let err = old
            .create_segment_with(&mut ctx, SegmentOpts::new(SegmentClass::Log))
            .unwrap_err();
        assert!(
            err.is_fencing(),
            "superseded epoch must stay fenced, got {err}"
        );
    }
    assert!(old.renew_lease(&mut ctx).unwrap_err().is_fencing());

    // The new incarnation adopts and extends the data unharmed.
    let adopted = new
        .adopt_segment(&mut ctx, seg.id, SegmentClass::Log)
        .unwrap();
    assert_eq!(new.read(&mut ctx, adopted, 0, 12).unwrap(), b"epoch-1-data");
    new.append_with(&mut ctx, adopted, b"+epoch-2", AppendOpts::new())
        .unwrap();
}

/// Crash + restore churn: a replica dies, the CM repairs routes onto the
/// survivors, the node returns and is reintegrated — and a brand-new
/// client recovers every committed byte from the repaired replica set,
/// including the io-meta copied during re-replication.
#[test]
fn repair_copies_io_meta_so_recovery_sees_full_length() {
    let c = cluster(VTime::from_secs(3600));
    let mut ctx = SimCtx::new(1, 0x10_AD);
    let client = connect(&c, &mut ctx, 1);
    let seg = client
        .create_segment_with(
            &mut ctx,
            SegmentOpts::new(SegmentClass::Log).with_replication(2),
        )
        .unwrap();
    let mut total = 0u64;
    for i in 0..20 {
        let data = record(i);
        client
            .append_with(&mut ctx, seg, &data, AppendOpts::new())
            .unwrap();
        total += data.len() as u64;
    }

    // Kill one of the two replicas; the CM's failure sweep re-replicates
    // the segment (slot data AND io-meta) onto the spare third node.
    let route = client.cached_route(seg.id).unwrap();
    let dead = route.replicas[0].node;
    c.env.faults.crash_at(ctx.now(), dead);
    ctx.advance(VTime::from_secs(5));
    for s in &c.servers {
        if s.node() != dead {
            c.cm.heartbeat(ctx.now(), s.node(), s.free_slots());
        }
    }
    c.cm.tick(&mut ctx);
    let repaired = c.cm.get_route(&mut ctx, seg.id).unwrap();
    assert_eq!(
        repaired.replicas.len(),
        2,
        "re-replicated onto the spare node"
    );

    // A fresh incarnation recovers the segment length from io-meta alone —
    // whichever replica it reads, including the freshly repaired one.
    let client2 = connect(&c, &mut ctx, 1);
    let adopted = client2
        .adopt_segment(&mut ctx, seg.id, SegmentClass::Log)
        .unwrap();
    assert_eq!(
        client2.segment_len(adopted),
        total,
        "io-meta must survive repair"
    );
}

/// Fault-free control run: with no injected faults, the RDMA verb counts
/// published into the cluster registry must match the workload's ground
/// truth exactly — `N` appends over a 3-replica route are `3N` chained
/// WRITEs, `N` reads are `N` one-sided READs off the first replica, and
/// nothing is dropped or retried.
#[test]
fn fault_free_rdma_counts_match_ground_truth() {
    let c = cluster_with(VTime::from_secs(3600), true);
    let mut ctx = SimCtx::new(9, 0xFEED);
    let ep = RdmaEndpoint::with_metrics(
        c.env.model.clone(),
        Arc::clone(&c.env.faults),
        Arc::clone(&c.env.engine_nic),
        &c.env.metrics,
    );
    let client = AStoreClient::connect(
        &mut ctx,
        Arc::clone(&c.cm),
        ep,
        Arc::clone(&c.env.engine_cpu),
        c.env.model.clone(),
        9,
        ROUTE_REFRESH,
    );
    let seg = client
        .create_segment_with(&mut ctx, SegmentOpts::new(SegmentClass::Log))
        .unwrap();
    let replicas = client.cached_route(seg.id).unwrap().replicas.len() as u64;
    assert_eq!(replicas, 3);

    let chain_writes = c.env.metrics.counter("rdma", "chain_writes");
    let rdma_reads = c.env.metrics.counter("rdma", "reads");
    let appends = c.env.metrics.counter("astore", "appends");
    let astore_reads = c.env.metrics.counter("astore", "reads");
    let drops = c.env.metrics.counter("rdma", "drops");
    let pmem_writes = c.env.metrics.counter("pmem", "writes");

    let n = 120u64;
    let (cw0, rr0, ap0, ar0, pw0) = (
        chain_writes.get(),
        rdma_reads.get(),
        appends.get(),
        astore_reads.get(),
        pmem_writes.get(),
    );
    let mut committed = Vec::new();
    for i in 0..n as usize {
        let data = record(i);
        let off = client
            .append_with(&mut ctx, seg, &data, AppendOpts::new())
            .unwrap();
        committed.push((off, data));
    }
    assert_eq!(
        chain_writes.get() - cw0,
        n * replicas,
        "one chained WRITE per replica per append"
    );
    assert_eq!(appends.get() - ap0, n);
    // Each replica's chained WRITE lands the record and the io-meta stamp
    // on its PMem device: two device writes per replica per append.
    assert_eq!(
        pmem_writes.get() - pw0,
        n * replicas * 2,
        "record + io-meta per replica per append"
    );

    for (off, data) in &committed {
        let got = client.read(&mut ctx, seg, *off, data.len()).unwrap();
        assert_eq!(&got, data);
    }
    assert_eq!(
        rdma_reads.get() - rr0,
        n,
        "fault-free reads are served by the first replica in one READ"
    );
    assert_eq!(astore_reads.get() - ar0, n);

    // Nothing was dropped and the recovery layer never engaged.
    assert_eq!(drops.get(), 0, "fault-free run must not drop");
    assert_eq!(astore_count(&client, "retries"), 0);
    assert_eq!(astore_count(&client, "read_failovers"), 0);

    // The per-op latency histograms saw exactly the ops that ran.
    assert_eq!(c.env.metrics.latency("astore", "append").count(), n);
    assert_eq!(c.env.metrics.latency("astore", "read").count(), n);
    assert_eq!(c.env.metrics.latency("rdma", "write_chain").count() % n, 0);
}
