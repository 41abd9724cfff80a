//! AStore edge cases: consistency hygiene of §IV-C under adversarial
//! schedules — delayed cleanup vs route refresh, lease fencing across
//! client incarnations, recovery of empty/odd-shaped rings.

use std::sync::Arc;

use vedb_astore::client::AStoreClient;
use vedb_astore::cm::ClusterManager;
use vedb_astore::layout::SegmentClass;
use vedb_astore::{
    AStoreServer, AppendOpts, SegmentOpts, SegmentRing, CLEANUP_DELAY, ROUTE_REFRESH,
};
use vedb_rdma::RdmaEndpoint;
use vedb_sim::fault::NodeId;
use vedb_sim::{ClusterSpec, MetricsRegistry, SimCtx, SimEnv, VTime};

struct Cluster {
    env: Arc<SimEnv>,
    cm: Arc<ClusterManager>,
    servers: Vec<Arc<AStoreServer>>,
}

fn cluster() -> Cluster {
    let env = ClusterSpec::paper_default().build();
    let cm = ClusterManager::new(
        Arc::clone(&env.faults),
        VTime::from_secs(600),
        VTime::from_secs(30),
        MetricsRegistry::detached(),
    );
    let servers: Vec<Arc<AStoreServer>> = env
        .astore_nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            AStoreServer::new(
                i as NodeId,
                Arc::clone(n),
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

fn connect(c: &Cluster, ctx: &mut SimCtx, id: u64, refresh: VTime) -> Arc<AStoreClient> {
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
        refresh,
    )
}

/// §IV-C's central timing argument: a deleted segment's space is not
/// reused before every client has had a chance to refresh its routes —
/// the cleanup delay exceeds the refresh period.
#[test]
fn delayed_cleanup_outlives_route_refresh() {
    let c = cluster();
    let mut ctx = SimCtx::new(1, 7);
    let client = connect(&c, &mut ctx, 1, ROUTE_REFRESH);

    let seg = client
        .create_segment_with(&mut ctx, SegmentOpts::new(SegmentClass::Log))
        .unwrap();
    client
        .append_with(&mut ctx, seg, b"live-data", AppendOpts::new())
        .unwrap();
    client.delete_segment(&mut ctx, seg).unwrap();

    // Within the refresh period the slot must still be intact on every
    // server (stale one-sided readers see the old bytes, never recycled
    // garbage).
    ctx.advance(ROUTE_REFRESH);
    for s in &c.servers {
        if s.hosts_segment(seg.id) {
            assert!(
                s.run_cleanup(ctx.now()).is_empty(),
                "cleanup must be delayed"
            );
        }
    }
    // After the (longer) cleanup delay the slots are reclaimed.
    ctx.advance(CLEANUP_DELAY);
    let mut freed = 0;
    for s in &c.servers {
        freed += s.run_cleanup(ctx.now()).len();
    }
    assert_eq!(freed, 3, "all three replicas reclaimed after the delay");
}

/// A fenced-out client incarnation cannot delete or create segments, even
/// though its cached routes still allow (stale) reads.
#[test]
fn stale_incarnation_is_fenced_from_control_plane() {
    let c = cluster();
    let mut ctx = SimCtx::new(1, 7);
    let old = connect(&c, &mut ctx, 42, VTime::from_secs(3600));
    let seg = old
        .create_segment_with(&mut ctx, SegmentOpts::new(SegmentClass::Log))
        .unwrap();
    old.append_with(&mut ctx, seg, b"original", AppendOpts::new())
        .unwrap();

    // New incarnation takes over (same client identity).
    let new = connect(&c, &mut ctx, 42, ROUTE_REFRESH);
    let adopted = new
        .adopt_segment(&mut ctx, seg.id, SegmentClass::Log)
        .unwrap();

    // Old incarnation: control-plane ops rejected.
    assert!(old
        .create_segment_with(&mut ctx, SegmentOpts::new(SegmentClass::Log))
        .unwrap_err()
        .is_fencing());
    assert!(old.delete_segment(&mut ctx, seg).unwrap_err().is_fencing());
    // New incarnation owns the data.
    assert_eq!(new.read(&mut ctx, adopted, 0, 8).unwrap(), b"original");
}

#[test]
fn recover_empty_and_single_segment_rings() {
    let c = cluster();
    let mut ctx = SimCtx::new(1, 7);
    let client = connect(&c, &mut ctx, 1, ROUTE_REFRESH);

    // Ring that never received an append.
    let ring = SegmentRing::create(&mut ctx, Arc::clone(&client), 3).unwrap();
    let ids = ring.segment_ids();
    drop(ring);
    let client2 = connect(&c, &mut ctx, 1, ROUTE_REFRESH);
    let rec = SegmentRing::recover(&mut ctx, Arc::clone(&client2), &ids).unwrap();
    // The freshly opened slot 0 header counts as the newest segment.
    assert_eq!(rec.next_lsn(), 0);
    let lsn = rec.append(&mut ctx, b"first-bytes").unwrap();
    assert_eq!(lsn, 0);

    // Recover again after exactly one append.
    let ids2 = rec.segment_ids();
    drop(rec);
    let client3 = connect(&c, &mut ctx, 1, ROUTE_REFRESH);
    let rec2 = SegmentRing::recover(&mut ctx, client3, &ids2).unwrap();
    assert_eq!(rec2.next_lsn(), 11);
    let (start, bytes) = rec2.read_from(&mut ctx, 0).unwrap();
    assert_eq!(start, 0);
    assert_eq!(&bytes, b"first-bytes");
}

/// Route repair after node death followed by reintegration cleans exactly
/// the stale copy and leaves live replicas alone.
#[test]
fn repair_then_reintegrate_cleans_only_stale_copies() {
    let c = cluster();
    let mut ctx = SimCtx::new(1, 7);
    let client = connect(&c, &mut ctx, 1, VTime::from_millis(20));
    let seg = client
        .create_segment_with(
            &mut ctx,
            SegmentOpts::new(SegmentClass::Log).with_replication(2),
        )
        .unwrap();
    client
        .append_with(&mut ctx, seg, b"replicated-payload", AppendOpts::new())
        .unwrap();
    let route = client.cached_route(seg.id).unwrap();
    let dead = route.replicas[0].node;

    c.env.faults.crash_at(ctx.now(), dead);
    ctx.advance(VTime::from_secs(60));
    for s in &c.servers {
        if s.node() != dead {
            c.cm.heartbeat(ctx.now(), s.node(), s.free_slots());
        }
    }
    c.cm.tick(&mut ctx);
    let new_route = c.cm.get_route(&mut ctx, seg.id).unwrap();
    assert_eq!(new_route.replicas.len(), 2);

    // Node returns: only its (stale) copy is scheduled for cleanup.
    c.env.faults.restore_at(ctx.now(), dead);
    let cleaned = c.cm.reintegrate_server(&mut ctx, dead);
    assert_eq!(cleaned, 1);
    // Reads still served from the repaired replica set.
    client.refresh_all_routes(&mut ctx);
    assert_eq!(
        client.read(&mut ctx, seg, 0, 18).unwrap(),
        b"replicated-payload"
    );
}

/// Appends around the exact segment boundary: a record that exactly fills
/// the segment, then one that forces the advance.
#[test]
fn exact_boundary_append() {
    let c = cluster();
    let mut ctx = SimCtx::new(1, 7);
    let client = connect(&c, &mut ctx, 1, ROUTE_REFRESH);
    let ring = SegmentRing::create(&mut ctx, Arc::clone(&client), 3).unwrap();
    let cap = ring.segment_data_capacity() as usize;

    let fill = vec![1u8; cap]; // exactly fills slot 0's data area
    let a = ring.append(&mut ctx, &fill).unwrap();
    assert_eq!(a, 0);
    let b = ring.append(&mut ctx, b"next-seg").unwrap();
    assert_eq!(b, cap as u64);
    let (_, bytes) = ring.read_from(&mut ctx, cap as u64).unwrap();
    assert_eq!(&bytes, b"next-seg");
    assert_eq!(ring.empty_slots(), 1);
}
