//! The AStore space lifecycle: allocate → release → delayed cleanup →
//! reuse (§IV-A capacity reports, §IV-C delayed cleanup).
//!
//! Nothing but the CM's allocation path drives it, so these tests never
//! call `run_cleanup` or `heartbeat` themselves after set-up: slots have to
//! come back because somebody asked for one.

use std::collections::VecDeque;
use std::sync::Arc;

use vedb_astore::client::{AStoreClient, SegmentHandle};
use vedb_astore::cm::ClusterManager;
use vedb_astore::layout::{SegmentClass, SLOT_META_SIZE, SUPERBLOCK_SIZE};
use vedb_astore::{AStoreError, AStoreServer, SegmentOpts, CLEANUP_DELAY, ROUTE_REFRESH};
use vedb_rdma::RdmaEndpoint;
use vedb_sim::fault::NodeId;
use vedb_sim::{ClusterSpec, MetricsRegistry, SimCtx, SimEnv, VTime};

const SLOT: u64 = 64 * 1024;

struct Cluster {
    env: Arc<SimEnv>,
    cm: Arc<ClusterManager>,
    servers: Vec<Arc<AStoreServer>>,
}

/// Three servers of exactly `slots` slots each.
fn cluster(slots: u64) -> Cluster {
    let env = ClusterSpec::paper_default().build();
    let cm = ClusterManager::new(
        Arc::clone(&env.faults),
        VTime::from_secs(3600),
        VTime::from_secs(60),
        MetricsRegistry::detached(),
    );
    let capacity = SUPERBLOCK_SIZE + slots * (SLOT + SLOT_META_SIZE);
    let servers: Vec<Arc<AStoreServer>> = env
        .astore_nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            AStoreServer::new(
                i as NodeId,
                Arc::clone(n),
                capacity as usize,
                SLOT,
                env.model.clone(),
            )
        })
        .collect();
    for s in &servers {
        assert_eq!(s.free_slots() as u64, slots);
        cm.register_server(Arc::clone(s));
        cm.heartbeat(VTime::ZERO, s.node(), s.free_slots());
    }
    Cluster { env, cm, servers }
}

fn connect(c: &Cluster, ctx: &mut SimCtx) -> Arc<AStoreClient> {
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
        1,
        ROUTE_REFRESH,
    )
}

fn pending(c: &Cluster) -> Vec<usize> {
    c.servers.iter().map(|s| s.pending_cleanup_len()).collect()
}

fn free(c: &Cluster) -> usize {
    c.servers.iter().map(|s| s.free_slots()).sum()
}

/// Every allocated slot is either named by a route or waiting to be freed.
fn assert_books_balance(c: &Cluster, when: &str) {
    for s in &c.servers {
        assert_eq!(
            s.allocated_slots(),
            c.cm.routed_on(s.node()) + s.pending_cleanup_len(),
            "node {} {when}: allocated != routed + pending",
            s.node()
        );
    }
}

/// §IV-C end to end: on a full cluster the only way to a slot is through a
/// release, and it opens `CLEANUP_DELAY` after the release, not before.
#[test]
fn released_slot_is_reused_after_the_delay_and_not_before() {
    let c = cluster(2);
    let mut ctx = SimCtx::new(1, 7);
    let lease = c.cm.acquire_lease(&mut ctx, 1);
    let create = |ctx: &mut SimCtx| c.cm.create_segment(ctx, lease, SegmentClass::Ebp, 1);
    let segs: Vec<_> = (0..6).map(|_| create(&mut ctx).unwrap()).collect();
    assert_eq!(free(&c), 0);

    let (victim, route) = &segs[3];
    c.cm.delete_segment(&mut ctx, lease, *victim).unwrap();
    let released_at = ctx.now();

    let reused = loop {
        let asked_at = ctx.now();
        match create(&mut ctx) {
            Ok((_, route)) => break route,
            Err(AStoreError::NoSpace) => {
                assert!(
                    asked_at < released_at + CLEANUP_DELAY,
                    "no slot at {asked_at}, released at {released_at}"
                );
                ctx.advance(VTime::from_millis(7));
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    };
    assert!(
        ctx.now() >= released_at + CLEANUP_DELAY,
        "handed out at {}, released at {released_at}",
        ctx.now()
    );
    assert_eq!(reused.replicas, route.replicas, "the very slot released");
    assert_eq!(pending(&c), [0, 0, 0]);
    assert_books_balance(&c, "after reuse");
}

/// The cleanup is the servers' background work: the client that triggers
/// it pays what `create_segment` always cost and draws what it would have
/// drawn. The same script runs with an idle pause too short for the delay
/// to elapse.
#[test]
fn due_cleanups_cost_the_allocating_client_nothing() {
    let run = |pause: VTime| {
        let c = cluster(8);
        let mut ctx = SimCtx::new(1, 7);
        let client = connect(&c, &mut ctx);
        let segs: Vec<SegmentHandle> = (0..12)
            .map(|_| {
                client
                    .create_segment_with(&mut ctx, SegmentOpts::new(SegmentClass::Ebp))
                    .unwrap()
            })
            .collect();
        for seg in segs {
            client.delete_segment(&mut ctx, seg).unwrap();
        }
        ctx.advance(pause);
        let free_before = free(&c);
        let t0 = ctx.now();
        client
            .create_segment_with(&mut ctx, SegmentOpts::new(SegmentClass::Log))
            .unwrap();
        let charged = ctx.now() - t0;
        (charged, ctx.rng().next_u64(), free_before, free(&c))
    };
    let (charged_due, draw_due, before_due, after_due) = run(VTime::from_secs(1));
    let (charged_never, draw_never, before_never, after_never) = run(VTime::from_millis(100));
    assert_eq!(after_due, before_due + 12 - 3, "12 reclaimed, 3 allocated");
    assert_eq!(after_never, before_never - 3, "nothing due, 3 allocated");
    assert_eq!(charged_due, charged_never);
    assert_eq!(draw_due, draw_never);
}

/// `allocated == routed + pending` on every server after every step of a
/// create/delete churn, through a server that loses its volatile state
/// mid-way (pending list included) and is reintegrated later.
#[test]
fn books_balance_through_churn_crash_and_reintegration() {
    let c = cluster(16);
    let mut ctx = SimCtx::new(1, 7);
    let client = connect(&c, &mut ctx);
    let mut live: VecDeque<SegmentHandle> = VecDeque::new();
    let mut churn = |ctx: &mut SimCtx, rounds: usize, log_replication: usize, when: &str| {
        for i in 0..rounds {
            let opts = if i % 3 == 0 {
                SegmentOpts::new(SegmentClass::Log).with_replication(log_replication)
            } else {
                SegmentOpts::new(SegmentClass::Ebp)
            };
            live.push_back(client.create_segment_with(ctx, opts).unwrap());
            if live.len() > 6 {
                let old = live.pop_front().unwrap();
                match client.delete_segment(ctx, old) {
                    // An EBP segment that died with its only server.
                    Ok(()) | Err(AStoreError::UnknownSegment(_)) => {}
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            ctx.advance(VTime::from_millis(40));
            assert_books_balance(&c, when);
        }
    };

    churn(&mut ctx, 30, 3, "before the crash");
    let victim = &c.servers[1];
    assert!(victim.pending_cleanup_len() > 0, "the crash must lose some");

    // Power failure: unreachable, volatile state gone; the CM is told.
    c.env.faults.crash(victim.node());
    victim.crash();
    c.cm.report_failure(&mut ctx, victim.node());
    assert_books_balance(&c, "after the crash was reported");
    churn(&mut ctx, 30, 2, "while one server is down");

    // It returns with every slot it ever persisted as allocated, routed
    // nowhere and pending nothing — until reintegration sorts them out.
    c.env.faults.restore(victim.node());
    victim.restart(&mut ctx).unwrap();
    let stale = victim.allocated_slots();
    assert!(stale > 0);
    assert_eq!(c.cm.reintegrate_server(&mut ctx, victim.node()), stale);
    assert_books_balance(&c, "after reintegration");
    churn(&mut ctx, 30, 3, "after reintegration");

    // Let everything released so far come due; one more allocation sweeps.
    ctx.advance(CLEANUP_DELAY);
    client
        .create_segment_with(&mut ctx, SegmentOpts::new(SegmentClass::Ebp))
        .unwrap();
    assert_books_balance(&c, "at the end");
    assert_eq!(pending(&c), [0, 0, 0]);
    let routed: usize = c.servers.iter().map(|s| c.cm.routed_on(s.node())).sum();
    assert_eq!(free(&c) + routed, 3 * 16, "every other slot is free again");
}

/// A create that runs out of room part-way enqueues what it already took:
/// no route will ever name those slots, so nothing else would free them.
#[test]
fn failed_create_releases_what_it_took() {
    let c = cluster(2);
    let mut ctx = SimCtx::new(1, 7);
    let lease = c.cm.acquire_lease(&mut ctx, 1);
    // Fill node 2 behind the CM's back; the piggy-back ranks it last.
    for id in 0..2 {
        c.servers[2]
            .handle_alloc(&mut ctx, 1_000 + id, SegmentClass::Ebp)
            .unwrap();
    }
    assert_eq!(
        c.cm.create_segment(&mut ctx, lease, SegmentClass::Log, 3)
            .unwrap_err(),
        AStoreError::NoSpace
    );
    assert_eq!(pending(&c), [1, 1, 0]);
    ctx.advance(CLEANUP_DELAY);
    c.cm.create_segment(&mut ctx, lease, SegmentClass::Log, 2)
        .unwrap();
    assert_eq!(pending(&c), [0, 0, 0]);
    assert_eq!(free(&c), 2, "one slot left on each of nodes 0 and 1");
}

/// The piggy-back is a capacity report, not a liveness one: a server the CM
/// cannot reach keeps its pending list, and a server the CM has declared
/// dead stays dead until it is reintegrated.
#[test]
fn unreachable_servers_are_neither_cleaned_nor_revived() {
    let c = cluster(4);
    let mut ctx = SimCtx::new(1, 7);
    let lease = c.cm.acquire_lease(&mut ctx, 1);
    let (seg, _) =
        c.cm.create_segment(&mut ctx, lease, SegmentClass::Log, 3)
            .unwrap();
    c.cm.delete_segment(&mut ctx, lease, seg).unwrap();
    assert_eq!(pending(&c), [1, 1, 1]);

    c.env.faults.crash(0);
    c.env.faults.partition(1);
    ctx.advance(CLEANUP_DELAY * 2);
    c.cm.create_segment(&mut ctx, lease, SegmentClass::Ebp, 1)
        .unwrap();
    assert_eq!(pending(&c), [1, 1, 0], "only the reachable server swept");

    // Node 0 is declared dead; then both faults clear. Node 1 was only
    // ever unreachable; node 0 needs reintegration.
    c.cm.report_failure(&mut ctx, 0);
    c.env.faults.restore(0);
    c.env.faults.heal(1);
    assert_eq!(
        c.cm.create_segment(&mut ctx, lease, SegmentClass::Log, 3)
            .unwrap_err(),
        AStoreError::NotEnoughServers {
            live: 2,
            required: 3
        }
    );
    assert_eq!(pending(&c), [1, 0, 0]);

    c.cm.reintegrate_server(&mut ctx, 0);
    c.cm.create_segment(&mut ctx, lease, SegmentClass::Log, 3)
        .unwrap();
    assert_eq!(pending(&c), [0, 0, 0]);
    assert_books_balance(&c, "at the end");
}
