//! The central cluster manager (CM).
//!
//! §IV-A: "The Cluster Manager is responsible for managing the resources of
//! the entire cluster ... storage node management, registration, fault
//! detection, background task scheduling, capacity expansion, and load
//! balancing", plus the client leases of §IV-C.
//!
//! The CM is deliberately off the data path: clients talk to it only to
//! create/delete segments and to refresh routes; reads and writes go
//! straight to PMem with one-sided verbs. Control operations cost
//! milliseconds (paper: "the entire process of Create takes a few
//! milliseconds"), modelled as RPC round-trips plus a fixed CM processing
//! delay.
//!
//! The CM also drives the space lifecycle (allocate → release → delayed
//! cleanup → reuse): before it consumes free capacity it has every
//! reachable server retire its due cleanups and report what is really
//! free ([`ClusterManager::create_segment`]).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;
use vedb_sim::fault::NodeId;
use vedb_sim::{Counter, FaultPlan, MetricsRegistry, SimCtx, VTime};

use crate::layout::SegmentClass;
use crate::server::AStoreServer;
use crate::{AStoreError, Result, SegmentId, SegmentLoc};

/// Fixed CM processing delay per control operation.
const CM_PROC: VTime = VTime::from_micros(800);

/// A client lease (§IV-C): ownership of client-visible state is fenced by
/// `epoch` — a client that crashes and returns holds a stale epoch and is
/// rejected at the control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// The owning client.
    pub client_id: u64,
    /// Monotonic fencing token.
    pub epoch: u64,
}

/// A segment's routing entry.
#[derive(Debug, Clone)]
pub struct Route {
    /// Replication class.
    pub class: SegmentClass,
    /// Live replicas.
    pub replicas: Vec<SegmentLoc>,
    /// Bumped on every replica-set change; clients compare versions when
    /// refreshing.
    pub version: u64,
}

struct NodeInfo {
    server: Arc<AStoreServer>,
    last_heartbeat: VTime,
    free_slots: usize,
    alive: bool,
}

struct CmState {
    /// Ordered: the allocation path walks it, and that order reaches the
    /// servers' devices.
    nodes: BTreeMap<NodeId, NodeInfo>,
    routes: HashMap<SegmentId, Route>,
    next_segment: SegmentId,
    /// client id -> (current epoch, lease expiry)
    leases: HashMap<u64, (u64, VTime)>,
    next_epoch: u64,
}

/// Control-plane metric handles (component `"astore"`).
struct CmMetrics {
    registry: Arc<MetricsRegistry>,
    lease_acquires: Arc<Counter>,
    lease_renewals: Arc<Counter>,
    segment_creates: Arc<Counter>,
    segment_deletes: Arc<Counter>,
    route_lookups: Arc<Counter>,
    repairs: Arc<Counter>,
}

impl CmMetrics {
    fn register(registry: Arc<MetricsRegistry>) -> Self {
        CmMetrics {
            lease_acquires: registry.counter("astore", "lease_acquires"),
            lease_renewals: registry.counter("astore", "lease_renewals"),
            segment_creates: registry.counter("astore", "cm_segment_creates"),
            segment_deletes: registry.counter("astore", "cm_segment_deletes"),
            route_lookups: registry.counter("astore", "cm_route_lookups"),
            repairs: registry.counter("astore", "cm_repairs"),
            registry,
        }
    }
}

/// The cluster manager.
pub struct ClusterManager {
    faults: Arc<FaultPlan>,
    lease_ttl: VTime,
    heartbeat_timeout: VTime,
    state: Mutex<CmState>,
    /// Deployment metric registry and the CM's counters in it.
    metrics: CmMetrics,
}

impl ClusterManager {
    /// Create a CM. `lease_ttl` bounds how long a silent client keeps
    /// ownership; `heartbeat_timeout` is how long a silent server is
    /// trusted. Control-plane counters (`astore.lease_*`, `astore.cm_*`) go
    /// into `metrics`, and clients connecting through this CM publish their
    /// data-path metrics there too — so component constructors keep their
    /// signatures.
    pub fn new(
        faults: Arc<FaultPlan>,
        lease_ttl: VTime,
        heartbeat_timeout: VTime,
        metrics: Arc<MetricsRegistry>,
    ) -> Arc<Self> {
        Arc::new(ClusterManager {
            faults,
            lease_ttl,
            heartbeat_timeout,
            state: Mutex::new(CmState {
                nodes: BTreeMap::new(),
                routes: HashMap::new(),
                next_segment: 1,
                leases: HashMap::new(),
                next_epoch: 1,
            }),
            metrics: CmMetrics::register(metrics),
        })
    }

    /// The registry this CM (and clients connected through it) publish into.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics.registry)
    }

    /// Register a storage node.
    pub fn register_server(&self, server: Arc<AStoreServer>) {
        let mut st = self.state.lock();
        let free = server.free_slots();
        st.nodes.insert(
            server.node(),
            NodeInfo {
                server,
                last_heartbeat: VTime::ZERO,
                free_slots: free,
                alive: true,
            },
        );
    }

    /// Look up a registered server (used by the engine to hand push-down
    /// fragments to the EBP hosts).
    pub fn server(&self, node: NodeId) -> Option<Arc<AStoreServer>> {
        self.state
            .lock()
            .nodes
            .get(&node)
            .map(|n| Arc::clone(&n.server))
    }

    /// All currently-alive servers.
    pub fn live_servers(&self) -> Vec<Arc<AStoreServer>> {
        self.state
            .lock()
            .nodes
            .values()
            .filter(|n| n.alive)
            .map(|n| Arc::clone(&n.server))
            .collect()
    }

    /// Acquire (or re-acquire) a lease for `client_id`. Any previous epoch
    /// for the same client is superseded.
    pub fn acquire_lease(&self, ctx: &mut SimCtx, client_id: u64) -> Lease {
        ctx.advance(CM_PROC);
        self.metrics.lease_acquires.inc();
        let mut st = self.state.lock();
        let epoch = st.next_epoch;
        st.next_epoch += 1;
        let expiry = ctx.now() + self.lease_ttl;
        st.leases.insert(client_id, (epoch, expiry));
        Lease { client_id, epoch }
    }

    /// Renew a lease; fails with [`AStoreError::LeaseExpired`] if the lease
    /// was **superseded** (a newer epoch exists for the client).
    ///
    /// A merely *timed-out* lease with the still-current epoch is renewable:
    /// epoch supersession is the real fence (§IV-C), while TTL expiry just
    /// bounds how long a silent client keeps ownership. This is what lets
    /// the SDK's retry layer recover from `LeaseExpired` on a slow client
    /// without re-acquiring (which would mint a new epoch and fence the
    /// client's own in-flight operations).
    pub fn renew_lease(&self, ctx: &mut SimCtx, lease: Lease) -> Result<()> {
        ctx.advance(CM_PROC);
        self.metrics.lease_renewals.inc();
        let mut st = self.state.lock();
        match st.leases.get(&lease.client_id) {
            Some((epoch, _)) if *epoch != lease.epoch => {
                return Err(AStoreError::LeaseExpired {
                    presented: lease.epoch,
                    current: *epoch,
                });
            }
            Some(_) => {}
            None => {
                return Err(AStoreError::LeaseExpired {
                    presented: lease.epoch,
                    current: 0,
                })
            }
        }
        let exp = ctx.now() + self.lease_ttl;
        st.leases.insert(lease.client_id, (lease.epoch, exp));
        Ok(())
    }

    fn validate_locked(&self, st: &CmState, lease: Lease, now: VTime) -> Result<()> {
        match st.leases.get(&lease.client_id) {
            Some((epoch, expiry)) => {
                // Superseded epoch or lapsed TTL: either way the lease no
                // longer grants ownership.
                if *epoch != lease.epoch || now > *expiry {
                    Err(AStoreError::LeaseExpired {
                        presented: lease.epoch,
                        current: *epoch,
                    })
                } else {
                    Ok(())
                }
            }
            None => Err(AStoreError::LeaseExpired {
                presented: lease.epoch,
                current: 0,
            }),
        }
    }

    /// Validate a lease without renewing it.
    pub fn validate_lease(&self, now: VTime, lease: Lease) -> Result<()> {
        self.validate_locked(&self.state.lock(), lease, now)
    }

    /// Whether the CM may talk to `node` right now: it believes it alive
    /// and no injected fault stands in the way.
    fn reachable(&self, node: NodeId, info: &NodeInfo) -> bool {
        info.alive && !self.faults.is_crashed(node) && !self.faults.is_partitioned(node)
    }

    /// §IV-C delayed cleanup, driven from the allocation path — the only
    /// consumer of free capacity, so the only place a freed slot is needed.
    /// Every reachable server retires the cleanups due at `now` on its own
    /// background clock and piggy-backs its true free-slot count (§IV-A
    /// capacity report; liveness is left to [`heartbeat`](Self::heartbeat)).
    /// The state lock is not held across the server calls.
    fn reclaim_due(&self, now: VTime) {
        let servers: Vec<Arc<AStoreServer>> = {
            let st = self.state.lock();
            st.nodes
                .iter()
                .filter(|(id, n)| self.reachable(**id, n))
                .map(|(_, n)| Arc::clone(&n.server))
                .collect()
        };
        for server in servers {
            server.run_cleanup(now);
            let free_slots = server.free_slots();
            if let Some(n) = self.state.lock().nodes.get_mut(&server.node()) {
                n.free_slots = free_slots;
            }
        }
    }

    /// Create a segment: reclaim what is due, pick the `replication` live
    /// nodes with the most free slots, allocate a slot on each, and record
    /// the route.
    pub fn create_segment(
        &self,
        ctx: &mut SimCtx,
        lease: Lease,
        class: SegmentClass,
        replication: usize,
    ) -> Result<(SegmentId, Route)> {
        ctx.advance(CM_PROC);
        self.metrics.segment_creates.inc();
        self.reclaim_due(ctx.now());
        let (seg, targets) = {
            let mut st = self.state.lock();
            self.validate_locked(&st, lease, ctx.now())?;
            let mut live: Vec<(&NodeId, &NodeInfo)> = st
                .nodes
                .iter()
                .filter(|(id, n)| self.reachable(**id, n))
                .collect();
            if live.len() < replication {
                return Err(AStoreError::NotEnoughServers {
                    live: live.len(),
                    required: replication,
                });
            }
            // Load balancing: most free capacity first (§IV-A: "the CM
            // returns the appropriate nodes according to the capacity and
            // load").
            live.sort_by(|a, b| b.1.free_slots.cmp(&a.1.free_slots).then(a.0.cmp(b.0)));
            let targets: Vec<Arc<AStoreServer>> = live
                .iter()
                .take(replication)
                .map(|(_, n)| Arc::clone(&n.server))
                .collect();
            let seg = st.next_segment;
            st.next_segment += 1;
            (seg, targets)
        };
        // Allocate on each replica (RPC-ish: server-side alloc work).
        let mut replicas = Vec::with_capacity(replication);
        for server in &targets {
            let offset = match server.handle_alloc(ctx, seg, class) {
                Ok(offset) => offset,
                Err(e) => {
                    // No route will ever name the slots already taken.
                    for done in &targets[..replicas.len()] {
                        done.handle_enqueue_cleanup(ctx.now(), seg);
                    }
                    return Err(e);
                }
            };
            replicas.push(SegmentLoc {
                node: server.node(),
                offset,
            });
        }
        let route = Route {
            class,
            replicas,
            version: 1,
        };
        let mut st = self.state.lock();
        for loc in &route.replicas {
            if let Some(n) = st.nodes.get_mut(&loc.node) {
                n.free_slots = n.free_slots.saturating_sub(1);
            }
        }
        st.routes.insert(seg, route.clone());
        Ok((seg, route))
    }

    /// Delete a segment: drop the route and ask the hosting servers to
    /// clean the slots up (delayed on the server side, §IV-C).
    pub fn delete_segment(&self, ctx: &mut SimCtx, lease: Lease, seg: SegmentId) -> Result<()> {
        ctx.advance(CM_PROC);
        self.metrics.segment_deletes.inc();
        let route = {
            let mut st = self.state.lock();
            self.validate_locked(&st, lease, ctx.now())?;
            st.routes
                .remove(&seg)
                .ok_or(AStoreError::UnknownSegment(seg))?
        };
        let servers: Vec<Arc<AStoreServer>> = {
            let st = self.state.lock();
            route
                .replicas
                .iter()
                .filter_map(|loc| st.nodes.get(&loc.node).map(|n| Arc::clone(&n.server)))
                .collect()
        };
        for server in servers {
            server.handle_enqueue_cleanup(ctx.now(), seg);
        }
        Ok(())
    }

    /// Fetch a segment's current route (clients poll this on a short
    /// period; cost is one CM round trip).
    pub fn get_route(&self, ctx: &mut SimCtx, seg: SegmentId) -> Result<Route> {
        ctx.advance(CM_PROC);
        self.metrics.route_lookups.inc();
        self.state
            .lock()
            .routes
            .get(&seg)
            .cloned()
            .ok_or(AStoreError::UnknownSegment(seg))
    }

    /// Route version without charging time (driver-internal fast path for
    /// tests).
    pub fn peek_route_version(&self, seg: SegmentId) -> Option<u64> {
        self.state.lock().routes.get(&seg).map(|r| r.version)
    }

    /// Server heartbeat: capacity + liveness report (§IV-A).
    pub fn heartbeat(&self, now: VTime, node: NodeId, free_slots: usize) {
        let mut st = self.state.lock();
        if let Some(n) = st.nodes.get_mut(&node) {
            n.last_heartbeat = now;
            n.free_slots = free_slots;
            n.alive = true;
        }
    }

    /// Periodic failure detection + repair. Nodes silent for longer than
    /// `heartbeat_timeout` (or crash-injected) are marked dead; their
    /// replicas are removed from routes. Log-class segments are re-replicated
    /// onto a live node by copying from a surviving replica; EBP-class
    /// segments (replication 1) are simply dropped — losing them only
    /// lowers the cache hit ratio (§V-E).
    ///
    /// Returns the segments whose routes changed.
    pub fn tick(&self, ctx: &mut SimCtx) -> Vec<SegmentId> {
        let now = ctx.now();
        let dead: Vec<NodeId> = {
            let mut st = self.state.lock();
            let timeout = self.heartbeat_timeout;
            let mut dead = Vec::new();
            for (id, n) in st.nodes.iter_mut() {
                let silent = now.saturating_sub(n.last_heartbeat) > timeout;
                if n.alive && (silent || self.faults.is_crashed(*id)) {
                    n.alive = false;
                    dead.push(*id);
                }
            }
            dead
        };
        if dead.is_empty() {
            return Vec::new();
        }
        self.repair_after_death(ctx, &dead)
    }

    /// A client observed `node` unreachable on the data path and reported
    /// it (push-based failure detection, complementing the heartbeat pull
    /// path of [`ClusterManager::tick`]). The CM verifies the claim against
    /// its own connectivity before acting — a client behind a partition must
    /// not be able to evict a healthy node.
    ///
    /// Returns the segments whose routes changed.
    pub fn report_failure(&self, ctx: &mut SimCtx, node: NodeId) -> Vec<SegmentId> {
        ctx.advance(CM_PROC);
        if !(self.faults.is_crashed(node) || self.faults.is_partitioned(node)) {
            return Vec::new();
        }
        let newly_dead = {
            let mut st = self.state.lock();
            match st.nodes.get_mut(&node) {
                Some(n) if n.alive => {
                    n.alive = false;
                    true
                }
                _ => false,
            }
        };
        if !newly_dead {
            return Vec::new();
        }
        self.repair_after_death(ctx, &[node])
    }

    /// Remove `dead` nodes from every route and re-replicate Log-class
    /// segments from a surviving replica (shared by [`ClusterManager::tick`]
    /// and [`ClusterManager::report_failure`]).
    fn repair_after_death(&self, ctx: &mut SimCtx, dead: &[NodeId]) -> Vec<SegmentId> {
        self.reclaim_due(ctx.now());
        let mut changed = Vec::new();
        // Ascending segment id: each repair below allocates and copies.
        let mut affected: Vec<SegmentId> = {
            let st = self.state.lock();
            st.routes
                .iter()
                .filter(|(_, r)| r.replicas.iter().any(|l| dead.contains(&l.node)))
                .map(|(s, _)| *s)
                .collect()
        };
        affected.sort_unstable();
        for seg in affected {
            let (class, survivors, lost_count) = {
                let mut st = self.state.lock();
                let r = st.routes.get_mut(&seg).expect("route exists");
                let before = r.replicas.len();
                r.replicas.retain(|l| !dead.contains(&l.node));
                r.version += 1;
                (r.class, r.replicas.clone(), before - r.replicas.len())
            };
            if lost_count == 0 {
                continue;
            }
            changed.push(seg);
            if class == SegmentClass::Ebp || survivors.is_empty() {
                // EBP loss is a cache miss, not a failure; a log segment
                // with no survivors is unrecoverable here (the ring layer
                // will have frozen and re-opened long before).
                if survivors.is_empty() {
                    self.state.lock().routes.remove(&seg);
                }
                continue;
            }
            // Re-replicate from a survivor onto the best live node not
            // already hosting the segment.
            for _ in 0..lost_count {
                let target = {
                    let st = self.state.lock();
                    let mut candidates: Vec<&NodeInfo> = st
                        .nodes
                        .iter()
                        .filter(|(id, n)| self.reachable(**id, n) && !n.server.hosts_segment(seg))
                        .map(|(_, n)| n)
                        .collect();
                    candidates.sort_by_key(|n| std::cmp::Reverse(n.free_slots));
                    candidates.first().map(|n| Arc::clone(&n.server))
                };
                let Some(target) = target else { break };
                let src = {
                    let st = self.state.lock();
                    st.nodes
                        .get(&survivors[0].node)
                        .map(|n| Arc::clone(&n.server))
                };
                let Some(src) = src else { break };
                if let Ok(new_off) = target.handle_alloc(ctx, seg, class) {
                    // Copy the slot contents survivor -> new replica.
                    let data = src
                        .device()
                        .peek(survivors[0].offset, src.slot_size() as usize)
                        .expect("slot readable");
                    let done = target
                        .device()
                        .persist(ctx.now(), new_off, &[(0, &data)])
                        .expect("slot writable");
                    ctx.wait_until(done);
                    // The io-meta (effective length) lives outside the slot
                    // and must travel with it, or the new replica would
                    // claim the segment is empty during crash recovery.
                    let meta = src
                        .device()
                        .peek(src.io_meta_offset(survivors[0].offset), 8)
                        .expect("io-meta readable");
                    let done = target
                        .device()
                        .persist(ctx.now(), target.io_meta_offset(new_off), &[(0, &meta)])
                        .expect("io-meta writable");
                    ctx.wait_until(done);
                    let mut st = self.state.lock();
                    if let Some(r) = st.routes.get_mut(&seg) {
                        r.replicas.push(SegmentLoc {
                            node: target.node(),
                            offset: new_off,
                        });
                        r.version += 1;
                    }
                    if let Some(n) = st.nodes.get_mut(&target.node()) {
                        n.free_slots = n.free_slots.saturating_sub(1);
                    }
                    drop(st);
                    self.metrics.repairs.inc();
                }
            }
        }
        changed
    }

    /// A failed node has returned (§IV-C): every segment it still holds a
    /// slot for that no current route places on it is stale — repaired
    /// elsewhere, dropped (EBP), or deleted before the crash wiped the
    /// server's pending list. Enqueue their cleanup; returns how many were
    /// newly enqueued.
    pub fn reintegrate_server(&self, ctx: &mut SimCtx, node: NodeId) -> usize {
        let (server, stale): (Arc<AStoreServer>, Vec<SegmentId>) = {
            let mut st = self.state.lock();
            let Some(n) = st.nodes.get_mut(&node) else {
                return 0;
            };
            n.alive = true;
            n.last_heartbeat = ctx.now();
            let server = Arc::clone(&n.server);
            let stale = server
                .hosted_segments()
                .into_iter()
                .filter(|seg| {
                    !st.routes
                        .get(seg)
                        .is_some_and(|r| r.replicas.iter().any(|l| l.node == node))
                })
                .collect();
            (server, stale)
        };
        stale
            .into_iter()
            .filter(|seg| server.handle_enqueue_cleanup(ctx.now(), *seg))
            .count()
    }

    /// Replicas current routes place on `node` (tests and monitoring:
    /// a server's allocated slots are these plus its pending cleanups).
    pub fn routed_on(&self, node: NodeId) -> usize {
        self.state
            .lock()
            .routes
            // vedb-lint: allow(ordered-serialization, "a count: the order the routes are visited in cannot change it")
            .values()
            .flat_map(|r| &r.replicas)
            .filter(|l| l.node == node)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vedb_sim::ClusterSpec;

    fn cluster() -> (
        Arc<vedb_sim::SimEnv>,
        Arc<ClusterManager>,
        Vec<Arc<AStoreServer>>,
    ) {
        let env = ClusterSpec::paper_default().build();
        let cm = ClusterManager::new(
            Arc::clone(&env.faults),
            VTime::from_secs(10),
            VTime::from_secs(1),
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
                    1 << 20,
                    64 * 1024,
                    env.model.clone(),
                )
            })
            .collect();
        for s in &servers {
            cm.register_server(Arc::clone(s));
        }
        (env, cm, servers)
    }

    #[test]
    fn lease_epoch_fencing() {
        let (_env, cm, _servers) = cluster();
        let mut ctx = SimCtx::new(1, 7);
        let lease_a = cm.acquire_lease(&mut ctx, 42);
        assert!(cm.validate_lease(ctx.now(), lease_a).is_ok());
        // The "client returns after failover" scenario: a new incarnation
        // acquires a fresh lease; the old epoch is fenced out.
        let lease_b = cm.acquire_lease(&mut ctx, 42);
        assert!(lease_b.epoch > lease_a.epoch);
        assert!(matches!(
            cm.validate_lease(ctx.now(), lease_a),
            Err(AStoreError::LeaseExpired { .. })
        ));
        assert!(cm.validate_lease(ctx.now(), lease_b).is_ok());
    }

    #[test]
    fn lease_expires_after_ttl() {
        let (_env, cm, _servers) = cluster();
        let mut ctx = SimCtx::new(1, 7);
        let lease = cm.acquire_lease(&mut ctx, 1);
        ctx.advance(VTime::from_secs(11));
        assert!(matches!(
            cm.validate_lease(ctx.now(), lease),
            Err(AStoreError::LeaseExpired { .. })
        ));
        // Renewal before expiry keeps it alive.
        let lease2 = cm.acquire_lease(&mut ctx, 1);
        ctx.advance(VTime::from_secs(5));
        cm.renew_lease(&mut ctx, lease2).unwrap();
        ctx.advance(VTime::from_secs(6));
        assert!(cm.validate_lease(ctx.now(), lease2).is_ok());
    }

    #[test]
    fn renew_allows_expired_same_epoch_but_not_superseded() {
        let (_env, cm, _servers) = cluster();
        let mut ctx = SimCtx::new(1, 7);
        let lease = cm.acquire_lease(&mut ctx, 1);
        ctx.advance(VTime::from_secs(11)); // past the 10s TTL
        assert!(cm.validate_lease(ctx.now(), lease).is_err());
        // Same epoch: the TTL lapse is recoverable by renewal.
        cm.renew_lease(&mut ctx, lease).unwrap();
        assert!(cm.validate_lease(ctx.now(), lease).is_ok());
        // Superseded epoch: renewal must be refused forever.
        let newer = cm.acquire_lease(&mut ctx, 1);
        assert!(matches!(
            cm.renew_lease(&mut ctx, lease),
            Err(AStoreError::LeaseExpired { .. })
        ));
        assert!(cm.renew_lease(&mut ctx, newer).is_ok());
    }

    #[test]
    fn report_failure_repairs_only_verified_dead_nodes() {
        let (env, cm, servers) = cluster();
        let mut ctx = SimCtx::new(1, 7);
        let lease = cm.acquire_lease(&mut ctx, 1);
        for s in &servers {
            cm.heartbeat(ctx.now(), s.node(), s.free_slots());
        }
        let (seg, route) = cm
            .create_segment(&mut ctx, lease, SegmentClass::Log, 2)
            .unwrap();
        let dead = route.replicas[0].node;
        // A report against a healthy node is rejected (no route change).
        assert!(cm.report_failure(&mut ctx, dead).is_empty());
        assert_eq!(cm.peek_route_version(seg), Some(1));
        // Crash it for real: the report is now verified and repair runs.
        env.faults.crash(dead);
        let changed = cm.report_failure(&mut ctx, dead);
        assert_eq!(changed, vec![seg]);
        let new_route = cm.get_route(&mut ctx, seg).unwrap();
        assert_eq!(
            new_route.replicas.len(),
            2,
            "re-replicated onto a live node"
        );
        assert!(!new_route.replicas.iter().any(|l| l.node == dead));
        // A duplicate report is a no-op.
        assert!(cm.report_failure(&mut ctx, dead).is_empty());
    }

    #[test]
    fn create_places_on_distinct_most_free_nodes() {
        let (_env, cm, _servers) = cluster();
        let mut ctx = SimCtx::new(1, 7);
        let lease = cm.acquire_lease(&mut ctx, 1);
        let (seg, route) = cm
            .create_segment(&mut ctx, lease, SegmentClass::Log, 3)
            .unwrap();
        assert_eq!(route.replicas.len(), 3);
        let mut nodes: Vec<NodeId> = route.replicas.iter().map(|l| l.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 3, "replicas must land on distinct nodes");
        assert_eq!(cm.peek_route_version(seg), Some(1));
    }

    #[test]
    fn create_costs_milliseconds() {
        let (_env, cm, _servers) = cluster();
        let mut ctx = SimCtx::new(1, 7);
        let lease = cm.acquire_lease(&mut ctx, 1);
        let t0 = ctx.now();
        cm.create_segment(&mut ctx, lease, SegmentClass::Log, 3)
            .unwrap();
        let cost = ctx.now() - t0;
        assert!(
            cost >= VTime::from_micros(800),
            "create should cost ~ms (control plane), got {cost}"
        );
    }

    #[test]
    fn create_with_insufficient_live_servers_fails() {
        let (env, cm, servers) = cluster();
        let mut ctx = SimCtx::new(1, 7);
        let lease = cm.acquire_lease(&mut ctx, 1);
        env.faults.crash(servers[0].node());
        assert!(matches!(
            cm.create_segment(&mut ctx, lease, SegmentClass::Log, 3),
            Err(AStoreError::NotEnoughServers {
                live: 2,
                required: 3
            })
        ));
        // EBP (replication 1) still placeable.
        assert!(cm
            .create_segment(&mut ctx, lease, SegmentClass::Ebp, 1)
            .is_ok());
    }

    #[test]
    fn delete_enqueues_delayed_cleanup() {
        let (_env, cm, servers) = cluster();
        let mut ctx = SimCtx::new(1, 7);
        let lease = cm.acquire_lease(&mut ctx, 1);
        let (seg, route) = cm
            .create_segment(&mut ctx, lease, SegmentClass::Log, 3)
            .unwrap();
        cm.delete_segment(&mut ctx, lease, seg).unwrap();
        assert!(matches!(
            cm.get_route(&mut ctx, seg),
            Err(AStoreError::UnknownSegment(_))
        ));
        // Slots are still intact on the servers (delayed cleanup).
        for loc in &route.replicas {
            let s = servers.iter().find(|s| s.node() == loc.node).unwrap();
            assert!(s.hosts_segment(seg));
            assert_eq!(s.pending_cleanup_len(), 1);
        }
    }

    #[test]
    fn tick_detects_death_and_repairs_log_segments() {
        let (env, cm, servers) = cluster();
        let mut ctx = SimCtx::new(1, 7);
        let lease = cm.acquire_lease(&mut ctx, 1);
        // Heartbeats so everyone is fresh.
        for s in &servers {
            cm.heartbeat(ctx.now(), s.node(), s.free_slots());
        }
        let (seg, route) = cm
            .create_segment(&mut ctx, lease, SegmentClass::Log, 2)
            .unwrap();
        // Write recognizable bytes to one replica so repair copies them.
        let src = servers
            .iter()
            .find(|s| s.node() == route.replicas[0].node)
            .unwrap();
        src.device()
            .persist(ctx.now(), route.replicas[0].offset, &[(0, b"replica-data")])
            .unwrap();
        // Mirror onto the second replica as a real client would.
        let dst0 = servers
            .iter()
            .find(|s| s.node() == route.replicas[1].node)
            .unwrap();
        dst0.device()
            .persist(ctx.now(), route.replicas[1].offset, &[(0, b"replica-data")])
            .unwrap();

        // Kill the first replica's node; everyone else keeps heartbeating.
        env.faults.crash(route.replicas[0].node);
        ctx.advance(VTime::from_secs(2));
        for s in &servers {
            if s.node() != route.replicas[0].node {
                cm.heartbeat(ctx.now(), s.node(), s.free_slots());
            }
        }
        let changed = cm.tick(&mut ctx);
        assert_eq!(changed, vec![seg]);

        let new_route = cm.get_route(&mut ctx, seg).unwrap();
        assert_eq!(
            new_route.replicas.len(),
            2,
            "repair must restore replication"
        );
        assert!(new_route.version > route.version);
        assert!(!new_route
            .replicas
            .iter()
            .any(|l| l.node == route.replicas[0].node));
        // The repaired replica holds the survivor's data.
        let fresh = new_route
            .replicas
            .iter()
            .find(|l| l.node != route.replicas[1].node)
            .unwrap();
        let s = servers.iter().find(|s| s.node() == fresh.node).unwrap();
        assert_eq!(s.device().peek(fresh.offset, 12).unwrap(), b"replica-data");
    }

    #[test]
    fn tick_drops_ebp_replicas_without_repair() {
        let (env, cm, servers) = cluster();
        let mut ctx = SimCtx::new(1, 7);
        let lease = cm.acquire_lease(&mut ctx, 1);
        for s in &servers {
            cm.heartbeat(ctx.now(), s.node(), s.free_slots());
        }
        let (seg, route) = cm
            .create_segment(&mut ctx, lease, SegmentClass::Ebp, 1)
            .unwrap();
        env.faults.crash(route.replicas[0].node);
        ctx.advance(VTime::from_secs(2));
        for s in &servers {
            if s.node() != route.replicas[0].node {
                cm.heartbeat(ctx.now(), s.node(), s.free_slots());
            }
        }
        let changed = cm.tick(&mut ctx);
        assert_eq!(changed, vec![seg]);
        // Route is gone entirely: the cached pages are simply lost.
        assert!(matches!(
            cm.get_route(&mut ctx, seg),
            Err(AStoreError::UnknownSegment(_))
        ));
    }

    #[test]
    fn reintegration_cleans_stale_segments() {
        let (env, cm, servers) = cluster();
        let mut ctx = SimCtx::new(1, 7);
        let lease = cm.acquire_lease(&mut ctx, 1);
        for s in &servers {
            cm.heartbeat(ctx.now(), s.node(), s.free_slots());
        }
        let (seg, route) = cm
            .create_segment(&mut ctx, lease, SegmentClass::Log, 2)
            .unwrap();
        let dead_node = route.replicas[0].node;
        env.faults.crash(dead_node);
        ctx.advance(VTime::from_secs(2));
        for s in &servers {
            if s.node() != dead_node {
                cm.heartbeat(ctx.now(), s.node(), s.free_slots());
            }
        }
        cm.tick(&mut ctx);

        // Node comes back: its copy of `seg` is stale (route moved on).
        env.faults.restore(dead_node);
        let cleaned = cm.reintegrate_server(&mut ctx, dead_node);
        assert_eq!(cleaned, 1);
        let s = servers.iter().find(|s| s.node() == dead_node).unwrap();
        assert_eq!(s.pending_cleanup_len(), 1);
        let _ = seg;
    }
}
