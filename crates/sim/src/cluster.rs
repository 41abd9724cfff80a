//! The Table I cluster, encoded as simulation resources.
//!
//! [`ClusterSpec`] captures the evaluation cluster of the paper (counts and
//! core/lane numbers); [`SimEnv`] instantiates it into live [`Resource`]s
//! shared by every component of a single experiment. One `SimEnv` == one
//! deployed cluster.

use std::sync::Arc;

use crate::fault::FaultPlan;
use crate::latency::LatencyModel;
use crate::metrics::MetricsRegistry;
use crate::resource::Resource;

/// Per-node bundle of contended resources.
pub struct NodeRes {
    /// Human-readable name, e.g. `astore-1`.
    pub name: String,
    /// The node's CPU cores.
    pub cpu: Arc<Resource>,
    /// The node's NIC link(s) — occupancy models bandwidth serialization.
    pub nic: Arc<Resource>,
    /// PMem device, present on AStore servers.
    pub pmem: Option<Arc<Resource>>,
    /// SSD array, present on Page/LogStore servers.
    pub ssd: Option<Arc<Resource>>,
    /// Deployment-wide metric registry (the same instance as
    /// [`SimEnv::metrics`]), so server-side components built from a node
    /// handle publish into the cluster's report.
    pub metrics: Arc<MetricsRegistry>,
}

/// Shape of the simulated cluster (defaults mirror Table I).
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// AStore data servers (Table I: 3 bare-metal boxes + root server).
    pub astore_servers: usize,
    /// Cores per AStore server (Xeon 8260: 96).
    pub astore_cores: usize,
    /// NIC ports per AStore server (2 × ConnectX-5 25 Gbps).
    pub astore_nic_ports: usize,
    /// Page/LogStore data servers (3 boxes + root server).
    pub storage_servers: usize,
    /// Cores per Page/LogStore server (Xeon 5218: 64).
    pub storage_cores: usize,
    /// NIC ports per storage server.
    pub storage_nic_ports: usize,
    /// DBEngine VM cores (Table I: 20-core VM).
    pub engine_cores: usize,
    /// Latency calibration to use.
    pub model: LatencyModel,
}

impl ClusterSpec {
    /// The Table I configuration.
    pub fn paper_default() -> Self {
        ClusterSpec {
            astore_servers: 3,
            astore_cores: 96,
            astore_nic_ports: 2,
            storage_servers: 3,
            storage_cores: 64,
            storage_nic_ports: 1,
            engine_cores: 20,
            model: LatencyModel::paper_default(),
        }
    }

    /// A small configuration for fast unit tests (single server each).
    pub fn tiny() -> Self {
        ClusterSpec {
            astore_servers: 1,
            astore_cores: 8,
            astore_nic_ports: 1,
            storage_servers: 1,
            storage_cores: 8,
            storage_nic_ports: 1,
            engine_cores: 4,
            model: LatencyModel::paper_default(),
        }
    }

    /// Override the DBEngine core count (Table III rows use 32/16/8).
    pub fn with_engine_cores(mut self, cores: usize) -> Self {
        self.engine_cores = cores;
        self
    }

    /// Instantiate the cluster into live resources. Every resource is
    /// built with [`Resource::with_metrics`], so per-resource wait/service
    /// histograms and utilization timelines land in the deployment
    /// registry; the fault plan gets the deployment trace log, so
    /// timestamped injections show up as `fault/*` events in reports.
    pub fn build(self) -> Arc<SimEnv> {
        let metrics = Arc::new(MetricsRegistry::new());
        let astore_nodes = (0..self.astore_servers)
            .map(|i| {
                Arc::new(NodeRes {
                    name: format!("astore-{i}"),
                    cpu: Arc::new(Resource::with_metrics(
                        format!("astore-{i}.cpu"),
                        self.astore_cores,
                        &metrics,
                    )),
                    nic: Arc::new(Resource::with_metrics(
                        format!("astore-{i}.nic"),
                        self.astore_nic_ports,
                        &metrics,
                    )),
                    pmem: Some(Arc::new(Resource::with_metrics(
                        format!("astore-{i}.pmem"),
                        self.model.pmem_lanes,
                        &metrics,
                    ))),
                    ssd: None,
                    metrics: Arc::clone(&metrics),
                })
            })
            .collect();
        let storage_nodes = (0..self.storage_servers)
            .map(|i| {
                Arc::new(NodeRes {
                    name: format!("storage-{i}"),
                    cpu: Arc::new(Resource::with_metrics(
                        format!("storage-{i}.cpu"),
                        self.storage_cores,
                        &metrics,
                    )),
                    nic: Arc::new(Resource::with_metrics(
                        format!("storage-{i}.nic"),
                        self.storage_nic_ports,
                        &metrics,
                    )),
                    pmem: None,
                    ssd: Some(Arc::new(Resource::with_metrics(
                        format!("storage-{i}.ssd"),
                        self.model.ssd_lanes,
                        &metrics,
                    ))),
                    metrics: Arc::clone(&metrics),
                })
            })
            .collect();
        let faults = Arc::new(FaultPlan::new());
        faults.attach_trace(Arc::clone(metrics.trace()));
        Arc::new(SimEnv {
            engine_cpu: Arc::new(Resource::with_metrics(
                "engine.cpu",
                self.engine_cores,
                &metrics,
            )),
            engine_nic: Arc::new(Resource::with_metrics("engine.nic", 1, &metrics)),
            astore_nodes,
            storage_nodes,
            faults,
            model: self.model,
            metrics,
        })
    }
}

/// A live simulated cluster: the resources every component charges time on.
pub struct SimEnv {
    /// DBEngine VM cores.
    pub engine_cpu: Arc<Resource>,
    /// DBEngine NIC link.
    pub engine_nic: Arc<Resource>,
    /// AStore data servers (PMem-equipped).
    pub astore_nodes: Vec<Arc<NodeRes>>,
    /// Page/LogStore data servers (SSD-equipped).
    pub storage_nodes: Vec<Arc<NodeRes>>,
    /// Shared failure-injection switches.
    pub faults: Arc<FaultPlan>,
    /// Latency calibration.
    pub model: LatencyModel,
    /// Deployment-wide metric registry every subsystem publishes into.
    pub metrics: Arc<MetricsRegistry>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::VTime;

    #[test]
    fn paper_default_matches_table1() {
        let env = ClusterSpec::paper_default().build();
        assert_eq!(env.astore_nodes.len(), 3);
        assert_eq!(env.storage_nodes.len(), 3);
        assert_eq!(env.engine_cpu.lanes(), 20);
        assert!(env.astore_nodes[0].pmem.is_some());
        assert!(env.astore_nodes[0].ssd.is_none());
        assert!(env.storage_nodes[0].ssd.is_some());
        assert!(env.storage_nodes[0].pmem.is_none());
        assert_eq!(env.astore_nodes[0].cpu.lanes(), 96);
    }

    #[test]
    fn engine_cores_override() {
        let env = ClusterSpec::paper_default().with_engine_cores(8).build();
        assert_eq!(env.engine_cpu.lanes(), 8);
    }

    #[test]
    fn build_attaches_resource_metrics_and_fault_trace() {
        let env = ClusterSpec::tiny().build();
        let gauges = env.metrics.gauge_values();
        // Every resource advertises its parallelism under <name>.lanes.
        for key in [
            "engine.cpu.lanes",
            "engine.nic.lanes",
            "astore-0.cpu.lanes",
            "astore-0.nic.lanes",
            "astore-0.pmem.lanes",
            "storage-0.cpu.lanes",
            "storage-0.nic.lanes",
            "storage-0.ssd.lanes",
        ] {
            assert!(gauges.get(key).is_some_and(|v| *v > 0), "missing {key}");
        }
        // Acquisitions split into wait/service histograms on the registry.
        env.engine_cpu.acquire(VTime::ZERO, VTime::from_micros(5));
        let lats = env.metrics.latency_handles();
        let wait = lats.iter().find(|(k, _)| k == "engine.cpu.wait").unwrap();
        assert_eq!(wait.1.count(), 1);
        // Fault injections with timestamps reach the deployment trace log.
        env.metrics.trace().enable();
        env.faults.crash_at(VTime::from_millis(1), 0);
        let evs = env.metrics.trace().events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].component, "fault");
        env.metrics.trace().disable();
    }
}
