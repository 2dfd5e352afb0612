//! The simulated testbed: nodes, networks, storage, FTB deployment.
//!
//! Mirrors the paper's evaluation platform: a login node plus compute and
//! hot-spare nodes, all connected by InfiniBand DDR (MPI + migration
//! traffic) and GigE (FTB/maintenance), each with a local ext3 disk and a
//! memory bus that BLCR page walks consume; optionally a 4-server PVFS
//! deployment reachable over the InfiniBand network.

use crate::calib;
use crate::spare::SparePool;
use blcrsim::Blcr;
use faultplane::{FaultPlan, FaultPlane};
use ftb::{FtbBackplane, FtbConfig};
use ibfabric::{IbConfig, IbFabric, Net, NetConfig, NodeId};
use parking_lot::Mutex;
use simkit::{Link, Sharing, SimHandle};
use std::collections::BTreeMap;
use std::sync::Arc;
use storesim::{Disk, LocalFs, Pvfs};

/// Shape of the cluster to build.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of compute nodes hosting the job initially.
    pub compute_nodes: u32,
    /// Number of hot-spare nodes.
    pub spare_nodes: u32,
    /// Deploy a PVFS parallel filesystem (4 data servers, IB transport).
    pub with_pvfs: bool,
    /// InfiniBand fabric parameters.
    pub ib: IbConfig,
    /// FTB backplane parameters (the failure-detection period). A
    /// cluster's FTB tree is flat under `login`, and only leaves die, so
    /// no cluster run reads it.
    pub ftb: FtbConfig,
}

impl ClusterSpec {
    /// The paper's testbed: 8 compute nodes, 1 spare, PVFS on 4 servers.
    pub fn paper_testbed() -> Self {
        ClusterSpec {
            compute_nodes: 8,
            spare_nodes: 1,
            with_pvfs: true,
            ib: IbConfig::default(),
            ftb: FtbConfig::default(),
        }
    }

    /// A small fixture for fast tests: 2 compute nodes, 1 spare, no PVFS.
    pub fn small_test() -> Self {
        ClusterSpec {
            compute_nodes: 2,
            spare_nodes: 1,
            with_pvfs: false,
            ib: IbConfig::default(),
            ftb: FtbConfig::default(),
        }
    }

    /// `n` compute nodes, `s` spares, no PVFS.
    pub fn sized(n: u32, s: u32) -> Self {
        ClusterSpec {
            compute_nodes: n,
            spare_nodes: s,
            with_pvfs: false,
            ib: IbConfig::default(),
            ftb: FtbConfig::default(),
        }
    }
}

/// Per-node local resources.
pub struct NodeResources {
    /// Local ext3-like filesystem.
    pub fs: LocalFs,
    /// BLCR engine sharing the node's checkpoint-walk memory bandwidth.
    pub blcr: Blcr,
    /// The raw memory-walk link (stats).
    pub membus: Link,
}

struct ClusterInner {
    handle: SimHandle,
    spec: ClusterSpec,
    fabric: IbFabric,
    gige: Net,
    ftb: FtbBackplane,
    login: NodeId,
    compute: Vec<NodeId>,
    spares: Vec<NodeId>,
    // BTreeMap: fault-plane installation and cache drops iterate every
    // node; NodeId order keeps their side effects deterministic.
    nodes: BTreeMap<NodeId, NodeResources>,
    pvfs: Option<Pvfs>,
    fault_plane: Mutex<Option<FaultPlane>>,
    /// The shared hot-spare pool, seeded with the spare nodes. Every job
    /// launched on this cluster leases migration targets from it.
    spare_pool: SparePool,
}

/// The built cluster. Cloning shares it.
#[derive(Clone)]
pub struct Cluster {
    inner: Arc<ClusterInner>,
}

impl Cluster {
    /// Build a cluster per `spec`. Node ids: login = 0, compute 1..=C,
    /// spares C+1..=C+S, PVFS servers above those.
    pub fn build(handle: &SimHandle, spec: ClusterSpec) -> Cluster {
        let fabric = IbFabric::new(handle, spec.ib.clone());
        let gige = Net::new(handle, NetConfig::gige());
        let ftb = FtbBackplane::new(handle, gige.clone(), spec.ftb.clone());

        let login = NodeId(0);
        gige.add_node(login);
        ftb.add_agent(login, None);

        let mut nodes = BTreeMap::new();
        let mut compute = Vec::new();
        let mut spares = Vec::new();
        let total = spec.compute_nodes + spec.spare_nodes;
        for i in 1..=total {
            let node = NodeId(i);
            fabric.attach(node);
            gige.add_node(node);
            ftb.add_agent(node, Some(login));
            let disk = Disk::new(handle, &format!("ext3@{node}"), calib::ext3_disk());
            let membus = Link::new(
                handle,
                &format!("ckptwalk@{node}"),
                calib::CHECKPOINT_WALK_BW,
                Sharing::Fair,
            );
            nodes.insert(
                node,
                NodeResources {
                    fs: LocalFs::new(disk),
                    blcr: Blcr::new(membus.clone(), calib::blcr_config()),
                    membus,
                },
            );
            if i <= spec.compute_nodes {
                compute.push(node);
            } else {
                spares.push(node);
            }
        }

        let pvfs = if spec.with_pvfs {
            let cfg = calib::pvfs_config();
            let server_nodes: Vec<NodeId> = (0..cfg.servers as u32)
                .map(|k| NodeId(total + 1 + k))
                .collect();
            Some(Pvfs::with_network(
                handle,
                cfg,
                fabric.net().clone(),
                server_nodes,
            ))
        } else {
            None
        };

        let spare_pool = SparePool::new(spares.clone());
        Cluster {
            inner: Arc::new(ClusterInner {
                handle: handle.clone(),
                spec,
                fabric,
                gige,
                ftb,
                login,
                compute,
                spares,
                nodes,
                pvfs,
                fault_plane: Mutex::new(None),
                spare_pool,
            }),
        }
    }

    /// Instantiate `plan` and wire the resulting [`FaultPlane`] into every
    /// injection point the cluster owns: the IB fabric, the GigE network
    /// (which carries the FTB tree), each node's local filesystem and BLCR
    /// engine, and the PVFS deployment if present. The Job Manager also
    /// polls the installed plane for scheduled spare-node crashes.
    ///
    /// Call before launching the job. Returns the live plane (for
    /// injection statistics); it is also retained by the cluster.
    pub fn install_fault_plane(&self, plan: &FaultPlan) -> FaultPlane {
        let plane = FaultPlane::new(&self.inner.handle, plan);
        let hook = Arc::new(plane.clone());
        self.inner.fabric.net().set_fault_hook(hook.clone());
        self.inner.gige.set_fault_hook(hook.clone());
        for res in self.inner.nodes.values() {
            res.fs.set_fault_hook(hook.clone());
            res.blcr.set_fault_hook(hook.clone());
        }
        if let Some(p) = &self.inner.pvfs {
            p.set_fault_hook(hook);
        }
        *self.inner.fault_plane.lock() = Some(plane.clone());
        plane
    }

    /// The installed fault plane, if any.
    pub fn fault_plane(&self) -> Option<FaultPlane> {
        self.inner.fault_plane.lock().clone()
    }

    /// Simulation handle.
    pub fn handle(&self) -> &SimHandle {
        &self.inner.handle
    }

    /// The cluster's shape.
    pub fn spec(&self) -> &ClusterSpec {
        &self.inner.spec
    }

    /// The InfiniBand fabric.
    pub fn fabric(&self) -> &IbFabric {
        &self.inner.fabric
    }

    /// The GigE maintenance network.
    pub fn gige(&self) -> &Net {
        &self.inner.gige
    }

    /// The FTB backplane.
    pub fn ftb(&self) -> &FtbBackplane {
        &self.inner.ftb
    }

    /// The login node (Job Manager home, FTB tree root).
    pub fn login(&self) -> NodeId {
        self.inner.login
    }

    /// Compute nodes in id order.
    pub fn compute_nodes(&self) -> &[NodeId] {
        &self.inner.compute
    }

    /// Hot-spare nodes in id order (the pool's initial contents; see
    /// [`Cluster::spare_pool`] for the live allocation state).
    pub fn spare_nodes(&self) -> &[NodeId] {
        &self.inner.spares
    }

    /// The shared hot-spare pool: lease/settle/reclaim API for migration
    /// targets, shared by every job on the cluster.
    pub fn spare_pool(&self) -> &SparePool {
        &self.inner.spare_pool
    }

    /// Local resources of `node`.
    ///
    /// # Panics
    /// Panics for nodes without local resources (login, PVFS servers).
    pub fn node(&self, node: NodeId) -> &NodeResources {
        self.inner
            .nodes
            .get(&node)
            .unwrap_or_else(|| panic!("no local resources on {node}"))
    }

    /// The PVFS deployment, if configured.
    pub fn pvfs(&self) -> Option<&Pvfs> {
        self.inner.pvfs.as_ref()
    }

    /// Drop page caches on every compute/spare node (cold-restart setup).
    pub fn drop_all_caches(&self) {
        use storesim::CkptStore;
        for res in self.inner.nodes.values() {
            res.fs.drop_caches();
        }
        if let Some(p) = &self.inner.pvfs {
            p.client(self.inner.login).drop_caches();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Simulation;

    #[test]
    fn paper_testbed_layout() {
        let sim = Simulation::new(0);
        let c = Cluster::build(&sim.handle(), ClusterSpec::paper_testbed());
        assert_eq!(c.compute_nodes().len(), 8);
        assert_eq!(c.spare_nodes().len(), 1);
        assert_eq!(c.login(), NodeId(0));
        assert_eq!(c.compute_nodes()[0], NodeId(1));
        assert_eq!(c.spare_nodes()[0], NodeId(9));
        assert!(c.pvfs().is_some());
        // every compute/spare node has resources
        for n in c.compute_nodes().iter().chain(c.spare_nodes()) {
            let _ = c.node(*n);
        }
    }

    #[test]
    #[should_panic(expected = "no local resources")]
    fn login_has_no_local_resources() {
        let sim = Simulation::new(0);
        let c = Cluster::build(&sim.handle(), ClusterSpec::small_test());
        let _ = c.node(NodeId(0));
    }
}
