//! # tacc-cluster
//!
//! The cluster substrate of the `tacc-rs` reproduction: a faithful model of
//! the shared campus GPU cluster that the real TACC system operates on.
//!
//! The paper's execution layer runs on heterogeneous GPU nodes connected by
//! an RDMA fabric, organized in racks under a leaf–spine network, with
//! NVLink inside nodes. Scheduling and placement quality in the evaluation
//! is a function of exactly this structure, so this crate models:
//!
//! * [`GpuModel`] — heterogeneous accelerator types with memory/compute specs;
//! * [`ResourceVec`] — the multi-dimensional resource vector (GPUs, CPU
//!   cores, memory) jobs request and nodes offer;
//! * [`Node`] / [`NodeId`] — a machine with a GPU pool and a count of the
//!   leases holding it;
//! * [`Topology`] — racks and bandwidth tiers (NVLink within a node, RDMA
//!   within a rack, oversubscribed inter-rack links);
//! * [`Cluster`] — the allocatable state: find feasible placements, lease
//!   and release resources, account fragmentation.
//!
//! ## Example
//!
//! ```
//! use tacc_cluster::{Cluster, ClusterSpec, GpuModel, ResourceVec};
//!
//! // 2 racks x 4 nodes x 8 A100s.
//! let spec = ClusterSpec::uniform(2, 4, GpuModel::A100, 8);
//! let mut cluster = Cluster::new(spec);
//! assert_eq!(cluster.total_gpus(), 64);
//!
//! let demand = ResourceVec::gpus_only(4);
//! let node = cluster.nodes().next().expect("nonempty").id();
//! let lease = cluster.allocate([(node, demand)]).expect("fits");
//! assert_eq!(cluster.free_gpus(), 60);
//! assert_eq!(cluster.node(node).map(|n| n.lease_count()), Some(1));
//! cluster.release(lease).expect("valid lease");
//! assert_eq!(cluster.free_gpus(), 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocator;
mod gpu;
mod node;
mod resources;
mod topology;

pub use allocator::{Cluster, ClusterError, ClusterSpec, Lease, LeaseId};
pub use gpu::{GpuModel, GpuSpec};
pub use node::{Node, NodeId};
pub use resources::ResourceVec;
pub use topology::{BandwidthTier, LinkSpeeds, RackId, Topology};

// Cluster state crosses threads inside the parallel experiment runner;
// this guard keeps it `Send + Sync`.
const _: () = {
    const fn shareable<T: Send + Sync>() {}
    shareable::<Cluster>();
    shareable::<ClusterSpec>();
    shareable::<Topology>();
};
