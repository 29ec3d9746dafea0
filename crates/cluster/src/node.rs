//! Compute nodes: a GPU pool plus CPU/memory, with a count of the leases
//! holding a share of it.

use std::fmt;

use crate::gpu::GpuModel;
use crate::resources::ResourceVec;
use crate::topology::RackId;

/// Identifier of a node within a [`crate::Cluster`]. Dense, assigned at
/// cluster construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a node id from a raw index.
    ///
    /// Exposed for trace replay and tests; ids are only meaningful with
    /// respect to the cluster that numbered them.
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index fits in u32"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// One machine in the cluster: a homogeneous GPU pool plus host resources,
/// located in a rack, with the number of leases holding a share of it.
///
/// Which lease holds how much is the lease's own record
/// ([`crate::Lease::shares`], one share per node); the node keeps only
/// the count, which is what co-tenancy reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node {
    id: NodeId,
    rack: RackId,
    gpu_model: GpuModel,
    capacity: ResourceVec,
    free: ResourceVec,
    leases: usize,
    schedulable: bool,
}

impl Node {
    pub(crate) fn new(id: NodeId, rack: RackId, gpu_model: GpuModel, gpus: u32) -> Self {
        // Host sizing follows the common DGX-style ratio: 12 cores and
        // 64 GiB per GPU.
        let capacity = ResourceVec::new(gpus, gpus * 12, gpus * 64);
        Node {
            id,
            rack,
            gpu_model,
            capacity,
            free: capacity,
            leases: 0,
            schedulable: true,
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The rack this node lives in.
    pub fn rack(&self) -> RackId {
        self.rack
    }

    /// The GPU family installed in this node.
    pub fn gpu_model(&self) -> GpuModel {
        self.gpu_model
    }

    /// Total resources of the node.
    pub fn capacity(&self) -> ResourceVec {
        self.capacity
    }

    /// Currently unallocated resources.
    pub fn free(&self) -> ResourceVec {
        self.free
    }

    /// Resources currently allocated.
    pub fn used(&self) -> ResourceVec {
        self.capacity - self.free
    }

    /// True if `demand` currently fits on the node (drained nodes fit
    /// nothing).
    pub fn can_fit(&self, demand: &ResourceVec) -> bool {
        self.schedulable && demand.fits_in(&self.free)
    }

    /// Whether this node accepts new work (operators drain nodes for
    /// maintenance; running leases are unaffected).
    pub fn is_schedulable(&self) -> bool {
        self.schedulable
    }

    pub(crate) fn set_schedulable(&mut self, schedulable: bool) {
        self.schedulable = schedulable;
    }

    /// Number of active leases holding a share of this node.
    pub fn lease_count(&self) -> usize {
        self.leases
    }

    /// Reserves one lease's whole share, `demand`.
    pub(crate) fn reserve(&mut self, demand: ResourceVec) {
        debug_assert!(demand.fits_in(&self.free), "reserve() without can_fit()");
        self.free -= demand;
        self.leases += 1;
    }

    /// Hands back one lease's whole share, `held`.
    pub(crate) fn release(&mut self, held: ResourceVec) {
        self.free += held;
        self.leases -= 1;
        debug_assert!(self.free.fits_in(&self.capacity));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        Node::new(NodeId(0), RackId(0), GpuModel::A100, 8)
    }

    #[test]
    fn capacity_follows_gpu_count() {
        let n = node();
        assert_eq!(n.capacity(), ResourceVec::new(8, 96, 512));
        assert_eq!(n.free(), n.capacity());
        assert_eq!(n.used(), ResourceVec::ZERO);
    }

    #[test]
    fn reserve_and_release_round_trip() {
        let mut n = node();
        n.reserve(ResourceVec::gpus_only(4));
        n.reserve(ResourceVec::gpus_only(3));
        assert_eq!(n.free().gpus, 1);
        assert_eq!(n.used().gpus, 7);
        assert_eq!(n.lease_count(), 2);
        n.release(ResourceVec::gpus_only(4));
        assert_eq!(n.lease_count(), 1);
        n.release(ResourceVec::gpus_only(3));
        assert_eq!(n.free(), n.capacity());
        assert_eq!(n.lease_count(), 0);
    }

    #[test]
    fn drained_node_fits_nothing() {
        let mut n = node();
        assert!(n.can_fit(&ResourceVec::gpus_only(1)));
        n.set_schedulable(false);
        assert!(!n.is_schedulable());
        assert!(!n.can_fit(&ResourceVec::gpus_only(1)));
        // Existing reservations still release normally.
        n.set_schedulable(true);
        n.reserve(ResourceVec::gpus_only(2));
        n.set_schedulable(false);
        n.release(ResourceVec::gpus_only(2));
        assert_eq!(n.free(), n.capacity());
    }

    #[test]
    fn can_fit_respects_all_dims() {
        let mut n = node();
        assert!(n.can_fit(&ResourceVec::gpus_only(8)));
        n.reserve(ResourceVec::new(0, 90, 0));
        // GPUs free but CPUs nearly exhausted.
        assert!(!n.can_fit(&ResourceVec::gpus_only(1)));
        assert!(n.can_fit(&ResourceVec::new(1, 6, 32)));
    }
}
