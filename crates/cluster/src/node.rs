//! Compute nodes: a GPU pool plus CPU/memory, with per-lease accounting.

use std::fmt;

use crate::allocator::LeaseId;
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
/// located in a rack, with active leases tracked per [`LeaseId`].
///
/// The per-lease table is a small id-sorted vector rather than a tree:
/// nodes hold at most a handful of leases, binary search beats pointer
/// chasing at that size, and — crucially for the hot path — cloning a
/// node is a flat memcpy-style `Vec` clone instead of a tree rebuild.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    id: NodeId,
    rack: RackId,
    gpu_model: GpuModel,
    capacity: ResourceVec,
    free: ResourceVec,
    leases: Vec<(LeaseId, ResourceVec)>,
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
            leases: Vec::new(),
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

    /// Number of active leases.
    pub fn lease_count(&self) -> usize {
        self.leases.len()
    }

    /// The share of each active lease on this node, in ascending lease-id
    /// order.
    pub fn leases(&self) -> impl Iterator<Item = (LeaseId, ResourceVec)> + '_ {
        self.leases.iter().map(|&(id, r)| (id, r))
    }

    /// Reserves `demand` under `lease`. Multiple calls with the same lease
    /// accumulate (a lease may span allocations on this node).
    pub(crate) fn reserve(&mut self, lease: LeaseId, demand: ResourceVec) {
        debug_assert!(demand.fits_in(&self.free), "reserve() without can_fit()");
        self.free -= demand;
        match self.leases.binary_search_by_key(&lease, |&(id, _)| id) {
            Ok(pos) => self.leases[pos].1 += demand,
            Err(pos) => self.leases.insert(pos, (lease, demand)),
        }
    }

    /// Releases everything held by `lease`; returns what was freed (zero
    /// vector if the lease held nothing here).
    pub(crate) fn release(&mut self, lease: LeaseId) -> ResourceVec {
        match self.leases.binary_search_by_key(&lease, |&(id, _)| id) {
            Ok(pos) => {
                let (_, held) = self.leases.remove(pos);
                self.free += held;
                debug_assert!(self.free.fits_in(&self.capacity));
                held
            }
            Err(_) => ResourceVec::ZERO,
        }
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
        let lease = LeaseId::for_tests(1);
        n.reserve(lease, ResourceVec::gpus_only(4));
        assert_eq!(n.free().gpus, 4);
        assert_eq!(n.used().gpus, 4);
        assert_eq!(n.lease_count(), 1);
        let freed = n.release(lease);
        assert_eq!(freed.gpus, 4);
        assert_eq!(n.free(), n.capacity());
        assert_eq!(n.lease_count(), 0);
    }

    #[test]
    fn same_lease_accumulates() {
        let mut n = node();
        let lease = LeaseId::for_tests(2);
        n.reserve(lease, ResourceVec::gpus_only(2));
        n.reserve(lease, ResourceVec::gpus_only(3));
        assert_eq!(n.lease_count(), 1);
        assert_eq!(n.release(lease).gpus, 5);
    }

    #[test]
    fn release_unknown_lease_is_noop() {
        let mut n = node();
        assert_eq!(n.release(LeaseId::for_tests(99)), ResourceVec::ZERO);
        assert_eq!(n.free(), n.capacity());
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
        n.reserve(LeaseId::for_tests(1), ResourceVec::gpus_only(2));
        n.set_schedulable(false);
        assert_eq!(n.release(LeaseId::for_tests(1)).gpus, 2);
    }

    #[test]
    fn can_fit_respects_all_dims() {
        let mut n = node();
        assert!(n.can_fit(&ResourceVec::gpus_only(8)));
        n.reserve(LeaseId::for_tests(1), ResourceVec::new(0, 90, 0));
        // GPUs free but CPUs nearly exhausted.
        assert!(!n.can_fit(&ResourceVec::gpus_only(1)));
        assert!(n.can_fit(&ResourceVec::new(1, 6, 32)));
    }
}
