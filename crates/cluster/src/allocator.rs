//! Cluster state: construction, leasing and fragmentation accounting.

use std::collections::BTreeMap;
use std::fmt;

use crate::gpu::GpuModel;
use crate::node::{Node, NodeId};
use crate::resources::ResourceVec;
use crate::topology::{LinkSpeeds, RackId, Topology};

/// Identifier of a resource lease issued by [`Cluster::allocate`].
///
/// The value is a generational index into the cluster's lease arena: the
/// low 32 bits are the slot, the high 32 bits the slot's generation at
/// grant time. A released slot bumps its generation, so a stale id can
/// never resolve to a lease that reused the slot (classic ABA protection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LeaseId(u64);

impl LeaseId {
    /// Raw value, for logging.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Constructs an arbitrary lease id for unit tests in this workspace.
    #[doc(hidden)]
    pub fn for_tests(v: u64) -> Self {
        LeaseId(v)
    }

    pub(crate) fn compose(slot: u32, generation: u32) -> Self {
        LeaseId(u64::from(generation) << 32 | u64::from(slot))
    }

    pub(crate) fn slot(self) -> usize {
        (self.0 & u64::from(u32::MAX)) as usize
    }

    pub(crate) fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

impl fmt::Display for LeaseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lease{}", self.0)
    }
}

/// A granted multi-node allocation: which nodes hold how much, for whom.
#[derive(Debug, Clone, PartialEq)]
pub struct Lease {
    id: LeaseId,
    owner: u64,
    shares: Vec<(NodeId, ResourceVec)>,
}

impl Lease {
    /// The lease identifier (pass to [`Cluster::release`]).
    pub fn id(&self) -> LeaseId {
        self.id
    }

    /// The opaque owner tag supplied at allocation (the platform uses job ids).
    pub fn owner(&self) -> u64 {
        self.owner
    }

    /// Per-node shares of the allocation.
    pub fn shares(&self) -> &[(NodeId, ResourceVec)] {
        &self.shares
    }

    /// The nodes this lease spans (in share order).
    pub fn nodes(&self) -> Vec<NodeId> {
        self.shares.iter().map(|&(n, _)| n).collect()
    }

    /// Total resources across all shares.
    pub fn total(&self) -> ResourceVec {
        self.shares.iter().map(|&(_, r)| r).sum()
    }
}

/// Errors returned by cluster allocation operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClusterError {
    /// The referenced node does not exist in this cluster.
    UnknownNode(NodeId),
    /// A requested share does not fit in the node's free resources.
    InsufficientResources {
        /// The node that could not satisfy the share.
        node: NodeId,
    },
    /// The lease is not (or no longer) active.
    UnknownLease(LeaseId),
    /// An allocation request contained no shares.
    EmptyRequest,
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnknownNode(n) => write!(f, "unknown node {n}"),
            ClusterError::InsufficientResources { node } => {
                write!(f, "insufficient free resources on {node}")
            }
            ClusterError::UnknownLease(l) => write!(f, "unknown lease {l}"),
            ClusterError::EmptyRequest => write!(f, "allocation request has no shares"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Declarative description of a cluster to build: racks of nodes grouped in
/// homogeneous pools.
///
/// # Example
///
/// ```
/// use tacc_cluster::{ClusterSpec, GpuModel, LinkSpeeds};
/// let spec = ClusterSpec::builder()
///     .pool(GpuModel::A100, 2, 4, 8) // 2 racks x 4 nodes x 8 GPUs
///     .pool(GpuModel::Rtx3090, 1, 8, 4)
///     .speeds(LinkSpeeds::campus_default())
///     .build();
/// assert_eq!(spec.total_nodes(), 16);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    pools: Vec<PoolSpec>,
    speeds: LinkSpeeds,
}

#[derive(Debug, Clone, PartialEq)]
struct PoolSpec {
    model: GpuModel,
    racks: u32,
    nodes_per_rack: u32,
    gpus_per_node: u32,
}

impl ClusterSpec {
    /// Starts building a spec.
    pub fn builder() -> ClusterSpecBuilder {
        ClusterSpecBuilder {
            pools: Vec::new(),
            speeds: LinkSpeeds::campus_default(),
        }
    }

    /// A homogeneous cluster: `racks` × `nodes_per_rack` nodes of `model`
    /// with `gpus_per_node` GPUs each, default campus link speeds.
    pub fn uniform(racks: u32, nodes_per_rack: u32, model: GpuModel, gpus_per_node: u32) -> Self {
        ClusterSpec::builder()
            .pool(model, racks, nodes_per_rack, gpus_per_node)
            .build()
    }

    /// Total node count across pools.
    pub fn total_nodes(&self) -> usize {
        self.pools
            .iter()
            .map(|p| (p.racks * p.nodes_per_rack) as usize)
            .sum()
    }

    /// Total GPU count across pools.
    pub fn total_gpus(&self) -> u32 {
        self.pools
            .iter()
            .map(|p| p.racks * p.nodes_per_rack * p.gpus_per_node)
            .sum()
    }
}

/// Builder for [`ClusterSpec`].
#[derive(Debug, Clone)]
pub struct ClusterSpecBuilder {
    pools: Vec<PoolSpec>,
    speeds: LinkSpeeds,
}

impl ClusterSpecBuilder {
    /// Adds a homogeneous pool: `racks` racks of `nodes_per_rack` nodes,
    /// each with `gpus_per_node` GPUs of `model`.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    pub fn pool(
        mut self,
        model: GpuModel,
        racks: u32,
        nodes_per_rack: u32,
        gpus_per_node: u32,
    ) -> Self {
        assert!(
            racks > 0 && nodes_per_rack > 0 && gpus_per_node > 0,
            "pool dimensions must be positive"
        );
        self.pools.push(PoolSpec {
            model,
            racks,
            nodes_per_rack,
            gpus_per_node,
        });
        self
    }

    /// Overrides the link speeds (default: [`LinkSpeeds::campus_default`]).
    pub fn speeds(mut self, speeds: LinkSpeeds) -> Self {
        self.speeds = speeds;
        self
    }

    /// Finishes the spec.
    ///
    /// # Panics
    ///
    /// Panics if no pool was added.
    pub fn build(self) -> ClusterSpec {
        assert!(!self.pools.is_empty(), "cluster needs at least one pool");
        ClusterSpec {
            pools: self.pools,
            speeds: self.speeds,
        }
    }
}

/// A generational slab of active leases — dense slots plus a LIFO free
/// list. Slot indices recycle; generations make recycled ids distinct.
///
/// Single-writer contract: slots change only through
/// [`LeaseArena::insert_with`] and [`LeaseArena::remove`], both called
/// exclusively from [`Cluster::allocate`]/[`Cluster::release`] (enforced
/// by `tacc-lint`'s ownership rules).
#[derive(Debug, Clone, Default)]
struct LeaseArena {
    slots: Vec<LeaseSlot>,
    free: Vec<u32>,
    live: usize,
    /// Fresh slots pushed (the arena grew).
    allocs: u64,
    /// Slots recycled off the free list.
    reuses: u64,
}

#[derive(Debug, Clone)]
struct LeaseSlot {
    generation: u32,
    lease: Option<Lease>,
}

impl LeaseArena {
    /// Claims a slot (recycling the most recently freed one first, so hot
    /// slots stay cache-resident), builds the lease from its new id, and
    /// stores it.
    fn insert_with(&mut self, make: impl FnOnce(LeaseId) -> Lease) -> LeaseId {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.reuses += 1;
                slot
            }
            None => {
                self.allocs += 1;
                self.slots.push(LeaseSlot {
                    generation: 0,
                    lease: None,
                });
                // tacc-lint: allow(panic-surface, reason = "2^32 concurrent leases would exhaust memory long before this narrows; guards the packed slot|generation id layout")
                u32::try_from(self.slots.len() - 1).expect("lease slot fits u32")
            }
        };
        let id = LeaseId::compose(slot, self.slots[slot as usize].generation);
        self.slots[slot as usize].lease = Some(make(id));
        self.live += 1;
        id
    }

    fn get(&self, id: LeaseId) -> Option<&Lease> {
        let slot = self.slots.get(id.slot())?;
        if slot.generation != id.generation() {
            return None;
        }
        slot.lease.as_ref()
    }

    /// Removes the lease, bumps the slot's generation (invalidating the
    /// id), and recycles the slot.
    fn remove(&mut self, id: LeaseId) -> Option<Lease> {
        let slot = self.slots.get_mut(id.slot())?;
        if slot.generation != id.generation() {
            return None;
        }
        let lease = slot.lease.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free
            // tacc-lint: allow(panic-surface, reason = "slot indices were produced by insert_with's own u32 narrowing; re-narrowing a stored id cannot fail")
            .push(u32::try_from(id.slot()).expect("slot fits u32"));
        self.live -= 1;
        Some(lease)
    }

    /// Live leases in slot order (the arena's dense iteration order; grant
    /// order is not reconstructible once slots recycle).
    fn iter(&self) -> impl Iterator<Item = &Lease> {
        self.slots.iter().filter_map(|s| s.lease.as_ref())
    }
}

/// The live, allocatable cluster: nodes, topology and active leases.
///
/// This is the single authority on who holds what; the scheduler proposes
/// placements, but only a successful [`Cluster::allocate`] commits them, and
/// the invariant "sum of leases + free == capacity, per node" is enforced
/// here (checked in tests and by debug assertions).
#[derive(Debug, Clone)]
pub struct Cluster {
    nodes: Vec<Node>,
    topology: Topology,
    leases: LeaseArena,
    alloc_failures: u64,
    // Incrementally maintained aggregates, updated on every reserve/release
    // (the only paths that change a node's free vector). They answer the
    // placement gates, asked on every attempt, in O(1)/O(log n) instead of
    // an O(nodes) scan, and deliberately mirror the historical scan-based
    // semantics: drained nodes still count (draining toggles schedulability,
    // not free capacity).
    total_capacity: ResourceVec,
    free_gpus_total: u32,
    /// Histogram of nodes by free-GPU count (`free gpus -> node count`);
    /// the greatest key is the largest free block.
    free_block_counts: BTreeMap<u32, u32>,
    /// Monotonic mutation counter; see [`Cluster::version`].
    version: u64,
}

impl Cluster {
    /// Materializes a cluster from a spec.
    ///
    /// Nodes are numbered pool by pool, rack by rack, so ids are stable for
    /// a given spec.
    pub fn new(spec: ClusterSpec) -> Self {
        let mut nodes = Vec::with_capacity(spec.total_nodes());
        let mut racks = Vec::with_capacity(spec.total_nodes());
        let mut nvlink = Vec::with_capacity(spec.total_nodes());
        let mut rack_counter: u32 = 0;
        for pool in &spec.pools {
            let has_nvlink = pool.model.spec().has_nvlink;
            for _ in 0..pool.racks {
                let rack = RackId(rack_counter);
                rack_counter += 1;
                for _ in 0..pool.nodes_per_rack {
                    let id = NodeId(u32::try_from(nodes.len()).expect("node count fits u32"));
                    nodes.push(Node::new(id, rack, pool.model, pool.gpus_per_node));
                    racks.push(rack);
                    nvlink.push(has_nvlink);
                }
            }
        }
        let total_capacity = nodes.iter().map(Node::capacity).sum();
        let free_gpus_total = nodes.iter().map(|n| n.free().gpus).sum();
        let mut free_block_counts: BTreeMap<u32, u32> = BTreeMap::new();
        for node in &nodes {
            *free_block_counts.entry(node.free().gpus).or_insert(0) += 1;
        }
        Cluster {
            nodes,
            topology: Topology::new(racks, nvlink, spec.speeds),
            leases: LeaseArena::default(),
            alloc_failures: 0,
            total_capacity,
            free_gpus_total,
            free_block_counts,
            version: 0,
        }
    }

    /// Monotonic state-version counter, bumped by every successful mutation
    /// (allocate, release, drain, undrain). Two observations of the *same*
    /// cluster with equal versions saw identical state, so callers may cache
    /// expensive derived state keyed by this value — the scheduler uses it
    /// to reuse its reclaim-feasibility snapshot across an unchanged round.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Re-counts one node after a reserve/release moved its free vector
    /// from `old` to `new`: the free-GPU histogram and the free-GPU total
    /// (the single write site for both — the lint ownership rules pin
    /// them here).
    fn note_free_change(&mut self, old: ResourceVec, new: ResourceVec) {
        if old.gpus == new.gpus {
            return;
        }
        match self.free_block_counts.get_mut(&old.gpus) {
            Some(count) if *count > 1 => *count -= 1,
            _ => {
                self.free_block_counts.remove(&old.gpus);
            }
        }
        *self.free_block_counts.entry(new.gpus).or_insert(0) += 1;
        self.free_gpus_total = self.free_gpus_total + new.gpus - old.gpus;
    }

    /// Number of failed [`Cluster::allocate`] calls over this cluster's
    /// lifetime (operational counter; clones inherit the current value).
    pub fn alloc_failures(&self) -> u64 {
        self.alloc_failures
    }

    /// The network/rack topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Looks up a node.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index())
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total GPUs in the cluster (cached, like [`Cluster::total_capacity`]).
    pub fn total_gpus(&self) -> u32 {
        self.total_capacity.gpus
    }

    /// Currently free GPUs across all nodes (O(1), incrementally indexed).
    pub fn free_gpus(&self) -> u32 {
        self.free_gpus_total
    }

    /// Total capacity vector of the cluster (cached at construction; node
    /// capacities are immutable afterwards).
    pub fn total_capacity(&self) -> ResourceVec {
        self.total_capacity
    }

    /// Number of active leases.
    pub fn lease_count(&self) -> usize {
        self.leases.live
    }

    /// Looks up an active lease (O(1): generational-index arena access).
    pub fn lease(&self, id: LeaseId) -> Option<&Lease> {
        self.leases.get(id)
    }

    /// Iterates over active leases in arena slot order (deterministic, but
    /// not grant order once slots recycle).
    pub fn leases(&self) -> impl Iterator<Item = &Lease> {
        self.leases.iter()
    }

    /// Lease-arena churn counters: `(fresh slot allocations, free-list
    /// reuses)`. Deterministic work counters, CI-gated by the perf
    /// harness.
    pub fn lease_arena_stats(&self) -> (u64, u64) {
        (self.leases.allocs, self.leases.reuses)
    }

    /// Atomically allocates the given per-node shares for `owner`.
    ///
    /// Either every share fits and a [`Lease`] is returned, or nothing is
    /// allocated.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::EmptyRequest`] if `shares` is empty.
    /// * [`ClusterError::UnknownNode`] if a node id is out of range.
    /// * [`ClusterError::InsufficientResources`] if any share does not fit;
    ///   the first offending node is reported.
    pub fn allocate(
        &mut self,
        owner: u64,
        shares: &[(NodeId, ResourceVec)],
    ) -> Result<Lease, ClusterError> {
        if shares.is_empty() {
            self.alloc_failures += 1;
            return Err(ClusterError::EmptyRequest);
        }
        // Validate the whole placement first (shares may repeat a node).
        let mut needed: BTreeMap<NodeId, ResourceVec> = BTreeMap::new();
        for &(node, demand) in shares {
            if node.index() >= self.nodes.len() {
                self.alloc_failures += 1;
                return Err(ClusterError::UnknownNode(node));
            }
            *needed.entry(node).or_insert(ResourceVec::ZERO) += demand;
        }
        for (&node, total) in &needed {
            if !self.nodes[node.index()].can_fit(total) {
                self.alloc_failures += 1;
                return Err(ClusterError::InsufficientResources { node });
            }
        }
        // Commit.
        let id = self.leases.insert_with(|id| Lease {
            id,
            owner,
            shares: needed.iter().map(|(&n, &r)| (n, r)).collect(),
        });
        for (&node, &total) in &needed {
            let before = self.nodes[node.index()].free();
            self.nodes[node.index()].reserve(id, total);
            let after = self.nodes[node.index()].free();
            self.note_free_change(before, after);
        }
        self.version += 1;
        // tacc-lint: allow(panic-surface, reason = "the id was inserted into the arena earlier in this function; a miss would mean the arena dropped a live slot")
        Ok(self.leases.get(id).expect("just inserted").clone())
    }

    /// Releases a lease, returning its resources to the nodes.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownLease`] if the lease is not active.
    pub fn release(&mut self, id: LeaseId) -> Result<(), ClusterError> {
        let lease = self
            .leases
            .remove(id)
            .ok_or(ClusterError::UnknownLease(id))?;
        for (node, _) in lease.shares {
            let before = self.nodes[node.index()].free();
            self.nodes[node.index()].release(id);
            let after = self.nodes[node.index()].free();
            self.note_free_change(before, after);
        }
        self.version += 1;
        Ok(())
    }

    /// Marks a node unschedulable (maintenance drain). Running leases are
    /// unaffected; new allocations on the node fail. Returns `false` if the
    /// node does not exist.
    pub fn drain(&mut self, node: NodeId) -> bool {
        match self.nodes.get_mut(node.index()) {
            Some(n) => {
                n.set_schedulable(false);
                self.version += 1;
                true
            }
            None => false,
        }
    }

    /// Returns a drained node to service.
    pub fn undrain(&mut self, node: NodeId) -> bool {
        match self.nodes.get_mut(node.index()) {
            Some(n) => {
                n.set_schedulable(true);
                self.version += 1;
                true
            }
            None => false,
        }
    }

    /// Number of currently drained nodes.
    pub fn drained_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.is_schedulable()).count()
    }

    /// GPU fragmentation: the share of free GPUs outside the largest free
    /// block, `1 − largest_free_block / free_gpus` — 0 when every free GPU
    /// sits on one node, approaching 1 as free capacity scatters. This is
    /// the `tacc_cluster_fragmentation` gauge.
    ///
    /// Returns 0.0 when no GPUs are free.
    pub fn fragmentation(&self) -> f64 {
        let free = self.free_gpus();
        if free == 0 {
            return 0.0;
        }
        1.0 - f64::from(self.largest_free_block()) / f64::from(free)
    }

    /// The largest single-node free GPU block — the biggest co-located job
    /// admissible right now without spanning nodes (O(log n), incrementally
    /// indexed).
    pub fn largest_free_block(&self) -> u32 {
        self.free_block_counts
            .keys()
            .next_back()
            .copied()
            .unwrap_or(0)
    }

    /// Verifies per-node accounting (free + sum(leases) == capacity) and
    /// that the incremental aggregates match a from-scratch recount.
    ///
    /// Cheap enough to run inside tests and property checks; the platform
    /// calls it at the end of every simulation in debug builds.
    pub fn check_invariants(&self) -> bool {
        let per_node = self.nodes.iter().all(|n| {
            let leased: ResourceVec = n.leases().map(|(_, r)| r).sum();
            leased + n.free() == n.capacity()
        });
        let free_total: u32 = self.nodes.iter().map(|n| n.free().gpus).sum();
        let capacity: ResourceVec = self.nodes.iter().map(Node::capacity).sum();
        let mut histogram: BTreeMap<u32, u32> = BTreeMap::new();
        for node in &self.nodes {
            *histogram.entry(node.free().gpus).or_insert(0) += 1;
        }
        per_node
            && free_total == self.free_gpus_total
            && capacity == self.total_capacity
            && histogram == self.free_block_counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cluster {
        Cluster::new(ClusterSpec::uniform(2, 2, GpuModel::A100, 8))
    }

    #[test]
    fn construction_numbers_nodes_and_racks() {
        let c = small();
        assert_eq!(c.node_count(), 4);
        assert_eq!(c.total_gpus(), 32);
        assert_eq!(c.topology().rack_count(), 2);
        let racks: Vec<usize> = c.nodes().map(|n| n.rack().index()).collect();
        assert_eq!(racks, vec![0, 0, 1, 1]);
    }

    #[test]
    fn heterogeneous_pools() {
        let spec = ClusterSpec::builder()
            .pool(GpuModel::A100, 1, 2, 8)
            .pool(GpuModel::Rtx3090, 1, 4, 4)
            .build();
        let c = Cluster::new(spec);
        assert_eq!(c.node_count(), 6);
        assert_eq!(c.total_gpus(), 32);
        let models: Vec<GpuModel> = c.nodes().map(|n| n.gpu_model()).collect();
        assert_eq!(models[0], GpuModel::A100);
        assert_eq!(models[5], GpuModel::Rtx3090);
        // Consumer nodes report PCIe intra-node tier.
        let pcie_node = NodeId::from_index(5);
        assert_eq!(
            c.topology().tier_between(pcie_node, pcie_node),
            crate::topology::BandwidthTier::IntraNodePcie
        );
    }

    #[test]
    fn allocate_release_round_trip() {
        let mut c = small();
        let n0 = NodeId::from_index(0);
        let lease = c
            .allocate(1, &[(n0, ResourceVec::gpus_only(8))])
            .expect("fits");
        assert_eq!(c.free_gpus(), 24);
        assert_eq!(lease.total().gpus, 8);
        assert_eq!(c.lease_count(), 1);
        assert!(c.check_invariants());
        c.release(lease.id()).expect("active lease");
        assert_eq!(c.free_gpus(), 32);
        assert!(c.check_invariants());
    }

    #[test]
    fn allocation_is_atomic() {
        let mut c = small();
        let n0 = NodeId::from_index(0);
        let n1 = NodeId::from_index(1);
        // First fill node 1 completely.
        c.allocate(1, &[(n1, ResourceVec::gpus_only(8))])
            .expect("fits");
        // Multi-node request where the second share cannot fit must not
        // touch node 0 either.
        let err = c
            .allocate(
                2,
                &[
                    (n0, ResourceVec::gpus_only(8)),
                    (n1, ResourceVec::gpus_only(1)),
                ],
            )
            .expect_err("node 1 is full");
        assert_eq!(err, ClusterError::InsufficientResources { node: n1 });
        assert_eq!(c.node(n0).expect("exists").free().gpus, 8);
        assert!(c.check_invariants());
    }

    #[test]
    fn repeated_node_shares_are_summed() {
        let mut c = small();
        let n0 = NodeId::from_index(0);
        // Two 4-GPU shares on the same node: fine (8 total).
        let lease = c
            .allocate(
                1,
                &[
                    (n0, ResourceVec::gpus_only(4)),
                    (n0, ResourceVec::gpus_only(4)),
                ],
            )
            .expect("sums to node capacity");
        assert_eq!(lease.shares().len(), 1);
        assert_eq!(lease.total().gpus, 8);
        // Three 4-GPU shares: 12 > 8 must fail.
        let err = c
            .allocate(
                2,
                &[
                    (n0, ResourceVec::gpus_only(2)),
                    (n0, ResourceVec::gpus_only(7)),
                ],
            )
            .expect_err("over capacity in aggregate");
        assert!(matches!(err, ClusterError::InsufficientResources { .. }));
    }

    #[test]
    fn errors_for_bad_inputs() {
        let mut c = small();
        assert_eq!(
            c.allocate(1, &[]).expect_err("empty"),
            ClusterError::EmptyRequest
        );
        let ghost = NodeId::from_index(99);
        assert_eq!(
            c.allocate(1, &[(ghost, ResourceVec::gpus_only(1))])
                .expect_err("unknown node"),
            ClusterError::UnknownNode(ghost)
        );
        assert_eq!(
            c.release(LeaseId::for_tests(42)).expect_err("no lease"),
            ClusterError::UnknownLease(LeaseId::for_tests(42))
        );
        // Every failed allocate bumped the operational counter; failed
        // releases do not.
        assert_eq!(c.alloc_failures(), 2);
    }

    #[test]
    fn alloc_failures_counts_capacity_misses() {
        let mut c = small();
        let n0 = NodeId::from_index(0);
        assert_eq!(c.alloc_failures(), 0);
        c.allocate(1, &[(n0, ResourceVec::gpus_only(8))])
            .expect("fits");
        assert_eq!(c.alloc_failures(), 0);
        c.allocate(2, &[(n0, ResourceVec::gpus_only(1))])
            .expect_err("node full");
        assert_eq!(c.alloc_failures(), 1);
    }

    #[test]
    fn double_release_fails() {
        let mut c = small();
        let n0 = NodeId::from_index(0);
        let lease = c
            .allocate(1, &[(n0, ResourceVec::gpus_only(1))])
            .expect("fits");
        c.release(lease.id()).expect("first release");
        assert!(c.release(lease.id()).is_err());
    }

    #[test]
    fn drained_nodes_reject_new_work_only() {
        let mut c = small();
        let n0 = NodeId::from_index(0);
        let lease = c
            .allocate(1, &[(n0, ResourceVec::gpus_only(2))])
            .expect("fits");
        assert!(c.drain(n0));
        assert_eq!(c.drained_count(), 1);
        // New work on the drained node fails even though capacity is free.
        assert!(matches!(
            c.allocate(2, &[(n0, ResourceVec::gpus_only(1))]),
            Err(ClusterError::InsufficientResources { .. })
        ));
        // The running lease drains out normally.
        c.release(lease.id()).expect("still valid");
        assert!(c.undrain(n0));
        assert!(c.allocate(3, &[(n0, ResourceVec::gpus_only(1))]).is_ok());
        assert!(!c.drain(NodeId::from_index(99)));
    }

    #[test]
    fn version_counts_mutations_only() {
        let mut c = small();
        let v0 = c.version();
        let n0 = NodeId::from_index(0);
        // Reads and failed mutations leave the version unchanged.
        let _ = c.free_gpus();
        c.allocate(1, &[]).expect_err("empty request");
        assert_eq!(c.version(), v0);
        let lease = c
            .allocate(1, &[(n0, ResourceVec::gpus_only(1))])
            .expect("fits");
        assert!(c.version() > v0);
        let v1 = c.version();
        c.release(lease.id()).expect("active lease");
        assert!(c.version() > v1);
        let v2 = c.version();
        assert!(c.drain(n0));
        assert!(c.undrain(n0));
        assert!(c.version() > v2);
    }

    #[test]
    fn lease_ids_are_generational() {
        let mut c = small();
        let n0 = NodeId::from_index(0);
        let a = c
            .allocate(1, &[(n0, ResourceVec::gpus_only(2))])
            .expect("fits");
        c.release(a.id()).expect("active");
        let b = c
            .allocate(2, &[(n0, ResourceVec::gpus_only(2))])
            .expect("fits");
        // The slot recycles but the generation advances, so the recycled
        // id is distinct and the stale one resolves to nothing.
        assert_eq!(b.id().slot(), a.id().slot());
        assert_ne!(b.id(), a.id());
        assert!(c.lease(a.id()).is_none(), "stale id must not resolve");
        assert_eq!(c.lease(b.id()).map(Lease::owner), Some(2));
        let (allocs, reuses) = c.lease_arena_stats();
        assert_eq!((allocs, reuses), (1, 1));
        assert!(c.check_invariants());
    }

    /// The incrementally maintained free-GPU histogram and total must match
    /// a from-scratch recount after a seeded grant/release storm.
    #[test]
    fn histogram_matches_recount_after_grant_release_storm() {
        // Deterministic xorshift64* — same storm every run.
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut c = Cluster::new(ClusterSpec::uniform(4, 4, GpuModel::A100, 8));
        let mut live: Vec<LeaseId> = Vec::new();
        for step in 0..2_000 {
            let release_bias = rng() % 100;
            if !live.is_empty() && (release_bias < 45 || live.len() > 40) {
                let id = live.swap_remove((rng() % live.len() as u64) as usize);
                c.release(id).expect("live lease");
            } else {
                let workers = 1 + (rng() % 3) as usize;
                let shares: Vec<(NodeId, ResourceVec)> = (0..workers)
                    .map(|_| {
                        (
                            NodeId::from_index((rng() % 16) as usize),
                            ResourceVec::gpus_only(1 + (rng() % 4) as u32),
                        )
                    })
                    .collect();
                if let Ok(lease) = c.allocate(rng(), &shares) {
                    live.push(lease.id());
                }
            }
            // Occasionally flip a node's schedulability: the aggregates
            // count drained nodes, so they must not move.
            if step % 97 == 0 {
                let node = NodeId::from_index((rng() % 16) as usize);
                if rng() % 2 == 0 {
                    c.drain(node);
                } else {
                    c.undrain(node);
                }
            }
        }
        // Explicit from-scratch recounts, independent of check_invariants.
        let mut histogram: BTreeMap<u32, u32> = BTreeMap::new();
        for node in c.nodes() {
            *histogram.entry(node.free().gpus).or_insert(0) += 1;
        }
        let largest = histogram.keys().next_back().copied().unwrap_or(0);
        assert_eq!(c.largest_free_block(), largest);
        let free_total: u32 = c.nodes().map(|n| n.free().gpus).sum();
        assert_eq!(c.free_gpus(), free_total);
        assert!(c.check_invariants(), "incremental aggregates diverged");
        // Drain the storm: everything must return to pristine.
        for id in live {
            c.release(id).expect("live lease");
        }
        assert_eq!(c.lease_count(), 0);
        assert!(c.check_invariants());
    }

    #[test]
    fn fragmentation_metric() {
        // 4 nodes x 8 GPUs: free = 32, largest block 8, so three quarters
        // lie outside it.
        let mut c = small();
        assert!((c.fragmentation() - 0.75).abs() < 1e-12);
        // Take 5 GPUs on each of two nodes and fill a third.
        for i in 0..2 {
            c.allocate(
                i,
                &[(NodeId::from_index(i as usize), ResourceVec::gpus_only(5))],
            )
            .expect("fits");
        }
        c.allocate(2, &[(NodeId::from_index(2), ResourceVec::gpus_only(8))])
            .expect("fits");
        // free = 3+3+0+8 = 14; largest block 8.
        assert_eq!(c.largest_free_block(), 8);
        assert!((c.fragmentation() - (1.0 - 8.0 / 14.0)).abs() < 1e-12);
        // Every free GPU on one node: nothing is fragmented.
        c.allocate(3, &[(NodeId::from_index(0), ResourceVec::gpus_only(3))])
            .expect("fits");
        c.allocate(4, &[(NodeId::from_index(1), ResourceVec::gpus_only(3))])
            .expect("fits");
        assert_eq!(c.fragmentation(), 0.0);
        // No free GPUs at all: 0, not NaN.
        c.allocate(5, &[(NodeId::from_index(3), ResourceVec::gpus_only(8))])
            .expect("fits");
        assert_eq!(c.free_gpus(), 0);
        assert_eq!(c.fragmentation(), 0.0);
    }
}
