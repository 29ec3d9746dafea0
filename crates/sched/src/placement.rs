//! Gang placement strategies (experiment T2).
//!
//! Placement answers "which physical nodes, *right now*" — the spatial
//! half of scheduling. The temporal half ("when, and with how much left
//! over") is the reservation sweep in [`crate::backfill`]: it counts GPUs
//! cluster-wide and only *forecasts* availability, so every forecast
//! start still funnels through a [`Planner`] call against the real
//! cluster before any job launches.

use tacc_cluster::{Cluster, Node, NodeId, ResourceVec};

/// How the scheduler maps a gang's workers onto nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementStrategy {
    /// Best-fit packing: prefer the fullest nodes that still fit, keeping
    /// large contiguous blocks free (low fragmentation).
    #[default]
    Pack,
    /// Worst-fit spreading: prefer the emptiest nodes (low interference,
    /// high fragmentation).
    Spread,
    /// Topology-aware: fit the gang on one node if possible, else within
    /// one rack, else pack across as few racks as possible (fast
    /// collectives for distributed jobs).
    TopologyAware,
}

impl std::fmt::Display for PlacementStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PlacementStrategy::Pack => "pack",
            PlacementStrategy::Spread => "spread",
            PlacementStrategy::TopologyAware => "topology-aware",
        };
        f.write_str(s)
    }
}

/// Deterministic counters of planner work, accumulated across
/// [`Planner::plan_counted`] calls. They measure *algorithm effort*, not
/// wall time, so identical inputs always produce identical counts — which
/// is what the perf harness and its CI gate compare.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlanStats {
    /// Placement attempts (one per `plan_counted` call with `workers > 0`).
    pub attempts: u64,
    /// Nodes the scan examined across all attempts: the whole cluster per
    /// greedy pass and per topology tier 1, each rack's nodes in tier 2.
    pub nodes_scanned: u64,
    /// Attempts refused by the O(1) capacity gates before any node scan.
    pub fastpath_rejects: u64,
    /// Always 0: placement scans the nodes and probes no free-capacity
    /// index. Kept while the benchmark still reads it by name.
    pub free_index_probes: u64,
}

/// A placement planner: pure logic over a cluster snapshot, no state.
///
/// Returns, for a gang of `workers` each needing `per_worker`, the node of
/// every worker — or `None` if the gang cannot be placed atomically right
/// now (gang scheduling is all-or-nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Planner {
    strategy: PlacementStrategy,
}

impl Planner {
    /// Creates a planner with the given strategy.
    pub fn new(strategy: PlacementStrategy) -> Self {
        Planner { strategy }
    }

    /// The strategy in use.
    pub fn strategy(&self) -> PlacementStrategy {
        self.strategy
    }

    /// Plans worker→node assignments for a gang, or `None` if it does not
    /// fit. Does **not** allocate; the caller commits via
    /// [`Cluster::allocate`].
    pub fn plan(
        &self,
        cluster: &Cluster,
        workers: u32,
        per_worker: ResourceVec,
    ) -> Option<Vec<NodeId>> {
        let mut stats = PlanStats::default();
        self.plan_counted(cluster, workers, per_worker, &mut stats)
    }

    /// [`Planner::plan`] with work accounting: accumulates attempt, node-scan
    /// and fast-path-reject counts into `stats`.
    ///
    /// Before scanning any node, two O(1) infeasibility gates read totals
    /// the cluster keeps current on every grant and return (free GPUs and
    /// the largest free block). Both are *conservative*: the cached totals
    /// include drained nodes, a superset of schedulable capacity, so a gate
    /// only fires when the scan would certainly have returned `None` — the
    /// gates never change a scheduling decision. Past them, this is the
    /// scan [`Planner::plan_ungated`] runs.
    pub fn plan_counted(
        &self,
        cluster: &Cluster,
        workers: u32,
        per_worker: ResourceVec,
        stats: &mut PlanStats,
    ) -> Option<Vec<NodeId>> {
        if workers == 0 {
            return Some(Vec::new());
        }
        stats.attempts += 1;
        // Gate 1: aggregate GPU demand exceeds every free GPU in the
        // cluster (drained ones included) — no assignment can exist.
        // Gate 2: a single worker needs more GPUs than the largest free
        // block on any node — no node can host even one worker.
        // Neither gate fires for CPU-only work (`per_worker.gpus == 0`).
        let total_gpus = per_worker.gpus.saturating_mul(workers);
        if total_gpus > cluster.free_gpus() || per_worker.gpus > cluster.largest_free_block() {
            stats.fastpath_rejects += 1;
            return None;
        }
        self.scan(cluster, workers, per_worker, stats)
    }

    /// [`Planner::plan`] **without** the two O(1) gates: every attempt runs
    /// the node scan. The naive reference scheduler plans through this, so
    /// the differential suite checks that the gates never change a
    /// decision.
    pub fn plan_ungated(
        &self,
        cluster: &Cluster,
        workers: u32,
        per_worker: ResourceVec,
    ) -> Option<Vec<NodeId>> {
        if workers == 0 {
            return Some(Vec::new());
        }
        self.scan(cluster, workers, per_worker, &mut PlanStats::default())
    }

    fn scan(
        &self,
        cluster: &Cluster,
        workers: u32,
        per_worker: ResourceVec,
        stats: &mut PlanStats,
    ) -> Option<Vec<NodeId>> {
        match self.strategy {
            PlacementStrategy::Pack => plan_greedy(cluster, workers, per_worker, false, stats),
            PlacementStrategy::Spread => plan_greedy(cluster, workers, per_worker, true, stats),
            PlacementStrategy::TopologyAware => plan_topology(cluster, workers, per_worker, stats),
        }
    }
}

/// Greedy fill over the schedulable nodes one worker fits, ordered by
/// `(free gpus, free cpu cores, node id)`: ascending for packing,
/// descending for spreading. A single worker takes the first node of that
/// order, selected in one pass; a gang needs the whole order, so it sorts.
fn plan_greedy(
    cluster: &Cluster,
    workers: u32,
    per_worker: ResourceVec,
    spread: bool,
    stats: &mut PlanStats,
) -> Option<Vec<NodeId>> {
    stats.nodes_scanned += cluster.node_count() as u64;
    let candidates = cluster
        .nodes()
        .filter(|n| n.is_schedulable() && per_worker.fits_in(&n.free()));
    let key = |n: &&Node| (n.free().gpus, n.free().cpu_cores, n.id());
    if workers == 1 {
        let best = if spread {
            candidates.max_by_key(key)
        } else {
            candidates.min_by_key(key)
        };
        return best.map(|n| vec![n.id()]);
    }
    let mut nodes: Vec<(NodeId, ResourceVec)> = candidates.map(|n| (n.id(), n.free())).collect();
    nodes.sort_by_key(|&(id, free)| (free.gpus, free.cpu_cores, id));
    if !spread {
        return fill_packed(nodes, workers, per_worker);
    }
    // Round-robin across the emptiest nodes: one worker per node first,
    // wrapping only when every node has taken one.
    nodes.reverse();
    let mut assignment = Vec::with_capacity(workers as usize);
    while assignment.len() < workers as usize {
        let placed = assignment.len();
        for (id, free) in nodes.iter_mut() {
            if assignment.len() == workers as usize {
                break;
            }
            if per_worker.fits_in(free) {
                assignment.push(*id);
                *free -= per_worker;
            }
        }
        if assignment.len() == placed {
            return None;
        }
    }
    Some(assignment)
}

/// Topology-aware: single node → single rack → fewest racks (greedy by
/// rack free capacity), packing within each tier.
fn plan_topology(
    cluster: &Cluster,
    workers: u32,
    per_worker: ResourceVec,
    stats: &mut PlanStats,
) -> Option<Vec<NodeId>> {
    // Tier 1: whole gang on one node; among feasible nodes pick the
    // fullest (min free GPUs), node id breaking ties.
    stats.nodes_scanned += cluster.node_count() as u64;
    let single = cluster
        .nodes()
        .filter(|n| n.is_schedulable() && copies(n.free(), workers, per_worker) == workers)
        .min_by_key(|n| (n.free().gpus, n.id()));
    if let Some(node) = single {
        return Some(vec![node.id(); workers as usize]);
    }

    // Tier 2: whole gang within one rack. Of the racks that hold it, the
    // one with the least spare GPUs (pack racks too), lowest rack first.
    let mut best_rack: Option<(u32, Vec<NodeId>)> = None;
    for rack in 0..cluster.topology().rack_count() {
        let in_rack: Vec<&Node> = cluster
            .nodes()
            .filter(|n| n.rack().index() == rack)
            .collect();
        if let Some(plan) = plan_within(&in_rack, workers, per_worker, stats) {
            let rack_free: u32 = in_rack.iter().map(|n| n.free().gpus).sum();
            if best_rack.as_ref().is_none_or(|(free, _)| rack_free < *free) {
                best_rack = Some((rack_free, plan));
            }
        }
    }
    if let Some((_, plan)) = best_rack {
        return Some(plan);
    }

    // Tier 3: fall back to cluster-wide packing (minimizes nodes, which
    // correlates with fewer racks).
    plan_greedy(cluster, workers, per_worker, false, stats)
}

/// Packs a gang into an explicit node subset (ordered by free GPUs, node
/// id breaking ties), or `None`.
fn plan_within(
    subset: &[&Node],
    workers: u32,
    per_worker: ResourceVec,
    stats: &mut PlanStats,
) -> Option<Vec<NodeId>> {
    stats.nodes_scanned += subset.len() as u64;
    let mut nodes: Vec<(NodeId, ResourceVec)> = subset
        .iter()
        .filter(|n| n.is_schedulable() && per_worker.fits_in(&n.free()))
        .map(|n| (n.id(), n.free()))
        .collect();
    nodes.sort_by_key(|&(id, free)| (free.gpus, id));
    fill_packed(nodes, workers, per_worker)
}

/// Exhausts each node, in the given order, before moving to the next.
fn fill_packed(
    nodes: Vec<(NodeId, ResourceVec)>,
    workers: u32,
    per_worker: ResourceVec,
) -> Option<Vec<NodeId>> {
    let mut assignment = Vec::with_capacity(workers as usize);
    for (id, free) in nodes {
        let fit = copies(free, workers - assignment.len() as u32, per_worker);
        assignment.extend(std::iter::repeat_n(id, fit as usize));
        if assignment.len() == workers as usize {
            return Some(assignment);
        }
    }
    None
}

/// How many workers of `per_worker` fit in `free`, counted up to `cap`.
fn copies(mut free: ResourceVec, cap: u32, per_worker: ResourceVec) -> u32 {
    let mut fit = 0;
    while fit < cap && per_worker.fits_in(&free) {
        free -= per_worker;
        fit += 1;
    }
    fit
}

/// Whether a gang of `workers` fits in the schedulable nodes' free
/// vectors `frees`: [`Planner::plan`]'s yes-or-no under every strategy,
/// since Pack and Spread fill each node to its copy count and
/// TopologyAware falls back to a Pack fill.
pub(crate) fn gang_fits(
    frees: impl IntoIterator<Item = ResourceVec>,
    workers: u32,
    per_worker: ResourceVec,
) -> bool {
    let mut left = workers;
    for free in frees {
        left -= copies(free, left, per_worker);
    }
    left == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_cluster::{ClusterSpec, GpuModel};

    fn cluster() -> Cluster {
        // 2 racks x 2 nodes x 8 GPUs.
        Cluster::new(ClusterSpec::uniform(2, 2, GpuModel::A100, 8))
    }

    fn occupy(cluster: &mut Cluster, node: usize, gpus: u32) {
        let id = NodeId::from_index(node);
        cluster
            .allocate([(id, ResourceVec::gpus_only(gpus))])
            .expect("test occupancy fits");
    }

    #[test]
    fn pack_prefers_fullest_node() {
        let mut c = cluster();
        occupy(&mut c, 1, 6); // node1 has 2 free
        let plan = Planner::new(PlacementStrategy::Pack)
            .plan(&c, 1, ResourceVec::gpus_only(2))
            .expect("fits");
        assert_eq!(plan, vec![NodeId::from_index(1)]);
    }

    #[test]
    fn spread_prefers_emptiest_nodes() {
        let mut c = cluster();
        occupy(&mut c, 0, 4);
        let plan = Planner::new(PlacementStrategy::Spread)
            .plan(&c, 2, ResourceVec::gpus_only(2))
            .expect("fits");
        // Two workers land on two different empty nodes, not node 0.
        assert_eq!(plan.len(), 2);
        assert_ne!(plan[0], plan[1]);
        assert!(!plan.contains(&NodeId::from_index(0)));
    }

    #[test]
    fn pack_colocates_gang_on_one_node() {
        let c = cluster();
        let plan = Planner::new(PlacementStrategy::Pack)
            .plan(&c, 2, ResourceVec::gpus_only(4))
            .expect("fits");
        assert_eq!(plan[0], plan[1]);
    }

    #[test]
    fn gang_is_all_or_nothing() {
        let mut c = cluster();
        // Leave 7,7,7,7 free per node by occupying 1 each: 28 total free,
        // but a 4x8 gang (needs 8 per node) cannot fit anywhere.
        for i in 0..4 {
            occupy(&mut c, i, 1);
        }
        for strategy in [
            PlacementStrategy::Pack,
            PlacementStrategy::Spread,
            PlacementStrategy::TopologyAware,
        ] {
            assert_eq!(
                Planner::new(strategy).plan(&c, 4, ResourceVec::gpus_only(8)),
                None,
                "{strategy} should refuse partial gangs"
            );
        }
    }

    #[test]
    fn topology_prefers_single_node_then_rack() {
        let mut c = cluster();
        let planner = Planner::new(PlacementStrategy::TopologyAware);
        // 8 GPUs as 2x4: fits one node.
        let plan = planner
            .plan(&c, 2, ResourceVec::gpus_only(4))
            .expect("fits");
        assert_eq!(plan[0], plan[1]);
        // Fill node0 fully, node1 partially: a 2x8 gang needs two full
        // nodes; only rack1 (nodes 2,3) has them.
        occupy(&mut c, 0, 8);
        occupy(&mut c, 1, 2);
        let plan = planner
            .plan(&c, 2, ResourceVec::gpus_only(8))
            .expect("fits");
        let racks: Vec<usize> = plan
            .iter()
            .map(|&n| c.topology().rack_of(n).index())
            .collect();
        assert_eq!(racks, vec![1, 1]);
    }

    #[test]
    fn topology_falls_back_across_racks() {
        let mut c = cluster();
        // One full node free per rack only.
        occupy(&mut c, 1, 8);
        occupy(&mut c, 3, 8);
        let plan = Planner::new(PlacementStrategy::TopologyAware)
            .plan(&c, 2, ResourceVec::gpus_only(8))
            .expect("fits across racks");
        assert_eq!(c.topology().racks_spanned(&plan), 2);
    }

    #[test]
    fn drained_nodes_are_never_planned() {
        let mut c = cluster();
        c.drain(NodeId::from_index(0));
        c.drain(NodeId::from_index(1));
        for strategy in [
            PlacementStrategy::Pack,
            PlacementStrategy::Spread,
            PlacementStrategy::TopologyAware,
        ] {
            let plan = Planner::new(strategy)
                .plan(&c, 2, ResourceVec::gpus_only(8))
                .expect("rack 1 still has two nodes");
            assert!(!plan.contains(&NodeId::from_index(0)), "{strategy}");
            assert!(!plan.contains(&NodeId::from_index(1)), "{strategy}");
        }
        // Drain everything: nothing places.
        c.drain(NodeId::from_index(2));
        c.drain(NodeId::from_index(3));
        assert_eq!(
            Planner::default().plan(&c, 1, ResourceVec::gpus_only(1)),
            None
        );
    }

    #[test]
    fn infeasible_returns_none() {
        let c = cluster();
        let planner = Planner::new(PlacementStrategy::Pack);
        assert_eq!(planner.plan(&c, 1, ResourceVec::gpus_only(9)), None);
        assert_eq!(planner.plan(&c, 5, ResourceVec::gpus_only(8)), None);
    }

    #[test]
    fn shares_align_with_assignment() {
        let c = cluster();
        let plan = Planner::new(PlacementStrategy::Pack)
            .plan(&c, 2, ResourceVec::gpus_only(4))
            .expect("fits");
        let per_worker = ResourceVec::gpus_only(4);
        let mut c2 = c.clone();
        let lease = c2
            .allocate(plan.iter().map(|&n| (n, per_worker)))
            .expect("plan is allocatable");
        // One share per node of the plan, holding that node's workers.
        for &(node, share) in c2.lease(lease).expect("granted").shares() {
            let workers = plan.iter().filter(|&&n| n == node).count() as u32;
            assert_eq!(share, ResourceVec::gpus_only(4 * workers));
        }
    }

    /// The plan by definition: every schedulable node one worker fits,
    /// sorted by `(free gpus, free cpu cores, id)` (descending for
    /// Spread) and filled greedily — packed node by node, or round-robin
    /// for Spread. Topology-aware takes the `(free gpus, id)`-least node
    /// that holds the whole gang, else the rack with the fewest free GPUs
    /// that holds it, else the packed plan.
    fn plan_by_definition(
        cluster: &Cluster,
        strategy: PlacementStrategy,
        workers: u32,
        per_worker: ResourceVec,
    ) -> Option<Vec<NodeId>> {
        let pack = |mut order: Vec<(NodeId, ResourceVec)>| {
            let mut plan = Vec::new();
            for (id, free) in order.iter_mut() {
                while plan.len() < workers as usize && per_worker.fits_in(free) {
                    plan.push(*id);
                    *free -= per_worker;
                }
            }
            (plan.len() == workers as usize).then_some(plan)
        };
        let mut order: Vec<(NodeId, ResourceVec)> = cluster
            .nodes()
            .filter(|n| n.is_schedulable() && per_worker.fits_in(&n.free()))
            .map(|n| (n.id(), n.free()))
            .collect();
        order.sort_by_key(|&(id, free)| (free.gpus, free.cpu_cores, id));
        match strategy {
            PlacementStrategy::Pack => pack(order),
            PlacementStrategy::Spread => {
                order.reverse();
                let mut plan = Vec::new();
                while plan.len() < workers as usize {
                    let before = plan.len();
                    for (id, free) in order.iter_mut() {
                        if plan.len() < workers as usize && per_worker.fits_in(free) {
                            plan.push(*id);
                            *free -= per_worker;
                        }
                    }
                    if plan.len() == before {
                        return None;
                    }
                }
                Some(plan)
            }
            PlacementStrategy::TopologyAware => {
                let whole = ResourceVec::new(
                    per_worker.gpus * workers,
                    per_worker.cpu_cores * workers,
                    per_worker.mem_gb * workers,
                );
                let mut single: Vec<(u32, NodeId)> = order
                    .iter()
                    .filter(|(_, free)| whole.fits_in(free))
                    .map(|&(id, free)| (free.gpus, id))
                    .collect();
                single.sort();
                if let Some(&(_, id)) = single.first() {
                    return Some(vec![id; workers as usize]);
                }
                let mut racks: Vec<(u32, Vec<NodeId>)> = Vec::new();
                for rack in 0..cluster.topology().rack_count() {
                    let in_rack = |id: &NodeId| cluster.topology().rack_of(*id).index() == rack;
                    let mut rack_order: Vec<(NodeId, ResourceVec)> = order
                        .iter()
                        .filter(|(id, _)| in_rack(id))
                        .copied()
                        .collect();
                    rack_order.sort_by_key(|&(id, free)| (free.gpus, id));
                    if let Some(plan) = pack(rack_order) {
                        let rack_free = cluster
                            .nodes()
                            .filter(|n| in_rack(&n.id()))
                            .map(|n| n.free().gpus)
                            .sum();
                        racks.push((rack_free, plan));
                    }
                }
                racks.sort_by_key(|(free, _)| *free);
                match racks.into_iter().next() {
                    Some((_, plan)) => Some(plan),
                    None => pack(order),
                }
            }
        }
    }

    /// The gates never change a decision (`plan_counted` equals
    /// `plan_ungated`), the scan — which selects rather than sorts
    /// where one candidate suffices — equals the plan by definition, and
    /// `gang_fits` answers whether there is one,
    /// across randomized occupancy, drains, and resource shapes (including
    /// CPU/memory-skewed demands, so equal free GPUs leave the free CPU
    /// cores to break the tie).
    #[test]
    fn gated_scan_matches_ungated_and_definition() {
        let mut state: u64 = 0xDEAD_BEEF_CAFE_1234;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for case in 0..150u64 {
            let mut c = Cluster::new(ClusterSpec::uniform(2, 4, GpuModel::A100, 8));
            // Random occupancy, with CPU/memory-heavy shares so that
            // nodes with equal free GPUs differ in the other dimensions.
            for _ in 0..(rng() % 12) {
                let node = NodeId::from_index((rng() % 8) as usize);
                let share = ResourceVec::new(
                    (rng() % 5) as u32,
                    (rng() % 40) as u32,
                    (rng() % 300) as u32,
                );
                let _ = c.allocate([(node, share)]);
            }
            if case % 3 == 0 {
                c.drain(NodeId::from_index((rng() % 8) as usize));
            }
            for strategy in [
                PlacementStrategy::Pack,
                PlacementStrategy::Spread,
                PlacementStrategy::TopologyAware,
            ] {
                let planner = Planner::new(strategy);
                for per_worker in [
                    ResourceVec::gpus_only(1),
                    ResourceVec::gpus_only(4),
                    ResourceVec::gpus_only(8),
                    ResourceVec::new(1, 10, 60),
                    ResourceVec::new(0, 12, 0),
                ] {
                    for workers in 1..=4 {
                        let mut stats = PlanStats::default();
                        let gated = planner.plan_counted(&c, workers, per_worker, &mut stats);
                        let ungated = planner.plan_ungated(&c, workers, per_worker);
                        let defined = plan_by_definition(&c, strategy, workers, per_worker);
                        assert_eq!(
                            gated, ungated,
                            "case {case}: {strategy} gates changed {workers}x{per_worker:?}"
                        );
                        assert_eq!(
                            gated, defined,
                            "case {case}: {strategy} left the definition for {workers}x{per_worker:?}"
                        );
                        let frees = c.nodes().filter(|n| n.is_schedulable()).map(|n| n.free());
                        assert_eq!(
                            gang_fits(frees, workers, per_worker),
                            gated.is_some(),
                            "case {case}: {strategy} copy count for {workers}x{per_worker:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_gang_is_trivially_placed() {
        let c = cluster();
        assert_eq!(
            Planner::default().plan(&c, 0, ResourceVec::gpus_only(1)),
            Some(vec![])
        );
    }
}
