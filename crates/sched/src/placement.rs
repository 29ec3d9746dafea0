//! Gang placement strategies (experiment T2).
//!
//! Placement answers "which physical nodes, *right now*" — the spatial
//! half of scheduling. The temporal half ("when, and with how much left
//! over") lives in [`crate::slotset`]: the planner there works on
//! abstract resource ids and only *forecasts* availability, so every
//! forecast start still funnels through a [`Planner`] call against the
//! real cluster before any job launches.

use tacc_cluster::{Cluster, NodeId, ResourceVec};

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
    /// Nodes examined by full-scan candidate collection (the ungated
    /// reference path and rack-subset scans) across all attempts.
    pub nodes_scanned: u64,
    /// Attempts refused by the O(1) capacity gates before any node scan.
    pub fastpath_rejects: u64,
    /// Entries examined in the cluster's sorted free-capacity index by the
    /// gated planning paths (each probe replaces what used to be part of a
    /// full node scan + sort).
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
    /// Before scanning any node, two O(1) infeasibility gates consult the
    /// cluster's incremental capacity index. Both are *conservative*: the
    /// cached totals include drained nodes, a superset of schedulable
    /// capacity, so a gate only fires when the full scan would certainly
    /// have returned `None` — the gates never change a scheduling decision.
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
        match self.strategy {
            PlacementStrategy::Pack => {
                self.plan_greedy_indexed(cluster, workers, per_worker, false, stats)
            }
            PlacementStrategy::Spread => {
                self.plan_greedy_indexed(cluster, workers, per_worker, true, stats)
            }
            PlacementStrategy::TopologyAware => {
                self.plan_topology(cluster, workers, per_worker, true, stats)
            }
        }
    }

    /// [`Planner::plan`] **without** the O(1) infeasibility gates or the
    /// sorted free-capacity index: every attempt runs the full node scan
    /// and sort, exactly as the planner behaved before the capacity index
    /// existed. The naive reference scheduler plans through this so the
    /// differential tests check the gated/indexed and ungated/scanning
    /// paths against each other.
    pub fn plan_ungated(
        &self,
        cluster: &Cluster,
        workers: u32,
        per_worker: ResourceVec,
    ) -> Option<Vec<NodeId>> {
        if workers == 0 {
            return Some(Vec::new());
        }
        let mut stats = PlanStats::default();
        match self.strategy {
            PlacementStrategy::Pack => {
                self.plan_greedy(cluster, workers, per_worker, false, &mut stats)
            }
            PlacementStrategy::Spread => {
                self.plan_greedy(cluster, workers, per_worker, true, &mut stats)
            }
            PlacementStrategy::TopologyAware => {
                self.plan_topology(cluster, workers, per_worker, false, &mut stats)
            }
        }
    }

    /// Greedy fill over nodes ordered by free GPUs (ascending for packing,
    /// descending for spreading; free CPU breaks ties, node id makes the
    /// order total and deterministic).
    fn plan_greedy(
        &self,
        cluster: &Cluster,
        workers: u32,
        per_worker: ResourceVec,
        spread: bool,
        stats: &mut PlanStats,
    ) -> Option<Vec<NodeId>> {
        stats.nodes_scanned += cluster.node_count() as u64;
        let mut nodes: Vec<(NodeId, ResourceVec)> = cluster
            .nodes()
            .filter(|n| n.is_schedulable())
            .map(|n| (n.id(), n.free()))
            .filter(|(_, free)| per_worker.fits_in(free))
            .collect();
        nodes.sort_by_key(|&(id, free)| (free.gpus, free.cpu_cores, id));
        if spread {
            nodes.reverse();
        }
        let mut assignment = Vec::with_capacity(workers as usize);
        if spread {
            // Round-robin across the emptiest nodes: one worker per node
            // first, wrapping only when every node has taken one.
            let mut remaining: Vec<(NodeId, ResourceVec)> = nodes;
            let mut placed = 0;
            while placed < workers {
                let mut progressed = false;
                for (id, free) in remaining.iter_mut() {
                    if placed == workers {
                        break;
                    }
                    if per_worker.fits_in(free) {
                        assignment.push(*id);
                        *free -= per_worker;
                        placed += 1;
                        progressed = true;
                    }
                }
                if !progressed {
                    return None;
                }
            }
        } else {
            // Packing: exhaust each node before moving to the next.
            for (id, mut free) in nodes {
                while assignment.len() < workers as usize && per_worker.fits_in(&free) {
                    assignment.push(id);
                    free -= per_worker;
                }
                if assignment.len() == workers as usize {
                    break;
                }
            }
            if assignment.len() < workers as usize {
                return None;
            }
        }
        Some(assignment)
    }

    /// Index-backed greedy fill: walks the cluster's sorted free-capacity
    /// index (maintained incrementally on every grant/release) in exactly
    /// the order [`Planner::plan_greedy`] would have produced by scanning
    /// and sorting, so decisions are identical while candidate selection
    /// becomes a bounded probe. The range query skips every node whose
    /// free GPUs cannot host one worker — such nodes fail `fits_in`
    /// regardless — and packing stops as soon as the gang is complete.
    fn plan_greedy_indexed(
        &self,
        cluster: &Cluster,
        workers: u32,
        per_worker: ResourceVec,
        spread: bool,
        stats: &mut PlanStats,
    ) -> Option<Vec<NodeId>> {
        let mut assignment = Vec::with_capacity(workers as usize);
        if spread {
            // Round-robin across the emptiest nodes: one worker per node
            // first, wrapping only when every node has taken one.
            let mut remaining: Vec<(NodeId, ResourceVec)> = Vec::new();
            for (_, _, id) in cluster.free_index_from(per_worker.gpus).rev() {
                stats.free_index_probes += 1;
                // tacc-lint: allow(panic-surface, reason = "the free-capacity index holds only live node ids; a miss would mean the index desynced from the cluster it mirrors")
                let free = cluster.node(id).expect("indexed node exists").free();
                if per_worker.fits_in(&free) {
                    remaining.push((id, free));
                }
            }
            let mut placed = 0;
            while placed < workers {
                let mut progressed = false;
                for (id, free) in remaining.iter_mut() {
                    if placed == workers {
                        break;
                    }
                    if per_worker.fits_in(free) {
                        assignment.push(*id);
                        *free -= per_worker;
                        placed += 1;
                        progressed = true;
                    }
                }
                if !progressed {
                    return None;
                }
            }
        } else {
            // Packing: exhaust each node before moving to the next.
            for (_, _, id) in cluster.free_index_from(per_worker.gpus) {
                stats.free_index_probes += 1;
                // tacc-lint: allow(panic-surface, reason = "the free-capacity index holds only live node ids; a miss would mean the index desynced from the cluster it mirrors")
                let mut free = cluster.node(id).expect("indexed node exists").free();
                while assignment.len() < workers as usize && per_worker.fits_in(&free) {
                    assignment.push(id);
                    free -= per_worker;
                }
                if assignment.len() == workers as usize {
                    break;
                }
            }
            if assignment.len() < workers as usize {
                return None;
            }
        }
        Some(assignment)
    }

    /// Topology-aware: single node → single rack → fewest racks (greedy by
    /// rack free capacity), packing within each tier. With `use_index` the
    /// single-node tier and the cluster-wide fallback walk the sorted
    /// free-capacity index instead of scanning every node (identical
    /// decisions, bounded probes).
    fn plan_topology(
        &self,
        cluster: &Cluster,
        workers: u32,
        per_worker: ResourceVec,
        use_index: bool,
        stats: &mut PlanStats,
    ) -> Option<Vec<NodeId>> {
        let gang_fits_whole = |free: ResourceVec| {
            let mut free = free;
            let mut fit = 0;
            while per_worker.fits_in(&free) && fit < workers {
                free -= per_worker;
                fit += 1;
            }
            fit == workers
        };
        // Tier 1: whole gang on one node; among feasible nodes pick the
        // fullest (min free GPUs), node id breaking ties.
        if use_index {
            let total_gpus = per_worker.gpus.saturating_mul(workers);
            let mut best: Option<NodeId> = None;
            let mut best_gpus: Option<u32> = None;
            for (gpus, _, id) in cluster.free_index_from(total_gpus) {
                stats.free_index_probes += 1;
                if best_gpus.is_some_and(|g| gpus > g) {
                    // A lower-free-GPU group already produced a feasible
                    // node; later groups cannot beat it.
                    break;
                }
                // tacc-lint: allow(panic-surface, reason = "the free-capacity index holds only live node ids; a miss would mean the index desynced from the cluster it mirrors")
                let free = cluster.node(id).expect("indexed node exists").free();
                if gang_fits_whole(free) {
                    best_gpus = Some(gpus);
                    best = Some(match best {
                        Some(b) if b < id => b,
                        _ => id,
                    });
                }
            }
            if let Some(node) = best {
                return Some(vec![node; workers as usize]);
            }
        } else {
            stats.nodes_scanned += cluster.node_count() as u64;
            let mut single: Vec<NodeId> = cluster
                .nodes()
                .filter(|n| n.is_schedulable())
                .filter(|n| gang_fits_whole(n.free()))
                .map(|n| n.id())
                .collect();
            // Among feasible single nodes, pick the fullest (pack).
            single.sort_by_key(|&id| {
                let n = cluster.node(id).expect("listed node exists");
                (n.free().gpus, id)
            });
            if let Some(&node) = single.first() {
                return Some(vec![node; workers as usize]);
            }
        }

        // Tier 2: whole gang within one rack. Racks tried in ascending
        // spare capacity that still fits (pack racks too).
        let rack_count = cluster.topology().rack_count();
        let mut rack_plans: Vec<(u32, Vec<NodeId>)> = Vec::new();
        for rack in 0..rack_count {
            let in_rack: Vec<NodeId> = cluster
                .nodes()
                .filter(|n| n.rack().index() == rack)
                .map(|n| n.id())
                .collect();
            if let Some(plan) = self.plan_within(cluster, &in_rack, workers, per_worker, stats) {
                let rack_free: u32 = in_rack
                    .iter()
                    .map(|&id| cluster.node(id).expect("exists").free().gpus)
                    .sum();
                rack_plans.push((rack_free, plan));
            }
        }
        rack_plans.sort_by_key(|&(free, _)| free);
        if let Some((_, plan)) = rack_plans.into_iter().next() {
            return Some(plan);
        }

        // Tier 3: fall back to cluster-wide packing (minimizes nodes, which
        // correlates with fewer racks).
        if use_index {
            self.plan_greedy_indexed(cluster, workers, per_worker, false, stats)
        } else {
            self.plan_greedy(cluster, workers, per_worker, false, stats)
        }
    }

    /// Packs a gang into an explicit node subset, or `None`.
    fn plan_within(
        &self,
        cluster: &Cluster,
        subset: &[NodeId],
        workers: u32,
        per_worker: ResourceVec,
        stats: &mut PlanStats,
    ) -> Option<Vec<NodeId>> {
        stats.nodes_scanned += subset.len() as u64;
        let mut nodes: Vec<(NodeId, ResourceVec)> = subset
            .iter()
            .map(|&id| cluster.node(id).expect("subset node exists"))
            .filter(|n| n.is_schedulable())
            .map(|n| (n.id(), n.free()))
            .filter(|(_, free)| per_worker.fits_in(free))
            .collect();
        nodes.sort_by_key(|&(id, free)| (free.gpus, id));
        let mut assignment = Vec::with_capacity(workers as usize);
        for (id, mut free) in nodes {
            while assignment.len() < workers as usize && per_worker.fits_in(&free) {
                assignment.push(id);
                free -= per_worker;
            }
        }
        (assignment.len() == workers as usize).then_some(assignment)
    }

    /// Converts a worker→node assignment into per-node aggregate shares
    /// suitable for [`Cluster::allocate`].
    pub fn shares_for(
        assignment: &[NodeId],
        per_worker: ResourceVec,
    ) -> Vec<(NodeId, ResourceVec)> {
        assignment.iter().map(|&n| (n, per_worker)).collect()
    }
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
            .allocate(999, &[(id, ResourceVec::gpus_only(gpus))])
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
        let shares = Planner::shares_for(&plan, ResourceVec::gpus_only(4));
        assert_eq!(shares.len(), 2);
        let mut c2 = c.clone();
        c2.allocate(1, &shares).expect("plan is allocatable");
    }

    /// The index-backed gated paths must make byte-identical decisions to
    /// the ungated full-scan reference across randomized occupancy,
    /// drains, and resource shapes (including CPU/memory-skewed demands
    /// that are not part of the index key).
    #[test]
    fn indexed_and_scanning_paths_agree() {
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
                let _ = c.allocate(rng(), &[(node, share)]);
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
                for (workers, per_worker) in [
                    (1, ResourceVec::gpus_only(1)),
                    (2, ResourceVec::gpus_only(4)),
                    (4, ResourceVec::gpus_only(8)),
                    (3, ResourceVec::new(1, 10, 60)),
                    (2, ResourceVec::new(0, 12, 0)),
                ] {
                    let mut stats = PlanStats::default();
                    let gated = planner.plan_counted(&c, workers, per_worker, &mut stats);
                    let ungated = planner.plan_ungated(&c, workers, per_worker);
                    assert_eq!(
                        gated, ungated,
                        "case {case}: {strategy} diverged for {workers}x{per_worker:?}"
                    );
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
