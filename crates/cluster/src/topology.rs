//! Rack / network topology with bandwidth tiers.
//!
//! The paper's execution layer leans on the network: RDMA interconnect
//! within the fabric, NVLink within nodes, and oversubscribed links between
//! racks. Distributed-training time (experiment F6) and topology-aware
//! placement (T2) both read bandwidth from this model.

use std::fmt;

use crate::node::NodeId;

/// Identifier of a rack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RackId(pub(crate) u32);

impl RackId {
    /// Dense index of this rack.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rack{}", self.0)
    }
}

/// The locality tier of a communicating GPU pair, ordered from fastest to
/// slowest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BandwidthTier {
    /// Same node, NVLink-connected GPUs.
    IntraNodeNvlink,
    /// Same node over PCIe (consumer cards without NVLink).
    IntraNodePcie,
    /// Different nodes in the same rack, via the rack's RDMA leaf switch.
    IntraRack,
    /// Different racks, across the (oversubscribed) spine.
    InterRack,
}

/// Per-tier bandwidths in Gbit/s, plus the spine oversubscription factor.
///
/// Defaults model a 100 Gbps RoCE fabric with a 3:1 oversubscribed spine —
/// typical for campus deployments that grew rack by rack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpeeds {
    /// NVLink bandwidth within a node (Gbit/s per direction).
    pub nvlink_gbps: f64,
    /// PCIe fallback within a node.
    pub pcie_gbps: f64,
    /// NIC line rate within a rack (RDMA).
    pub rack_gbps: f64,
    /// Oversubscription factor of the spine (inter-rack bandwidth is
    /// `rack_gbps / oversubscription`).
    pub oversubscription: f64,
}

impl LinkSpeeds {
    /// A 100 Gbps RoCE fabric with NVLink nodes and a 3:1 spine.
    pub fn campus_default() -> Self {
        LinkSpeeds {
            nvlink_gbps: 600.0,
            pcie_gbps: 128.0,
            rack_gbps: 100.0,
            oversubscription: 3.0,
        }
    }

    /// A legacy TCP cluster (no RDMA): 10 Gbps NICs, heavier oversubscription.
    /// Used as the "without RDMA" arm of experiment F6.
    pub fn tcp_legacy() -> Self {
        LinkSpeeds {
            nvlink_gbps: 600.0,
            pcie_gbps: 128.0,
            rack_gbps: 10.0,
            oversubscription: 4.0,
        }
    }

    /// Bandwidth of a tier in Gbit/s.
    pub fn bandwidth_gbps(&self, tier: BandwidthTier) -> f64 {
        match tier {
            BandwidthTier::IntraNodeNvlink => self.nvlink_gbps,
            BandwidthTier::IntraNodePcie => self.pcie_gbps,
            BandwidthTier::IntraRack => self.rack_gbps,
            BandwidthTier::InterRack => self.rack_gbps / self.oversubscription,
        }
    }
}

/// The static rack layout of a cluster plus its link speeds.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// rack assignment per node, indexed by `NodeId::index()`.
    node_racks: Vec<RackId>,
    rack_count: u32,
    speeds: LinkSpeeds,
    /// whether nodes have NVLink (per-node, indexed like `node_racks`).
    nvlink: Vec<bool>,
}

impl Topology {
    pub(crate) fn new(node_racks: Vec<RackId>, nvlink: Vec<bool>, speeds: LinkSpeeds) -> Self {
        assert_eq!(node_racks.len(), nvlink.len());
        let rack_count = node_racks.iter().map(|r| r.0 + 1).max().unwrap_or(0);
        Topology {
            node_racks,
            rack_count,
            speeds,
            nvlink,
        }
    }

    /// Number of racks.
    pub fn rack_count(&self) -> usize {
        self.rack_count as usize
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_racks.len()
    }

    /// Rack of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not part of this topology.
    pub fn rack_of(&self, node: NodeId) -> RackId {
        self.node_racks[node.index()]
    }

    /// The configured link speeds.
    pub fn speeds(&self) -> LinkSpeeds {
        self.speeds
    }

    /// The locality tier connecting two (possibly identical) nodes.
    pub fn tier_between(&self, a: NodeId, b: NodeId) -> BandwidthTier {
        if a == b {
            if self.nvlink[a.index()] {
                BandwidthTier::IntraNodeNvlink
            } else {
                BandwidthTier::IntraNodePcie
            }
        } else if self.rack_of(a) == self.rack_of(b) {
            BandwidthTier::IntraRack
        } else {
            BandwidthTier::InterRack
        }
    }

    /// The narrowest link tier among a set of nodes — the bandwidth a
    /// ring collective over those nodes is bottlenecked by.
    ///
    /// Returns the intra-node tier when the set has one node, and
    /// [`BandwidthTier::IntraNodeNvlink`] for an empty set (no communication).
    pub fn bottleneck_tier(&self, nodes: &[NodeId]) -> BandwidthTier {
        match nodes {
            [] => BandwidthTier::IntraNodeNvlink,
            [only] => self.tier_between(*only, *only),
            multi => {
                let mut worst = BandwidthTier::IntraNodeNvlink;
                for (i, &a) in multi.iter().enumerate() {
                    for &b in &multi[i + 1..] {
                        worst = worst.max(self.tier_between(a, b));
                    }
                }
                worst
            }
        }
    }

    /// Number of distinct racks covered by a node set.
    pub fn racks_spanned(&self, nodes: &[NodeId]) -> usize {
        let mut racks: Vec<RackId> = nodes.iter().map(|&n| self.rack_of(n)).collect();
        racks.sort_unstable();
        racks.dedup();
        racks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        // 4 nodes: 0,1 in rack0 (NVLink); 2 in rack1 (NVLink); 3 in rack1 (PCIe-only)
        Topology::new(
            vec![RackId(0), RackId(0), RackId(1), RackId(1)],
            vec![true, true, true, false],
            LinkSpeeds::campus_default(),
        )
    }

    #[test]
    fn tiers_reflect_locality() {
        let t = topo();
        let n = |i| NodeId(i);
        assert_eq!(t.tier_between(n(0), n(0)), BandwidthTier::IntraNodeNvlink);
        assert_eq!(t.tier_between(n(3), n(3)), BandwidthTier::IntraNodePcie);
        assert_eq!(t.tier_between(n(0), n(1)), BandwidthTier::IntraRack);
        assert_eq!(t.tier_between(n(0), n(2)), BandwidthTier::InterRack);
    }

    #[test]
    fn tier_ordering_fast_to_slow() {
        assert!(BandwidthTier::IntraNodeNvlink < BandwidthTier::IntraNodePcie);
        assert!(BandwidthTier::IntraNodePcie < BandwidthTier::IntraRack);
        assert!(BandwidthTier::IntraRack < BandwidthTier::InterRack);
    }

    #[test]
    fn bandwidth_per_tier() {
        let s = LinkSpeeds::campus_default();
        assert_eq!(s.bandwidth_gbps(BandwidthTier::IntraRack), 100.0);
        assert!((s.bandwidth_gbps(BandwidthTier::InterRack) - 100.0 / 3.0).abs() < 1e-9);
        assert!(
            s.bandwidth_gbps(BandwidthTier::IntraNodeNvlink)
                > s.bandwidth_gbps(BandwidthTier::IntraRack)
        );
    }

    #[test]
    fn bottleneck_over_sets() {
        let t = topo();
        let n = |i| NodeId(i);
        assert_eq!(t.bottleneck_tier(&[]), BandwidthTier::IntraNodeNvlink);
        assert_eq!(t.bottleneck_tier(&[n(0)]), BandwidthTier::IntraNodeNvlink);
        assert_eq!(t.bottleneck_tier(&[n(3)]), BandwidthTier::IntraNodePcie);
        assert_eq!(t.bottleneck_tier(&[n(0), n(1)]), BandwidthTier::IntraRack);
        assert_eq!(
            t.bottleneck_tier(&[n(0), n(1), n(2)]),
            BandwidthTier::InterRack
        );
    }

    #[test]
    fn racks_spanned_counts_distinct() {
        let t = topo();
        let n = |i| NodeId(i);
        assert_eq!(t.racks_spanned(&[n(0), n(1)]), 1);
        assert_eq!(t.racks_spanned(&[n(0), n(2), n(3)]), 2);
        assert_eq!(t.racks_spanned(&[]), 0);
        assert_eq!(t.rack_count(), 2);
        assert_eq!(t.node_count(), 4);
    }
}
