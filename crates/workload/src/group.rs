//! Research groups: the tenants sharing the campus cluster.

use std::fmt;

use tacc_json::{Cursor, Field, Json, TextSink};

/// Identifier of a research group (tenant). Dense, assigned by the roster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(u32);

impl GroupId {
    /// Dense index of this group.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a group id from a raw index (for traces and tests).
    pub fn from_index(index: usize) -> Self {
        GroupId(u32::try_from(index).expect("group index fits in u32"))
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "group{}", self.0)
    }
}

/// Spelled as its index.
impl Field for GroupId {
    fn write<W: TextSink + ?Sized>(&self, out: &mut W) {
        <u32 as Field>::write(&self.0, out);
    }
    fn to_tree(&self) -> Json {
        <u32 as Field>::to_tree(&self.0)
    }
    fn read(r: &mut Cursor<'_>) -> Option<Self> {
        <u32 as Field>::read(r).map(GroupId)
    }
    fn from_tree(value: Option<&Json>, key: &str) -> Result<Self, String> {
        <u32 as Field>::from_tree(value, key).map(GroupId)
    }
}

/// The set of groups sharing a cluster, with their GPU quotas and activity
/// weights.
///
/// Quotas are expressed in GPUs and are what the quota scheduling policy
/// guarantees; activity weights drive how much load the trace generator
/// attributes to each group (campus usage is heavily skewed: a few labs
/// generate most jobs).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRoster {
    names: Vec<String>,
    quotas: Vec<u32>,
    weights: Vec<f64>,
}

impl GroupRoster {
    /// Creates a roster from `(name, gpu_quota, activity_weight)` triples.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty or any weight is negative.
    pub fn new(groups: Vec<(String, u32, f64)>) -> Self {
        assert!(!groups.is_empty(), "roster needs at least one group");
        assert!(
            groups.iter().all(|&(_, _, w)| w >= 0.0),
            "weights must be nonnegative"
        );
        let mut names = Vec::with_capacity(groups.len());
        let mut quotas = Vec::with_capacity(groups.len());
        let mut weights = Vec::with_capacity(groups.len());
        for (name, quota, weight) in groups {
            names.push(name);
            quotas.push(quota);
            weights.push(weight);
        }
        GroupRoster {
            names,
            quotas,
            weights,
        }
    }

    /// The canonical 8-group campus roster used across the experiment suite.
    ///
    /// Quotas sum to `total_gpus`; activity is Zipf-skewed (the first groups
    /// are the heavy labs). Quota split mirrors activity so the borrowing
    /// experiments (F2) have both over- and under-subscribed groups.
    pub fn campus_default(total_gpus: u32) -> Self {
        // Zipf(1.0)-ish weights over 8 groups.
        let raw: Vec<f64> = (1..=8).map(|i| 1.0 / i as f64).collect();
        let sum: f64 = raw.iter().sum();
        let mut quotas: Vec<u32> = raw
            .iter()
            .map(|w| ((w / sum) * f64::from(total_gpus)).floor() as u32)
            .collect();
        // Hand the rounding remainder to the largest group.
        let assigned: u32 = quotas.iter().sum();
        quotas[0] += total_gpus - assigned;
        let groups = (0..8)
            .map(|i| (format!("lab{i}"), quotas[i], raw[i]))
            .collect();
        GroupRoster::new(groups)
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if the roster has no groups (never true for constructed rosters).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over group ids.
    pub fn ids(&self) -> impl Iterator<Item = GroupId> {
        (0..self.names.len()).map(GroupId::from_index)
    }

    /// Name of a group.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in this roster.
    pub fn name(&self, id: GroupId) -> &str {
        &self.names[id.index()]
    }

    /// GPU quota of a group.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in this roster.
    pub fn quota(&self, id: GroupId) -> u32 {
        self.quotas[id.index()]
    }

    /// Activity weight of a group (relative job-generation rate).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in this roster.
    pub fn weight(&self, id: GroupId) -> f64 {
        self.weights[id.index()]
    }

    /// All activity weights, indexed by group.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campus_default_partitions_quota() {
        let r = GroupRoster::campus_default(256);
        assert_eq!(r.len(), 8);
        assert_eq!(r.ids().map(|g| r.quota(g)).sum::<u32>(), 256);
        // Heaviest group first.
        assert!(r.quota(GroupId::from_index(0)) > r.quota(GroupId::from_index(7)));
        assert!(r.weight(GroupId::from_index(0)) > r.weight(GroupId::from_index(7)));
    }

    #[test]
    fn roster_lookup() {
        let r = GroupRoster::new(vec![
            ("vision".to_owned(), 16, 2.0),
            ("nlp".to_owned(), 8, 1.0),
        ]);
        let ids: Vec<GroupId> = r.ids().collect();
        assert_eq!(ids.len(), 2);
        assert_eq!(r.name(ids[0]), "vision");
        assert_eq!(r.quota(ids[1]), 8);
        assert_eq!(r.weights(), &[2.0, 1.0]);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn empty_roster_rejected() {
        let _ = GroupRoster::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_weight_rejected() {
        let _ = GroupRoster::new(vec![("x".to_owned(), 1, -1.0)]);
    }
}
