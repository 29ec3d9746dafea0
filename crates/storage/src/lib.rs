//! # tacc-storage
//!
//! The shared-storage substrate of the `tacc-rs` reproduction: the paper's
//! execution layer runs on a "reliable networked file system for shared
//! big data storage", and dataset staging out of that filesystem is a
//! first-order cost for data-heavy training jobs.
//!
//! Two pieces are modelled:
//!
//! * [`NodeCache`] — each node's local NVMe staging cache: datasets staged
//!   for an earlier job are reused by later jobs on the same node (LRU,
//!   capacity-bounded).
//! * [`SharedStore`] — the networked filesystem itself: per-client NIC
//!   bandwidth and an aggregate backend bandwidth shared by all concurrent
//!   readers, so staging slows down under fan-in (the classic NFS
//!   congestion the paper's operators deal with).
//!
//! The platform asks the store for a [`Staging`] estimate when a job
//! starts and reports completion so concurrent-reader accounting stays
//! correct. Experiment F8 regenerates the staging-latency table from this
//! model.
//!
//! ## Example
//!
//! ```
//! use tacc_cluster::NodeId;
//! use tacc_storage::{SharedStore, StorageConfig};
//!
//! let mut store = SharedStore::new(StorageConfig::default(), 4);
//! let nodes = [NodeId::from_index(0)];
//! // First job on node0 stages 20 GiB from the shared FS...
//! let first = store.begin_staging(&nodes, "imagenet", 20_480);
//! assert!(first.secs > 0.0);
//! store.end_staging(&first);
//! // ...a second job on the same node finds it in the local cache.
//! let second = store.begin_staging(&nodes, "imagenet", 20_480);
//! assert_eq!(second.secs, 0.0);
//! store.end_staging(&second);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use tacc_cluster::NodeId;

/// Per-client read bandwidth in MiB/s (NIC / NFS client cap): a 25 GbE
/// client ≈ 3 GiB/s.
const PER_CLIENT_MBPS: f64 = 3_000.0;

/// Configuration of the shared filesystem and the node-local caches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageConfig {
    /// Aggregate backend bandwidth in MiB/s shared by all readers.
    pub aggregate_mbps: f64,
    /// Node-local staging cache capacity in MiB (0 disables caching).
    pub node_cache_mb: u64,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            // Backend array ≈ 20 GiB/s aggregate.
            aggregate_mbps: 20_000.0,
            node_cache_mb: 500_000, // 500 GB NVMe per node
        }
    }
}

/// The outcome of starting a staging operation: how long it takes and how
/// many concurrent-reader slots it holds (pass back to
/// [`SharedStore::end_staging`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Staging {
    /// Wall-clock staging time in seconds (0 when every node had the
    /// dataset cached).
    pub secs: f64,
    /// Reader slots this staging holds until `end_staging`.
    pub readers: u32,
    /// MiB actually moved out of the shared store.
    pub transferred_mb: u64,
}

/// One node's local LRU staging cache, keyed by dataset name.
#[derive(Debug, Clone, Default)]
pub struct NodeCache {
    capacity_mb: u64,
    used_mb: u64,
    /// dataset -> (size, last-use tick). Ordered map: LRU eviction
    /// iterates it, and iteration order must not depend on a hasher
    /// (the hash-iter lint).
    resident: BTreeMap<String, (u32, u64)>,
    tick: u64,
}

impl NodeCache {
    /// Creates a cache with the given capacity (0 disables it).
    pub fn new(capacity_mb: u64) -> Self {
        NodeCache {
            capacity_mb,
            used_mb: 0,
            resident: BTreeMap::new(),
            tick: 0,
        }
    }

    /// MiB currently resident.
    pub fn used_mb(&self) -> u64 {
        self.used_mb
    }

    /// True if `dataset` is resident (refreshes its LRU position).
    pub fn touch(&mut self, dataset: &str) -> bool {
        self.tick += 1;
        if let Some(entry) = self.resident.get_mut(dataset) {
            entry.1 = self.tick;
            true
        } else {
            false
        }
    }

    /// Inserts a freshly staged dataset, evicting LRU entries as needed.
    /// Oversized datasets stream through without displacing the cache.
    pub fn insert(&mut self, dataset: &str, size_mb: u32) {
        if u64::from(size_mb) > self.capacity_mb {
            return;
        }
        self.tick += 1;
        if self.resident.contains_key(dataset) {
            return;
        }
        while self.used_mb + u64::from(size_mb) > self.capacity_mb {
            let victim = self
                .resident
                .iter()
                .min_by_key(|(_, &(_, t))| t)
                .map(|(k, &(s, _))| (k.clone(), s))
                .expect("over-capacity cache is nonempty");
            self.resident.remove(&victim.0);
            self.used_mb -= u64::from(victim.1);
        }
        self.resident
            .insert(dataset.to_owned(), (size_mb, self.tick));
        self.used_mb += u64::from(size_mb);
    }
}

/// The networked filesystem shared by the whole cluster.
#[derive(Debug, Clone)]
pub struct SharedStore {
    config: StorageConfig,
    node_caches: Vec<NodeCache>,
    active_readers: u32,
    total_staged_mb: u64,
    total_stagings: u64,
    cache_hits: u64,
}

impl SharedStore {
    /// Creates the store for a cluster of `node_count` nodes.
    pub fn new(config: StorageConfig, node_count: usize) -> Self {
        SharedStore {
            node_caches: (0..node_count)
                .map(|_| NodeCache::new(config.node_cache_mb))
                .collect(),
            config,
            active_readers: 0,
            total_staged_mb: 0,
            total_stagings: 0,
            cache_hits: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> StorageConfig {
        self.config
    }

    /// Readers currently pulling from the backend.
    pub fn active_readers(&self) -> u32 {
        self.active_readers
    }

    /// Total MiB ever staged out of the backend.
    pub fn total_staged_mb(&self) -> u64 {
        self.total_staged_mb
    }

    /// Node-level dataset cache hits so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Per-reader effective bandwidth if `extra` new readers join now.
    fn effective_mbps(&self, extra: u32) -> f64 {
        let readers = f64::from(self.active_readers + extra).max(1.0);
        PER_CLIENT_MBPS.min(self.config.aggregate_mbps / readers)
    }

    /// Starts staging `dataset` (of `size_mb`) onto every node of a
    /// placement. Nodes that already cache the dataset stage nothing.
    ///
    /// `nodes` is the placement's distinct node set, ascending — each node
    /// once however many workers it holds (debug builds assert it).
    ///
    /// The returned [`Staging`] must be passed to
    /// [`SharedStore::end_staging`] when the transfer completes (the
    /// platform schedules that as an event), so reader accounting stays
    /// balanced.
    ///
    /// # Panics
    ///
    /// Panics if any node id is out of range for this store.
    pub fn begin_staging(&mut self, nodes: &[NodeId], dataset: &str, size_mb: u32) -> Staging {
        debug_assert!(
            nodes.windows(2).all(|pair| pair[0] < pair[1]),
            "not a distinct ascending node set: {nodes:?}"
        );
        let mut misses: u32 = 0;
        for &node in nodes {
            let cache = self
                .node_caches
                .get_mut(node.index())
                .unwrap_or_else(|| panic!("unknown node {node}"));
            if cache.touch(dataset) {
                self.cache_hits += 1;
            } else {
                cache.insert(dataset, size_mb);
                misses += 1;
            }
        }
        if misses == 0 || size_mb == 0 {
            return Staging {
                secs: 0.0,
                readers: 0,
                transferred_mb: 0,
            };
        }
        // All missing nodes pull concurrently; each sees the per-reader
        // effective bandwidth with the new readers included.
        let bw = self.effective_mbps(misses);
        let secs = f64::from(size_mb) / bw;
        self.active_readers += misses;
        self.total_staged_mb += u64::from(size_mb) * u64::from(misses);
        self.total_stagings += 1;
        Staging {
            secs,
            readers: misses,
            transferred_mb: u64::from(size_mb) * u64::from(misses),
        }
    }

    /// Releases the reader slots held by a staging.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if more readers are released than are
    /// active — always an accounting bug in the caller.
    pub fn end_staging(&mut self, staging: &Staging) {
        debug_assert!(
            staging.readers <= self.active_readers,
            "reader accounting underflow"
        );
        self.active_readers = self.active_readers.saturating_sub(staging.readers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> SharedStore {
        SharedStore::new(StorageConfig::default(), 4)
    }

    fn nodes(ids: &[usize]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId::from_index(i)).collect()
    }

    #[test]
    fn cold_staging_takes_bandwidth_limited_time() {
        let mut s = store();
        let staging = s.begin_staging(&nodes(&[0]), "imagenet", 12_000);
        // One reader: per-client cap of 3000 MiB/s applies: 4 s.
        assert!((staging.secs - 4.0).abs() < 1e-9);
        assert_eq!(staging.readers, 1);
        assert_eq!(staging.transferred_mb, 12_000);
        assert_eq!(s.active_readers(), 1);
        s.end_staging(&staging);
        assert_eq!(s.active_readers(), 0);
    }

    #[test]
    fn node_cache_hit_is_free() {
        let mut s = store();
        let first = s.begin_staging(&nodes(&[0]), "coco", 20_000);
        s.end_staging(&first);
        let second = s.begin_staging(&nodes(&[0]), "coco", 20_000);
        assert_eq!(second.secs, 0.0);
        assert_eq!(second.readers, 0);
        assert_eq!(s.cache_hits(), 1);
        // A different node still has to stage.
        let other = s.begin_staging(&nodes(&[1]), "coco", 20_000);
        assert!(other.secs > 0.0);
        s.end_staging(&other);
    }

    #[test]
    fn fan_in_contention_slows_readers() {
        let mut s = store();
        // A gang staging onto 8 nodes saturates the 20 GiB/s backend:
        // effective per-reader bw = 20000/8 = 2500 < per-client 3000.
        let mut many = SharedStore::new(StorageConfig::default(), 8);
        let gang = many.begin_staging(&nodes(&[0, 1, 2, 3]), "librispeech", 28_000);
        // 4 readers: aggregate/4 = 5000 > 3000, so still client-capped.
        assert!((gang.secs - 28_000.0 / 3_000.0).abs() < 1e-9);
        many.end_staging(&gang);
        let wide: Vec<NodeId> = (0..8).map(NodeId::from_index).collect();
        let big = many.begin_staging(&wide, "other", 25_000);
        assert!((big.secs - 25_000.0 / 2_500.0).abs() < 1e-9);
        many.end_staging(&big);
        // Sequential readers see contention from still-active stagings.
        let a = s.begin_staging(&nodes(&[0]), "d1", 10_000);
        let b_nodes = nodes(&[1]);
        let b = s.begin_staging(&b_nodes, "d2", 10_000);
        assert!(b.secs >= a.secs - 1e-9);
        s.end_staging(&a);
        s.end_staging(&b);
    }

    /// A gang of three workers on node 2 stages as node 2 once; the
    /// per-worker list it came from is the caller's to deduplicate.
    #[test]
    fn a_placement_stages_each_of_its_nodes_once() {
        let mut s = store();
        let staging = s.begin_staging(&nodes(&[2]), "wikitext", 600);
        assert_eq!(staging.readers, 1);
        assert_eq!(staging.transferred_mb, 600);
        s.end_staging(&staging);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not a distinct ascending node set")]
    fn repeated_nodes_in_placement_are_refused() {
        store().begin_staging(&nodes(&[2, 2, 2]), "wikitext", 600);
    }

    #[test]
    fn lru_eviction_in_node_cache() {
        let mut cache = NodeCache::new(30_000);
        cache.insert("a", 12_000);
        cache.insert("b", 12_000);
        assert!(cache.touch("a")); // refresh a: b becomes LRU
        cache.insert("c", 12_000); // evicts b
        assert!(cache.touch("a"));
        assert!(!cache.touch("b"));
        assert!(cache.touch("c"));
        assert!(cache.used_mb() <= 30_000);
    }

    #[test]
    fn oversized_dataset_streams_through_cache() {
        let mut cache = NodeCache::new(10_000);
        cache.insert("huge", 50_000);
        assert!(!cache.touch("huge"));
        assert_eq!(cache.used_mb(), 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let config = StorageConfig {
            node_cache_mb: 0,
            ..StorageConfig::default()
        };
        let mut s = SharedStore::new(config, 2);
        let first = s.begin_staging(&nodes(&[0]), "d", 1_000);
        s.end_staging(&first);
        let second = s.begin_staging(&nodes(&[0]), "d", 1_000);
        assert!(second.secs > 0.0, "nothing is ever cached");
        s.end_staging(&second);
    }

    #[test]
    fn contention_recovers_after_end_staging() {
        let config = StorageConfig {
            aggregate_mbps: 6_000.0,
            node_cache_mb: 0, // force every read to the backend
        };
        let mut s = SharedStore::new(config, 4);
        // Three concurrent readers: each sees 6000/3 = 2000 MiB/s.
        let a = s.begin_staging(&nodes(&[0]), "a", 6_000);
        let b = s.begin_staging(&nodes(&[1]), "b", 6_000);
        let c = s.begin_staging(&nodes(&[2]), "c", 6_000);
        assert!((c.secs - 3.0).abs() < 1e-9);
        s.end_staging(&a);
        s.end_staging(&b);
        s.end_staging(&c);
        // Alone again: client cap applies (2 s).
        let d = s.begin_staging(&nodes(&[3]), "d", 6_000);
        assert!((d.secs - 2.0).abs() < 1e-9);
        s.end_staging(&d);
    }

    #[test]
    fn total_staged_accounts_per_node_copies() {
        let mut s = store();
        let gang = s.begin_staging(&nodes(&[0, 1, 2]), "coco", 1_000);
        assert_eq!(gang.transferred_mb, 3_000);
        assert_eq!(s.total_staged_mb(), 3_000);
        s.end_staging(&gang);
        // One node already has it; only two fresh copies move.
        let partial = s.begin_staging(&nodes(&[2, 3]), "coco", 1_000);
        assert_eq!(partial.readers, 1);
        assert_eq!(s.total_staged_mb(), 4_000);
        assert_eq!(s.cache_hits(), 1);
        s.end_staging(&partial);
    }

    #[test]
    fn empty_dataset_is_free() {
        let mut s = store();
        let staging = s.begin_staging(&nodes(&[0]), "none", 0);
        assert_eq!(staging.secs, 0.0);
        assert_eq!(staging.readers, 0);
        s.end_staging(&staging);
    }
}
