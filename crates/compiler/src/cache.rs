//! The content-addressed chunk cache behind delta provisioning.

use std::collections::BTreeMap;
use std::fmt;

/// Content address of a chunk: a stable 64-bit digest of its identity.
///
/// Real TACC content-addresses Docker layers and dataset blocks; the digest
/// here is FNV-1a over the chunk's logical name and size, which preserves
/// the property the experiments need — identical inputs dedupe, different
/// inputs don't.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkId(u64);

impl ChunkId {
    /// Addresses a chunk by its logical name and size in MiB.
    pub fn of(name: &str, size_mb: u32) -> Self {
        ChunkName::new().str(name).id(size_mb)
    }

    /// Raw digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// FNV-1a state over a chunk's logical name, fed piece by piece: the
/// digest of `"dataset:imagenet:17"` is reached by streaming the parts,
/// so addressing a chunk never builds its name, and the shards of one
/// dataset share the state of their common prefix.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkName(u64);

impl ChunkName {
    /// The state of the empty name.
    pub(crate) fn new() -> Self {
        ChunkName(0xcbf2_9ce4_8422_2325)
    }

    /// The name extended by `part`.
    pub(crate) fn str(self, part: &str) -> Self {
        self.bytes(part.as_bytes())
    }

    /// The name extended by the decimal digits of `n`.
    pub(crate) fn index(self, mut n: u32) -> Self {
        let mut digits = [0u8; 10]; // u32::MAX has ten
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.bytes(&digits[at..])
    }

    fn bytes(self, part: &[u8]) -> Self {
        let mut hash = self.0;
        for &b in part {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        ChunkName(hash)
    }

    /// The address of the chunk with this name and `size_mb` MiB.
    pub(crate) fn id(self, size_mb: u32) -> ChunkId {
        ChunkId(self.0 ^ u64::from(size_mb).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chunk:{:016x}", self.0)
    }
}

/// Cumulative cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Chunk lookups that were already resident.
    pub hits: u64,
    /// Chunk lookups that required a transfer.
    pub misses: u64,
    /// MiB served from cache (avoided transfers).
    pub hit_mb: u64,
    /// MiB fetched on misses.
    pub miss_mb: u64,
    /// Chunks evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate by chunk count (0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Hit rate by bytes (0 when no traffic yet).
    pub fn byte_hit_rate(&self) -> f64 {
        let total = self.hit_mb + self.miss_mb;
        if total == 0 {
            0.0
        } else {
            self.hit_mb as f64 / total as f64
        }
    }
}

/// An LRU, capacity-bounded, content-addressed chunk store.
///
/// `fetch` is the only operation: it reports whether the chunk was resident
/// and makes it resident (evicting least-recently-used chunks if needed).
/// A chunk larger than the whole cache is transferred but not retained.
#[derive(Debug, Clone)]
pub struct ChunkCache {
    capacity_mb: u64,
    used_mb: u64,
    /// chunk -> (size, last-use tick). Ordered map: `evict_lru` iterates
    /// it, and iteration order must not depend on a hasher
    /// (the hash-iter lint).
    resident: BTreeMap<ChunkId, (u32, u64)>,
    tick: u64,
    stats: CacheStats,
}

impl ChunkCache {
    /// Creates a cache bounded to `capacity_mb` MiB.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_mb` is zero.
    pub fn new(capacity_mb: u64) -> Self {
        assert!(capacity_mb > 0, "cache capacity must be positive");
        ChunkCache {
            capacity_mb,
            used_mb: 0,
            resident: BTreeMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Cache capacity in MiB.
    pub fn capacity_mb(&self) -> u64 {
        self.capacity_mb
    }

    /// Resident bytes in MiB.
    pub fn used_mb(&self) -> u64 {
        self.used_mb
    }

    /// Number of resident chunks.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// True if `chunk` is currently resident (does not touch LRU state).
    pub fn contains(&self, chunk: ChunkId) -> bool {
        self.resident.contains_key(&chunk)
    }

    /// Looks up `chunk`; returns `true` on a hit. On a miss the chunk is
    /// fetched (counted in [`CacheStats::miss_mb`]) and inserted, evicting
    /// LRU chunks as needed.
    pub fn fetch(&mut self, chunk: ChunkId, size_mb: u32) -> bool {
        self.tick += 1;
        if let Some(entry) = self.resident.get_mut(&chunk) {
            entry.1 = self.tick;
            self.stats.hits += 1;
            self.stats.hit_mb += u64::from(size_mb);
            return true;
        }
        self.stats.misses += 1;
        self.stats.miss_mb += u64::from(size_mb);
        if u64::from(size_mb) > self.capacity_mb {
            // Streams through without displacing the working set.
            return false;
        }
        while self.used_mb + u64::from(size_mb) > self.capacity_mb {
            self.evict_lru();
        }
        self.resident.insert(chunk, (size_mb, self.tick));
        self.used_mb += u64::from(size_mb);
        false
    }

    fn evict_lru(&mut self) {
        let victim = self
            .resident
            .iter()
            .min_by_key(|(_, &(_, tick))| tick)
            .map(|(&id, &(size, _))| (id, size))
            .expect("evict_lru called on nonempty cache");
        self.resident.remove(&victim.0);
        self.used_mb -= u64::from(victim.1);
        self.stats.evictions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ids_distinguish_name_and_size() {
        let a = ChunkId::of("torch", 800);
        assert_eq!(a, ChunkId::of("torch", 800));
        assert_ne!(a, ChunkId::of("torch", 801));
        assert_ne!(a, ChunkId::of("torchvision", 800));
        // The published FNV-1a test vector: ids are stable across releases.
        assert_eq!(ChunkId::of("a", 0).value(), 0xaf63_dc4c_8601_ec8c);
    }

    /// Streaming a name part by part must address the same chunk as
    /// hashing the concatenated name, wherever the parts are cut and
    /// however many digits the shard index has.
    #[test]
    fn streamed_address_equals_address_of_concatenated_name() {
        // Deterministic xorshift64* — same names every run.
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        const ALPHABET: [char; 12] = [
            'a', 'Z', '0', '-', ':', ' ', 'é', 'ß', '数', '据', '🦀', '\u{7f}',
        ];
        // Both sides of every digit-count boundary of a u32.
        let mut indices = vec![0, u32::MAX];
        for digits in 1..10 {
            indices.extend([10u32.pow(digits) - 1, 10u32.pow(digits)]);
        }
        for round in 0..500 {
            let name: String = (0..rng() % 24)
                .map(|_| ALPHABET[(rng() % ALPHABET.len() as u64) as usize])
                .collect();
            let index = if round < indices.len() {
                indices[round]
            } else {
                (rng() >> (rng() % 64)) as u32
            };
            let size_mb = rng() as u32;
            let parts = ["dataset:", name.as_str(), ":", &index.to_string()];
            let streamed = ChunkName::new()
                .str("dataset:")
                .str(&name)
                .str(":")
                .index(index)
                .id(size_mb);
            assert_eq!(streamed, ChunkId::of(&parts.concat(), size_mb), "{parts:?}");
            // The one-part case, cut at an arbitrary character boundary.
            let cut = name
                .char_indices()
                .map(|(at, _)| at)
                .nth((rng() % 24) as usize)
                .unwrap_or(name.len());
            let (head, tail) = name.split_at(cut);
            assert_eq!(
                ChunkName::new().str(head).str(tail).id(size_mb),
                ChunkId::of(&name, size_mb),
                "{head:?} + {tail:?}"
            );
        }
    }

    #[test]
    fn fetch_miss_then_hit() {
        let mut c = ChunkCache::new(1000);
        let id = ChunkId::of("img", 300);
        assert!(!c.fetch(id, 300));
        assert!(c.fetch(id, 300));
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hit_mb, 300);
        assert_eq!(s.miss_mb, 300);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(c.used_mb(), 300);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = ChunkCache::new(1000);
        let a = ChunkId::of("a", 400);
        let b = ChunkId::of("b", 400);
        let d = ChunkId::of("d", 400);
        c.fetch(a, 400);
        c.fetch(b, 400);
        c.fetch(a, 400); // touch a: b becomes LRU
        c.fetch(d, 400); // needs eviction of b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.used_mb(), 800);
    }

    #[test]
    fn oversized_chunk_streams_through() {
        let mut c = ChunkCache::new(100);
        let big = ChunkId::of("dataset", 5000);
        assert!(!c.fetch(big, 5000));
        assert!(!c.fetch(big, 5000)); // still a miss: never retained
        assert_eq!(c.used_mb(), 0);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn byte_hit_rate_weighs_sizes() {
        let mut c = ChunkCache::new(10_000);
        let small = ChunkId::of("s", 10);
        let large = ChunkId::of("l", 990);
        c.fetch(small, 10);
        c.fetch(large, 990);
        c.fetch(large, 990);
        // count hit rate: 1/3; byte hit rate: 990/1990.
        assert!((c.stats().hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!((c.stats().byte_hit_rate() - 990.0 / 1990.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = ChunkCache::new(0);
    }
}
