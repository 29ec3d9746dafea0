//! Reproducible random streams.

use crate::prng::DetRng;

/// A factory for independent, labelled random streams derived from one
/// master seed.
///
/// Experiments need several logically independent random sources (arrival
/// process, duration sampling, failure injection, …). Drawing them all from
/// one RNG makes results fragile: adding a single extra draw in one
/// subsystem perturbs every other subsystem. `SeedStream` derives a child
/// RNG per label, so subsystems stay independent and each is reproducible
/// in isolation.
///
/// The derivation is `DetRng(master_seed ⊕ fnv1a(label))`, which is stable
/// across platforms and Rust versions (no reliance on `std` hashers).
///
/// # Example
///
/// ```
/// use tacc_sim::SeedStream;
///
/// let seeds = SeedStream::new(42);
/// let mut a1 = seeds.stream("arrivals");
/// let mut a2 = SeedStream::new(42).stream("arrivals");
/// assert_eq!(a1.next_u64(), a2.next_u64()); // same label, same stream
/// let mut b = seeds.stream("failures");
/// let _ = b.next_u64(); // independent stream, no effect on `a1`
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedStream {
    master: u64,
}

impl SeedStream {
    /// Creates a stream factory from a master seed.
    pub fn new(master: u64) -> Self {
        SeedStream { master }
    }

    /// The master seed this factory was created with.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Derives the deterministic child RNG for `label`.
    pub fn stream(&self, label: &str) -> DetRng {
        DetRng::seed_from_u64(self.master ^ fnv1a(label.as_bytes()))
    }

    /// Derives a child RNG for a `(label, index)` pair — useful for per-node
    /// or per-job streams.
    pub fn indexed_stream(&self, label: &str, index: u64) -> DetRng {
        let mixed = fnv1a(label.as_bytes()) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::seed_from_u64(self.master ^ mixed)
    }
}

/// FNV-1a over bytes: tiny, stable, good enough for label separation.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Convenience: draw a uniform f64 in `[0, 1)`.
pub(crate) fn unit_uniform(rng: &mut DetRng) -> f64 {
    // 53 random mantissa bits, the standard "u64 >> 11" construction.
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_label_same_stream() {
        let s = SeedStream::new(7);
        let mut a = s.stream("x");
        let mut b = s.stream("x");
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_differ() {
        let s = SeedStream::new(7);
        let mut a = s.stream("arrivals");
        let mut b = s.stream("durations");
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should be effectively independent");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SeedStream::new(1).stream("x");
        let mut b = SeedStream::new(2).stream("x");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn indexed_streams_differ() {
        let s = SeedStream::new(9);
        let mut a = s.indexed_stream("node", 0);
        let mut b = s.indexed_stream("node", 1);
        assert_ne!(a.next_u64(), b.next_u64());
        // But reproducible.
        let mut a2 = s.indexed_stream("node", 0);
        assert_eq!(
            a2.next_u64(),
            SeedStream::new(9).indexed_stream("node", 0).next_u64()
        );
    }

    #[test]
    fn unit_uniform_in_range() {
        let mut rng = SeedStream::new(3).stream("u");
        for _ in 0..1000 {
            let u = unit_uniform(&mut rng);
            assert!((0.0..1.0).contains(&u));
        }
    }
}
