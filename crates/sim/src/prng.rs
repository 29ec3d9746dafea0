//! A small, fully safe, deterministic PRNG.
//!
//! Simulation experiments do not need cryptographic strength. `DetRng` is
//! **xoshiro256++** (Blackman & Vigna), seeded through SplitMix64 exactly
//! as the authors recommend — ~20 lines of pure integer arithmetic, no
//! `unsafe`, and bit-for-bit reproducible on every platform and compiler.

/// Deterministic xoshiro256++ generator, the randomness behind every
/// sampler in [`crate::dist`].
///
/// # Example
///
/// ```
/// let mut a = tacc_sim::DetRng::seed_from_u64(7);
/// let mut b = tacc_sim::DetRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a 64-bit seed (SplitMix64 expansion).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut s = [next(), next(), next(), next()];
        // An all-zero state would be a fixed point; SplitMix64 cannot
        // produce four zeros from any seed, but guard anyway.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        DetRng { s }
    }

    /// The next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = DetRng::seed_from_u64(123);
        let mut b = DetRng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = DetRng::seed_from_u64(124);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn roughly_uniform_bits() {
        let mut rng = DetRng::seed_from_u64(5);
        let mut ones = 0u64;
        let n = 10_000;
        for _ in 0..n {
            ones += rng.next_u64().count_ones() as u64;
        }
        let mean = ones as f64 / n as f64;
        assert!((mean - 32.0).abs() < 0.5, "bit bias: {mean}");
    }

    #[test]
    fn no_short_cycles() {
        let mut rng = DetRng::seed_from_u64(1);
        let first = rng.next_u64();
        assert!((0..10_000).all(|_| rng.next_u64() != first));
        // Weak check: state never returns to start quickly.
        let mut r2 = DetRng::seed_from_u64(1);
        let _ = r2.next_u64();
        for _ in 0..1000 {
            assert_ne!(r2, DetRng::seed_from_u64(1));
            let _ = r2.next_u64();
        }
    }
}
