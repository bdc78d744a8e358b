//! Deterministic randomness helpers.
//!
//! Load models need two kinds of randomness:
//!
//! * **Stateful streams** ([`Rng64`]) for one-shot generation such as
//!   testbed construction, and
//! * **Stateless hashing** (SplitMix64) so that a model can compute the
//!   random contribution of step *k* without generating steps `0..k`,
//!   keeping availability queries O(1) and order-independent.
//!
//! Everything here is self-contained: the workspace builds offline, so
//! the stateful generator is a SplitMix64 counter stream rather than an
//! external `rand` dependency. The quality is ample for testbed
//! construction and planner restarts; cryptographic uses are out of
//! scope.

/// SplitMix64: a tiny, high-quality 64-bit mixer.
///
/// Given the same input it always returns the same output, which makes it
/// suitable for computing "the random value at step `k` of stream `seed`"
/// without materialising the stream.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Mixes a stream seed with a step index into a single hash.
#[inline]
pub fn mix(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index.wrapping_add(0xA076_1D64_78BD_642F)))
}

/// Maps a hash to a uniform float in `[0, 1)`.
#[inline]
pub fn unit_f64(hash: u64) -> f64 {
    // Use the top 53 bits for a dyadic rational in [0,1).
    (hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform float in `[0, 1)` for step `index` of stream `seed`.
#[inline]
pub fn unit_at(seed: u64, index: u64) -> f64 {
    unit_f64(mix(seed, index))
}

/// Exponentially distributed value with the given `mean` for step `index`
/// of stream `seed` (inverse-CDF method).
#[inline]
pub fn exp_at(seed: u64, index: u64, mean: f64) -> f64 {
    let u = unit_at(seed, index);
    // Guard the log: u is in [0,1), so 1-u is in (0,1].
    -mean * (1.0 - u).ln()
}

/// A seeded stateful generator: a SplitMix64 counter stream.
///
/// Successive calls walk an internal counter through [`splitmix64`], so
/// the stream is exactly reproducible from its seed on every platform.
#[derive(Clone, Debug)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Creates a generator for `seed`.
    pub fn new(seed: u64) -> Self {
        // Pre-mix so nearby seeds do not yield correlated first draws.
        Rng64 {
            state: splitmix64(seed ^ 0x1656_7A09_B5A3_E6D1),
        }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.state)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_unit(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn next_range(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "range bound must be positive");
        // Multiply-shift rejection-free mapping; bias is < 2^-53 for the
        // bounds used here (node counts), far below observable effect.
        (self.next_unit() * bound as f64) as usize % bound
    }
}

/// Derives an independent child seed, e.g. one per node of a testbed.
#[inline]
pub(crate) fn child_seed(seed: u64, label: u64) -> u64 {
    splitmix64(seed ^ label.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(42), splitmix64(43));
        assert_ne!(splitmix64(0), 0);
    }

    #[test]
    fn unit_values_lie_in_unit_interval() {
        for i in 0..10_000u64 {
            let u = unit_at(7, i);
            assert!((0.0..1.0).contains(&u), "u={u} at i={i}");
        }
    }

    #[test]
    fn unit_values_are_roughly_uniform() {
        let n = 100_000u64;
        let mean: f64 = (0..n).map(|i| unit_at(99, i)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn exp_values_match_requested_mean() {
        let n = 100_000u64;
        let mean: f64 = (0..n).map(|i| exp_at(3, i, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean={mean}");
        assert!((0..n).all(|i| exp_at(3, i, 2.0) >= 0.0));
    }

    #[test]
    fn child_seeds_differ_per_label() {
        let parents = child_seed(1, 0);
        assert_ne!(parents, child_seed(1, 1));
        assert_eq!(child_seed(1, 5), child_seed(1, 5));
    }

    #[test]
    fn rng64_range_is_in_bounds_and_covers() {
        let mut rng = Rng64::new(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.next_range(7);
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable: {seen:?}");
    }

    #[test]
    fn rng64_units_are_roughly_uniform() {
        let mut rng = Rng64::new(17);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_unit()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn rng64_replays_its_stream_per_seed() {
        let draw = |seed| {
            let mut rng = Rng64::new(seed);
            (0..64).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
    }
}
