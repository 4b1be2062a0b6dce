//! Deterministic randomness.
//!
//! All stochastic elements of the simulation (random-shuffle scheduling,
//! host-thread jitter, workload data generation) draw from [`DetRng`],
//! a thin wrapper over ChaCha8 chosen because its output is specified
//! and stable across platforms and `rand` versions — `StdRng` explicitly
//! is not. A `fork` operation derives independent substreams so that
//! adding randomness consumption in one component cannot perturb another
//! (a classic source of accidental non-reproducibility in simulators).

use rand::distributions::uniform::{SampleRange, SampleUniform};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Deterministic, forkable random number generator.
#[derive(Clone, Debug)]
pub struct DetRng {
    inner: ChaCha8Rng,
}

impl DetRng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        DetRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Derive an independent substream labelled by `stream`.
    ///
    /// Forks with distinct labels from the same parent produce
    /// statistically independent sequences; forking never advances the
    /// parent, so component A adding draws can't shift component B.
    pub fn fork(&self, stream: u64) -> Self {
        let mut child = self.inner.clone();
        child.set_stream(stream);
        child.set_word_pos(0);
        DetRng { inner: child }
    }

    /// Uniform sample from a range, e.g. `rng.gen_range(0..10)`.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        self.inner.gen_range(range)
    }

    /// A Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.inner.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Exponentially distributed sample with the given mean.
    ///
    /// Used for host-side jitter; mean of zero returns zero.
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        // Implemented manually (rather than via rand::seq) so that the
        // exact permutation for a given seed is pinned by this crate and
        // cannot change under us when the rand crate revises its
        // algorithms.
        let n = slice.len();
        if n < 2 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.inner.gen_range(0..=i);
            slice.swap(i, j);
        }
    }

    /// Pick a uniformly random element, or `None` if empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            let i = self.inner.gen_range(0..slice.len());
            Some(&slice[i])
        }
    }
}

impl RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = DetRng::seed_from_u64(7);
        let mut b = DetRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "seeds should produce unrelated streams");
    }

    #[test]
    fn fork_is_independent_of_parent_consumption() {
        let parent = DetRng::seed_from_u64(99);
        let mut f1 = parent.fork(3);
        let mut parent2 = DetRng::seed_from_u64(99);
        let _ = parent2.next_u64(); // consume from a sibling copy
        let mut f2 = DetRng::seed_from_u64(99).fork(3);
        for _ in 0..10 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
    }

    #[test]
    fn forks_with_distinct_labels_differ() {
        let parent = DetRng::seed_from_u64(5);
        let mut a = parent.fork(0);
        let mut b = parent.fork(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn shuffle_is_a_permutation_and_deterministic() {
        let mut v1: Vec<u32> = (0..50).collect();
        let mut v2: Vec<u32> = (0..50).collect();
        DetRng::seed_from_u64(11).shuffle(&mut v1);
        DetRng::seed_from_u64(11).shuffle(&mut v2);
        assert_eq!(v1, v2);
        let mut sorted = v1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v1, (0..50).collect::<Vec<_>>(), "50 items should move");
    }

    #[test]
    fn shuffle_handles_tiny_slices() {
        let mut empty: [u8; 0] = [];
        DetRng::seed_from_u64(0).shuffle(&mut empty);
        let mut one = [42u8];
        DetRng::seed_from_u64(0).shuffle(&mut one);
        assert_eq!(one, [42]);
    }

    #[test]
    fn gen_exp_properties() {
        let mut rng = DetRng::seed_from_u64(3);
        assert_eq!(rng.gen_exp(0.0), 0.0);
        assert_eq!(rng.gen_exp(-5.0), 0.0);
        let n = 20_000;
        let mean = 125.0;
        let sum: f64 = (0..n).map(|_| rng.gen_exp(mean)).sum();
        let emp = sum / n as f64;
        assert!(
            (emp - mean).abs() < mean * 0.05,
            "empirical mean {emp} too far from {mean}"
        );
    }

    #[test]
    fn choose_bounds() {
        let mut rng = DetRng::seed_from_u64(4);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        let items = [1, 2, 3];
        for _ in 0..20 {
            assert!(items.contains(rng.choose(&items).unwrap()));
        }
    }
}
