//! Deterministic, coordinate-addressable matrix generator.
//!
//! HPL fills its coefficient matrix with pseudo-random numbers from a fixed
//! seed, and the SKT-HPL restart path relies on the fact that the matrix can
//! be regenerated identically after a failure ("With the same configure
//! file, matrix A and b are always the same since the HPL test uses a fixed
//! random seed", §5.2 of the paper).
//!
//! Real HPL uses a linear-congruential stream indexed by global element
//! order. For a distributed generator it is far more convenient for entry
//! `(i, j)` to be a *pure function* of `(seed, i, j)` — every rank can then
//! fill its local block-cyclic shard without generating (or skipping) the
//! whole stream. We hash the coordinates with SplitMix64, which gives
//! white-noise-quality output and perfect reproducibility.

/// Stateless generator: `entry(i, j)` is a pure function of the seed and
/// the global coordinates.
#[derive(Clone, Copy, Debug)]
pub struct MatGen {
    seed: u64,
}

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl MatGen {
    /// Create a generator for a given seed.
    pub fn new(seed: u64) -> Self {
        MatGen { seed }
    }

    /// The seed this generator was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Raw 64-bit hash for coordinate `(i, j)`.
    #[inline]
    pub fn raw(&self, i: u64, j: u64) -> u64 {
        // Mix the coordinates through two rounds so that (i, j) and (j, i)
        // diverge and neighbouring indices decorrelate.
        let a = splitmix64(self.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        splitmix64(a ^ j.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
    }

    /// Matrix entry in `[-0.5, 0.5)`, HPL's distribution.
    #[inline]
    pub fn entry(&self, i: u64, j: u64) -> f64 {
        // 53 random mantissa bits -> uniform in [0, 1), then centre.
        let bits = self.raw(i, j) >> 11;
        (bits as f64) * (1.0 / (1u64 << 53) as f64) - 0.5
    }

    /// Right-hand-side entry `b[i]`; by convention column `u64::MAX`.
    #[inline]
    pub fn rhs(&self, i: u64) -> f64 {
        self.entry(i, u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_reproducible() {
        let g = MatGen::new(1234);
        assert_eq!(g.entry(3, 7), MatGen::new(1234).entry(3, 7));
        assert_ne!(g.entry(3, 7), g.entry(7, 3), "should not be symmetric");
    }

    #[test]
    fn entries_are_in_range() {
        let g = MatGen::new(99);
        for i in 0..100 {
            for j in 0..100 {
                let v = g.entry(i, j);
                assert!((-0.5..0.5).contains(&v), "entry {v} out of range");
            }
        }
    }

    #[test]
    fn entries_have_roughly_zero_mean() {
        let g = MatGen::new(7);
        let n = 200u64;
        let mut sum = 0.0;
        for i in 0..n {
            for j in 0..n {
                sum += g.entry(i, j);
            }
        }
        let mean = sum / (n * n) as f64;
        assert!(mean.abs() < 0.01, "mean {mean} too far from 0");
    }

    #[test]
    fn rhs_differs_from_matrix_entries() {
        let g = MatGen::new(5);
        assert_ne!(g.rhs(0), g.entry(0, 0));
    }

    #[test]
    fn different_seeds_decorrelate() {
        let a = MatGen::new(1);
        let b = MatGen::new(2);
        let same = (0..1000)
            .filter(|&i| a.entry(i, 0) == b.entry(i, 0))
            .count();
        assert_eq!(same, 0);
    }
}
