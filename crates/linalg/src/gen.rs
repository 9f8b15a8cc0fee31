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
    /// The column the right-hand side `b` lives at ([`Self::rhs`]).
    pub const RHS_COL: u64 = u64::MAX;

    /// Create a generator for a given seed.
    pub fn new(seed: u64) -> Self {
        MatGen { seed }
    }

    /// The seed this generator was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The row half of [`Self::raw`]: everything of the hash that does
    /// not depend on the column.
    #[inline]
    fn row_hash(&self, i: u64) -> u64 {
        splitmix64(self.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The column half: the raw hash of column `j` in the row hashed to
    /// `row_hash`. Two rounds in all, so that (i, j) and (j, i) diverge
    /// and neighbouring indices decorrelate.
    #[inline]
    fn raw_in_row(row_hash: u64, j: u64) -> u64 {
        splitmix64(row_hash ^ j.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
    }

    /// The entry of column `j` in the row hashed to `row_hash`.
    #[inline]
    fn entry_in_row(row_hash: u64, j: u64) -> f64 {
        // 53 random mantissa bits -> uniform in [0, 1), then centre.
        let bits = Self::raw_in_row(row_hash, j) >> 11;
        (bits as f64) * (1.0 / (1u64 << 53) as f64) - 0.5
    }

    /// Raw 64-bit hash for coordinate `(i, j)`.
    #[inline]
    pub fn raw(&self, i: u64, j: u64) -> u64 {
        Self::raw_in_row(self.row_hash(i), j)
    }

    /// Matrix entry in `[-0.5, 0.5)`, HPL's distribution.
    #[inline]
    pub fn entry(&self, i: u64, j: u64) -> f64 {
        Self::entry_in_row(self.row_hash(i), j)
    }

    /// Right-hand-side entry `b[i]`; by convention column [`Self::RHS_COL`].
    #[inline]
    pub fn rhs(&self, i: u64) -> f64 {
        self.entry(i, Self::RHS_COL)
    }

    /// The row hashes of rows `0..n`: a caller that walks whole columns
    /// computes them once and [`RowHashes::fill_col`] pays one hash round
    /// per entry instead of [`Self::entry`]'s two.
    #[must_use]
    pub fn row_hashes(&self, n: usize) -> RowHashes {
        RowHashes((0..n as u64).map(|i| self.row_hash(i)).collect())
    }
}

/// The seed-and-row half of a [`MatGen`]'s hash for rows `0..n`
/// ([`MatGen::row_hashes`]); the seed lives in here, so a column filled
/// from it cannot belong to another generator.
#[derive(Clone, Debug)]
pub struct RowHashes(Vec<u64>);

impl RowHashes {
    /// Column `j` over these rows: `out[i] = entry(i, j)`, bit for bit
    /// ([`MatGen::RHS_COL`] for the right-hand side).
    pub fn fill_col(&self, j: u64, out: &mut [f64]) {
        assert_eq!(out.len(), self.0.len(), "one row hash per entry");
        for (v, &h) in out.iter_mut().zip(&self.0) {
            *v = MatGen::entry_in_row(h, j);
        }
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
    fn fill_col_is_entry_bit_for_bit() {
        let g = MatGen::new(0x5EED);
        let rows = g.row_hashes(64);
        let mut col = vec![0.0; 64];
        for j in 0..64 {
            rows.fill_col(j, &mut col);
            for (i, v) in col.iter().enumerate() {
                assert_eq!(v.to_bits(), g.entry(i as u64, j).to_bits(), "({i}, {j})");
            }
        }
        rows.fill_col(MatGen::RHS_COL, &mut col);
        assert!((0..64).all(|i| col[i].to_bits() == g.rhs(i as u64).to_bits()));
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
