#![warn(unused)]
#![allow(clippy::needless_range_loop)] // index loops over coupled arrays are the clearest form for BLAS-style kernels
//! # skt-linalg
//!
//! Dense linear-algebra kernels for the Self-Checkpoint / SKT-HPL
//! reproduction.
//!
//! The crate provides the subset of BLAS/LAPACK functionality that
//! High-Performance Linpack needs, implemented from scratch:
//!
//! * the level-1 kernel ([`blas1`]) of the pivot search: `idamax`
//! * level-2 kernels ([`blas2`]): `dger`, `dgemv`
//! * level-3 kernels ([`blas3`]): a cache-blocked `dgemm` and the `dtrsm`
//!   variants used by LU factorization
//! * LU factorization ([`lu`]): unblocked `dgetf2`, blocked `dgetrf`,
//!   pivot application `dlaswp`
//! * triangular/back substitution solvers ([`solve`])
//! * matrix norms and residual checks ([`norms`])
//! * a deterministic, coordinate-addressable matrix generator ([`gen`])
//!   so that distributed ranks can regenerate exactly the same global
//!   matrix from a seed — the property HPL relies on after a restart.
//!
//! All dense matrices are **column-major** with an explicit leading
//! dimension `lda`, mirroring BLAS conventions: element `(i, j)` of an
//! `m x n` matrix stored in slice `a` lives at `a[i + j * lda]`.

pub mod blas1;
pub mod blas2;
pub mod blas3;
pub mod gen;
pub mod lu;
pub mod matrix;
pub mod norms;
pub mod solve;

pub use blas1::idamax;
pub use blas2::{dgemv, dger};
pub use blas3::{dgemm, dtrsm_llnu, dtrsm_lunn, Trans};
pub use gen::{MatGen, RowHashes};
pub use lu::{dgetf2, dgetrf, dlaswp};
pub use matrix::Matrix;
pub use norms::{norm_inf_mat, norm_inf_vec};
pub use solve::{backward_sub, forward_sub_unit, solve_ref};

/// Machine epsilon for `f64`, as used by the HPL residual check.
pub const EPS: f64 = f64::EPSILON;

/// Floating-point operation count of an `n x n` LU solve, the figure HPL
/// divides by wall time to report GFLOPS: `2/3 n^3 + 3/2 n^2`.
pub fn hpl_flops(n: u64) -> f64 {
    let n = n as f64;
    2.0 / 3.0 * n * n * n + 3.0 / 2.0 * n * n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_formula_matches_reference_values() {
        let f = hpl_flops(1000);
        assert!((f - (2.0 / 3.0 * 1e9 + 1.5e6)).abs() < 1.0);
    }
}
