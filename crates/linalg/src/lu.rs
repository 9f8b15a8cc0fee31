//! LU factorization with partial pivoting (Gaussian Elimination with
//! Partial Pivoting — the HPL kernel) on column-major storage.

use crate::blas1::idamax;
use crate::blas2::dger;
use crate::blas3::{dgemm, dtrsm_llnu, Trans};

/// Error returned when a pivot column is exactly zero (singular to working
/// precision).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Singular {
    /// Global column at which factorization broke down.
    pub col: usize,
}

impl std::fmt::Display for Singular {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular at column {}", self.col)
    }
}

impl std::error::Error for Singular {}

/// Unblocked right-looking LU with partial pivoting of an `m x n` panel
/// (`m >= n` in HPL usage), in place.
///
/// On return, `a` holds `L` (unit lower, below the diagonal) and `U` (upper
/// including the diagonal); `ipiv[j] = i` records that row `j` was swapped
/// with row `i >= j` at step `j` (LAPACK convention, 0-based).
pub fn dgetf2(
    m: usize,
    n: usize,
    a: &mut [f64],
    lda: usize,
    ipiv: &mut [usize],
) -> Result<(), Singular> {
    assert!(lda >= m.max(1), "dgetf2: lda < m");
    assert!(ipiv.len() >= n.min(m), "dgetf2: ipiv too short");
    let steps = m.min(n);
    for j in 0..steps {
        // Pivot search in column j, rows j..m.
        let col = &a[j * lda + j..j * lda + m];
        let piv_off = idamax(col).expect("non-empty pivot column");
        let piv = j + piv_off;
        if a[piv + j * lda] == 0.0 {
            return Err(Singular { col: j });
        }
        ipiv[j] = piv;
        // Swap rows j and piv across all n columns.
        dlaswp(n, a, lda, j, &[piv]);
        // Scale multipliers.
        let inv = 1.0 / a[j + j * lda];
        for i in j + 1..m {
            a[i + j * lda] *= inv;
        }
        // Rank-1 update of the trailing submatrix.
        if j + 1 < n {
            // A[j+1..m, j+1..n] -= A[j+1..m, j] * A[j, j+1..n]
            let (lcol, rest) = a.split_at_mut((j + 1) * lda);
            let x: Vec<f64> = lcol[j * lda + j + 1..j * lda + m].to_vec();
            let mut y = vec![0.0; n - j - 1];
            for (c, yv) in y.iter_mut().enumerate() {
                // row j of trailing columns lives in `rest` at column offset c
                *yv = rest[c * lda + j];
            }
            // trailing block base: column j+1, row j+1 -> within `rest`,
            // offset j+1 in each column.
            dger(m - j - 1, n - j - 1, -1.0, &x, &y, &mut rest[j + 1..], lda);
        }
    }
    Ok(())
}

/// Apply a panel's row interchanges to the `n` columns of `a`: for `t`
/// ascending, swap row `k0 + t` with row `piv[t]` (rows of `a`, 0-based).
///
/// This is LAPACK `dlaswp` with unit column stride. It walks one column at
/// a time, applying every pivot to it before moving on, so each column is
/// touched in cache once; the swaps within a column keep their order, so
/// every element ends where the row-by-row order puts it.
pub fn dlaswp(n: usize, a: &mut [f64], lda: usize, k0: usize, piv: &[usize]) {
    for c in 0..n {
        let col = &mut a[c * lda..];
        for (t, &p) in piv.iter().enumerate() {
            col.swap(k0 + t, p);
        }
    }
}

/// Blocked right-looking LU with partial pivoting of an `m x n` matrix with
/// block size `nb`, in place. Equivalent to LAPACK `dgetrf`.
pub fn dgetrf(
    m: usize,
    n: usize,
    a: &mut [f64],
    lda: usize,
    ipiv: &mut [usize],
    nb: usize,
) -> Result<(), Singular> {
    assert!(nb >= 1, "dgetrf: nb must be >= 1");
    assert!(ipiv.len() >= m.min(n), "dgetrf: ipiv too short");
    let steps = m.min(n);
    let mut j = 0;
    while j < steps {
        let jb = nb.min(steps - j);
        // Factor the panel A[j..m, j..j+jb].
        {
            let panel = &mut a[j * lda..];
            let mut piv = vec![0usize; jb];
            dgetf2(m - j, jb, &mut panel[j..], lda, &mut piv)
                .map_err(|e| Singular { col: j + e.col })?;
            for (t, p) in piv.iter().enumerate() {
                ipiv[j + t] = j + p;
            }
        }
        // Apply the panel's row swaps to the columns left of the panel…
        let piv = &ipiv[j..j + jb];
        dlaswp(j, a, lda, j, piv);
        // …and to the trailing columns.
        if j + jb < n {
            let ncols = n - j - jb;
            dlaswp(ncols, &mut a[(j + jb) * lda..], lda, j, piv);
            // U12 := L11^{-1} * A12
            let l11_start = j + j * lda;
            let (head, tail) = a.split_at_mut((j + jb) * lda);
            let l11 = &head[l11_start..];
            dtrsm_llnu(jb, ncols, l11, lda, &mut tail[j..], lda);
            // A22 -= L21 * U12
            if j + jb < m {
                let (head, tail) = a.split_at_mut((j + jb) * lda);
                let l21 = &head[j * lda + j + jb..];
                // U12 rows j..j+jb of tail; A22 rows j+jb..m of tail.
                let mrows = m - j - jb;
                // Need two disjoint views into `tail`: row range [j, j+jb)
                // as U12 and [j+jb, m) as A22, same columns. They share
                // columns, so copy U12 (jb x ncols) into a scratch buffer —
                // this mirrors HPL, which also materializes U.
                let mut u12 = vec![0.0; jb * ncols];
                for c in 0..ncols {
                    u12[c * jb..(c + 1) * jb].copy_from_slice(&tail[c * lda + j..c * lda + j + jb]);
                }
                dgemm(
                    Trans::No,
                    mrows,
                    ncols,
                    jb,
                    -1.0,
                    l21,
                    lda,
                    &u12,
                    jb,
                    1.0,
                    &mut tail[j + jb..],
                    lda,
                );
            }
        }
        j += jb;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::MatGen;
    use crate::matrix::Matrix;
    use crate::solve::{backward_sub, forward_sub_unit};

    /// Reconstruct P*A from L and U factors and compare.
    fn check_factorization(orig: &Matrix, fact: &Matrix, ipiv: &[usize]) {
        let n = orig.rows();
        // Build L and U from the packed factorization.
        let l = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                1.0
            } else if i > j {
                fact[(i, j)]
            } else {
                0.0
            }
        });
        let u = Matrix::from_fn(n, n, |i, j| if i <= j { fact[(i, j)] } else { 0.0 });
        let lu = l.matmul_ref(&u);
        // Apply pivots to a copy of the original.
        let mut pa = orig.clone();
        let lda = pa.ld();
        dlaswp(n, pa.as_mut_slice(), lda, 0, ipiv);
        let diff = lu.max_abs_diff(&pa);
        assert!(diff < 1e-9, "||LU - PA|| = {diff}");
    }

    #[test]
    fn dgetf2_factors_small_matrix() {
        let g = MatGen::new(11);
        let orig = Matrix::from_gen(8, 8, &g);
        let mut a = orig.clone();
        let mut ipiv = vec![0usize; 8];
        let lda = a.ld();
        dgetf2(8, 8, a.as_mut_slice(), lda, &mut ipiv).unwrap();
        check_factorization(&orig, &a, &ipiv);
    }

    #[test]
    fn dgetrf_matches_dgetf2() {
        let g = MatGen::new(21);
        let orig = Matrix::from_gen(33, 33, &g);
        let mut a1 = orig.clone();
        let mut a2 = orig.clone();
        let mut p1 = vec![0usize; 33];
        let mut p2 = vec![0usize; 33];
        let lda = orig.ld();
        dgetf2(33, 33, a1.as_mut_slice(), lda, &mut p1).unwrap();
        dgetrf(33, 33, a2.as_mut_slice(), lda, &mut p2, 8).unwrap();
        assert_eq!(p1, p2, "pivot sequences differ");
        assert!(a1.max_abs_diff(&a2) < 1e-10);
    }

    #[test]
    fn dgetrf_various_blocks_and_rectangular() {
        for &(m, n, nb) in &[
            (16, 16, 4),
            (20, 12, 5),
            (12, 20, 7),
            (31, 31, 31),
            (31, 31, 64),
        ] {
            let g = MatGen::new((m * n * nb) as u64);
            let orig = Matrix::from_gen(m, n, &g);
            let mut a = orig.clone();
            let mut ipiv = vec![0usize; m.min(n)];
            let lda = a.ld();
            dgetrf(m, n, a.as_mut_slice(), lda, &mut ipiv, nb).unwrap();
            // verify via full solve only for square; for rectangular check
            // the factor property on the leading square block by re-running
            // unblocked and comparing.
            let mut a2 = orig.clone();
            let mut p2 = vec![0usize; m.min(n)];
            dgetf2(m, n, a2.as_mut_slice(), lda, &mut p2).unwrap();
            assert_eq!(ipiv, p2, "pivots differ for ({m},{n},{nb})");
            assert!(
                a.max_abs_diff(&a2) < 1e-9,
                "factors differ for ({m},{n},{nb})"
            );
        }
    }

    #[test]
    fn lu_solve_end_to_end() {
        let n = 40;
        let g = MatGen::new(3);
        let a0 = Matrix::from_gen(n, n, &g);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) * 0.1 - 2.0).collect();
        let mut b = a0.matvec(&x_true);
        let mut a = a0.clone();
        let mut ipiv = vec![0usize; n];
        let lda = a.ld();
        dgetrf(n, n, a.as_mut_slice(), lda, &mut ipiv, 8).unwrap();
        // apply pivots to b, then solve L y = Pb, U x = y
        for j in 0..n {
            b.swap(j, ipiv[j]);
        }
        forward_sub_unit(n, a.as_slice(), lda, &mut b);
        backward_sub(n, a.as_slice(), lda, &mut b);
        let err: f64 = b
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-8, "solve error {err}");
    }

    #[test]
    fn singular_matrix_detected() {
        let mut a = Matrix::zeros(3, 3);
        // column 1 all zeros after elimination
        a[(0, 0)] = 1.0;
        a[(2, 2)] = 1.0;
        let mut ipiv = vec![0usize; 3];
        let lda = a.ld();
        let err = dgetf2(3, 3, a.as_mut_slice(), lda, &mut ipiv).unwrap_err();
        assert_eq!(err.col, 1);
    }

    #[test]
    fn dlaswp_round_trips() {
        let g = MatGen::new(9);
        let orig = Matrix::from_gen(6, 4, &g);
        let mut a = orig.clone();
        let ipiv = vec![3, 2, 5, 3];
        let lda = a.ld();
        dlaswp(4, a.as_mut_slice(), lda, 0, &ipiv);
        // applying the swaps in reverse order undoes them
        for j in (0..4).rev() {
            let p = ipiv[j];
            if p != j {
                for c in 0..4 {
                    a.as_mut_slice().swap(j + c * lda, p + c * lda);
                }
            }
        }
        assert_eq!(a, orig);
    }

    #[test]
    fn dlaswp_moves_what_the_row_by_row_loop_moves() {
        // the row-outer loop dlaswp replaced: one pivot across every column
        fn row_outer(n: usize, a: &mut [f64], lda: usize, k0: usize, piv: &[usize]) {
            for (t, &p) in piv.iter().enumerate() {
                for c in 0..n {
                    a.swap(k0 + t + c * lda, p + c * lda);
                }
            }
        }
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut draw = |below: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % below as u64) as usize
        };
        for _ in 0..200 {
            let (m, n, pad) = (1 + draw(40), draw(12), draw(3));
            let lda = m + pad;
            let k0 = draw(m);
            let mut piv: Vec<usize> = (0..draw(m - k0 + 1)).map(|_| draw(m)).collect();
            for t in 0..piv.len() {
                match draw(4) {
                    0 => piv[t] = k0 + t,                // a self-pivot
                    1 if t > 0 => piv[t] = piv[draw(t)], // a repeated target
                    _ => {}
                }
            }
            let orig: Vec<f64> = (0..lda * n).map(|i| i as f64).collect();
            let (mut want, mut got) = (orig.clone(), orig);
            row_outer(n, &mut want, lda, k0, &piv);
            dlaswp(n, &mut got, lda, k0, &piv);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "m={m} n={n} k0={k0} piv={piv:?}");
        }
    }
}
