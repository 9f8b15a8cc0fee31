//! Matrix/vector norms and the HPL residual check.

use crate::matrix::Matrix;

/// Infinity norm of a vector: `max |x_i|`.
pub fn norm_inf_vec(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).fold(0.0, f64::max)
}

/// Infinity norm of a matrix: max row sum of absolute values.
pub fn norm_inf_mat(a: &Matrix) -> f64 {
    let mut row_sums = vec![0.0f64; a.rows()];
    for j in 0..a.cols() {
        for (i, v) in a.col(j).iter().enumerate() {
            row_sums[i] += v.abs();
        }
    }
    norm_inf_vec(&row_sums)
}

/// The scaled residual HPL reports:
/// `||Ax - b||_inf / (eps * (||A||_inf * ||x||_inf + ||b||_inf) * n)`.
///
/// HPL accepts the solution when this is below 16.0.
pub fn hpl_residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
    let n = a.rows();
    let ax = a.matvec(x);
    let r: Vec<f64> = ax.iter().zip(b).map(|(p, q)| p - q).collect();
    let num = norm_inf_vec(&r);
    let den = crate::EPS * (norm_inf_mat(a) * norm_inf_vec(x) + norm_inf_vec(b)) * n as f64;
    num / den
}

/// HPL's pass threshold for [`hpl_residual`].
pub const HPL_RESIDUAL_THRESHOLD: f64 = 16.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::MatGen;
    use crate::solve::solve_ref;

    #[test]
    fn norms_of_known_matrix() {
        let a = Matrix::from_fn(2, 2, |i, j| match (i, j) {
            (0, 0) => 1.0,
            (0, 1) => -2.0,
            (1, 0) => 3.0,
            (1, 1) => 4.0,
            _ => unreachable!(),
        });
        assert_eq!(norm_inf_mat(&a), 7.0); // row 1: 3+4
        assert_eq!(norm_inf_vec(&[1.0, -9.0, 2.0]), 9.0);
    }

    #[test]
    fn residual_of_exact_solve_passes() {
        let n = 30;
        let a = Matrix::from_gen(n, n, &MatGen::new(1));
        let b: Vec<f64> = (0..n).map(|i| MatGen::new(1).rhs(i as u64)).collect();
        let x = solve_ref(&a, &b, 8).unwrap();
        let r = hpl_residual(&a, &x, &b);
        assert!(r < HPL_RESIDUAL_THRESHOLD, "residual {r}");
    }

    #[test]
    fn residual_of_garbage_fails() {
        let n = 30;
        let a = Matrix::from_gen(n, n, &MatGen::new(1));
        let b: Vec<f64> = (0..n).map(|i| MatGen::new(1).rhs(i as u64)).collect();
        let x = vec![1.0; n];
        let r = hpl_residual(&a, &x, &b);
        assert!(
            r > HPL_RESIDUAL_THRESHOLD,
            "residual {r} unexpectedly small"
        );
    }
}
