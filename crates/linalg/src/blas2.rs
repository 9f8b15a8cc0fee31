//! Level-2 BLAS kernels on column-major storage with explicit leading
//! dimension.

/// Rank-1 update `A := A + alpha * x * y^T` where `A` is `m x n`
/// column-major with leading dimension `lda`.
///
/// This is the inner kernel of unblocked LU panel factorization.
pub fn dger(m: usize, n: usize, alpha: f64, x: &[f64], y: &[f64], a: &mut [f64], lda: usize) {
    assert!(x.len() >= m, "dger: x too short");
    assert!(y.len() >= n, "dger: y too short");
    assert!(lda >= m.max(1), "dger: lda < m");
    assert!(n == 0 || a.len() >= (n - 1) * lda + m, "dger: a too small");
    if alpha == 0.0 || m == 0 || n == 0 {
        return;
    }
    for j in 0..n {
        let t = alpha * y[j];
        if t == 0.0 {
            continue;
        }
        let col = &mut a[j * lda..j * lda + m];
        for (ai, xi) in col.iter_mut().zip(x[..m].iter()) {
            *ai += t * *xi;
        }
    }
}

/// Matrix-vector product `y := alpha * A * x + beta * y` (no transpose),
/// `A` column-major `m x n` with leading dimension `lda`.
pub fn dgemv(
    m: usize,
    n: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    x: &[f64],
    beta: f64,
    y: &mut [f64],
) {
    assert!(x.len() >= n, "dgemv: x too short");
    assert!(y.len() >= m, "dgemv: y too short");
    assert!(lda >= m.max(1), "dgemv: lda < m");
    if beta != 1.0 {
        for v in y[..m].iter_mut() {
            *v *= beta;
        }
    }
    if alpha == 0.0 {
        return;
    }
    for j in 0..n {
        let t = alpha * x[j];
        if t == 0.0 {
            continue;
        }
        let col = &a[j * lda..j * lda + m];
        for (yi, ai) in y[..m].iter_mut().zip(col.iter()) {
            *yi += t * *ai;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn dger_matches_reference() {
        let (m, n) = (3, 2);
        let mut a = Matrix::from_fn(m, n, |i, j| (i + j) as f64);
        let x = vec![1.0, 2.0, 3.0];
        let y = vec![4.0, 5.0];
        let expect = Matrix::from_fn(m, n, |i, j| (i + j) as f64 + 2.0 * x[i] * y[j]);
        let lda = a.ld();
        dger(m, n, 2.0, &x, &y, a.as_mut_slice(), lda);
        assert!(a.max_abs_diff(&expect) < 1e-14);
    }

    #[test]
    fn dger_with_zero_alpha_is_noop() {
        let mut a = Matrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64);
        let before = a.clone();
        let lda = a.ld();
        dger(2, 2, 0.0, &[1.0, 1.0], &[1.0, 1.0], a.as_mut_slice(), lda);
        assert_eq!(a, before);
    }

    #[test]
    fn dgemv_matches_matvec() {
        let a = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64 * 0.25);
        let x = vec![1.0, -1.0, 2.0];
        let mut y = vec![1.0; 4];
        dgemv(4, 3, 1.0, a.as_slice(), a.ld(), &x, 0.0, &mut y);
        let expect = a.matvec(&x);
        for i in 0..4 {
            assert!((y[i] - expect[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn dgemv_beta_scales_existing_y() {
        let a = Matrix::zeros(2, 2);
        let mut y = vec![3.0, 5.0];
        dgemv(2, 2, 1.0, a.as_slice(), 2, &[0.0, 0.0], 2.0, &mut y);
        assert_eq!(y, vec![6.0, 10.0]);
    }
}
