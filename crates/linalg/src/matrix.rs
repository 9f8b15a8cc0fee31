//! A minimal owned dense matrix used by tests, examples, and the
//! single-node reference paths. Column-major, like everything in this
//! workspace.

use crate::gen::MatGen;

/// Owned column-major `rows x cols` matrix of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix (square).
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Matrix filled by the deterministic generator: element `(i, j)` is
    /// `gen.entry(i, j)`. Regenerating with the same seed yields the same
    /// matrix — the property the HPL restart path relies on.
    pub fn from_gen(rows: usize, cols: usize, gen: &MatGen) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = gen.entry(i as u64, j as u64);
            }
        }
        m
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension of the underlying storage (== rows: storage is
    /// always packed).
    pub fn ld(&self) -> usize {
        self.rows
    }

    /// Underlying column-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable underlying column-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Column `j` as a slice.
    pub fn col(&self, j: usize) -> &[f64] {
        assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Matrix-vector product `A * x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for j in 0..self.cols {
            let xj = x[j];
            if xj == 0.0 {
                continue;
            }
            let col = self.col(j);
            for i in 0..self.rows {
                y[i] += col[i] * xj;
            }
        }
        y
    }

    /// Naive (reference) matrix product, for validating `dgemm`.
    pub fn matmul_ref(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul: dimension mismatch");
        let mut c = Matrix::zeros(self.rows, other.cols);
        for j in 0..other.cols {
            for k in 0..self.cols {
                let b = other[(k, j)];
                if b == 0.0 {
                    continue;
                }
                for i in 0..self.rows {
                    c[(i, j)] += self[(i, k)] * b;
                }
            }
        }
        c
    }

    /// Max-abs difference between two same-shape matrices.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i + j * self.rows]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i + j * self.rows]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec_is_identity() {
        let a = Matrix::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(a.matvec(&x), x);
    }

    #[test]
    fn indexing_is_column_major() {
        let mut a = Matrix::zeros(2, 3);
        a[(1, 2)] = 7.0;
        assert_eq!(a.as_slice()[1 + 2 * 2], 7.0);
    }

    #[test]
    fn from_gen_is_deterministic() {
        let g = MatGen::new(42);
        let a = Matrix::from_gen(5, 5, &g);
        let b = Matrix::from_gen(5, 5, &MatGen::new(42));
        assert_eq!(a, b);
        let c = Matrix::from_gen(5, 5, &MatGen::new(43));
        assert!(a.max_abs_diff(&c) > 0.0);
    }

    #[test]
    fn matmul_ref_small_known_product() {
        let a = Matrix::from_fn(2, 2, |i, j| (i * 2 + j + 1) as f64); // [[1,2],[3,4]]
        let b = Matrix::identity(2);
        assert_eq!(a.matmul_ref(&b), a);
    }

    #[test]
    #[should_panic]
    fn matvec_rejects_bad_shape() {
        let a = Matrix::zeros(2, 3);
        a.matvec(&[1.0, 2.0]);
    }
}
