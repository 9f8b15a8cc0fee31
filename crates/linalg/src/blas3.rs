//! Level-3 BLAS kernels: the packed, register-tiled `dgemm` that dominates
//! HPL runtime, and the two `dtrsm` variants LU factorization needs.
//!
//! All matrices are column-major with explicit leading dimensions.

use std::cell::RefCell;

/// Transposition flag for the `A` operand of [`dgemm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Use `A` as stored.
    No,
    /// Use `A^T`.
    Yes,
}

const MR: usize = 8; // register tile rows: two 4-lane vectors
const NR: usize = 6; // register tile cols: 2 x 6 = 12 accumulators of 16 registers
const KC: usize = 256; // k-dimension cache block
/// Elements of a thread's packed-`A` buffer (576 KiB, L2-resident beside
/// the `C` columns streaming past it): one `KC` pass handles as many rows
/// at a time as fit, so the buffer is bounded whatever the shape.
const PACK_A_LEN: usize = 288 * KC;

thread_local! {
    /// Packed `A`, kept per thread so that a panel loop does not allocate
    /// (and fault in) half a megabyte per trailing update.
    static PACK_A: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// General matrix multiply `C := alpha * op(A) * B + beta * C`.
///
/// * `op(A)` is `m x k` (`A` stored `m x k` for [`Trans::No`], `k x m` for
///   [`Trans::Yes`]), `B` is `k x n`, `C` is `m x n`.
/// * `lda`, `ldb`, `ldc` are the leading dimensions of the stored arrays.
///
/// The [`Trans::No`] path is the kernel the HPL trailing-matrix update
/// spends its time in. Per `KC`-deep block of `k` it packs `A` into
/// zero-padded 8-row micro-panels and each 6-column sliver of `B` into a
/// row-major strip, and runs one 8x6 register tile (12 vector
/// accumulators) over the two; tiles that overhang `m` or `n` run the same
/// kernel on a stack copy of their part of `C`.
///
/// **Numeric contract.** After the `beta` scaling, for each `KC` block in
/// turn, `C[i,j] <- fma(alpha, s, C[i,j])` where `s` starts at `+0.0` and
/// takes `s <- fma(A[i,p], B[p,j], s)` for `p` ascending through the block.
/// Every element sees exactly this sequence wherever it falls in the
/// tiling, so `C[i,j]` is a function of row `i` of `A` and column `j` of
/// `B` alone: computing a matrix in one call or in any split by rows or
/// columns gives the same bits (a resized SKT-HPL tenant relies on it).
///
/// Two kernels implement the contract, bit-identical by test. On x86-64
/// with AVX2 and FMA (probed once per process by the standard library's
/// feature cache) the tile runs on `std::arch` intrinsics; everywhere else
/// a portable one written with [`f64::mul_add`] runs — at full speed where
/// the target has a fused multiply-add instruction, but on x86 CPUs older
/// than FMA each `mul_add` is a call into libm's software `fma`, correct
/// and slow. The transposed path is a straightforward loop — it is only
/// used by verification code.
#[allow(clippy::too_many_arguments)]
pub fn dgemm(
    trans_a: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    assert!(ldc >= m.max(1), "dgemm: ldc < m");
    assert!(n == 0 || c.len() >= (n - 1) * ldc + m, "dgemm: c too small");
    match trans_a {
        Trans::No => {
            assert!(lda >= m.max(1), "dgemm: lda < m");
            assert!(k == 0 || a.len() >= (k - 1) * lda + m, "dgemm: a too small");
        }
        Trans::Yes => {
            assert!(lda >= k.max(1), "dgemm: lda < k (transposed)");
            assert!(m == 0 || a.len() >= (m - 1) * lda + k, "dgemm: a too small");
        }
    }
    assert!(ldb >= k.max(1), "dgemm: ldb < k");
    assert!(n == 0 || b.len() >= (n - 1) * ldb + k, "dgemm: b too small");

    if m == 0 || n == 0 {
        return;
    }
    // Scale C by beta once, up front.
    if beta != 1.0 {
        for j in 0..n {
            for v in c[j * ldc..j * ldc + m].iter_mut() {
                *v = if beta == 0.0 { 0.0 } else { *v * beta };
            }
        }
    }
    if alpha == 0.0 || k == 0 {
        return;
    }

    match trans_a {
        Trans::No => dgemm_nn(Tile::detect(), m, n, k, alpha, a, lda, b, ldb, c, ldc),
        Trans::Yes => dgemm_tn(m, n, k, alpha, a, lda, b, ldb, c, ldc),
    }
}

/// `C += alpha * A * B`, no-transpose fast path (contract in [`dgemm`]).
#[allow(clippy::too_many_arguments)]
fn dgemm_nn(
    tile: Tile,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    let mut pa = PACK_A.take();
    let mut pb = [0.0; KC * NR];
    for p0 in (0..k).step_by(KC) {
        let kb = KC.min(k - p0);
        let pb = &mut pb[..kb * NR];
        let mc_max = PACK_A_LEN / kb / MR * MR;
        for i0 in (0..m).step_by(mc_max) {
            let mc = mc_max.min(m - i0);
            let pa_len = mc.div_ceil(MR) * MR * kb;
            if pa.len() < pa_len {
                pa.resize(pa_len, 0.0);
            }
            let pa = &mut pa[..pa_len];
            pack_a(pa, &a[i0 + p0 * lda..], lda, mc, kb);
            for j0 in (0..n).step_by(NR) {
                let nr = NR.min(n - j0);
                pack_b(pb, &b[p0 + j0 * ldb..], ldb, kb, nr);
                for (ip, ap) in pa.chunks_exact(MR * kb).enumerate() {
                    let i = i0 + ip * MR;
                    let mr = MR.min(m - i);
                    let cij = &mut c[i + j0 * ldc..];
                    if mr == MR && nr == NR {
                        tile.run(kb, alpha, ap, pb, cij, ldc);
                        continue;
                    }
                    // An overhanging tile: the same kernel, on a copy of
                    // the part of `C` that exists.
                    let mut t = [0.0; MR * NR];
                    for jj in 0..nr {
                        t[jj * MR..][..mr].copy_from_slice(&cij[jj * ldc..][..mr]);
                    }
                    tile.run(kb, alpha, ap, pb, &mut t, MR);
                    for jj in 0..nr {
                        cij[jj * ldc..][..mr].copy_from_slice(&t[jj * MR..][..mr]);
                    }
                }
            }
        }
    }
    PACK_A.set(pa);
}

/// Pack the `mc x kb` block at `a[0]` into 8-row micro-panels: column `p`
/// of panel `ip` (rows `8 ip ..` of the block) goes to
/// `pa[(ip kb + p) 8 ..]`, zero-padded past row `mc`.
fn pack_a(pa: &mut [f64], a: &[f64], lda: usize, mc: usize, kb: usize) {
    for p in 0..kb {
        for (ip, rows) in a[p * lda..][..mc].chunks(MR).enumerate() {
            let dst = &mut pa[(ip * kb + p) * MR..][..MR];
            dst[..rows.len()].copy_from_slice(rows);
            dst[rows.len()..].fill(0.0);
        }
    }
}

/// Pack the `kb x nr` block at `b[0]` into a 6-wide row-major sliver:
/// row `p` goes to `pb[6 p ..]`, zero-padded past column `nr`.
fn pack_b(pb: &mut [f64], b: &[f64], ldb: usize, kb: usize, nr: usize) {
    if nr < NR {
        pb.fill(0.0);
    }
    for jj in 0..nr {
        for (p, &v) in b[jj * ldb..][..kb].iter().enumerate() {
            pb[p * NR + jj] = v;
        }
    }
}

/// Which implementation of the 8x6 tile runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tile {
    /// Safe Rust on [`f64::mul_add`].
    Portable,
    /// AVX2 + FMA intrinsics.
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
}

impl Tile {
    /// The fastest tile this CPU runs.
    fn detect() -> Tile {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Tile::Avx2Fma;
            }
        }
        Tile::Portable
    }

    /// `C[0..8, 0..6] <- fma(alpha, A B, C)` for one packed micro-panel `a`
    /// (`8 x kb`, column `p` at `a[8 p..]`), one packed sliver `b`
    /// (`kb x 6`, row `p` at `b[6 p..]`) and the tile whose top-left
    /// element is `c[0]`.
    fn run(self, kb: usize, alpha: f64, a: &[f64], b: &[f64], c: &mut [f64], ldc: usize) {
        assert!(
            a.len() >= MR * kb && b.len() >= NR * kb,
            "dgemm: short pack"
        );
        assert!(c.len() >= (NR - 1) * ldc + MR, "dgemm: tile outside c");
        match self {
            Tile::Portable => tile_portable(kb, alpha, a, b, c, ldc),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: only `detect` makes this variant, after probing both
            // features; the two asserts above are the kernel's length
            // requirements.
            Tile::Avx2Fma => unsafe {
                tile_avx2_fma(kb, alpha, a.as_ptr(), b.as_ptr(), c.as_mut_ptr(), ldc)
            },
        }
    }
}

/// The reference statement of the tile; see [`Tile::run`] for the layout.
fn tile_portable(kb: usize, alpha: f64, a: &[f64], b: &[f64], c: &mut [f64], ldc: usize) {
    let mut acc = [[0.0f64; MR]; NR];
    for (ap, bp) in a.chunks_exact(MR).zip(b.chunks_exact(NR)).take(kb) {
        for (accj, &bv) in acc.iter_mut().zip(bp) {
            for (s, &av) in accj.iter_mut().zip(ap) {
                *s = av.mul_add(bv, *s);
            }
        }
    }
    for (j, accj) in acc.iter().enumerate() {
        for (cv, &s) in c[j * ldc..][..MR].iter_mut().zip(accj) {
            *cv = alpha.mul_add(s, *cv);
        }
    }
}

/// [`tile_portable`] on AVX2 + FMA: column `j` of the tile is the
/// accumulator pair `acc[j]`, each step two loads of `A`, six broadcasts of
/// `B` and twelve fused multiply-adds.
///
/// # Safety
/// The CPU must support AVX2 and FMA; `a` must be readable for `8 kb`
/// elements, `b` for `6 kb`, and `c` readable and writable for
/// `5 ldc + 8`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn tile_avx2_fma(
    kb: usize,
    alpha: f64,
    a: *const f64,
    b: *const f64,
    c: *mut f64,
    ldc: usize,
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_pd(); 2]; NR];
    for p in 0..kb {
        let a0 = _mm256_loadu_pd(a.add(p * MR));
        let a1 = _mm256_loadu_pd(a.add(p * MR + 4));
        for (j, accj) in acc.iter_mut().enumerate() {
            let bv = _mm256_broadcast_sd(&*b.add(p * NR + j));
            accj[0] = _mm256_fmadd_pd(a0, bv, accj[0]);
            accj[1] = _mm256_fmadd_pd(a1, bv, accj[1]);
        }
    }
    let va = _mm256_set1_pd(alpha);
    for (j, accj) in acc.iter().enumerate() {
        let cj = c.add(j * ldc);
        _mm256_storeu_pd(cj, _mm256_fmadd_pd(va, accj[0], _mm256_loadu_pd(cj)));
        let cj = cj.add(4);
        _mm256_storeu_pd(cj, _mm256_fmadd_pd(va, accj[1], _mm256_loadu_pd(cj)));
    }
}

/// `C += alpha * A^T * B` reference path (used by verification only).
fn dgemm_tn(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    for j in 0..n {
        for i in 0..m {
            let mut s = 0.0;
            let acol = &a[i * lda..i * lda + k];
            let bcol = &b[j * ldb..j * ldb + k];
            for p in 0..k {
                s += acol[p] * bcol[p];
            }
            c[i + j * ldc] += alpha * s;
        }
    }
}

/// Triangular solve with multiple right-hand sides:
/// `B := L^{-1} * B` where `L` is the **unit lower** triangular `k x k`
/// matrix stored in `a` (column-major, leading dimension `lda`) and `B` is
/// `k x n` (leading dimension `ldb`).
///
/// This is BLAS `dtrsm('L','L','N','U')`, used by HPL to turn the panel
/// rows into `U` after panel factorization.
pub fn dtrsm_llnu(k: usize, n: usize, a: &[f64], lda: usize, b: &mut [f64], ldb: usize) {
    assert!(lda >= k.max(1), "dtrsm_llnu: lda < k");
    assert!(ldb >= k.max(1), "dtrsm_llnu: ldb < k");
    assert!(
        k == 0 || a.len() >= (k - 1) * lda + k,
        "dtrsm_llnu: a too small"
    );
    assert!(
        n == 0 || b.len() >= (n - 1) * ldb + k,
        "dtrsm_llnu: b too small"
    );
    for j in 0..n {
        let col = &mut b[j * ldb..j * ldb + k];
        // Forward substitution with unit diagonal.
        for p in 0..k {
            let xp = col[p];
            if xp == 0.0 {
                continue;
            }
            let lcol = &a[p * lda..p * lda + k];
            for i in p + 1..k {
                col[i] -= xp * lcol[i];
            }
        }
    }
}

/// Triangular solve with multiple right-hand sides:
/// `B := U^{-1} * B` where `U` is the **non-unit upper** triangular `k x k`
/// matrix stored in `a` (column-major, leading dimension `lda`) and `B` is
/// `k x n` (leading dimension `ldb`).
///
/// This is BLAS `dtrsm('L','U','N','N')`, used by blocked back
/// substitution.
pub fn dtrsm_lunn(k: usize, n: usize, a: &[f64], lda: usize, b: &mut [f64], ldb: usize) {
    assert!(lda >= k.max(1), "dtrsm_lunn: lda < k");
    assert!(ldb >= k.max(1), "dtrsm_lunn: ldb < k");
    assert!(
        k == 0 || a.len() >= (k - 1) * lda + k,
        "dtrsm_lunn: a too small"
    );
    assert!(
        n == 0 || b.len() >= (n - 1) * ldb + k,
        "dtrsm_lunn: b too small"
    );
    for j in 0..n {
        let col = &mut b[j * ldb..j * ldb + k];
        for p in (0..k).rev() {
            let diag = a[p + p * lda];
            assert!(diag != 0.0, "dtrsm_lunn: singular diagonal at {p}");
            let xp = col[p] / diag;
            col[p] = xp;
            if xp == 0.0 {
                continue;
            }
            let ucol = &a[p * lda..p * lda + p];
            for i in 0..p {
                col[i] -= xp * ucol[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn dgemm_owned(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        let (lda, ldb, ldc) = (a.ld(), b.ld(), c.ld());
        dgemm(
            Trans::No,
            a.rows(),
            b.cols(),
            a.cols(),
            1.0,
            a.as_slice(),
            lda,
            b.as_slice(),
            ldb,
            0.0,
            c.as_mut_slice(),
            ldc,
        );
        c
    }

    #[test]
    fn dgemm_matches_reference_on_odd_sizes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (4, 4, 4),
            (5, 7, 3),
            (17, 13, 9),
            (64, 64, 64),
            (33, 65, 129),
        ] {
            let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
            let b = Matrix::from_fn(k, n, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
            let c = dgemm_owned(&a, &b);
            let r = a.matmul_ref(&b);
            assert!(
                c.max_abs_diff(&r) < 1e-10,
                "dgemm mismatch at ({m},{n},{k}): {}",
                c.max_abs_diff(&r)
            );
        }
    }

    #[test]
    fn dgemm_respects_alpha_beta() {
        let a = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
        let b = Matrix::identity(3);
        let mut c = Matrix::from_fn(3, 3, |_, _| 1.0);
        let (lda, ldb, ldc) = (a.ld(), b.ld(), c.ld());
        dgemm(
            Trans::No,
            3,
            3,
            3,
            2.0,
            a.as_slice(),
            lda,
            b.as_slice(),
            ldb,
            3.0,
            c.as_mut_slice(),
            ldc,
        );
        // C = 2*A + 3*ones
        let expect = Matrix::from_fn(3, 3, |i, j| 2.0 * (i + j) as f64 + 3.0);
        assert!(c.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn dgemm_beta_zero_overwrites_nan() {
        // beta = 0 must overwrite even NaN garbage in C.
        let a = Matrix::identity(2);
        let b = Matrix::identity(2);
        let mut c = Matrix::from_fn(2, 2, |_, _| f64::NAN);
        let ldc = c.ld();
        dgemm(
            Trans::No,
            2,
            2,
            2,
            1.0,
            a.as_slice(),
            2,
            b.as_slice(),
            2,
            0.0,
            c.as_mut_slice(),
            ldc,
        );
        assert!(c.max_abs_diff(&Matrix::identity(2)) < 1e-15);
    }

    #[test]
    fn dgemm_transposed_a() {
        let a = Matrix::from_fn(4, 6, |i, j| (i * 6 + j) as f64 * 0.1); // stored 4x6, used as 6x4
        let b = Matrix::from_fn(4, 3, |i, j| (i + 2 * j) as f64);
        let mut c = Matrix::zeros(6, 3);
        let ldc = c.ld();
        dgemm(
            Trans::Yes,
            6,
            3,
            4,
            1.0,
            a.as_slice(),
            a.ld(),
            b.as_slice(),
            b.ld(),
            0.0,
            c.as_mut_slice(),
            ldc,
        );
        // reference: build A^T explicitly
        let at = Matrix::from_fn(6, 4, |i, j| a[(j, i)]);
        let r = at.matmul_ref(&b);
        assert!(c.max_abs_diff(&r) < 1e-12);
    }

    #[test]
    fn dgemm_with_submatrix_leading_dims() {
        // Operate on the top-left 3x3 of 5x5 buffers (lda=5).
        let big_a = Matrix::from_fn(5, 5, |i, j| (i * 5 + j) as f64);
        let big_b = Matrix::identity(5);
        let mut big_c = Matrix::zeros(5, 5);
        dgemm(
            Trans::No,
            3,
            3,
            3,
            1.0,
            big_a.as_slice(),
            5,
            big_b.as_slice(),
            5,
            0.0,
            big_c.as_mut_slice(),
            5,
        );
        for j in 0..3 {
            for i in 0..3 {
                assert_eq!(big_c[(i, j)], big_a[(i, j)]);
            }
        }
        // untouched outside the 3x3 block
        assert_eq!(big_c[(4, 4)], 0.0);
        assert_eq!(big_c[(3, 0)], 0.0);
    }

    /// `len` values in (-1, 1) with full mantissas, distinct per `seed`.
    fn fill(len: usize, seed: f64) -> Vec<f64> {
        (0..len)
            .map(|i| ((i as f64 + seed) * 0.618_033_988_749_895).sin())
            .collect()
    }

    /// The `(m + 2 pad) x n` buffer holding `C` after
    /// `C[..m, ..n] += alpha A B` on `tile`, `A` the top of an
    /// `(m + pad) x k` buffer.
    fn nn_on(tile: Tile, m: usize, n: usize, k: usize, alpha: f64, pad: usize) -> Vec<f64> {
        let (lda, ldc) = (m + pad, m + 2 * pad);
        let (a, b) = (fill(lda * k, 0.25), fill(k * n, 0.5));
        let mut c = fill(ldc * n, 0.75);
        dgemm_nn(tile, m, n, k, alpha, &a, lda, &b, k, &mut c, ldc);
        c
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn portable_and_avx2_fma_tiles_agree_bit_for_bit() {
        let tile = Tile::detect();
        if tile == Tile::Portable {
            println!("skipped: this CPU runs the portable tile only (no AVX2 + FMA)");
            return;
        }
        let sizes = || (1..=20).chain([33, 65]);
        for m in sizes() {
            for n in sizes() {
                for k in [1, 3, 32, KC + 1] {
                    // 1/3: with a power of two the final fma is exact unfused too
                    for alpha in [-1.0, 1.0, 0.5, 1.0 / 3.0] {
                        let want = nn_on(Tile::Portable, m, n, k, alpha, 3);
                        let got = nn_on(tile, m, n, k, alpha, 3);
                        assert_eq!(bits(&got), bits(&want), "m={m} n={n} k={k} alpha={alpha}");
                    }
                }
            }
        }
    }

    #[test]
    fn overhanging_tiles_write_only_inside_c() {
        // rows m..ldc of every column are not part of C
        let (m, n, k, pad) = (13, 7, 5, 3);
        let ldc = m + 2 * pad;
        let before = fill(ldc * n, 0.75);
        for tile in [Tile::Portable, Tile::detect()] {
            let after = nn_on(tile, m, n, k, 1.0, pad);
            for j in 0..n {
                let below = j * ldc + m..(j + 1) * ldc;
                assert_eq!(
                    bits(&after[below.clone()]),
                    bits(&before[below]),
                    "{tile:?} wrote below column {j}"
                );
            }
        }
    }

    #[test]
    fn result_does_not_depend_on_where_a_call_is_split() {
        // an element's value depends on its row of A and its column of B,
        // not on which tile of which call it falls in
        let (m, n, k, alpha) = (19, 17, KC + 7, -1.0);
        let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 101) as f64 / 7.0 - 6.0);
        let b = Matrix::from_fn(k, n, |i, j| ((i * 7 + j * 3) % 89) as f64 / 3.0 - 5.0);
        let c0 = Matrix::from_fn(m, n, |i, j| (i as f64 - j as f64) / 9.0);
        let run = |rows: std::ops::Range<usize>, cols: std::ops::Range<usize>, c: &mut Matrix| {
            let ldc = c.ld();
            dgemm(
                Trans::No,
                rows.len(),
                cols.len(),
                k,
                alpha,
                &a.as_slice()[rows.start..],
                a.ld(),
                &b.as_slice()[cols.start * b.ld()..],
                b.ld(),
                1.0,
                &mut c.as_mut_slice()[rows.start + cols.start * ldc..],
                ldc,
            );
        };
        let mut whole = c0.clone();
        run(0..m, 0..n, &mut whole);
        for s in 0..=n {
            let mut c = c0.clone();
            run(0..m, 0..s, &mut c);
            run(0..m, s..n, &mut c);
            assert_eq!(
                bits(c.as_slice()),
                bits(whole.as_slice()),
                "columns split at {s}"
            );
        }
        for s in 0..=m {
            let mut c = c0.clone();
            run(0..s, 0..n, &mut c);
            run(s..m, 0..n, &mut c);
            assert_eq!(
                bits(c.as_slice()),
                bits(whole.as_slice()),
                "rows split at {s}"
            );
        }
    }

    #[test]
    fn dtrsm_llnu_inverts_unit_lower() {
        let k = 8;
        let l = Matrix::from_fn(k, k, |i, j| {
            if i == j {
                1.0
            } else if i > j {
                0.1 * (i + j + 1) as f64
            } else {
                0.0
            }
        });
        let x_true = Matrix::from_fn(k, 3, |i, j| (i * 3 + j) as f64 * 0.5 - 2.0);
        let mut b = l.matmul_ref(&x_true);
        let ldb = b.ld();
        dtrsm_llnu(k, 3, l.as_slice(), l.ld(), b.as_mut_slice(), ldb);
        assert!(b.max_abs_diff(&x_true) < 1e-10);
    }

    #[test]
    fn dtrsm_lunn_inverts_upper() {
        let k = 6;
        let u = Matrix::from_fn(k, k, |i, j| {
            if i == j {
                2.0 + i as f64
            } else if i < j {
                ((i + j) % 3) as f64 - 1.0
            } else {
                0.0
            }
        });
        let x_true = Matrix::from_fn(k, 2, |i, j| (i as f64 - j as f64) * 0.3);
        let mut b = u.matmul_ref(&x_true);
        let ldb = b.ld();
        dtrsm_lunn(k, 2, u.as_slice(), u.ld(), b.as_mut_slice(), ldb);
        assert!(b.max_abs_diff(&x_true) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "dtrsm_lunn: b too small")]
    fn dtrsm_lunn_rejects_short_rhs() {
        // two right-hand sides announced, one and a half supplied
        let u = Matrix::identity(2);
        let mut b = vec![1.0; 3];
        dtrsm_lunn(2, 2, u.as_slice(), 2, &mut b, 2);
    }

    #[test]
    #[should_panic(expected = "dtrsm_lunn: a too small")]
    fn dtrsm_lunn_rejects_short_triangle() {
        let mut b = vec![1.0; 2];
        dtrsm_lunn(2, 1, &[1.0, 0.0, 0.0], 2, &mut b, 2);
    }

    #[test]
    #[should_panic]
    fn dtrsm_lunn_panics_on_singular() {
        let mut u = Matrix::identity(2);
        u[(1, 1)] = 0.0;
        let mut b = vec![1.0, 1.0];
        dtrsm_lunn(2, 1, u.as_slice(), 2, &mut b, 2);
    }
}
