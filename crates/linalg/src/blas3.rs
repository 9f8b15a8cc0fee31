//! Level-3 BLAS kernels: the packed, register-tiled `dgemm` that dominates
//! HPL runtime, and the two `dtrsm` variants LU factorization needs.
//!
//! All matrices are column-major with explicit leading dimensions.

use std::cell::RefCell;

/// Transposition flag for the `A` operand of [`dgemm`]: `A` is always used
/// as stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Use `A` as stored.
    No,
}

const KC: usize = 256; // k-dimension cache block

// The largest register tile (the AVX-512 24x8) sizes the stack buffers
// every tile shares.
const MR_MAX: usize = 24;
const NR_MAX: usize = 8;
/// Elements of a thread's packed-`A` buffer (576 KiB, L2-resident beside
/// the `C` columns streaming past it): one `KC` pass handles as many rows
/// at a time as fit, so the buffer is bounded whatever the shape. `288`
/// is a multiple of every tile's row count.
const PACK_A_LEN: usize = 288 * KC;

thread_local! {
    /// Packed `A`, kept per thread so that a panel loop does not allocate
    /// (and fault in) half a megabyte per trailing update.
    static PACK_A: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// General matrix multiply `C := alpha * A * B + beta * C`.
///
/// * `A` is `m x k`, `B` is `k x n`, `C` is `m x n`; `trans_a` is
///   [`Trans::No`], its only value.
/// * `lda`, `ldb`, `ldc` are the leading dimensions of the stored arrays.
///
/// This is the kernel the HPL trailing-matrix update spends its time in.
/// Per `KC`-deep block of `k` it packs `A` into zero-padded `MR`-row
/// micro-panels and each `NR`-column sliver of `B` into a row-major strip,
/// and runs one `MR x NR` register tile over the two; tiles that overhang
/// `m` or `n` run the same kernel on a stack copy of their part of `C`.
///
/// **Numeric contract.** After the `beta` scaling, for each `KC` block in
/// turn, `C[i,j] <- fma(alpha, s, C[i,j])` where `s` starts at `+0.0` and
/// takes `s <- fma(A[i,p], B[p,j], s)` for `p` ascending through the block.
/// Every element sees exactly this sequence wherever it falls in the
/// tiling, so `C[i,j]` is a function of row `i` of `A` and column `j` of
/// `B` alone: computing a matrix in one call or in any split by rows or
/// columns gives the same bits (a resized SKT-HPL tenant relies on it),
/// and so does every tile geometry.
///
/// Three tiles implement the contract, bit-identical by test; the CPU
/// picks one (probed once per process by the standard library's feature
/// cache), and nothing else does:
///
/// | tile | `MR x NR` | accumulators | runs on |
/// |---|---|---|---|
/// | AVX-512 | 24 x 8 | 24 `zmm` | x86-64 with AVX-512F |
/// | AVX2 + FMA | 8 x 6 | 12 `ymm` | x86-64 with AVX2 and FMA |
/// | portable | 8 x 6 | arrays | everything else |
///
/// The portable tile is written with [`f64::mul_add`]: it runs at full
/// speed where the target has a fused multiply-add instruction, but on x86
/// CPUs older than FMA each `mul_add` is a call into libm's software
/// `fma`, correct and slow.
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
    let Trans::No = trans_a;
    assert!(ldc >= m.max(1), "dgemm: ldc < m");
    assert!(n == 0 || c.len() >= (n - 1) * ldc + m, "dgemm: c too small");
    assert!(lda >= m.max(1), "dgemm: lda < m");
    assert!(k == 0 || a.len() >= (k - 1) * lda + m, "dgemm: a too small");
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
    dgemm_nn(Tile::detect(), m, n, k, alpha, a, lda, b, ldb, c, ldc);
}

/// `C += alpha * A * B` on `tile` (contract in [`dgemm`]).
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
    let (mr, nr) = tile.shape();
    let mut pa = PACK_A.take();
    let mut pb = [0.0; KC * NR_MAX];
    for p0 in (0..k).step_by(KC) {
        let kb = KC.min(k - p0);
        let pb = &mut pb[..kb * nr];
        let mc_max = PACK_A_LEN / kb / mr * mr;
        for i0 in (0..m).step_by(mc_max) {
            let mc = mc_max.min(m - i0);
            let pa_len = mc.div_ceil(mr) * mr * kb;
            if pa.len() < pa_len {
                pa.resize(pa_len, 0.0);
            }
            let pa = &mut pa[..pa_len];
            pack_a(pa, &a[i0 + p0 * lda..], lda, mc, kb, mr);
            for j0 in (0..n).step_by(nr) {
                let cols = nr.min(n - j0);
                pack_b(pb, &b[p0 + j0 * ldb..], ldb, kb, cols, nr);
                for (ip, ap) in pa.chunks_exact(mr * kb).enumerate() {
                    let i = i0 + ip * mr;
                    let rows = mr.min(m - i);
                    let cij = &mut c[i + j0 * ldc..];
                    if rows == mr && cols == nr {
                        tile.run(kb, alpha, ap, pb, cij, ldc);
                        continue;
                    }
                    // An overhanging tile: the same kernel, on a copy of
                    // the part of `C` that exists.
                    let mut t = [0.0; MR_MAX * NR_MAX];
                    for jj in 0..cols {
                        t[jj * mr..][..rows].copy_from_slice(&cij[jj * ldc..][..rows]);
                    }
                    tile.run(kb, alpha, ap, pb, &mut t, mr);
                    for jj in 0..cols {
                        cij[jj * ldc..][..rows].copy_from_slice(&t[jj * mr..][..rows]);
                    }
                }
            }
        }
    }
    PACK_A.set(pa);
}

/// Pack the `mc x kb` block at `a[0]` into `mr`-row micro-panels: column
/// `p` of panel `ip` (rows `mr ip ..` of the block) goes to
/// `pa[(ip kb + p) mr ..]`, zero-padded past row `mc`.
fn pack_a(pa: &mut [f64], a: &[f64], lda: usize, mc: usize, kb: usize, mr: usize) {
    for p in 0..kb {
        for (ip, rows) in a[p * lda..][..mc].chunks(mr).enumerate() {
            let dst = &mut pa[(ip * kb + p) * mr..][..mr];
            dst[..rows.len()].copy_from_slice(rows);
            dst[rows.len()..].fill(0.0);
        }
    }
}

/// Pack the `kb x cols` block at `b[0]` into an `nr`-wide row-major
/// sliver: row `p` goes to `pb[nr p ..]`, zero-padded past column `cols`.
fn pack_b(pb: &mut [f64], b: &[f64], ldb: usize, kb: usize, cols: usize, nr: usize) {
    if cols < nr {
        pb.fill(0.0);
    }
    for jj in 0..cols {
        for (p, &v) in b[jj * ldb..][..kb].iter().enumerate() {
            pb[p * nr + jj] = v;
        }
    }
}

/// Which implementation of the register tile runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tile {
    /// Safe Rust on [`f64::mul_add`], 8x6.
    Portable,
    /// AVX2 + FMA intrinsics, 8x6.
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    /// AVX-512F intrinsics, 24x8.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Tile {
    /// The fastest tile this CPU runs.
    fn detect() -> Tile {
        #[cfg(target_arch = "x86_64")]
        for tile in [Tile::Avx512, Tile::Avx2Fma] {
            if tile.runs_here() {
                return tile;
            }
        }
        Tile::Portable
    }

    /// Whether this CPU has the features the tile's kernel needs.
    fn runs_here(self) -> bool {
        match self {
            Tile::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Tile::Avx2Fma => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Tile::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
        }
    }

    /// The register geometry `(MR, NR)`: the rows and columns of `C` one
    /// [`Tile::run`] computes.
    fn shape(self) -> (usize, usize) {
        match self {
            Tile::Portable => (8, 6),
            #[cfg(target_arch = "x86_64")]
            Tile::Avx2Fma => (8, 6),
            #[cfg(target_arch = "x86_64")]
            Tile::Avx512 => (MR_MAX, NR_MAX),
        }
    }

    /// `C[0..MR, 0..NR] <- fma(alpha, A B, C)` for one packed micro-panel
    /// `a` (`MR x kb`, column `p` at `a[MR p..]`), one packed sliver `b`
    /// (`kb x NR`, row `p` at `b[NR p..]`) and the tile whose top-left
    /// element is `c[0]`.
    fn run(self, kb: usize, alpha: f64, a: &[f64], b: &[f64], c: &mut [f64], ldc: usize) {
        let (mr, nr) = self.shape();
        assert!(
            a.len() >= mr * kb && b.len() >= nr * kb,
            "dgemm: short pack"
        );
        assert!(c.len() >= (nr - 1) * ldc + mr, "dgemm: tile outside c");
        match self {
            Tile::Portable => tile_portable::<8, 6>(kb, alpha, a, b, c, ldc),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `detect` (and the tests' `tiles_here`) make this
            // variant only where `runs_here` found AVX2 and FMA; the two
            // asserts above are the kernel's length requirements.
            Tile::Avx2Fma => unsafe {
                tile_avx2_fma(kb, alpha, a.as_ptr(), b.as_ptr(), c.as_mut_ptr(), ldc)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `detect` (and the tests' `tiles_here`) make this
            // variant only where `runs_here` found AVX-512F; the two
            // asserts above are the kernel's length requirements.
            Tile::Avx512 => unsafe {
                tile_avx512(kb, alpha, a.as_ptr(), b.as_ptr(), c.as_mut_ptr(), ldc)
            },
        }
    }
}

/// The reference statement of an `MR x NR` tile; see [`Tile::run`] for the
/// layout.
fn tile_portable<const MR: usize, const NR: usize>(
    kb: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    ldc: usize,
) {
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

/// The 8x6 tile on AVX2 + FMA: column `j` of the tile is the accumulator
/// pair `acc[j]`, each step two loads of `A`, six broadcasts of `B` and
/// twelve fused multiply-adds.
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
    const MR: usize = 8;
    const NR: usize = 6;
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

/// The 24x8 tile on AVX-512F: column `j` of the tile is the accumulator
/// triple `acc[j]`, each step three loads of `A`, eight broadcasts of `B`
/// and twenty-four fused multiply-adds (24 of the 32 `zmm` registers hold
/// accumulators).
///
/// # Safety
/// The CPU must support AVX-512F; `a` must be readable for `24 kb`
/// elements, `b` for `8 kb`, and `c` readable and writable for
/// `7 ldc + 24`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tile_avx512(
    kb: usize,
    alpha: f64,
    a: *const f64,
    b: *const f64,
    c: *mut f64,
    ldc: usize,
) {
    use std::arch::x86_64::*;
    const MR: usize = MR_MAX;
    const NR: usize = NR_MAX;
    let mut acc = [[_mm512_setzero_pd(); 3]; NR];
    for p in 0..kb {
        let ap = a.add(p * MR);
        let av = [
            _mm512_loadu_pd(ap),
            _mm512_loadu_pd(ap.add(8)),
            _mm512_loadu_pd(ap.add(16)),
        ];
        for (j, accj) in acc.iter_mut().enumerate() {
            let bv = _mm512_set1_pd(*b.add(p * NR + j));
            for (s, &a) in accj.iter_mut().zip(&av) {
                *s = _mm512_fmadd_pd(a, bv, *s);
            }
        }
    }
    let va = _mm512_set1_pd(alpha);
    for (j, accj) in acc.iter().enumerate() {
        for (r, &s) in accj.iter().enumerate() {
            let cj = c.add(j * ldc + 8 * r);
            _mm512_storeu_pd(cj, _mm512_fmadd_pd(va, s, _mm512_loadu_pd(cj)));
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

    /// Every tile this CPU runs, portable first: a test-only list, so that
    /// each tile is checked, not only the one `detect` picks. A tile the
    /// CPU lacks prints "skipped".
    fn tiles_here() -> Vec<Tile> {
        let mut tiles = vec![Tile::Portable];
        #[cfg(target_arch = "x86_64")]
        tiles.extend([Tile::Avx2Fma, Tile::Avx512]);
        tiles.retain(|tile| {
            let here = tile.runs_here();
            if !here {
                println!("skipped: this CPU lacks the {tile:?} tile");
            }
            here
        });
        tiles
    }

    #[test]
    fn every_tile_agrees_with_the_portable_one_bit_for_bit() {
        let tiles = tiles_here();
        // 7..9, 23..25 and 47, 49 straddle both row geometries (8, 24);
        // 5..9 and 17 both column geometries (6, 8)
        for m in (1..=20).chain([23, 24, 25, 33, 47, 49, 65]) {
            for n in (1..=20).chain([33, 65]) {
                for k in [1, 3, 32, KC + 1] {
                    // 1/3: with a power of two the final fma is exact unfused too
                    for alpha in [-1.0, 1.0, 0.5, 1.0 / 3.0] {
                        let want = nn_on(Tile::Portable, m, n, k, alpha, 3);
                        for &tile in &tiles[1..] {
                            let got = nn_on(tile, m, n, k, alpha, 3);
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "{tile:?} m={m} n={n} k={k} alpha={alpha}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn overhanging_tiles_write_only_inside_c() {
        // rows m..ldc of every column are not part of C
        let pad = 3;
        for tile in tiles_here() {
            for m in [7, 8, 9, 13, 23, 24, 25, 47, 49] {
                for n in [5, 6, 7, 8, 9, 17] {
                    for k in [5, KC + 1] {
                        let ldc = m + 2 * pad;
                        let before = fill(ldc * n, 0.75);
                        let after = nn_on(tile, m, n, k, 1.0, pad);
                        for j in 0..n {
                            let below = j * ldc + m..(j + 1) * ldc;
                            assert_eq!(
                                bits(&after[below.clone()]),
                                bits(&before[below]),
                                "{tile:?} m={m} n={n} k={k} wrote below column {j}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn result_does_not_depend_on_where_a_call_is_split() {
        // an element's value depends on its row of A and its column of B,
        // not on which tile of which call it falls in
        let (m, n, k, alpha) = (49, 17, KC + 7, -1.0);
        let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 101) as f64 / 7.0 - 6.0);
        let b = Matrix::from_fn(k, n, |i, j| ((i * 7 + j * 3) % 89) as f64 / 3.0 - 5.0);
        let c0 = Matrix::from_fn(m, n, |i, j| (i as f64 - j as f64) / 9.0);
        for tile in tiles_here() {
            let run =
                |rows: std::ops::Range<usize>, cols: std::ops::Range<usize>, c: &mut Matrix| {
                    let ldc = c.ld();
                    dgemm_nn(
                        tile,
                        rows.len(),
                        cols.len(),
                        k,
                        alpha,
                        &a.as_slice()[rows.start..],
                        a.ld(),
                        &b.as_slice()[cols.start * b.ld()..],
                        b.ld(),
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
                    "{tile:?}: columns split at {s}"
                );
            }
            for s in 0..=m {
                let mut c = c0.clone();
                run(0..s, 0..n, &mut c);
                run(s..m, 0..n, &mut c);
                assert_eq!(
                    bits(c.as_slice()),
                    bits(whole.as_slice()),
                    "{tile:?}: rows split at {s}"
                );
            }
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
