//! The distributed elimination engine: panel factorization, panel
//! broadcast, row interchanges, trailing-matrix update, back
//! substitution, and residual verification — HPL's four steps (§5.1 of
//! the paper) over the 1-D block-cyclic layout of [`crate::dist`].

use crate::dist::BlockCyclic1D;
use skt_linalg::{dgemm, dgemv, dgetf2, dtrsm_llnu, dtrsm_lunn, MatGen, Trans, EPS};
use skt_mps::{Comm, Fault, Payload, ReduceOp};

/// User tag for the back-substitution pipeline messages.
const TAG_BACKSUB: u64 = 100;

/// Fill this rank's shard of `[A | b]` from the deterministic generator.
pub fn generate(dist: &BlockCyclic1D, gen: &MatGen, storage: &mut [f64]) {
    let n = dist.n();
    assert!(storage.len() >= dist.local_len(), "storage too small");
    let rows = gen.row_hashes(n);
    for (lc, gc) in dist.owned_cols() {
        let col = &mut storage[lc * n..lc * n + n];
        if gc == dist.b_col() {
            rows.fill_col(MatGen::RHS_COL, col);
        } else if gc < n {
            rows.fill_col(gc as u64, col);
        }
        // aux (ABFT checksum) columns are filled by their owner module
    }
}

/// One right-looking GEPP panel iteration for `A` block `k`:
/// factorize at the owner, broadcast `(panel, pivots)`, swap rows, solve
/// `U12`, and update the trailing matrix (including the `b` column).
pub fn panel_step(
    comm: &Comm<'_>,
    dist: &BlockCyclic1D,
    storage: &mut [f64],
    k: usize,
) -> Result<(), Fault> {
    let n = dist.n();
    let nb = dist.nb();
    let ld = n;
    let j0 = k * nb;
    let jb = nb;
    let m_panel = n - j0;
    let owner = dist.owner(k);
    let me = comm.rank();

    // --- factorize and broadcast the panel ---
    let (panel, ipiv) = if me == owner {
        let pl0 = dist.local_col0(k);
        let base = pl0 * ld + j0;
        let mut piv = vec![0usize; jb];
        dgetf2(m_panel, jb, &mut storage[base..], ld, &mut piv)
            .unwrap_or_else(|e| panic!("HPL matrix singular at column {}", j0 + e.col));
        let mut panel = vec![0.0; m_panel * jb];
        for c in 0..jb {
            panel[c * m_panel..(c + 1) * m_panel]
                .copy_from_slice(&storage[(pl0 + c) * ld + j0..(pl0 + c) * ld + n]);
        }
        let ipiv: Vec<i64> = piv.iter().map(|&p| (j0 + p) as i64).collect();
        (Payload::F64(panel), Payload::I64(ipiv))
    } else {
        (Payload::Empty, Payload::Empty)
    };
    // `bcast` hands the root its own payload back, so nobody copies.
    let panel = comm.bcast(owner, panel)?.into_f64();
    let ipiv = comm.bcast(owner, ipiv)?.into_i64();

    // --- apply the panel's row interchanges to trailing local columns ---
    // Columns left of the panel hold already-final U rows / dead L rows
    // and are never read again, so only the trailing region is swapped
    // (the owner's panel columns were swapped inside dgetf2).
    let lt0 = dist.local_cols_from(j0 + jb);
    let lcols = dist.local_cols();
    for (t, &p) in ipiv.iter().enumerate() {
        let r1 = j0 + t;
        let r2 = p as usize;
        if r1 != r2 {
            for lc in lt0..lcols {
                storage.swap(lc * ld + r1, lc * ld + r2);
            }
        }
    }

    // --- trailing update: U12 := L11^{-1} A12;  A22 -= L21 * U12 ---
    let ncols_t = lcols - lt0;
    if ncols_t > 0 {
        dtrsm_llnu(
            jb,
            ncols_t,
            &panel,
            m_panel,
            &mut storage[lt0 * ld + j0..],
            ld,
        );
        let m22 = n - j0 - jb;
        if m22 > 0 {
            // U12 must be copied out: dgemm reads it while writing the
            // rows right below in the same columns.
            let mut u12 = vec![0.0; jb * ncols_t];
            for c in 0..ncols_t {
                u12[c * jb..(c + 1) * jb]
                    .copy_from_slice(&storage[(lt0 + c) * ld + j0..(lt0 + c) * ld + j0 + jb]);
            }
            dgemm(
                Trans::No,
                m22,
                ncols_t,
                jb,
                -1.0,
                &panel[jb..],
                m_panel,
                &u12,
                jb,
                1.0,
                &mut storage[lt0 * ld + j0 + jb..],
                ld,
            );
        }
    }
    Ok(())
}

/// Run the whole elimination, calling `hook(k)` after each completed
/// panel (the SKT-HPL checkpoint hook). `from` allows resuming after a
/// restore.
pub fn eliminate(
    comm: &Comm<'_>,
    dist: &BlockCyclic1D,
    storage: &mut [f64],
    from: usize,
    mut hook: impl FnMut(usize, &mut [f64]) -> Result<(), Fault>,
) -> Result<(), Fault> {
    for k in from..dist.nblocks_a() {
        panel_step(comm, dist, storage, k)?;
        hook(k, storage)?;
    }
    Ok(())
}

/// Distributed back substitution `U x = y` where `U` and the transformed
/// `y` (the `b` column) live in the eliminated shards. Returns `x`
/// replicated on every rank. `O(n²)` work, pipelined right-to-left
/// through the block owners (§5.1 step 3).
pub fn back_substitute(
    comm: &Comm<'_>,
    dist: &BlockCyclic1D,
    storage: &[f64],
) -> Result<Vec<f64>, Fault> {
    let n = dist.n();
    let nb = dist.nb();
    let ld = n;
    let me = comm.rank();
    let nba = dist.nblocks_a();
    let b_block = dist.nblocks_total() - 1;
    let b_owner = dist.owner(b_block);

    // everyone gets the transformed right-hand side
    let y0 = if me == b_owner {
        let lc = dist.local_col0(b_block);
        storage[lc * ld..lc * ld + n].to_vec()
    } else {
        Vec::new()
    };
    let y = comm.bcast(b_owner, Payload::F64(y0))?.into_f64();

    let mut x = vec![0.0; n];
    for k in (0..nba).rev() {
        let j0 = k * nb;
        let j1 = j0 + nb;
        if me == dist.owner(k) {
            let mut ypref = if k == nba - 1 {
                y[..j1].to_vec()
            } else {
                comm.recv(dist.owner(k + 1), TAG_BACKSUB)?.into_f64()
            };
            debug_assert_eq!(ypref.len(), j1);
            let lc0 = dist.local_col0(k);
            let ublock = &storage[lc0 * ld..lc0 * ld + (nb - 1) * ld + n];
            // x_k := U_kk^{-1} y_k
            dtrsm_lunn(nb, 1, &ublock[j0..], ld, &mut ypref[j0..j1], nb);
            x[j0..j1].copy_from_slice(&ypref[j0..j1]);
            if k > 0 {
                // y[0..j0] -= U[0..j0, block k] x_k, then pass left
                dgemv(j0, nb, -1.0, ublock, ld, &x[j0..j1], 1.0, &mut ypref[..j0]);
                ypref.truncate(j0);
                comm.send(dist.owner(k - 1), TAG_BACKSUB, Payload::F64(ypref))?;
            }
        }
    }
    // each block's x lives only at its owner; sum-combine the pieces
    Ok(comm.allreduce(ReduceOp::Sum, Payload::F64(x))?.into_f64())
}

/// Verification result (HPL's final report step).
#[derive(Clone, Copy, Debug)]
pub struct Verification {
    /// The scaled residual `||Ax-b||∞ / (ε·(||A||∞·||x||∞ + ||b||∞)·n)`.
    pub residual: f64,
    /// HPL's pass criterion (`residual < 16`).
    pub passed: bool,
}

/// Distributed residual check. The original `A` and `b` are *regenerated*
/// from the seed (never stored), exactly like HPL's verification; each
/// rank contributes its columns' part of `A·x` and the row-sum norm.
pub fn verify(
    comm: &Comm<'_>,
    dist: &BlockCyclic1D,
    gen: &MatGen,
    x: &[f64],
) -> Result<Verification, Fault> {
    let n = dist.n();
    assert_eq!(x.len(), n, "solution length mismatch");
    let mut ax_part = vec![0.0; n];
    let mut rowsum_part = vec![0.0; n];
    let rows = gen.row_hashes(n);
    let mut col = vec![0.0; n];
    for (_, gc) in dist.owned_cols() {
        if gc >= n {
            continue; // aux or b column
        }
        let xj = x[gc];
        rows.fill_col(gc as u64, &mut col);
        for (i, a) in col.iter().enumerate() {
            ax_part[i] += a * xj;
            rowsum_part[i] += a.abs();
        }
    }
    let ax = comm
        .allreduce(ReduceOp::Sum, Payload::F64(ax_part))?
        .into_f64();
    let rowsum = comm
        .allreduce(ReduceOp::Sum, Payload::F64(rowsum_part))?
        .into_f64();

    let mut rinf: f64 = 0.0;
    let mut binf: f64 = 0.0;
    rows.fill_col(MatGen::RHS_COL, &mut col);
    for (axi, b) in ax.iter().zip(&col) {
        rinf = rinf.max((axi - b).abs());
        binf = binf.max(b.abs());
    }
    let ainf = rowsum.iter().fold(0.0f64, |m, v| m.max(*v));
    let xinf = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let residual = rinf / (EPS * (ainf * xinf + binf) * n as f64);
    Ok(Verification {
        residual,
        passed: residual < 16.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skt_linalg::{solve_ref, Matrix};
    use skt_mps::run_local;

    fn run_hpl(nranks: usize, n: usize, nb: usize, seed: u64) -> Vec<(Vec<f64>, Verification)> {
        run_local(nranks, move |ctx| {
            let comm = ctx.world();
            let dist = BlockCyclic1D::new(n, nb, comm.size(), comm.rank());
            let gen = MatGen::new(seed);
            let mut storage = vec![0.0; dist.alloc_len()];
            generate(&dist, &gen, &mut storage);
            eliminate(&comm, &dist, &mut storage, 0, |_, _| Ok(()))?;
            let x = back_substitute(&comm, &dist, &storage)?;
            let v = verify(&comm, &dist, &gen, &x)?;
            Ok((x, v))
        })
        .unwrap()
    }

    #[test]
    fn distributed_solution_matches_reference() {
        let (n, nb, seed) = (24, 4, 42);
        let outs = run_hpl(3, n, nb, seed);
        // reference solve on a single node
        let gen = MatGen::new(seed);
        let a = Matrix::from_gen(n, n, &gen);
        let b: Vec<f64> = (0..n).map(|i| gen.rhs(i as u64)).collect();
        let x_ref = solve_ref(&a, &b, nb).unwrap();
        for (rank, (x, v)) in outs.iter().enumerate() {
            assert!(v.passed, "rank {rank}: residual {}", v.residual);
            let err = x
                .iter()
                .zip(&x_ref)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-7, "rank {rank}: max err {err}");
        }
    }

    #[test]
    fn works_across_rank_counts_and_blocks() {
        for &(p, n, nb) in &[(1, 16, 4), (2, 16, 8), (4, 32, 4), (5, 40, 8), (3, 36, 6)] {
            let outs = run_hpl(p, n, nb, 7);
            for (rank, (_, v)) in outs.iter().enumerate() {
                assert!(
                    v.passed,
                    "p={p} n={n} nb={nb} rank {rank}: residual {}",
                    v.residual
                );
            }
            // all ranks agree on x
            for w in outs.windows(2) {
                assert_eq!(w[0].0, w[1].0, "x must be replicated identically");
            }
        }
    }

    #[test]
    fn resume_mid_elimination_gives_same_answer() {
        // eliminate the first half, snapshot, continue — then replay the
        // second half from the snapshot: the restart path of SKT-HPL.
        let (p, n, nb, seed) = (2, 24, 4, 9);
        let outs = run_local(p, move |ctx| {
            let comm = ctx.world();
            let dist = BlockCyclic1D::new(n, nb, comm.size(), comm.rank());
            let gen = MatGen::new(seed);
            let mut storage = vec![0.0; dist.alloc_len()];
            generate(&dist, &gen, &mut storage);
            let half = dist.nblocks_a() / 2;
            for k in 0..half {
                panel_step(&comm, &dist, &mut storage, k)?;
            }
            let snapshot = storage.clone();
            // finish normally
            for k in half..dist.nblocks_a() {
                panel_step(&comm, &dist, &mut storage, k)?;
            }
            let x1 = back_substitute(&comm, &dist, &storage)?;
            // replay from snapshot (what recovery does)
            let mut storage2 = snapshot;
            for k in half..dist.nblocks_a() {
                panel_step(&comm, &dist, &mut storage2, k)?;
            }
            let x2 = back_substitute(&comm, &dist, &storage2)?;
            Ok((x1, x2))
        })
        .unwrap();
        for (x1, x2) in outs {
            assert_eq!(x1, x2, "resumed run must be bit-identical");
        }
    }

    #[test]
    fn garbage_solution_fails_verification() {
        let outs = run_local(2, |ctx| {
            let comm = ctx.world();
            let dist = BlockCyclic1D::new(16, 4, comm.size(), comm.rank());
            let gen = MatGen::new(3);
            let x = vec![1.0; 16];
            verify(&comm, &dist, &gen, &x)
        })
        .unwrap();
        assert!(!outs[0].passed);
    }
}
