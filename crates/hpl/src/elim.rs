//! The distributed elimination engine — panel factorization, panel
//! broadcast, row interchanges, trailing-matrix update, back
//! substitution, and residual verification: HPL's four steps (§5.1 of
//! the paper) over the 1-D block-cyclic layout of [`crate::dist`] — and
//! [`solve`], the one loop every HPL method runs them in.

use crate::dist::BlockCyclic1D;
use crate::plain::HplOutput;
use crate::skt::{SktOutput, SktPause, SktRun};
use crate::ITER_PROBE;
use skt_core::RecoveryReport;
use skt_linalg::{
    dgemm, dgemv, dgetf2, dlaswp, dtrsm_llnu, dtrsm_lunn, hpl_flops, MatGen, Trans, EPS,
};
use skt_mps::{Comm, Ctx, Fault, Payload, ReduceOp};

/// User tag for the back-substitution pipeline messages.
const TAG_BACKSUB: u64 = 100;

/// Fill this rank's shard of `[A | b]` from the deterministic generator,
/// and of `[A | S | b]` when the layout carries ABFT checksum columns:
/// aux block `g` holds the element-wise sum of A-blocks
/// `g*nranks .. (g+1)*nranks`.
pub fn generate(dist: &BlockCyclic1D, gen: &MatGen, storage: &mut [f64]) {
    let (n, nb, nranks) = (dist.n(), dist.nb(), dist.nranks());
    assert!(storage.len() >= dist.local_len(), "storage too small");
    let rows = gen.row_hashes(n);
    for (lc, gc) in dist.owned_cols() {
        let col = &mut storage[lc * n..lc * n + n];
        if gc == dist.b_col() {
            rows.fill_col(MatGen::RHS_COL, col);
        } else if gc < n {
            rows.fill_col(gc as u64, col);
        } else {
            let (group, off) = ((gc - n) / nb, (gc - n) % nb);
            for (i, v) in col.iter_mut().enumerate() {
                *v = (0..nranks).fold(0.0, |s, b| {
                    s + gen.entry(i as u64, ((group * nranks + b) * nb + off) as u64)
                });
            }
        }
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
    let piv: Vec<usize> = ipiv.iter().map(|&p| p as usize).collect();
    dlaswp(lcols - lt0, &mut storage[lt0 * ld..], ld, j0, &piv);

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

/// Where one method keeps its rank's shard of `[A | b]`: the only part
/// of an HPL method that [`solve`] does not run itself.
pub trait Shard {
    /// Bring back the newest kept state (collective).
    fn restore(&mut self, ctx: &Ctx) -> Result<Start, Fault>;
    /// Lend the shard to `f` for one step.
    fn lend<R>(&mut self, f: impl FnOnce(&mut [f64]) -> R) -> R;
    /// Keep the shard as of `done` completed panels (collective).
    fn keep(&mut self, ctx: &Ctx, done: usize) -> Result<Kept, Fault>;
    /// The protocol's account of the restore, when one happened.
    fn report(&self) -> Option<RecoveryReport> {
        None
    }
}

/// Where a launch starts, as [`Shard::restore`] found the kept state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Start {
    /// Nothing kept: generate `[A | b]` and start at panel 0.
    Fresh,
    /// The kept state was torn (the single-checkpoint flaw): generate
    /// and start the whole computation over.
    Scratch,
    /// Resume after `panel` panels; `modeled` is the device time the
    /// read was charged beyond its wall time.
    Resume { panel: usize, modeled: f64 },
}

/// What one [`Shard::keep`] reports beyond its wall time, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Kept {
    /// The parity-encode part of the wall time.
    pub encode: f64,
    /// Modeled device time charged on top of the wall time.
    pub modeled: f64,
}

/// A heap shard (the original HPL, ABFT): nothing outlives the job, so
/// every launch generates and nothing is ever kept.
impl Shard for Vec<f64> {
    fn restore(&mut self, _: &Ctx) -> Result<Start, Fault> {
        Ok(Start::Fresh)
    }

    fn lend<R>(&mut self, f: impl FnOnce(&mut [f64]) -> R) -> R {
        f(self)
    }

    fn keep(&mut self, _: &Ctx, _: usize) -> Result<Kept, Fault> {
        unreachable!("a heap shard is never kept")
    }
}

/// The one solve loop of every HPL method: restore or generate, barrier,
/// then per panel `panel_step` → [`ITER_PROBE`] → a keep every
/// `ckpt_every` panels (0 = never; timed, and taken out of compute),
/// then back-substitute → verify → one [`HplOutput`]. With a nonzero
/// `panel_budget` it keeps and returns [`SktRun::Paused`] after that many
/// panels while work remains. The shard is lent for one step at a time,
/// never across the probe or a keep: a corrupt plan write-locks an SHM
/// workspace at the probe, and a keep reads it.
pub fn solve(
    ctx: &Ctx,
    dist: &BlockCyclic1D,
    seed: u64,
    shard: &mut impl Shard,
    ckpt_every: usize,
    panel_budget: usize,
) -> Result<SktRun, Fault> {
    let world = ctx.world();
    let gen = MatGen::new(seed);
    let t_rec = ctx.stopwatch();
    let start = shard.restore(ctx)?;
    let (from, modeled) = match start {
        Start::Resume { panel, modeled } => (panel, modeled),
        Start::Fresh | Start::Scratch => {
            shard.lend(|s| generate(dist, &gen, s));
            (0, 0.0)
        }
    };
    let recover_seconds = t_rec.elapsed().as_secs_f64() + modeled;
    world.barrier()?;

    let nba = dist.nblocks_a();
    let (mut ckpt, mut ckpt_wall, mut encode, mut checkpoints) = (0.0, 0.0, 0.0, 0);
    let t0 = ctx.stopwatch();
    for k in from..nba {
        shard.lend(|s| panel_step(&world, dist, s, k))?;
        ctx.failpoint(ITER_PROBE)?;
        let done = k + 1;
        // The slice boundary keeps even off the schedule: the next
        // launch resumes from this exact panel.
        let pause = panel_budget > 0 && done - from >= panel_budget && done < nba;
        if pause || (ckpt_every > 0 && done % ckpt_every == 0 && done < nba) {
            let tc = ctx.stopwatch();
            let kept = shard.keep(ctx, done)?;
            let wall = tc.elapsed().as_secs_f64();
            ckpt_wall += wall;
            ckpt += wall + kept.modeled;
            encode += kept.encode;
            checkpoints += 1;
        }
        if pause {
            return Ok(SktRun::Paused(SktPause {
                checkpoints,
                ckpt_seconds: ckpt,
                recover_seconds,
            }));
        }
    }
    let x = shard.lend(|s| back_substitute(&world, dist, s))?;
    let compute = (t0.elapsed().as_secs_f64() - ckpt_wall).max(1e-9);
    let v = verify(&world, dist, &gen, &x)?;
    // report the slowest rank's times (the job's wall time)
    let maxed = world
        .allreduce(ReduceOp::Max, Payload::F64(vec![compute, ckpt, encode]))?
        .into_f64();
    let flops = hpl_flops(dist.n() as u64);
    Ok(SktRun::Done(SktOutput {
        hpl: HplOutput {
            n: dist.n(),
            compute_seconds: maxed[0],
            ckpt_seconds: maxed[1],
            encode_seconds: maxed[2],
            checkpoints,
            gflops_compute: flops / maxed[0] / 1e9,
            gflops_effective: flops / (maxed[0] + maxed[1]) / 1e9,
            residual: v.residual,
            passed: v.passed,
        },
        resumed_from_panel: from,
        restarted_from_scratch: start == Start::Scratch,
        recover_seconds,
        recovery: shard.report(),
    }))
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

    /// A shard that keeps a snapshot of itself and can resume from one
    /// (the restart path of SKT-HPL, without the protocol).
    struct Snapshots {
        m: Vec<f64>,
        resume: Option<(usize, Vec<f64>)>,
        kept: Vec<(usize, Vec<f64>)>,
    }

    impl Shard for Snapshots {
        fn restore(&mut self, _: &Ctx) -> Result<Start, Fault> {
            Ok(match self.resume.take() {
                Some((panel, m)) => {
                    self.m = m;
                    Start::Resume {
                        panel,
                        modeled: 0.0,
                    }
                }
                None => Start::Fresh,
            })
        }

        fn lend<R>(&mut self, f: impl FnOnce(&mut [f64]) -> R) -> R {
            f(&mut self.m)
        }

        fn keep(&mut self, _: &Ctx, done: usize) -> Result<Kept, Fault> {
            self.kept.push((done, self.m.clone()));
            Ok(Kept::default())
        }
    }

    /// Solve on a heap shard; each rank's solution `x` and verdict.
    fn run_hpl(nranks: usize, n: usize, nb: usize, seed: u64) -> Vec<(Vec<f64>, HplOutput)> {
        run_local(nranks, move |ctx| {
            let comm = ctx.world();
            let dist = BlockCyclic1D::new(n, nb, comm.size(), comm.rank());
            let mut heap = vec![0.0; dist.alloc_len()];
            let out = solve(ctx, &dist, seed, &mut heap, 0, 0)?.done();
            assert_eq!((out.resumed_from_panel, out.hpl.checkpoints), (0, 0));
            Ok((back_substitute(&comm, &dist, &heap)?, out.hpl))
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
        // keep at half the panels and finish — then resume a second
        // launch from that keep: the restart path of SKT-HPL.
        let (p, n, nb, seed) = (2, 24, 4, 9);
        let outs = run_local(p, move |ctx| {
            let comm = ctx.world();
            let dist = BlockCyclic1D::new(n, nb, comm.size(), comm.rank());
            let half = dist.nblocks_a() / 2;
            let mut first = Snapshots {
                m: vec![0.0; dist.alloc_len()],
                resume: None,
                kept: Vec::new(),
            };
            let out1 = solve(ctx, &dist, seed, &mut first, half, 0)?.done();
            let x1 = back_substitute(&comm, &dist, &first.m)?;
            assert_eq!(out1.hpl.checkpoints, 1, "panel {half} of {}", 2 * half);
            // replay from the keep (what recovery does)
            let mut second = Snapshots {
                m: Vec::new(),
                resume: first.kept.pop(),
                kept: Vec::new(),
            };
            let out2 = solve(ctx, &dist, seed, &mut second, 0, 0)?.done();
            assert_eq!(out2.resumed_from_panel, half);
            let x2 = back_substitute(&comm, &dist, &second.m)?;
            Ok((x1, x2, out2.hpl.passed))
        })
        .unwrap();
        for (x1, x2, passed) in outs {
            assert!(passed);
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
