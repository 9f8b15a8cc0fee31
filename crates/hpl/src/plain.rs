//! The original (non-fault-tolerant) HPL run — the baseline every
//! fault-tolerant variant is normalized against.

use crate::dist::BlockCyclic1D;
use crate::elim::solve;
use skt_mps::{Ctx, Fault};

/// Problem configuration shared by all HPL variants.
#[derive(Clone, Copy, Debug)]
pub struct HplConfig {
    /// Matrix order (`n % nb == 0`).
    pub n: usize,
    /// Panel/block width.
    pub nb: usize,
    /// Matrix generator seed (fixed seed = reproducible matrix, the
    /// property the restart path needs).
    pub seed: u64,
}

impl HplConfig {
    /// Convenience constructor.
    pub fn new(n: usize, nb: usize, seed: u64) -> Self {
        assert!(n.is_multiple_of(nb), "n must be a multiple of nb");
        HplConfig { n, nb, seed }
    }

    /// Largest `n` (multiple of `nb`) whose per-rank shard of `[A|b]`
    /// fits in `budget_elems` f64 elements on each of `nranks` ranks.
    pub fn max_n_for_budget(budget_elems: usize, nb: usize, nranks: usize) -> usize {
        let mut n = nb;
        loop {
            let next = n + nb;
            let d = BlockCyclic1D::new(next, nb, nranks, 0);
            if d.alloc_len() > budget_elems {
                return n;
            }
            n = next;
        }
    }
}

/// Result of an HPL run (all variants report this shape).
#[derive(Clone, Copy, Debug)]
pub struct HplOutput {
    /// Problem size solved.
    pub n: usize,
    /// Compute wall time (elimination + back substitution), max over
    /// ranks, seconds.
    pub compute_seconds: f64,
    /// Time spent making checkpoints, max over ranks, seconds (0 for the
    /// plain run).
    pub ckpt_seconds: f64,
    /// Of which: the parity-encode (communication) part.
    pub encode_seconds: f64,
    /// Checkpoints taken.
    pub checkpoints: usize,
    /// GFLOPS counting compute time only.
    pub gflops_compute: f64,
    /// GFLOPS counting compute + checkpoint time (the number a Top500
    /// submission would report).
    pub gflops_effective: f64,
    /// Scaled residual of the solution.
    pub residual: f64,
    /// HPL pass verdict.
    pub passed: bool,
}

/// Run the original HPL: generate, eliminate, back-substitute, verify.
/// The matrix lives in plain heap memory — a node failure loses
/// everything, which is the "Original HPL / recover: NO" row of Table 3.
pub fn run_plain(ctx: &Ctx, cfg: &HplConfig) -> Result<HplOutput, Fault> {
    let dist = BlockCyclic1D::new(cfg.n, cfg.nb, ctx.nranks(), ctx.world_rank());
    let mut heap = vec![0.0; dist.alloc_len()];
    Ok(solve(ctx, &dist, cfg.seed, &mut heap, 0, 0)?.done().hpl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skt_mps::run_local;

    #[test]
    fn plain_run_passes_verification() {
        let outs = run_local(2, |ctx| run_plain(ctx, &HplConfig::new(32, 8, 5))).unwrap();
        for o in outs {
            assert!(o.passed, "residual {}", o.residual);
            assert!(o.gflops_compute > 0.0);
            assert_eq!(o.checkpoints, 0);
            assert_eq!(o.ckpt_seconds, 0.0);
            assert_eq!(o.gflops_compute, o.gflops_effective);
        }
    }

    #[test]
    fn ranks_agree_on_reported_times() {
        let outs = run_local(3, |ctx| run_plain(ctx, &HplConfig::new(24, 4, 1))).unwrap();
        for w in outs.windows(2) {
            assert_eq!(
                w[0].compute_seconds, w[1].compute_seconds,
                "allreduce(Max) must agree"
            );
        }
    }

    #[test]
    fn max_n_for_budget_is_tight() {
        let nb = 8;
        let nranks = 4;
        let budget = 10_000;
        let n = HplConfig::max_n_for_budget(budget, nb, nranks);
        assert!(BlockCyclic1D::new(n, nb, nranks, 0).alloc_len() <= budget);
        assert!(BlockCyclic1D::new(n + nb, nb, nranks, 0).alloc_len() > budget);
    }

    #[test]
    fn larger_problems_run_longer_and_more_efficiently() {
        // the E(N) = N/(aN+b) shape at miniature scale: efficiency
        // (gflops) should not *fall* as N grows.
        let outs = run_local(2, |ctx| {
            let small = run_plain(ctx, &HplConfig::new(64, 8, 3))?;
            let big = run_plain(ctx, &HplConfig::new(256, 8, 3))?;
            Ok((small, big))
        })
        .unwrap();
        let (small, big) = outs[0];
        assert!(big.compute_seconds > small.compute_seconds);
        assert!(
            big.gflops_compute > small.gflops_compute * 0.8,
            "gflops should scale up: {} vs {}",
            big.gflops_compute,
            small.gflops_compute
        );
    }
}
