//! ABFT-HPL baseline: algorithm-based fault tolerance via checksum
//! columns (Huang–Abraham style, as in the paper's ABFT comparison
//! [Yao et al.]).
//!
//! Every group of `nranks` consecutive `A` column-blocks gets one extra
//! *checksum block*: the element-wise sum of the group's blocks. Row
//! operations (what GEPP applies) preserve linear relations among
//! columns, so the invariant `S = Σ group columns` survives the whole
//! elimination and can rebuild one lost block per group — **as long as
//! the runtime keeps the surviving processes alive**. On a standard MPI
//! runtime a node loss aborts the job and the heap-resident matrix is
//! gone, which is why Table 3 reports "recover after power-off: NO" for
//! ABFT despite its modest overhead (the extra columns add a `1/nranks`
//! fraction of flops).

use crate::dist::BlockCyclic1D;
use crate::elim::solve;
use crate::plain::{HplConfig, HplOutput};
use skt_mps::{Ctx, Fault, Payload, ReduceOp};

/// Result of an ABFT-HPL run.
#[derive(Clone, Copy, Debug)]
pub struct AbftOutput {
    /// The HPL result (gflops count the *useful* `n` — checksum upkeep
    /// shows up as overhead, exactly how the paper normalizes ABFT).
    pub hpl: HplOutput,
    /// Fraction of extra columns maintained (`aux / n`).
    pub overhead_cols: f64,
    /// Did the checksum invariant hold through the elimination?
    pub checksum_ok: bool,
}

/// Build the ABFT distribution for a problem: one checksum block per
/// `nranks` A-blocks (requires `nblocks_a % nranks == 0`).
pub fn abft_dist(cfg: &HplConfig, nranks: usize, me: usize) -> BlockCyclic1D {
    let nba = cfg.n / cfg.nb;
    assert_eq!(
        nba % nranks,
        0,
        "ABFT grouping needs the A-block count ({nba}) divisible by the rank count ({nranks})"
    );
    let aux = (nba / nranks) * cfg.nb;
    BlockCyclic1D::with_aux(cfg.n, cfg.nb, aux, nranks, me)
}

/// Check the post-elimination invariant. The fully-transformed checksum
/// column is `L⁻¹P(A·w) = Σ_group L⁻¹P·(A col) = Σ_group (U column,
/// zero-extended below its diagonal)` — the below-diagonal entries of the
/// packed factorization are `L` multipliers and do not participate.
/// Collective, one ring and one allreduce whatever the checksum-column
/// count: a [`reduce_scatter`](skt_mps::Comm::reduce_scatter) delivers
/// to each rank the other ranks' partials of the checksum columns it
/// owns, the owner adds its own and compares within a scaled tolerance,
/// and an allreduce agrees on the verdict.
pub fn verify_checksums(
    comm: &skt_mps::Comm<'_>,
    dist: &BlockCyclic1D,
    storage: &[f64],
) -> Result<bool, Fault> {
    let n = dist.n();
    let nb = dist.nb();
    let nranks = dist.nranks();
    // the checksum columns rank `s` owns, ascending
    let owned =
        |s: usize| (0..dist.aux_cols()).filter(move |c| dist.owner(dist.nblocks_a() + c / nb) == s);
    // this rank's partials of rank `s`'s checksum columns, one row block
    // each: column `c` (group `c / nb`, offset `c % nb`) sums the
    // group's columns at that offset
    let partials = |s: usize| {
        let mut parts = vec![0.0; owned(s).count() * n];
        for (c, part) in owned(s).zip(parts.chunks_exact_mut(n)) {
            let (g, off) = (c / nb, c % nb);
            for b in 0..nranks {
                let src_gc = (g * nranks + b) * nb + off;
                let src_block = src_gc / nb;
                if dist.mine(src_block) {
                    let lc = dist.local_col0(src_block) + off;
                    // U part only: rows 0..=src_gc
                    for (v, s) in part.iter_mut().zip(&storage[lc * n..=lc * n + src_gc]) {
                        *v += s;
                    }
                }
            }
        }
        Payload::F64(parts)
    };
    let me = dist.me();
    // a ring needs a second rank; alone, the own partials are the sums
    let mut sums = if nranks > 1 {
        let mut got = comm.reduce_scatter(1, |slot, accs| {
            ReduceOp::Sum.fold(&mut accs[0], partials(slot));
            Ok(())
        })?;
        got.remove(0)
    } else {
        Payload::Empty
    };
    ReduceOp::Sum.fold(&mut sums, partials(me));
    let sums = sums.into_f64();
    let ok = owned(me).zip(sums.chunks_exact(n)).all(|(c, s)| {
        let lc = dist.local_col0(dist.nblocks_a() + c / nb) + c % nb;
        let col = &storage[lc * n..lc * n + n];
        let scale: f64 = col.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        s.iter()
            .zip(col)
            .all(|(a, b)| (a - b).abs() <= 1e-8 * scale * n as f64)
    });
    let verdict = comm
        .allreduce(ReduceOp::Min, Payload::I64(vec![ok as i64]))?
        .into_i64()[0];
    Ok(verdict == 1)
}

/// Run ABFT-HPL: plain HPL over the checksum-augmented matrix (the
/// generator fills the checksum columns), auditing the ABFT invariant
/// after the solve. No persistent state — a node loss is fatal.
pub fn run_abft(ctx: &Ctx, cfg: &HplConfig) -> Result<AbftOutput, Fault> {
    let comm = ctx.world();
    let dist = abft_dist(cfg, comm.size(), comm.rank());
    let mut heap = vec![0.0; dist.alloc_len()];
    let hpl = solve(ctx, &dist, cfg.seed, &mut heap, 0, 0)?.done().hpl;
    Ok(AbftOutput {
        hpl,
        overhead_cols: dist.aux_cols() as f64 / cfg.n as f64,
        checksum_ok: verify_checksums(&comm, &dist, &heap)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skt_mps::run_local;

    #[test]
    fn abft_solves_and_keeps_invariant() {
        let outs = run_local(2, |ctx| run_abft(ctx, &HplConfig::new(32, 4, 21))).unwrap();
        for o in outs {
            assert!(o.hpl.passed, "residual {}", o.hpl.residual);
            assert!(o.checksum_ok, "checksum invariant must survive elimination");
            assert!(
                (o.overhead_cols - 0.5).abs() < 1e-12,
                "8 blocks / 2 ranks -> 4 aux blocks"
            );
        }
    }

    #[test]
    fn abft_overhead_shrinks_with_more_ranks() {
        let two = run_local(2, |ctx| run_abft(ctx, &HplConfig::new(32, 4, 3))).unwrap();
        let four = run_local(4, |ctx| run_abft(ctx, &HplConfig::new(32, 4, 3))).unwrap();
        assert!(
            four[0].overhead_cols < two[0].overhead_cols,
            "1/nranks scaling"
        );
    }

    /// The audit is one `reduce_scatter` ring and one allreduce (a
    /// `reduce` and a `bcast`) per rank at any checksum-column count, and
    /// on 2 ranks each rank sends exactly its peer's checksum columns.
    #[test]
    fn audit_is_one_ring_and_one_allreduce_at_any_checksum_count() {
        use skt_cluster::{Cluster, ClusterConfig, Event, Observer, Ranklist};
        use std::sync::{Arc, Mutex};
        use std::thread::{self, ThreadId};
        /// Every collective with the thread (so the rank) that ran it.
        #[derive(Default)]
        struct Sent(Mutex<Vec<(ThreadId, &'static str, u64)>>);
        impl Observer for Sent {
            fn on_event(&self, e: &Event) {
                if let Event::Collective { op, bytes, .. } = e {
                    let me = thread::current().id();
                    self.0.lock().unwrap().push((me, op, *bytes));
                }
            }
        }
        // (n, checksum columns, bytes rank 0 / rank 1 send in the ring):
        // at n = 24 rank 0 owns aux blocks 6 and 8, rank 1 block 7
        for (n, aux, sent) in [
            (16, 8, [512, 512]),
            (24, 12, [768, 1536]),
            (32, 16, [2048; 2]),
        ] {
            let cluster = Arc::new(Cluster::new(ClusterConfig::new(2, 0)));
            let rec = Arc::new(Sent::default());
            cluster.events().subscribe(Arc::clone(&rec) as _);
            let cfg = HplConfig::new(n, 4, 5);
            let outs = skt_mps::run_on_cluster(cluster, &Ranklist::round_robin(2, 2), |ctx| {
                let comm = ctx.world();
                let dist = abft_dist(&cfg, comm.size(), comm.rank());
                assert_eq!(dist.aux_cols(), aux);
                let ok = verify_checksums(&comm, &dist, &vec![0.0; dist.alloc_len()])?;
                Ok((ok, thread::current().id()))
            })
            .unwrap();
            assert!(
                outs.iter().all(|o| o.0),
                "an all-zero matrix keeps the invariant"
            );
            let events = rec.0.lock().unwrap();
            let count = |op: &str| events.iter().filter(|e| e.1 == op).count();
            let ops = [count("reduce_scatter"), count("reduce"), count("bcast")];
            assert_eq!(ops, [2, 2, 2], "n = {n}");
            assert_eq!(events.len(), 6);
            for (rank, (_, thread)) in outs.iter().enumerate() {
                let ring = events
                    .iter()
                    .find(|e| e.0 == *thread && e.1 == "reduce_scatter");
                assert_eq!(ring.map(|e| e.2), Some(sent[rank]), "n = {n}, rank {rank}");
            }
        }
    }

    #[test]
    fn corrupted_elimination_breaks_invariant() {
        // damage one matrix entry after elimination: the checksum check
        // must notice.
        let outs = run_local(2, |ctx| {
            let cfg = HplConfig::new(16, 4, 5);
            let comm = ctx.world();
            let dist = abft_dist(&cfg, comm.size(), comm.rank());
            let mut storage = vec![0.0; dist.alloc_len()];
            solve(ctx, &dist, cfg.seed, &mut storage, 0, 0)?;
            assert!(
                verify_checksums(&comm, &dist, &storage)?,
                "intact before the damage"
            );
            if ctx.world_rank() == 0 {
                // corrupt a *U-part* entry: global column 8 (rank 0's
                // local column 4), row 2 — above the diagonal, so it is
                // covered by the checksum invariant
                storage[4 * 16 + 2] += 1000.0;
            }
            verify_checksums(&comm, &dist, &storage)
        })
        .unwrap();
        assert!(outs.iter().all(|ok| !ok), "corruption must be detected");
    }
}
