//! End-to-end SKT-HPL integration: recovered runs must produce exactly
//! the solution a fault-free run produces, across failure placements,
//! protocols, codes, and multiple sequential failures.

use self_checkpoint::cluster::{
    Cluster, ClusterConfig, DeviceKind, FailurePlan, Ranklist, SimRuntime,
};
use self_checkpoint::encoding::{Code, CodecSpec};
use self_checkpoint::ftsim::{run_blcr, run_with_daemon, BlcrConfig, BlcrStore};
use self_checkpoint::hpl::{run_plain, run_skt, HplConfig, SktConfig, ITER_PROBE};
use self_checkpoint::mps::{run_local, run_on_cluster};
use std::sync::Arc;
use std::time::Duration;

const RANKS: usize = 4;
const N: usize = 64;
const NB: usize = 8;

fn skt_cfg() -> SktConfig {
    SktConfig::new(HplConfig::new(N, NB, 1234), 2, 2)
}

/// The fault-free reference: plain HPL must agree with SKT-HPL (no
/// failure), i.e. checkpointing does not perturb the numerics.
#[test]
fn skt_hpl_matches_plain_hpl_without_failures() {
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(RANKS, 0)));
    let rl = Ranklist::round_robin(RANKS, RANKS);
    let outs = run_on_cluster(cluster, &rl, |ctx| {
        let plain = run_plain(ctx, &skt_cfg().hpl)?;
        let skt = run_skt(ctx, &skt_cfg())?;
        Ok((plain.residual, skt.hpl.residual))
    })
    .unwrap();
    for (rp, rs) in outs {
        assert_eq!(rp, rs, "same matrix, same pivoting, same residual");
    }
}

#[test]
fn recovery_preserves_the_exact_solution() {
    // fault-free residual
    let clean = {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(RANKS, 0)));
        let rl = Ranklist::round_robin(RANKS, RANKS);
        run_on_cluster(cluster, &rl, |ctx| run_skt(ctx, &skt_cfg())).unwrap()[0]
            .hpl
            .residual
    };
    // failure at each interesting panel offset
    for nth in [1u64, 3, 5, 7] {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(RANKS, 1)));
        let mut rl = Ranklist::round_robin(RANKS, RANKS);
        cluster.arm_failure(FailurePlan::new(ITER_PROBE, nth, 1));
        assert!(run_on_cluster(Arc::clone(&cluster), &rl, |ctx| run_skt(ctx, &skt_cfg())).is_err());
        cluster.reset_abort();
        rl.repair(&cluster).unwrap();
        let outs = run_on_cluster(cluster, &rl, |ctx| run_skt(ctx, &skt_cfg())).unwrap();
        for o in &outs {
            assert!(o.hpl.passed, "nth={nth}");
            assert_eq!(
                o.hpl.residual, clean,
                "nth={nth}: recovery changed the arithmetic"
            );
        }
    }
}

#[test]
fn sum_code_variant_also_recovers() {
    let mut cfg = skt_cfg();
    cfg.codec = CodecSpec::Single(Code::Sum);
    cfg.name = "e2e-sum".into();
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(RANKS, 1)));
    let mut rl = Ranklist::round_robin(RANKS, RANKS);
    cluster.arm_failure(FailurePlan::new(ITER_PROBE, 5, 2));
    assert!(run_on_cluster(Arc::clone(&cluster), &rl, |ctx| run_skt(ctx, &cfg)).is_err());
    cluster.reset_abort();
    rl.repair(&cluster).unwrap();
    let outs = run_on_cluster(cluster, &rl, |ctx| run_skt(ctx, &cfg)).unwrap();
    // SUM recovery reconstructs within rounding, so the residual may
    // differ in the last bits but the solve must still pass
    assert!(outs.iter().all(|o| o.hpl.passed));
}

#[test]
fn daemon_survives_three_sequential_node_losses() {
    // Runs under SimRuntime, so each seed's outcome is reproducible —
    // but how many launches the three plans spread over is a property
    // of the interleaving, not of the protocol: a relaunch resets the
    // per-rank probe counts and resumes from the last checkpoint, and
    // two victims from *different* groups may legitimately reach their
    // probes in one launch. What every schedule must deliver: all three
    // victims die, no launch costs one group of 2 both its members
    // (m = 1 could not rebuild that), and the solve passes.
    const VICTIMS: [(u64, usize); 3] = [(3, 0), (2, 1), (4, 3)];
    for seed in 0..8 {
        let rt = SimRuntime::new(seed);
        let cluster = Arc::new(Cluster::new_with_runtime(ClusterConfig::new(RANKS, 3), rt));
        let rl = Ranklist::round_robin(RANKS, RANKS);
        for (nth, node) in VICTIMS {
            cluster.arm_failure(FailurePlan::new(ITER_PROBE, nth, node));
        }
        let rep = run_with_daemon(cluster, &rl, &skt_cfg(), 5, Duration::from_millis(10));
        let attempts = &rep.history.attempts;
        let mut dead: Vec<usize> = attempts
            .iter()
            .flat_map(|a| a.newly_dead.iter().copied())
            .collect();
        dead.sort_unstable();
        assert_eq!(dead, [0, 1, 3], "seed {seed}: {attempts:?}");
        for a in attempts {
            // a victim is an original node, which hosts the rank of its
            // own number until it dies; groups are contiguous pairs
            let mut groups: Vec<usize> = a.newly_dead.iter().map(|node| node / 2).collect();
            groups.sort_unstable();
            groups.dedup();
            assert_eq!(groups.len(), a.newly_dead.len(), "seed {seed}: {a:?}");
        }
        let out = rep.outcome.completed().unwrap();
        assert!(out.hpl.passed, "seed {seed}");
    }
}

#[test]
fn blcr_and_skt_agree_on_the_solution() {
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(RANKS, 0)));
    let rl = Ranklist::round_robin(RANKS, RANKS);
    let store = BlcrStore::new(RANKS, DeviceKind::Ssd);
    let outs = run_on_cluster(cluster, &rl, |ctx| {
        let b = run_blcr(
            ctx,
            &BlcrConfig {
                hpl: skt_cfg().hpl,
                ckpt_every: 2,
                name: "e2e-blcr".into(),
            },
            &store,
        )?;
        let s = run_skt(ctx, &skt_cfg())?;
        Ok((b.hpl.residual, s.hpl.residual))
    })
    .unwrap();
    for (rb, rs) in outs {
        assert_eq!(rb, rs);
    }
}

#[test]
fn failure_during_backsub_window_is_survived_by_last_checkpoint() {
    // kill after the final checkpoint but before completion: recovery
    // replays the tail of the elimination
    let cfg = skt_cfg(); // 8 panels, checkpoints at 2,4,6
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(RANKS, 1)));
    let mut rl = Ranklist::round_robin(RANKS, RANKS);
    cluster.arm_failure(FailurePlan::new(ITER_PROBE, 8, 0));
    assert!(run_on_cluster(Arc::clone(&cluster), &rl, |ctx| run_skt(ctx, &cfg)).is_err());
    cluster.reset_abort();
    rl.repair(&cluster).unwrap();
    let outs = run_on_cluster(cluster, &rl, |ctx| run_skt(ctx, &cfg)).unwrap();
    for o in outs {
        assert!(o.hpl.passed);
        assert_eq!(o.resumed_from_panel, 6, "resume from the last checkpoint");
    }
}

#[test]
fn larger_grid_with_uneven_block_ownership() {
    // 3 ranks, 10 blocks: ranks own 4/3/3 blocks — exercises the padded
    // uniform workspace path
    let cfg = SktConfig::new(HplConfig::new(80, 8, 5), 3, 3);
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(3, 1)));
    let mut rl = Ranklist::round_robin(3, 3);
    cluster.arm_failure(FailurePlan::new(ITER_PROBE, 7, 2));
    assert!(run_on_cluster(Arc::clone(&cluster), &rl, |ctx| run_skt(ctx, &cfg)).is_err());
    cluster.reset_abort();
    rl.repair(&cluster).unwrap();
    let outs = run_on_cluster(cluster, &rl, |ctx| run_skt(ctx, &cfg)).unwrap();
    assert!(outs.iter().all(|o| o.hpl.passed));
}

/// The plain solve's residual, bit for bit, at two small shapes. `dgemm`'s
/// numeric contract fixes every element's sequence of fused multiply-adds
/// whatever register tile the CPU picks, and the row swaps move the same
/// values in any column order: a kernel change that moves a bit fails here.
#[test]
fn plain_residual_bits_are_pinned() {
    for (n, nb, ranks, bits) in [
        (256, 16, 4, 0x3f76_7a38_cb32_7bcb_u64),
        (200, 8, 3, 0x3f70_3c48_3c14_22ac),
    ] {
        let outs = run_local(ranks, |ctx| run_plain(ctx, &HplConfig::new(n, nb, 11))).unwrap();
        for o in outs {
            assert!(o.passed);
            assert_eq!(
                o.residual.to_bits(),
                bits,
                "N={n} NB={nb} ranks={ranks}: residual {}",
                o.residual
            );
        }
    }
}
