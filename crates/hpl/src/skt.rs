//! SKT-HPL: HPL made node-failure tolerant with the self-checkpoint
//! protocol (paper §5).
//!
//! The local matrix shard lives directly in the checkpointer's SHM
//! workspace — the defining move of the self-checkpoint method: the
//! working memory *is* the checkpoint while the old copy is being
//! overwritten. Checkpoints are taken at panel-loop boundaries; the
//! iteration counter rides along as the small `A2` state. On restart,
//! survivors re-attach to their SHM shards, the replacement rank's shard
//! is rebuilt from group parity, and the elimination resumes from the
//! checkpointed panel.

use crate::dist::BlockCyclic1D;
use crate::elim::{solve, Kept, Shard, Start};
use crate::plain::{HplConfig, HplOutput};
use skt_core::{
    group_color, validate_node_distinct, Checkpointer, CkptConfig, Method, RecoverError, Recovery,
    RecoveryReport,
};
use skt_encoding::CodecSpec;
use skt_mps::{Ctx, Fault};

/// Failure-injection probe inside [`install_relayout`]'s window: fires
/// once before the new-layout checkpointer is created (partial segments
/// may exist on some ranks) and once after the workspace fill, before
/// the boundary checkpoint commits. A kill here lands *inside* the
/// resize window, which is exactly what the sequenced `ResizeOp` replay
/// must survive.
pub const RESIZE_PROBE: &str = "skt-resize";

/// Bytes of small state (`A2`) SKT-HPL parks in every checkpoint: the
/// panel counter, with headroom. Kept as a named constant so the
/// service-side boundary harvest reads `B2` with the same capacity the
/// job wrote it with.
pub const A2_CAPACITY: usize = 16;

/// Configuration of a fault-tolerant HPL run.
#[derive(Clone, Debug)]
pub struct SktConfig {
    /// The HPL problem.
    pub hpl: HplConfig,
    /// Checkpoint protocol (SKT-HPL proper uses [`Method::SelfCkpt`];
    /// `Double` reproduces the SCR-in-RAM baseline).
    pub method: Method,
    /// Erasure codec (parity count follows the codec; the dual P+Q
    /// codec tolerates two lost nodes per group).
    pub codec: CodecSpec,
    /// Checkpoint group size (§3.3; the paper uses 16, or 8 on the local
    /// cluster): groups are `group_size` neighbouring ranks.
    pub group_size: usize,
    /// Panels between checkpoints (0 disables checkpointing — used for
    /// the "SKT-HPL without checkpoints" measurement of Figure 11).
    pub ckpt_every: usize,
    /// SHM namespace; reuse the same name across restarts of one run.
    pub name: String,
    /// Panels per *slice* (0 = run to completion). A multi-tenant daemon
    /// sets this to time-share one `SimRuntime` between jobs: the run
    /// checkpoints at the slice boundary and returns
    /// [`SktRun::Paused`], and the daemon relaunches later to continue
    /// from the checkpoint.
    pub panel_budget: usize,
}

impl SktConfig {
    /// SKT-HPL with paper defaults (XOR code, contiguous groups).
    pub fn new(hpl: HplConfig, group_size: usize, ckpt_every: usize) -> Self {
        SktConfig {
            hpl,
            method: Method::SelfCkpt,
            codec: CodecSpec::default(),
            group_size,
            ckpt_every,
            name: "skt-hpl".to_string(),
            panel_budget: 0,
        }
    }
}

/// [`HplOutput`] plus restart bookkeeping.
#[derive(Clone, Debug)]
pub struct SktOutput {
    /// The HPL result of this (possibly resumed) run.
    pub hpl: HplOutput,
    /// Panel index this run started from (0 = fresh or from-scratch).
    pub resumed_from_panel: usize,
    /// True when recovery failed and the run had to regenerate from
    /// scratch (only the single-checkpoint baseline does this).
    pub restarted_from_scratch: bool,
    /// Time spent in checkpoint recovery / data (re)generation before
    /// the elimination could proceed (the "recover data" phase of the
    /// paper's Figure 10).
    pub recover_seconds: f64,
    /// The protocol's account of the restore, when one happened (restore
    /// source, header maxima, rebuilt bytes — see [`RecoveryReport`]).
    pub recovery: Option<RecoveryReport>,
}

/// Outcome of one [`run_skt_sliced`] launch: the solve either finished
/// or consumed its panel budget and parked itself in a checkpoint.
#[derive(Clone, Debug)]
pub enum SktRun {
    /// The solve completed (verified and assembled).
    Done(SktOutput),
    /// The panel budget ran out: a checkpoint was taken at the slice
    /// boundary and the job can be relaunched later to continue.
    Paused(SktPause),
}

impl SktRun {
    /// The finished solve; panics on a paused slice, which only a launch
    /// with a panel budget produces.
    pub fn done(self) -> SktOutput {
        match self {
            SktRun::Done(out) => out,
            SktRun::Paused(_) => panic!("a solve paused without a panel budget"),
        }
    }
}

/// Accounting of a paused slice (see [`SktRun::Paused`]).
#[derive(Clone, Debug)]
pub struct SktPause {
    /// Checkpoints taken by this slice (scheduled + the boundary one).
    pub checkpoints: usize,
    /// Seconds this slice spent checkpointing.
    pub ckpt_seconds: f64,
    /// Seconds this slice spent recovering before its first panel.
    pub recover_seconds: f64,
}

/// Run SKT-HPL (or a baseline protocol) once: recover if checkpoints
/// exist, then eliminate / back-substitute / verify. Returns when the
/// solve completes; a node failure aborts with `Err`, after which the
/// daemon repairs the ranklist and calls this again on the same cluster.
///
/// Requires `cfg.panel_budget == 0` (a whole-job run); slice-scheduled
/// jobs go through [`run_skt_sliced`].
pub fn run_skt(ctx: &Ctx, cfg: &SktConfig) -> Result<SktOutput, Fault> {
    Ok(run_skt_sliced(ctx, cfg, |_| {})?.done())
}

/// [`run_skt`] under a panel budget, with a recovery observer: execute
/// at most `cfg.panel_budget` panels (0 = unlimited), then checkpoint at
/// the slice boundary and return [`SktRun::Paused`] instead of running to
/// completion. `on_recovery` is called by each rank as soon as its
/// restore completes, *before* the elimination resumes; the service uses
/// it to keep a [`RecoveryReport`] history that survives attempts which
/// recover successfully and then lose a second node — the report would
/// otherwise die with the job. This is how the multi-tenant service time-shares one
/// deterministic runtime between jobs: each tenant's world runs alone
/// for one slice, parks its state in SHM, and yields the runtime.
pub fn run_skt_sliced<F>(ctx: &Ctx, cfg: &SktConfig, on_recovery: F) -> Result<SktRun, Fault>
where
    F: Fn(&RecoveryReport),
{
    let (dist, ck, _) = checkpointer(ctx, cfg, None)?;
    let mut shard = Workspace {
        ck,
        cfg,
        on_recovery,
    };
    solve(
        ctx,
        &dist,
        cfg.hpl.seed,
        &mut shard,
        cfg.ckpt_every,
        cfg.panel_budget,
    )
}

/// SKT-HPL's shard: the checkpointer's SHM workspace, kept by
/// [`Checkpointer::make`] with the panel counter as `A2`.
struct Workspace<'a, F> {
    ck: Checkpointer<'a>,
    cfg: &'a SktConfig,
    on_recovery: F,
}

impl<F: Fn(&RecoveryReport)> Shard for Workspace<'_, F> {
    fn restore(&mut self, _: &Ctx) -> Result<Start, Fault> {
        let start = match self.ck.recover() {
            Ok(Recovery::Restored { a2, .. }) => Start::Resume {
                panel: u64::from_le_bytes(a2.as_slice().try_into().expect("panel counter"))
                    as usize,
                modeled: 0.0,
            },
            Ok(Recovery::NoCheckpoint) => Start::Fresh,
            Err(RecoverError::Unrecoverable(_)) if self.cfg.method == Method::Single => {
                // the single-checkpoint flaw: checkpoint torn mid-update.
                // Restart the whole computation from generated data.
                self.ck.reset()?;
                Start::Scratch
            }
            Err(RecoverError::Unrecoverable(_)) => {
                // Methods that promise recoverability hit this only when a
                // checkpoint group is damaged beyond the codec's repair
                // power (more damaged members than parity stripes). Surface
                // it instead of silently regenerating: the daemon classifies
                // a failure with no node death as unrecoverable and stops
                // retrying; jobs wanting to survive more losses configure
                // a codec with more parity stripes (`CodecSpec::Rs`).
                return Err(Fault::Protocol(if self.cfg.codec.parity_count() == 1 {
                    "checkpoint group damaged beyond single-parity repair"
                } else {
                    "checkpoint group damaged beyond the parity code's repair"
                }));
            }
            Err(RecoverError::Fault(f)) => return Err(f),
            // `RecoverError` is non-exhaustive; future variants are protocol
            // outcomes this harness does not know how to continue from.
            Err(other) => panic!("unexpected recovery error: {other}"),
        };
        if let Some(report) = self.ck.last_report() {
            (self.on_recovery)(&report);
        }
        Ok(start)
    }

    fn lend<R>(&mut self, f: impl FnOnce(&mut [f64]) -> R) -> R {
        f(self.ck.workspace().write().as_f64_mut())
    }

    fn keep(&mut self, _: &Ctx, done: usize) -> Result<Kept, Fault> {
        let stats = self.ck.make(&(done as u64).to_le_bytes())?;
        Ok(Kept {
            encode: stats.encode.as_secs_f64(),
            modeled: 0.0,
        })
    }

    fn report(&self) -> Option<RecoveryReport> {
        self.ck.last_report()
    }
}

/// Install a harvested matrix under a **new** block-cyclic layout and
/// commit it as a boundary checkpoint — the job-side half of a tenant
/// resize. Runs once per rank of the *new* world: re-derives the
/// distribution and checkpoint group for the new rank count, writes the
/// owned columns of `columns` (global column index → full column,
/// `n + 1` of them with `b` last) into the workspace, and takes the
/// checkpoint with `panel` as its `A2` counter, so the next
/// [`run_skt_sliced`] launch resumes from exactly the boundary the old
/// layout parked at.
///
/// Precondition: the new layout's SHM namespace is empty on every rank.
/// The caller owns replay — the service's `ResizeOp` skips an install
/// that already committed and wipes a partial one before calling this
/// again — so a rank that finds segments errs with [`Fault::Protocol`]
/// on every rank, before anything is written. [`RESIZE_PROBE`] fires
/// before segment creation and again before the commit, so armed kills
/// can land inside the window.
pub fn install_relayout(
    ctx: &Ctx,
    cfg: &SktConfig,
    columns: &[Vec<f64>],
    panel: u64,
) -> Result<(), Fault> {
    let n = cfg.hpl.n;
    debug_assert_eq!(columns.len(), n + 1, "need every global column incl. b");
    let (dist, mut ck, attached) = checkpointer(ctx, cfg, Some(RESIZE_PROBE))?;
    if ck.agree_min(-i64::from(attached))? < 0 {
        return Err(Fault::Protocol("resize target namespace is not empty"));
    }
    {
        let ws = ck.workspace();
        let mut g = ws.write();
        let v = &mut g.as_f64_mut()[..dist.alloc_len()];
        for (lc, gc) in dist.owned_cols() {
            v[lc * n..lc * n + n].copy_from_slice(&columns[gc]);
        }
    }
    ctx.world().barrier()?;
    ctx.failpoint(RESIZE_PROBE)?;
    ck.make(&panel.to_le_bytes())?;
    Ok(())
}

/// This rank's distribution and checkpointer under `cfg` (`true` when
/// it attached to existing segments). The §3.3 placement rule is checked
/// first, on every rank: two members of one checkpoint group on one node
/// make one node loss two erasures, which would otherwise surface only at
/// recovery. `probe` fires between the group split and segment creation.
fn checkpointer<'c>(
    ctx: &'c Ctx,
    cfg: &SktConfig,
    probe: Option<&str>,
) -> Result<(BlockCyclic1D, Checkpointer<'c>, bool), Fault> {
    validate_node_distinct(ctx.ranklist(), cfg.group_size)
        .map_err(|_| Fault::Protocol("two members of one checkpoint group share a node"))?;
    let world = ctx.world();
    let (nranks, me) = (world.size(), world.rank());
    let dist = BlockCyclic1D::new(cfg.hpl.n, cfg.hpl.nb, nranks, me);
    let gcomm = world.split(group_color(me, nranks, cfg.group_size), me)?;
    if let Some(label) = probe {
        ctx.failpoint(label)?;
    }
    let ck_cfg = CkptConfig::new(cfg.name.clone(), cfg.method, dist.alloc_len(), A2_CAPACITY)
        .with_codec(cfg.codec);
    // job-wide sync communicator: keeps every group's commits and the
    // recovery epoch globally consistent
    let (ck, attached) = Checkpointer::init_synced(gcomm, world, ck_cfg);
    Ok((dist, ck, attached))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ITER_PROBE;
    use skt_cluster::{Cluster, ClusterConfig, FailurePlan, Ranklist};
    use skt_mps::run_on_cluster;
    use std::sync::Arc;

    fn base_cfg(n: usize) -> SktConfig {
        SktConfig::new(HplConfig::new(n, 4, 11), 2, 2)
    }

    #[test]
    fn skt_hpl_without_failure_passes() {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 0)));
        let rl = Ranklist::round_robin(4, 4);
        let outs = run_on_cluster(cluster, &rl, |ctx| run_skt(ctx, &base_cfg(32))).unwrap();
        for o in outs {
            assert!(o.hpl.passed, "residual {}", o.hpl.residual);
            assert!(o.hpl.checkpoints > 0, "checkpoints must be taken");
            assert_eq!(o.resumed_from_panel, 0);
            assert!(!o.restarted_from_scratch);
        }
    }

    #[test]
    fn a_group_sharing_a_node_is_refused_before_any_segment() {
        let cfg = SktConfig::new(HplConfig::new(32, 4, 11), 4, 2);
        // ranks {0, 1} on node 0 and {2, 3} on node 1: the one group of
        // 4 holds two members per node
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(2, 0)));
        let rl = Ranklist::explicit(vec![0, 0, 1, 1]);
        let outs = run_on_cluster(Arc::clone(&cluster), &rl, |ctx| {
            let columns = vec![vec![0.0; cfg.hpl.n]; cfg.hpl.n + 1];
            Ok((
                run_skt(ctx, &cfg).map(drop),
                install_relayout(ctx, &cfg, &columns, 1),
            ))
        })
        .unwrap();
        for (rank, (run, relayout)) in outs.into_iter().enumerate() {
            for r in [run, relayout] {
                assert!(
                    matches!(r, Err(Fault::Protocol(m)) if m.contains("share a node")),
                    "rank {rank}: {r:?}"
                );
            }
        }
        assert!((0..2).all(|n| cluster.shm(n).is_empty()), "no segment made");
        // the same group over round_robin(4, 4) is node-distinct
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 0)));
        let rl = Ranklist::round_robin(4, 4);
        let outs = run_on_cluster(cluster, &rl, |ctx| run_skt(ctx, &cfg)).unwrap();
        assert!(outs.iter().all(|o| o.hpl.passed));
    }

    #[test]
    fn install_relayout_refuses_a_namespace_that_is_not_empty() {
        // Replay belongs to the caller: a second install over the same
        // namespace errs on every rank instead of adopting its segments.
        let cfg = base_cfg(32);
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 0)));
        let rl = Ranklist::round_robin(4, 4);
        let columns = vec![vec![1.0; cfg.hpl.n]; cfg.hpl.n + 1];
        let install = || {
            run_on_cluster(Arc::clone(&cluster), &rl, |ctx| {
                Ok(install_relayout(ctx, &cfg, &columns, 3))
            })
            .unwrap()
        };
        assert!(install().iter().all(Result::is_ok));
        for (rank, r) in install().into_iter().enumerate() {
            assert!(
                matches!(r, Err(Fault::Protocol(m)) if m.contains("not empty")),
                "rank {rank}: {r:?}"
            );
        }
    }

    #[test]
    fn skt_hpl_survives_node_loss_and_resumes() {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 1)));
        let mut rl = Ranklist::round_robin(4, 4);
        // node 2 dies at its 5th completed panel (after checkpoint at 4)
        cluster.arm_failure(FailurePlan::new(ITER_PROBE, 5, 2));
        let cfg = base_cfg(48); // 12 panels
        let res = run_on_cluster(cluster.clone(), &rl, |ctx| run_skt(ctx, &cfg));
        assert!(res.is_err(), "first run must abort");
        cluster.reset_abort();
        rl.repair(&cluster).unwrap();
        let outs = run_on_cluster(cluster, &rl, |ctx| run_skt(ctx, &cfg)).unwrap();
        for o in &outs {
            assert!(o.hpl.passed, "residual {} after recovery", o.hpl.residual);
            assert_eq!(o.resumed_from_panel, 4, "resume from the last checkpoint");
            assert!(!o.restarted_from_scratch);
        }
    }

    #[test]
    fn skt_hpl_survives_failure_during_checkpoint_flush() {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 1)));
        let mut rl = Ranklist::round_robin(4, 4);
        // die inside the 2nd checkpoint's flush (CASE 2): recover forward
        cluster.arm_failure(FailurePlan::new(skt_core::Phase::FlushB, 2, 1));
        let cfg = base_cfg(48);
        let res = run_on_cluster(cluster.clone(), &rl, |ctx| run_skt(ctx, &cfg));
        assert!(res.is_err());
        cluster.reset_abort();
        rl.repair(&cluster).unwrap();
        let outs = run_on_cluster(cluster, &rl, |ctx| run_skt(ctx, &cfg)).unwrap();
        for (rank, o) in outs.iter().enumerate() {
            assert!(o.hpl.passed, "residual {}", o.hpl.residual);
            assert_eq!(o.resumed_from_panel, 4, "epoch 2 covers panels 1..=4");
            let report = o.recovery.clone().expect("restore must leave a report");
            assert_eq!(report.epoch, 2, "rank {rank}");
            if rank < 2 {
                // The victim's group can never have committed (B, C)@2 —
                // the victim died before its flush finished — so it must
                // roll forward from the workspace (CASE 2).
                assert_eq!(
                    report.source,
                    skt_core::RestoreSource::WorkspaceAndChecksum,
                    "rank {rank}: CASE 2 rolls forward from the workspace"
                );
            } else {
                // The sibling group {2, 3} doesn't contain the victim:
                // whether its trailing commit beat the job abort is a
                // scheduling race, and either side of it is a consistent
                // epoch-2 source.
                assert!(
                    matches!(
                        report.source,
                        skt_core::RestoreSource::WorkspaceAndChecksum
                            | skt_core::RestoreSource::CheckpointAndChecksum
                    ),
                    "rank {rank}: unexpected source {:?}",
                    report.source
                );
            }
        }
    }

    #[test]
    fn double_checkpoint_variant_also_recovers() {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 1)));
        let mut rl = Ranklist::round_robin(4, 4);
        cluster.arm_failure(FailurePlan::new(ITER_PROBE, 5, 3));
        let mut cfg = base_cfg(48);
        cfg.method = Method::Double;
        let res = run_on_cluster(cluster.clone(), &rl, |ctx| run_skt(ctx, &cfg));
        assert!(res.is_err());
        cluster.reset_abort();
        rl.repair(&cluster).unwrap();
        let outs = run_on_cluster(cluster, &rl, |ctx| run_skt(ctx, &cfg)).unwrap();
        for o in &outs {
            assert!(o.hpl.passed);
            assert_eq!(o.resumed_from_panel, 4);
        }
    }

    #[test]
    fn single_checkpoint_restarts_from_scratch_when_torn() {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 1)));
        let mut rl = Ranklist::round_robin(4, 4);
        // die inside the checkpoint update: single method cannot recover
        cluster.arm_failure(FailurePlan::new(skt_core::Phase::CopyB, 2, 1));
        let mut cfg = base_cfg(48);
        cfg.method = Method::Single;
        let res = run_on_cluster(cluster.clone(), &rl, |ctx| run_skt(ctx, &cfg));
        assert!(res.is_err());
        cluster.reset_abort();
        rl.repair(&cluster).unwrap();
        let outs = run_on_cluster(cluster, &rl, |ctx| run_skt(ctx, &cfg)).unwrap();
        for o in &outs {
            assert!(o.hpl.passed, "still solves correctly after full restart");
            assert!(o.restarted_from_scratch, "must have lost all progress");
            assert_eq!(o.resumed_from_panel, 0);
        }
    }
}
