//! The master daemon (§5.2 of the paper).
//!
//! A daemon on a reliable master node watches the job. When the job
//! aborts (any node loss kills every rank — MPI semantics), the daemon:
//! detects the failure, checks node health against the ranklist,
//! replaces lost nodes with spares, and resubmits the job. Surviving
//! ranks re-attach to their SHM checkpoints; the replacement rank's
//! shard is rebuilt from group parity inside `run_skt`'s recovery.
//!
//! Figure 10 timing: *detect* is modeled (it is a property of the job
//! manager — ~63 s on Tianhe-2, ~30 s on Tianhe-1A); *replace*,
//! *restart*, *recover*, and *checkpoint* are measured on the virtual
//! cluster.

use skt_cluster::{Cluster, Fault, NodeId, Ranklist};
use skt_core::{OpRecord, RecoveryReport};
use skt_hpl::{SktConfig, SktOutput};
use std::sync::Arc;
use std::time::Duration;

/// The phases of one work-fail-detect-restart cycle — the bars of
/// Figure 10, in the order they occur.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CyclePhase {
    /// Failure detection (modeled; job-manager property).
    Detect,
    /// Replacing lost nodes by spares (measured: ranklist repair).
    Replace,
    /// Relaunching the job (measured: spawn to first rank running).
    Restart,
    /// Restoring data from checkpoints (measured inside the job).
    Recover,
    /// Making one checkpoint (measured, average over the run).
    Checkpoint,
}

impl CyclePhase {
    /// Every phase, in cycle order.
    pub const ALL: [CyclePhase; 5] = [
        CyclePhase::Detect,
        CyclePhase::Replace,
        CyclePhase::Restart,
        CyclePhase::Recover,
        CyclePhase::Checkpoint,
    ];

    /// The bar label used in Figure 10.
    pub fn label(self) -> &'static str {
        match self {
            CyclePhase::Detect => "detect",
            CyclePhase::Replace => "replace",
            CyclePhase::Restart => "restart",
            CyclePhase::Recover => "recover data",
            CyclePhase::Checkpoint => "checkpoint",
        }
    }
}

impl std::fmt::Display for CyclePhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-phase durations of one cycle, keyed by [`CyclePhase`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    times: [Duration; CyclePhase::ALL.len()],
}

impl PhaseTimes {
    /// Duration of `phase`.
    pub fn get(&self, phase: CyclePhase) -> Duration {
        self.times[phase as usize]
    }

    /// Record the duration of `phase`.
    pub fn set(&mut self, phase: CyclePhase, d: Duration) {
        self.times[phase as usize] = d;
    }

    /// `(phase, duration)` pairs in cycle order.
    pub fn iter(&self) -> impl Iterator<Item = (CyclePhase, Duration)> + '_ {
        CyclePhase::ALL.iter().map(move |&p| (p, self.get(p)))
    }

    /// Sum of all phases: the cycle's contribution to lost wall time.
    pub fn total(&self) -> Duration {
        self.times.iter().sum()
    }
}

/// Outcome of a daemon-supervised run.
#[derive(Clone, Debug)]
pub struct CycleReport {
    /// Number of job launches (1 = no failure).
    pub launches: usize,
    /// Failures survived.
    pub failures: usize,
    /// Result of the run that completed.
    pub output: SktOutput,
    /// Phase timings for each failure cycle, in order.
    pub cycles: Vec<PhaseTimes>,
    /// Everything the daemon learned across all attempts (faults, new
    /// deaths, backoff, recovery reports) — the error-path history, kept
    /// on success too.
    pub history: DaemonHistory,
}

/// Record of one *failed* launch attempt, in order.
#[derive(Clone, Debug)]
pub struct AttemptRecord {
    /// 1-based launch number that failed.
    pub attempt: usize,
    /// The fault that ended the attempt (rank order; with fault
    /// attribution a node loss surfaces as `NodeDead(culprit)` on every
    /// rank).
    pub fault: Fault,
    /// Nodes that died *during this attempt* (empty when the failure was
    /// protocol-level, e.g. an unrecoverable checkpoint verdict —
    /// replacement cannot fix those).
    pub newly_dead: Vec<NodeId>,
    /// Backoff charged to the runtime clock before the next attempt
    /// (zero when the daemon gave up instead of retrying).
    pub backoff: Duration,
}

/// How the daemon resolved one suspicion verdict (the last two rungs of
/// the gray-failure ladder: observe → probe → *this*).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SuspicionOutcome {
    /// The probe found the suspect responsive again (the gray fault
    /// healed): the verdict is cleared and the job resumes on the same
    /// ranklist with its checkpoints untouched — bit-exact with the
    /// fault-free run.
    Exonerated,
    /// The probe confirmed degradation: the suspect was fenced at this
    /// generation and its shard proactively migrated onto a spare
    /// through the sequenced [`skt_core::protocol::ops::SpareDraw`].
    Migrated {
        /// The fence generation stamped on the zombie; stale messages
        /// and SHM writes carrying an older generation are rejected.
        generation: u64,
    },
}

impl SuspicionOutcome {
    /// Stable label for fingerprints (strips the generation number —
    /// it can differ across re-fencing histories).
    pub fn label(&self) -> &'static str {
        match self {
            SuspicionOutcome::Exonerated => "exonerated",
            SuspicionOutcome::Migrated { .. } => "migrated",
        }
    }
}

/// One suspicion the daemon adjudicated: which node, the score the
/// declaring peer saw, what the probe said, and how it ended.
#[derive(Clone, Debug)]
pub struct SuspicionRecord {
    /// The suspected node.
    pub node: NodeId,
    /// Suspicion score at declaration (whole heartbeat intervals of
    /// observed lag/slowness — seed-dependent; fingerprints drop it).
    pub score: u32,
    /// The probe verdict's stable label (`"responsive"`, or the gray
    /// kind for degraded, or `"unresponsive"`).
    pub probe: &'static str,
    /// How the ladder resolved it.
    pub outcome: SuspicionOutcome,
}

/// The daemon's full account of a supervised run: one record per failed
/// attempt plus every [`RecoveryReport`] harvested from relaunches —
/// including relaunches that completed their recovery and *then* died,
/// which is exactly the cascading-failure evidence a typed
/// [`DaemonError`] must carry.
#[derive(Clone, Debug, Default)]
pub struct DaemonHistory {
    /// One record per failed attempt.
    pub attempts: Vec<AttemptRecord>,
    /// Recovery reports of every attempt whose restore completed, in
    /// attempt order (an attempt killed mid-rebuild leaves none).
    pub recoveries: Vec<RecoveryReport>,
    /// The daemon's own sequenced-op audit trail: one record per
    /// spare-draw, telling whether the draw applied, was replayed, or
    /// was detected already done and skipped (see
    /// [`skt_core::protocol::ops`]).
    pub ops: Vec<OpRecord>,
    /// Suspicion verdicts adjudicated (gray-failure ladder), in order.
    pub suspicions: Vec<SuspicionRecord>,
}

/// Why the daemon gave up. Every variant carries the full
/// [`DaemonHistory`] so the caller sees what was tried, what died, and
/// what recovery managed before the job was declared lost.
#[derive(Debug)]
#[non_exhaustive]
pub enum DaemonError {
    /// No spare node left to replace a failure.
    OutOfSpares(DaemonHistory),
    /// More failures than the configured budget.
    TooManyFailures(DaemonHistory),
    /// The job failed without losing a node — a protocol-level verdict
    /// (e.g. a checkpoint group damaged beyond single-parity repair).
    /// Replacement and retry cannot fix it; jobs wanting to survive
    /// more simultaneous losses configure a codec with more parity
    /// stripes ([`skt_encoding::CodecSpec::Rs`]).
    Unrecoverable(DaemonHistory),
}

impl DaemonError {
    /// The attempt history, whatever the variant.
    pub fn history(&self) -> &DaemonHistory {
        match self {
            DaemonError::OutOfSpares(h)
            | DaemonError::TooManyFailures(h)
            | DaemonError::Unrecoverable(h) => h,
        }
    }
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonError::OutOfSpares(h) => write!(
                f,
                "spare-node pool exhausted after {} failed attempts",
                h.attempts.len()
            ),
            DaemonError::TooManyFailures(h) => {
                write!(f, "gave up after {} failures", h.attempts.len())
            }
            DaemonError::Unrecoverable(h) => write!(
                f,
                "unrecoverable after {} attempts: {:?} (no node died; retry is futile)",
                h.attempts.len(),
                h.attempts.last().map(|a| a.fault)
            ),
        }
    }
}

impl std::error::Error for DaemonError {}

/// Retry policy of the daemon's restart loop.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Node losses to survive before giving up.
    pub max_failures: usize,
    /// Modeled failure-detection latency (job-manager property).
    pub detect: Duration,
    /// Backoff before the first retry; doubles on each consecutive
    /// failure. Charged to the cluster's [`Runtime`](skt_cluster::Runtime)
    /// clock, so it is virtual under simulation and never sleeps a test.
    pub backoff_base: Duration,
    /// Upper bound on the doubling backoff.
    pub backoff_cap: Duration,
}

impl RetryPolicy {
    /// Policy with the defaults used by [`run_with_daemon`]: 1 s base
    /// backoff capped at 60 s.
    pub fn new(max_failures: usize, detect: Duration) -> Self {
        RetryPolicy {
            max_failures,
            detect,
            backoff_base: Duration::from_secs(1),
            backoff_cap: Duration::from_secs(60),
        }
    }

    /// Backoff before retrying after the `failures`-th consecutive
    /// failure (1-based): `base * 2^(failures-1)`, capped.
    pub fn backoff(&self, failures: usize) -> Duration {
        let doubled = self
            .backoff_base
            .saturating_mul(1u32 << (failures - 1).min(31) as u32);
        doubled.min(self.backoff_cap)
    }
}

/// Supervise a fault-tolerant HPL run to completion, restarting through
/// up to `max_failures` node losses. `detect_model` is the modeled
/// failure-detection latency of the platform's job manager.
pub fn run_with_daemon(
    cluster: Arc<Cluster>,
    ranklist: &Ranklist,
    cfg: &SktConfig,
    max_failures: usize,
    detect_model: Duration,
) -> Result<CycleReport, DaemonError> {
    run_with_policy(
        cluster,
        ranklist,
        cfg,
        &RetryPolicy::new(max_failures, detect_model),
    )
}

/// [`run_with_daemon`] with an explicit [`RetryPolicy`].
///
/// Since the multi-tenant service landed this is a thin wrapper over
/// [`CheckpointService`](crate::service::CheckpointService): the job is
/// registered as a single pre-placed tenant whose shard is the
/// ranklist's node set and whose float is the whole spare pool, run in
/// whole-job slices under the batched schedule — which reduces exactly
/// to the old blocking cycle. On failure: *detect* (modeled latency),
/// *classify* (did a node die? give up with
/// [`DaemonError::Unrecoverable`] if not — replacement cannot fix a
/// protocol verdict), *replace* (sequenced spare draw + ranklist
/// repair), *back off* (doubling, on the runtime clock), relaunch.
/// Never a panic or a hang: every exit is `Ok` or a typed
/// [`DaemonError`] carrying the full history.
pub fn run_with_policy(
    cluster: Arc<Cluster>,
    ranklist: &Ranklist,
    cfg: &SktConfig,
    policy: &RetryPolicy,
) -> Result<CycleReport, DaemonError> {
    use crate::policy::PolicySpec;
    use crate::service::{CheckpointService, Refusal, ServiceConfig, StormPlan, TenantOutcome};
    let mut svc_cfg = ServiceConfig::new(policy.clone());
    svc_cfg.slice_panels = 0;
    svc_cfg.schedule = PolicySpec::Batched;
    // the daemon's caller owns the cluster and may re-enter the same
    // checkpoints after this run — never wipe them
    svc_cfg.wipe_on_release = false;
    let (svc, tenant) = CheckpointService::for_placed_job(cluster, svc_cfg, cfg, ranklist);
    let mut report = svc.run(&StormPlan::none());
    let pos = report
        .tenants
        .iter()
        .position(|t| t.tenant == tenant)
        .expect("the placed tenant must have a report");
    let tr = report.tenants.swap_remove(pos);
    match tr.outcome {
        TenantOutcome::Completed(output) => Ok(CycleReport {
            launches: tr.launches,
            failures: tr.launches - 1,
            output,
            cycles: tr.cycles,
            history: tr.history,
        }),
        TenantOutcome::Refused(refusal) => Err(match refusal {
            Refusal::TooManyFailures => DaemonError::TooManyFailures(tr.history),
            Refusal::Unrecoverable => DaemonError::Unrecoverable(tr.history),
            // a single tenant owns every spare: any contention verdict
            // collapses to plain exhaustion
            _ => DaemonError::OutOfSpares(tr.history),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skt_cluster::{ClusterConfig, CorruptPlan, FailurePlan, Region};
    use skt_core::RECOVER_COMMIT_PROBE;
    use skt_encoding::CodecSpec;
    use skt_hpl::{run_skt, HplConfig, ITER_PROBE};
    use skt_mps::run_on_cluster;

    fn cfg() -> SktConfig {
        SktConfig::new(HplConfig::new(48, 4, 11), 2, 2)
    }

    #[test]
    fn daemon_completes_without_failures() {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 0)));
        let rl = Ranklist::round_robin(4, 4);
        let rep = run_with_daemon(cluster, &rl, &cfg(), 3, Duration::from_secs(5)).unwrap();
        assert_eq!(rep.launches, 1);
        assert_eq!(rep.failures, 0);
        assert!(rep.cycles.is_empty());
        assert!(rep.output.hpl.passed);
    }

    #[test]
    fn daemon_survives_one_node_loss() {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 1)));
        let rl = Ranklist::round_robin(4, 4);
        cluster.arm_failure(FailurePlan::new(ITER_PROBE, 5, 1));
        let rep =
            run_with_daemon(cluster.clone(), &rl, &cfg(), 3, Duration::from_secs(63)).unwrap();
        assert_eq!(rep.launches, 2);
        assert_eq!(rep.failures, 1);
        assert!(rep.output.hpl.passed);
        assert_eq!(rep.output.resumed_from_panel, 4);
        assert_eq!(rep.cycles.len(), 1);
        let c = &rep.cycles[0];
        assert_eq!(
            c.get(CyclePhase::Detect),
            Duration::from_secs(63),
            "modeled detection"
        );
        assert!(
            c.get(CyclePhase::Recover) > Duration::ZERO,
            "recovery must be timed"
        );
        assert!(c.total() >= Duration::from_secs(63), "total spans all bars");
        assert_eq!(cluster.spares_left(), 0);
    }

    #[test]
    fn daemon_survives_two_sequential_losses() {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 2)));
        let rl = Ranklist::round_robin(4, 4);
        cluster.arm_failure(FailurePlan::new(ITER_PROBE, 3, 0));
        // node 2 cannot reach probe 5 in the first attempt: the global
        // checkpoint barrier at panel 4 would need node 0, which dies at
        // probe 3 — so the losses are strictly sequential, one per
        // relaunch, never a simultaneous pair healed in one cycle.
        cluster.arm_failure(FailurePlan::new(ITER_PROBE, 5, 2));
        let rep = run_with_daemon(cluster, &rl, &cfg(), 5, Duration::from_secs(30)).unwrap();
        assert_eq!(rep.failures, 2);
        assert!(rep.output.hpl.passed);
    }

    #[test]
    fn daemon_heals_two_simultaneous_losses_in_one_cycle() {
        // Two nodes of the same checkpoint group are down before the
        // daemon can react: the armed plan kills node 1 at the 5th panel
        // probe and node 2 is powered off while the job is still
        // aborting. The daemon's health-check repair replaces both in
        // one pass, and the single relaunch's dual-parity recovery
        // rebuilds both shards — one cycle, not two.
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 2)));
        let rl = Ranklist::round_robin(4, 4);
        cluster.arm_failure(FailurePlan::new(ITER_PROBE, 5, 1));
        let mut c = SktConfig::new(HplConfig::new(48, 4, 11), 4, 2);
        c.codec = CodecSpec::Dual;
        assert!(
            run_on_cluster(Arc::clone(&cluster), &rl, |ctx| run_skt(ctx, &c)).is_err(),
            "first run must abort on the node loss"
        );
        cluster.kill_node(2);
        let rep = run_with_daemon(cluster.clone(), &rl, &c, 3, Duration::from_secs(30)).unwrap();
        assert_eq!(rep.launches, 1, "one relaunch heals both losses");
        assert!(
            rep.output.hpl.passed,
            "residual {}",
            rep.output.hpl.residual
        );
        assert_eq!(rep.output.resumed_from_panel, 4);
        assert_eq!(cluster.spares_left(), 0, "both spares spent in one repair");
        let rec = rep.history.recoveries.last().expect("recovery ran");
        assert_eq!(rec.lost, vec![1, 2], "both replaced ranks rebuilt");
    }

    #[test]
    fn daemon_heals_three_simultaneous_losses_in_one_cycle() {
        // The m = 3 acceptance case: the armed plan kills node 1 at the
        // 5th panel probe, and nodes 2 and 3 are powered off while the
        // job is still aborting — three of the group's four members are
        // gone, leaving a single survivor. The daemon replaces all three
        // in one health-check pass, and the single relaunch's RS(m=3)
        // recovery rebuilds all three shards from the one survivor and
        // the parity: one cycle, not three, with the HPL residual
        // passing end-to-end.
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 3)));
        let rl = Ranklist::round_robin(4, 4);
        cluster.arm_failure(FailurePlan::new(ITER_PROBE, 5, 1));
        let mut c = SktConfig::new(HplConfig::new(48, 4, 11), 4, 2);
        c.codec = CodecSpec::rs(3);
        assert!(
            run_on_cluster(Arc::clone(&cluster), &rl, |ctx| run_skt(ctx, &c)).is_err(),
            "first run must abort on the node loss"
        );
        cluster.kill_node(2);
        cluster.kill_node(3);
        let rep = run_with_daemon(cluster.clone(), &rl, &c, 3, Duration::from_secs(30)).unwrap();
        assert_eq!(rep.launches, 1, "one relaunch heals all three losses");
        assert!(
            rep.output.hpl.passed,
            "residual {}",
            rep.output.hpl.residual
        );
        assert_eq!(rep.output.resumed_from_panel, 4);
        assert_eq!(
            cluster.spares_left(),
            0,
            "all three spares spent in one repair"
        );
        let rec = rep.history.recoveries.last().expect("recovery ran");
        assert_eq!(rec.lost, vec![1, 2, 3], "all replaced ranks rebuilt");
    }

    #[test]
    fn daemon_gives_up_without_spares() {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 0)));
        let rl = Ranklist::round_robin(4, 4);
        cluster.arm_failure(FailurePlan::new(ITER_PROBE, 2, 1));
        let err = run_with_daemon(cluster, &rl, &cfg(), 3, Duration::ZERO).unwrap_err();
        match err {
            DaemonError::OutOfSpares(h) => {
                assert_eq!(h.attempts.len(), 1);
                assert_eq!(h.attempts[0].fault, Fault::NodeDead(1));
                assert_eq!(h.attempts[0].newly_dead, vec![1]);
            }
            other => panic!("expected OutOfSpares, got {other}"),
        }
    }

    #[test]
    fn daemon_retries_through_a_second_death_during_recovery() {
        // Cascading failure: node 2 dies mid-run; during the relaunch's
        // *recovery* (at the pre-commit restore probe) node 1 dies too.
        // The daemon must re-run detection + planning against the new
        // survivor set and finish on the third launch.
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 2)));
        let rl = Ranklist::round_robin(4, 4);
        cluster.arm_failure(FailurePlan::new(ITER_PROBE, 5, 2));
        cluster.arm_failure(FailurePlan::new(RECOVER_COMMIT_PROBE, 1, 1));
        let rep =
            run_with_daemon(cluster.clone(), &rl, &cfg(), 5, Duration::from_secs(30)).unwrap();
        assert_eq!(rep.launches, 3);
        assert_eq!(rep.failures, 2);
        assert!(
            rep.output.hpl.passed,
            "residual {}",
            rep.output.hpl.residual
        );
        assert_eq!(rep.output.resumed_from_panel, 4);
        assert_eq!(cluster.spares_left(), 0, "both spares spent");
        assert_eq!(rep.history.attempts.len(), 2);
        assert_eq!(rep.history.attempts[0].fault, Fault::NodeDead(2));
        assert_eq!(rep.history.attempts[0].newly_dead, vec![2]);
        assert_eq!(rep.history.attempts[1].fault, Fault::NodeDead(1));
        assert_eq!(rep.history.attempts[1].newly_dead, vec![1]);
        assert_eq!(
            rep.history.attempts[0].backoff,
            Duration::from_secs(1),
            "base backoff before the first retry"
        );
        assert_eq!(
            rep.history.attempts[1].backoff,
            Duration::from_secs(2),
            "backoff doubles on the consecutive failure"
        );
        // attempt 2 died before finishing its restore, so only the third
        // launch's recovery made it into the history
        assert_eq!(rep.history.recoveries.len(), 1);
        assert_eq!(rep.history.recoveries[0].epoch, 2);
    }

    #[test]
    fn daemon_out_of_spares_carries_the_recovery_history() {
        // One spare: survive the first loss, recover, then lose another
        // node later in the relaunch. The typed error must carry both
        // attempt records and the completed recovery's report.
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 1)));
        let rl = Ranklist::round_robin(4, 4);
        cluster.arm_failure(FailurePlan::new(ITER_PROBE, 5, 1));
        // node 2 cannot reach probe 7 in the first attempt: the global
        // checkpoint barrier at panel 6 would need node 1, which dies at
        // probe 5 — so this fires only in the (recovered) second attempt.
        cluster.arm_failure(FailurePlan::new(ITER_PROBE, 7, 2));
        let err = run_with_daemon(cluster, &rl, &cfg(), 5, Duration::from_secs(30)).unwrap_err();
        match err {
            DaemonError::OutOfSpares(h) => {
                assert_eq!(h.attempts.len(), 2);
                assert_eq!(h.attempts[0].fault, Fault::NodeDead(1));
                assert_eq!(h.attempts[1].fault, Fault::NodeDead(2));
                assert_eq!(
                    h.recoveries.len(),
                    1,
                    "attempt 2 completed its restore before dying"
                );
                assert_eq!(h.recoveries[0].epoch, 2, "restored the panel-4 checkpoint");
                assert_eq!(
                    h.attempts[1].backoff,
                    Duration::ZERO,
                    "no retry after give-up"
                );
            }
            other => panic!("expected OutOfSpares, got {other}"),
        }
    }

    #[test]
    fn daemon_flags_a_damaged_checkpoint_group_as_unrecoverable() {
        // A node loss plus silent corruption of BOTH members of group
        // {0, 1}: two damaged restore sources exceed single parity, no
        // node died in the failing attempt, so retrying is futile — the
        // daemon must return the typed verdict, not loop or hang.
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 1)));
        let mut rl = Ranklist::round_robin(4, 4);
        cluster.arm_failure(FailurePlan::new(ITER_PROBE, 5, 2));
        let c = cfg();
        assert!(
            run_on_cluster(Arc::clone(&cluster), &rl, |ctx| run_skt(ctx, &c)).is_err(),
            "first run must abort on the node loss"
        );
        cluster.reset_abort();
        rl.repair(&cluster).unwrap();
        for node in [0, 1] {
            assert!(cluster.corrupt_now(&CorruptPlan::new("now", 1, node, Region::CopyB, 9, 3)));
        }
        let err = run_with_daemon(cluster, &rl, &c, 3, Duration::ZERO).unwrap_err();
        match err {
            DaemonError::Unrecoverable(h) => {
                assert_eq!(h.attempts.len(), 1);
                assert!(h.attempts[0].newly_dead.is_empty(), "no node died");
                assert!(matches!(
                    h.attempts[0].fault,
                    Fault::Protocol(m) if m.contains("single-parity")
                ));
                assert!(h.recoveries.is_empty(), "no restore completed");
            }
            other => panic!("expected Unrecoverable, got {other}"),
        }
    }

    #[test]
    fn daemon_exonerates_a_straggler_that_heals() {
        use skt_cluster::{FaultPlan, GrayPlan, SimRuntime};
        // reference residual from a fault-free run of the same problem
        let ref_cluster = Arc::new(Cluster::new_with_runtime(
            ClusterConfig::new(4, 1),
            SimRuntime::new(9),
        ));
        let rl = Ranklist::round_robin(4, 4);
        let reference =
            run_with_daemon(ref_cluster, &rl, &cfg(), 3, Duration::from_secs(5)).unwrap();

        // node 1 straggles 64x from its 3rd panel but recovers by itself
        let cluster = Arc::new(Cluster::new_with_runtime(
            ClusterConfig::new(4, 1),
            SimRuntime::new(9),
        ));
        cluster.arm_fault(FaultPlan::Gray(
            GrayPlan::slow(ITER_PROBE, 3, 1, 64).heal_after(Duration::from_millis(50)),
        ));
        let rep = run_with_daemon(cluster.clone(), &rl, &cfg(), 3, Duration::from_secs(5)).unwrap();
        assert!(rep.output.hpl.passed);
        assert_eq!(
            rep.output.hpl.residual.to_bits(),
            reference.output.hpl.residual.to_bits(),
            "an exonerated resume must be bit-exact with the fault-free run"
        );
        assert_eq!(rep.history.suspicions.len(), 1);
        let s = &rep.history.suspicions[0];
        assert_eq!(s.node, 1);
        assert_eq!(s.probe, "responsive");
        assert_eq!(s.outcome, SuspicionOutcome::Exonerated);
        assert!(matches!(
            rep.history.attempts[0].fault,
            Fault::Suspect { node: 1, .. }
        ));
        assert!(!cluster.node_fenced(1), "exoneration never fences");
        assert_eq!(cluster.spares_left(), 1, "no spare was spent");
    }

    #[test]
    fn daemon_fences_and_migrates_a_hung_node() {
        use skt_cluster::{FaultPlan, GrayPlan, SimRuntime};
        let cluster = Arc::new(Cluster::new_with_runtime(
            ClusterConfig::new(4, 1),
            SimRuntime::new(11),
        ));
        let rl = Ranklist::round_robin(4, 4);
        cluster.arm_fault(FaultPlan::Gray(GrayPlan::hang(ITER_PROBE, 3, 1)));
        let rep = run_with_daemon(cluster.clone(), &rl, &cfg(), 3, Duration::from_secs(5)).unwrap();
        assert!(rep.output.hpl.passed);
        assert_eq!(rep.history.suspicions.len(), 1);
        let s = &rep.history.suspicions[0];
        assert_eq!(s.node, 1);
        assert_eq!(s.probe, "unresponsive");
        assert_eq!(s.outcome, SuspicionOutcome::Migrated { generation: 1 });
        assert!(cluster.node_fenced(1), "the zombie is fenced");
        assert!(
            cluster.node_alive(1),
            "fenced, not killed: it never powered off"
        );
        assert_eq!(
            cluster.spares_left(),
            0,
            "its shard migrated onto the spare"
        );
        assert!(
            !rep.history.ops.is_empty(),
            "migration went through the sequenced spare draw"
        );
        let rec = rep.history.recoveries.last().expect("recovery ran");
        assert_eq!(
            rec.lost,
            vec![1],
            "the migrated rank was rebuilt from parity"
        );
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_failures: 9,
            detect: Duration::ZERO,
            backoff_base: Duration::from_secs(1),
            backoff_cap: Duration::from_secs(8),
        };
        assert_eq!(p.backoff(1), Duration::from_secs(1));
        assert_eq!(p.backoff(2), Duration::from_secs(2));
        assert_eq!(p.backoff(3), Duration::from_secs(4));
        assert_eq!(p.backoff(4), Duration::from_secs(8));
        assert_eq!(p.backoff(10), Duration::from_secs(8), "capped");
        assert_eq!(
            p.backoff(64),
            Duration::from_secs(8),
            "shift-safe far past the cap"
        );
    }
}
