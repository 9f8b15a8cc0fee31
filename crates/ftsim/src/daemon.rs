//! The master daemon (§5.2 of the paper).
//!
//! A daemon on a reliable master node watches the job. When the job
//! aborts (any node loss kills every rank — MPI semantics), the daemon:
//! detects the failure, checks node health against the ranklist,
//! replaces lost nodes with spares, and resubmits the job. Surviving
//! ranks re-attach to their SHM checkpoints; the replacement rank's
//! shard is rebuilt from group parity inside `run_skt`'s recovery.
//!
//! That loop is the multi-tenant service's failure ladder
//! ([`crate::service`]) run for one tenant, and what it returns is that
//! tenant's [`TenantReport`]: the outcome, the attempts, the suspicions,
//! the Figure 10 phase bars ([`crate::report`]).

use crate::report::{RetryPolicy, TenantReport};
use crate::service::{CheckpointService, ServiceConfig};
use crate::storm::StormPlan;
use skt_cluster::{Cluster, Ranklist};
use skt_hpl::SktConfig;
use std::sync::Arc;
use std::time::Duration;

/// Supervise a fault-tolerant HPL run to completion, restarting through
/// up to `max_failures` node losses. `detect_model` is the modeled
/// failure-detection latency of the platform's job manager.
///
/// The job runs as the single pre-placed tenant of a
/// [`CheckpointService`] — its shard the ranklist's node set, its float
/// the whole spare pool, whole-job slices under the batched schedule
/// ([`ServiceConfig::new`]'s defaults) and [`RetryPolicy::backoff`] —
/// so the failure ladder is the service's: *detect*, *classify*,
/// *replace*, *back off*, relaunch. Never a panic or a hang: the
/// report's [`outcome`](TenantReport::outcome) is the completed solve or
/// a typed [`Refusal`](crate::report::Refusal) — `OutOfSpares`,
/// `TooManyFailures`, or `Unrecoverable` when no node died (a tenant
/// that owns every spare meets no contention) — and its `history` holds
/// every attempt either way.
pub fn run_with_daemon(
    cluster: Arc<Cluster>,
    ranklist: &Ranklist,
    cfg: &SktConfig,
    max_failures: usize,
    detect_model: Duration,
) -> TenantReport {
    let svc_cfg = ServiceConfig::new(RetryPolicy::new(max_failures, detect_model));
    let (svc, _) = CheckpointService::for_placed_job(cluster, svc_cfg, cfg, ranklist);
    let tr = svc.run(&StormPlan::none()).tenants.pop();
    tr.expect("the placed tenant must have a report")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{CyclePhase, Refusal, SuspicionOutcome};
    use skt_cluster::{ClusterConfig, FailurePlan, Fault, FaultAction, Region};
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
        let rep = run_with_daemon(cluster, &rl, &cfg(), 3, Duration::from_secs(5));
        assert_eq!(rep.launches, 1);
        assert_eq!(rep.failures, 0);
        assert!(rep.cycles.is_empty());
        assert!(rep.outcome.completed().unwrap().hpl.passed);
    }

    #[test]
    fn daemon_survives_one_node_loss() {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 1)));
        let rl = Ranklist::round_robin(4, 4);
        cluster.arm_failure(FailurePlan::new(ITER_PROBE, 5, 1));
        let rep = run_with_daemon(cluster.clone(), &rl, &cfg(), 3, Duration::from_secs(63));
        assert_eq!(rep.launches, 2);
        assert_eq!(rep.failures, 1);
        let out = rep.outcome.completed().unwrap();
        assert!(out.hpl.passed);
        assert_eq!(out.resumed_from_panel, 4);
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
        let rep = run_with_daemon(cluster, &rl, &cfg(), 5, Duration::from_secs(30));
        assert_eq!(rep.failures, 2);
        assert!(rep.outcome.completed().unwrap().hpl.passed);
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
        let rep = run_with_daemon(cluster.clone(), &rl, &c, 3, Duration::from_secs(30));
        assert_eq!(rep.launches, 1, "one relaunch heals both losses");
        let out = rep.outcome.completed().unwrap();
        assert!(out.hpl.passed, "residual {}", out.hpl.residual);
        assert_eq!(out.resumed_from_panel, 4);
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
        let rep = run_with_daemon(cluster.clone(), &rl, &c, 3, Duration::from_secs(30));
        assert_eq!(rep.launches, 1, "one relaunch heals all three losses");
        let out = rep.outcome.completed().unwrap();
        assert!(out.hpl.passed, "residual {}", out.hpl.residual);
        assert_eq!(out.resumed_from_panel, 4);
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
        let rep = run_with_daemon(cluster, &rl, &cfg(), 3, Duration::ZERO);
        assert_eq!(rep.outcome.completed().unwrap_err(), &Refusal::OutOfSpares);
        let h = &rep.history;
        assert_eq!(h.attempts.len(), 1);
        assert_eq!(h.attempts[0].fault, Fault::NodeDead(1));
        assert_eq!(h.attempts[0].newly_dead, vec![1]);
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
        let rep = run_with_daemon(cluster.clone(), &rl, &cfg(), 5, Duration::from_secs(30));
        assert_eq!(rep.launches, 3);
        assert_eq!(rep.failures, 2);
        let out = rep.outcome.completed().unwrap();
        assert!(out.hpl.passed, "residual {}", out.hpl.residual);
        assert_eq!(out.resumed_from_panel, 4);
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
        // node later in the relaunch. The typed refusal must come with
        // both attempt records and the completed recovery's report.
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 1)));
        let rl = Ranklist::round_robin(4, 4);
        cluster.arm_failure(FailurePlan::new(ITER_PROBE, 5, 1));
        // node 2 cannot reach probe 7 in the first attempt: the global
        // checkpoint barrier at panel 6 would need node 1, which dies at
        // probe 5 — so this fires only in the (recovered) second attempt.
        cluster.arm_failure(FailurePlan::new(ITER_PROBE, 7, 2));
        let rep = run_with_daemon(cluster, &rl, &cfg(), 5, Duration::from_secs(30));
        assert_eq!(rep.outcome.completed().unwrap_err(), &Refusal::OutOfSpares);
        let h = &rep.history;
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
            let flip = FaultAction::Corrupt {
                region: Region::CopyB,
                offset: 9,
                bit: 3,
            };
            assert!(cluster.apply_fault(node, &flip));
        }
        let rep = run_with_daemon(cluster, &rl, &c, 3, Duration::ZERO);
        assert_eq!(
            rep.outcome.completed().unwrap_err(),
            &Refusal::Unrecoverable
        );
        let h = &rep.history;
        assert_eq!(h.attempts.len(), 1);
        assert!(h.attempts[0].newly_dead.is_empty(), "no node died");
        assert!(matches!(
            h.attempts[0].fault,
            Fault::Protocol(m) if m.contains("single-parity")
        ));
        assert!(h.recoveries.is_empty(), "no restore completed");
    }

    #[test]
    fn daemon_exonerates_a_straggler_that_heals() {
        use skt_cluster::{FaultPlan, GrayKind, SimRuntime};
        // reference residual from a fault-free run of the same problem
        let ref_cluster = Arc::new(Cluster::new_with_runtime(
            ClusterConfig::new(4, 1),
            SimRuntime::new(9),
        ));
        let rl = Ranklist::round_robin(4, 4);
        let reference = run_with_daemon(ref_cluster, &rl, &cfg(), 3, Duration::from_secs(5));
        let reference = reference.outcome.completed().unwrap().hpl.residual;

        // node 1 straggles 64x from its 3rd panel but recovers by itself
        let cluster = Arc::new(Cluster::new_with_runtime(
            ClusterConfig::new(4, 1),
            SimRuntime::new(9),
        ));
        cluster.arm_failure(
            FaultPlan::gray(ITER_PROBE, 3, 1, GrayKind::Slow { factor: 64 })
                .heal_after(Duration::from_millis(50)),
        );
        let rep = run_with_daemon(cluster.clone(), &rl, &cfg(), 3, Duration::from_secs(5));
        let out = rep.outcome.completed().unwrap();
        assert!(out.hpl.passed);
        assert_eq!(
            out.hpl.residual.to_bits(),
            reference.to_bits(),
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
        use skt_cluster::{FaultPlan, GrayKind, SimRuntime};
        let cluster = Arc::new(Cluster::new_with_runtime(
            ClusterConfig::new(4, 1),
            SimRuntime::new(11),
        ));
        let rl = Ranklist::round_robin(4, 4);
        cluster.arm_failure(FaultPlan::gray(ITER_PROBE, 3, 1, GrayKind::Hang));
        let rep = run_with_daemon(cluster.clone(), &rl, &cfg(), 3, Duration::from_secs(5));
        assert!(rep.outcome.completed().unwrap().hpl.passed);
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
        let p = RetryPolicy::new(9, Duration::ZERO);
        assert_eq!(p.backoff(0), Duration::from_secs(1), "0 behaves as 1");
        for (failure, secs) in (1..=6).zip([1, 2, 4, 8, 16, 32]) {
            assert_eq!(p.backoff(failure), Duration::from_secs(secs));
        }
        assert_eq!(p.backoff(7), Duration::from_secs(60), "capped");
        assert_eq!(p.backoff(10), Duration::from_secs(60), "capped");
        assert_eq!(
            p.backoff(64),
            Duration::from_secs(60),
            "shift-safe far past the cap"
        );
    }
}
