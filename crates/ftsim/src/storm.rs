//! Storms: what goes wrong during a service run, and when.
//!
//! A [`StormPlan`] is probe-anchored [`FaultPlan`]s armed on the cluster's
//! injector before the first launch, plus [`TimedFault`]s the service
//! queues as events on the virtual clock and applies between slices. Both
//! triggers carry the same *what* — a [`FaultAction`] — and both end in
//! [`skt_cluster::Cluster::apply_fault`].

use crate::service::{CheckpointService, ServiceEvent};
use skt_cluster::{FailurePlan, FaultAction, FaultPlan, NodeId, Region, SplitMix64};
use skt_hpl::ITER_PROBE;
use std::time::Duration;

/// A fault scheduled on the virtual clock rather than anchored to a
/// probe. Timed faults land at seed-*dependent* points of a job's
/// progress (the clock advance depends on scheduling), so determinism
/// tests pin the seed; seed-invariance sweeps use armed probes instead.
#[derive(Clone, Debug)]
pub struct TimedFault {
    /// Cluster-clock time to apply the fault at.
    pub at: Duration,
    /// The node it happens to.
    pub node: NodeId,
    /// What happens: a power-off (wipes the node's SHM; aborts a running
    /// job), a bit flip in a checkpoint region, a gray degradation.
    pub action: FaultAction,
}

/// A storm: probe-anchored fault plans armed before the first launch,
/// plus clock-scheduled faults dispatched from the event queue.
#[derive(Clone, Debug, Default)]
pub struct StormPlan {
    /// Plans armed on the cluster (fire at probe counts).
    pub armed: Vec<FaultPlan>,
    /// Faults dispatched at virtual times, between slices.
    pub timed: Vec<TimedFault>,
}

impl StormPlan {
    /// No faults.
    pub fn none() -> Self {
        StormPlan::default()
    }

    /// Arm a kill of `node` at its `nth` completed elimination panel.
    pub fn kill(self, node: NodeId, nth: u64) -> Self {
        self.arm(FailurePlan::new(ITER_PROBE, nth, node))
    }

    /// Arm any probe-anchored plan: a kill at another probe — e.g.
    /// [`skt_hpl::RESIZE_PROBE`] to land it *inside* a resize window and
    /// exercise the sequenced install's replay — a silent bit flip, or a
    /// gray fault (straggler / hang / degraded link). Arming a gray plan
    /// switches on the cluster's heartbeat suspicion layer, so the
    /// victim is *declared* by its peers, probed by the daemon, and
    /// either exonerated or fenced-and-migrated — never waited on
    /// forever.
    pub fn arm(mut self, plan: FaultPlan) -> Self {
        self.armed.push(plan);
        self
    }

    /// Schedule `action` on `node` at virtual time `at`.
    pub fn timed(mut self, at: Duration, node: NodeId, action: FaultAction) -> Self {
        self.timed.push(TimedFault { at, node, action });
        self
    }

    /// Seeded storm over tenant shards: the first `kills` shards of a
    /// seeded shuffle each lose one node at a small panel probe, and
    /// `flips` further shards each take one silent bit flip in a
    /// checkpoint region. All faults are probe-anchored, so for a fixed
    /// storm seed the *outcomes* are invariant across simulation
    /// scheduler seeds.
    pub fn seeded(seed: u64, shards: &[Vec<NodeId>], kills: usize, flips: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut order: Vec<usize> = (0..shards.len()).collect();
        for i in (1..order.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut storm = StormPlan::default();
        let kills = kills.min(order.len());
        for &s in order.iter().take(kills) {
            let nodes = &shards[s];
            let node = nodes[(rng.next_u64() as usize) % nodes.len()];
            let nth = 1 + rng.next_u64() % 2;
            storm = storm.kill(node, nth);
        }
        for &s in order.iter().skip(kills).take(flips) {
            let nodes = &shards[s];
            let node = nodes[(rng.next_u64() as usize) % nodes.len()];
            let region = if rng.next_u64().is_multiple_of(2) {
                Region::CopyB
            } else {
                Region::Header
            };
            let nth = 1 + rng.next_u64() % 2;
            let offset = (rng.next_u64() % 4096) as usize;
            let bit = (rng.next_u64() % 8) as u8;
            let flip = FaultPlan::corrupt(ITER_PROBE, nth, node, region, offset, bit);
            storm = storm.arm(flip);
        }
        storm
    }
}

impl CheckpointService {
    /// Arm the storm's probe-anchored plans and queue its timed faults.
    pub(crate) fn arm_storm(&mut self, storm: &StormPlan) {
        for plan in &storm.armed {
            self.cluster.arm_failure(plan.clone());
        }
        for tf in &storm.timed {
            self.queue.push(tf.at, ServiceEvent::Storm(tf.clone()));
        }
    }

    /// Apply a timed fault whose instant has come.
    pub(crate) fn apply_timed(&mut self, tf: TimedFault) {
        self.cluster.apply_fault(tf.node, &tf.action);
        if tf.action == FaultAction::Kill {
            // a dead job is relaunched by its owner's next slice; a
            // dead *free* node must never be handed to a tenant
            self.cluster.reset_abort();
            self.pool.purge_free(|n| self.cluster.node_usable(n));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::{service, tenant_cfg};
    use crate::{PolicySpec, TenantOutcome};
    use skt_cluster::{Event, Recorder};
    use std::sync::Arc;

    #[test]
    fn timed_kill_between_slices_is_healed_at_slice_top() {
        // 1 ms in lands between slices. A kill of one of a's nodes is
        // repaired by a's next slice-top health check with no failure
        // cycle; a flip in a's checkpoint copy `B` is silent — no spare
        // is drawn, no failure charged — and the solve still verifies.
        let flip = FaultAction::Corrupt {
            region: Region::CopyB,
            offset: 77,
            bit: 3,
        };
        for (action, repaired) in [(FaultAction::Kill, true), (flip, false)] {
            let mut svc = service(4, 1, 3, PolicySpec::RoundRobin);
            svc.register(tenant_cfg("a", 48), 2, 1).unwrap();
            svc.register(tenant_cfg("b", 48), 2, 0).unwrap();
            let rec = Arc::new(Recorder::new());
            svc.cluster.events().subscribe(rec.clone());
            let storm = StormPlan::none().timed(Duration::from_millis(1), 0, action);
            let rep = svc.run(&storm);
            let landed = Event::CorruptionInjected {
                node: 0,
                region: "b",
            };
            assert_eq!(rec.count(|e| *e == landed), usize::from(!repaired));
            let a = rep.tenant("a").unwrap();
            match &a.outcome {
                TenantOutcome::Completed(out) => assert!(out.hpl.passed, "{action:?}"),
                other => panic!("a should survive {action:?}, got {other:?}"),
            }
            assert_eq!(
                !a.history.ops.is_empty(),
                repaired,
                "{action:?}: the repair's sequenced spare-draw is on the audit trail"
            );
            let b = rep.tenant("b").unwrap();
            assert!(matches!(b.outcome, TenantOutcome::Completed(_)));
        }
    }

    /// `seeded` is a pure function of its arguments, and suites pin
    /// storm seeds: the plans for two seeds, as the pre-`FaultAction`
    /// constructors drew them.
    #[test]
    fn seeded_storms_are_pinned() {
        let shards = [vec![0, 1], vec![2, 3], vec![4, 5, 6], vec![7, 8]];
        let kill = |node, nth| FailurePlan::new(ITER_PROBE, nth, node);
        let flip = |node, nth, region, offset, bit| {
            FaultPlan::corrupt(ITER_PROBE, nth, node, region, offset, bit)
        };
        let golden = [
            (
                7,
                [
                    kill(3, 1),
                    kill(4, 1),
                    flip(0, 2, Region::Header, 2795, 4),
                    flip(7, 1, Region::CopyB, 1528, 7),
                ],
            ),
            (
                0xC0FFEE,
                [
                    kill(0, 1),
                    kill(8, 2),
                    flip(3, 1, Region::Header, 1881, 4),
                    flip(6, 2, Region::Header, 1615, 1),
                ],
            ),
        ];
        for (seed, plans) in golden {
            let storm = StormPlan::seeded(seed, &shards, 2, 2);
            assert_eq!(storm.armed, plans, "seed {seed:#x}");
            assert!(storm.timed.is_empty(), "seeded storms are probe-anchored");
        }
    }
}
