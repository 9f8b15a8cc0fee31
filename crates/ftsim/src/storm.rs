//! Storms: what goes wrong during a service run, and when.
//!
//! A [`StormPlan`] is probe-anchored fault plans armed on the cluster's
//! injector before the first launch, plus [`TimedFault`]s the service
//! queues as events on the virtual clock and applies between slices.

use crate::service::{CheckpointService, ServiceEvent};
use skt_cluster::{CorruptPlan, FailurePlan, FaultPlan, GrayPlan, NodeId, SplitMix64};
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
    /// What happens.
    pub kind: TimedKind,
}

/// Payload of a [`TimedFault`].
#[derive(Clone, Debug)]
pub enum TimedKind {
    /// Power the node off (wipes its SHM; aborts a running job).
    Kill(NodeId),
    /// Flip a bit in a checkpoint region right now.
    Corrupt(CorruptPlan),
}

/// A storm: probe-anchored fault plans armed before the first launch,
/// plus clock-scheduled faults dispatched from the event queue.
#[derive(Clone, Debug, Default)]
pub struct StormPlan {
    /// Plans armed on the cluster's injector (fire at probe counts).
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
        self.kill_at_probe(ITER_PROBE, node, nth)
    }

    /// Arm a kill of `node` at its `nth` pass of `probe` — e.g.
    /// [`skt_hpl::RESIZE_PROBE`] to land a kill *inside* a resize
    /// window and exercise the sequenced install's replay.
    pub fn kill_at_probe(mut self, probe: &'static str, node: NodeId, nth: u64) -> Self {
        self.armed
            .push(FaultPlan::Kill(FailurePlan::new(probe, nth, node)));
        self
    }

    /// Arm a silent bit flip on `node` at its `nth` panel probe.
    pub fn flip(mut self, plan: CorruptPlan) -> Self {
        self.armed.push(FaultPlan::Corrupt(plan));
        self
    }

    /// Arm a gray fault (straggler / hang / degraded link). Arming one
    /// switches on the cluster's heartbeat suspicion layer, so the
    /// victim is *declared* by its peers, probed by the daemon, and
    /// either exonerated or fenced-and-migrated — never waited on
    /// forever.
    pub fn gray(mut self, plan: GrayPlan) -> Self {
        self.armed.push(FaultPlan::Gray(plan));
        self
    }

    /// Schedule a node power-off at virtual time `at`.
    pub fn kill_at(mut self, at: Duration, node: NodeId) -> Self {
        self.timed.push(TimedFault {
            at,
            kind: TimedKind::Kill(node),
        });
        self
    }

    /// Seeded storm over tenant shards: the first `kills` shards of a
    /// seeded shuffle each lose one node at a small panel probe, and
    /// `flips` further shards each take one silent bit flip in a
    /// checkpoint region. All faults are probe-anchored, so for a fixed
    /// storm seed the *outcomes* are invariant across simulation
    /// scheduler seeds.
    pub fn seeded(seed: u64, shards: &[Vec<NodeId>], kills: usize, flips: usize) -> Self {
        use skt_cluster::Region;
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
            storm = storm.flip(CorruptPlan::new(ITER_PROBE, nth, node, region, offset, bit));
        }
        storm
    }
}

impl CheckpointService {
    /// Arm the storm's probe-anchored plans and queue its timed faults.
    pub(crate) fn arm_storm(&mut self, storm: &StormPlan) {
        for plan in &storm.armed {
            self.cluster.arm_fault(plan.clone());
        }
        for tf in &storm.timed {
            self.queue.push(tf.at, ServiceEvent::Storm(tf.clone()));
        }
    }

    /// Apply a timed fault whose instant has come.
    pub(crate) fn apply_timed(&mut self, tf: TimedFault) {
        match tf.kind {
            TimedKind::Kill(node) => {
                self.cluster.kill_node(node);
                // a dead job is relaunched by its owner's next slice; a
                // dead *free* node must never be handed to a tenant
                self.cluster.reset_abort();
                self.pool.purge_free(|n| self.cluster.node_usable(n));
            }
            TimedKind::Corrupt(plan) => {
                self.cluster.corrupt_now(&plan);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::{service, tenant_cfg};
    use crate::{PolicySpec, TenantOutcome};

    #[test]
    fn timed_kill_between_slices_is_healed_at_slice_top() {
        let mut svc = service(4, 1, 3, PolicySpec::RoundRobin);
        svc.register(tenant_cfg("a", 48), 2, 1).unwrap();
        svc.register(tenant_cfg("b", 48), 2, 0).unwrap();
        // kill one of a's nodes 1 ms in: lands between slices, so a's
        // next slice-top health check repairs it with no failure cycle
        let storm = StormPlan::none().kill_at(Duration::from_millis(1), 0);
        let rep = svc.run(&storm);
        let a = rep.tenant("a").unwrap();
        match &a.outcome {
            TenantOutcome::Completed(out) => assert!(out.hpl.passed),
            other => panic!("a should heal, got {other:?}"),
        }
        assert!(
            !a.history.ops.is_empty(),
            "the repair's sequenced spare-draw is on the audit trail"
        );
        let b = rep.tenant("b").unwrap();
        assert!(matches!(b.outcome, TenantOutcome::Completed(_)));
    }
}
