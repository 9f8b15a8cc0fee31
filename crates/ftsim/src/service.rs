//! The multi-tenant checkpoint service: many independent SKT-HPL jobs
//! (tenants) supervised by **one** daemon over a common node pool.
//!
//! This is the ReStore direction of the ROADMAP: the paper's protocol
//! guards one application, but nothing in it is per-application — group
//! parity, sequenced recovery ops, and the ranklist-repair cycle compose
//! into a reusable service once three problems are solved, and this
//! module solves them on top of the service's ledger (the crate-private
//! `ledger` module):
//!
//! * **Sharding + admission** ([`crate::admission`]) — each tenant gets
//!   a disjoint node shard (`ServicePool`); demand that can't be met
//!   now queues FIFO, demand that can never be met is rejected typed.
//! * **Spare arbitration** — a tenant's recovery cascade draws spares
//!   through the reservation ledger; a draw that would starve another
//!   tenant's guarantee is refused with a typed collective verdict
//!   ([`Refusal::SpareContention`]) instead of silently consuming it.
//! * **Event-driven supervision** — the paper's single blocking
//!   work-fail-detect-restart cycle (§5.2) becomes a per-tenant state
//!   machine with one failure ladder, advanced from a deterministic
//!   `EventQueue` on the cluster's [`Runtime`](skt_cluster::Runtime)
//!   clock. Jobs time-share the runtime in *slices*
//!   ([`skt_hpl::run_skt_sliced`]): a tenant runs alone for a bounded
//!   number of panels, parks its state in SHM (the self-checkpoint
//!   move), and yields. *Which* tenant runs next is decided by the
//!   configured [`PolicySpec`] — the dispatch loop only keeps the FIFO
//!   ready set and runs the tenant [`PolicySpec::next`] names.
//! * **Elasticity** ([`crate::resize`]) — a tenant can grow or shrink
//!   *between* slices, through the boundary checkpoint.
//!
//! Every tenant mutation of cluster state (spare draws / ranklist
//! repair / resize installs) flows through the sequenced-op layer
//! ([`skt_core::protocol::ops`]), so cross-tenant interleavings of
//! recovery remain idempotent by type: a re-entered repair detects the
//! draw already `Done` and skips it, and a resize replay after a kill
//! inside the install window wipes the partials and re-installs.
//!
//! The single-job daemon ([`crate::daemon::run_with_daemon`]) is this
//! engine with one tenant, whole-job slices, and the entire spare pool
//! as its float; it returns that tenant's [`TenantReport`].

use crate::admission::WaitList;
use crate::ledger::{EventQueue, ServicePool, TenantId};
use crate::policy::PolicySpec;
use crate::report::{
    AttemptRecord, CyclePhase, DaemonHistory, PhaseTimes, Refusal, RetryPolicy, ServiceReport,
    SuspicionOutcome, SuspicionRecord, TenantOutcome, TenantReport,
};
use crate::resize::Elasticity;
use crate::storm::{StormPlan, TimedFault};
use skt_cluster::{Cluster, Fault, NodeId, ProbeVerdict, Ranklist, Stopwatch};
use skt_core::protocol::ops::{self, OpState, SequencedOp};
use skt_core::RecoveryReport;
use skt_hpl::{run_skt_sliced, SktConfig, SktOutput, SktRun};
use skt_mps::run_on_cluster;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Service-wide configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Per-tenant retry policy (detect latency, failure budget, backoff).
    pub policy: RetryPolicy,
    /// Panels per scheduling slice (0 = run each launch to completion).
    pub slice_panels: usize,
    /// Slice scheduling policy, consulted at each dispatch.
    pub schedule: PolicySpec,
}

impl ServiceConfig {
    /// Batched whole-job scheduling.
    pub fn new(policy: RetryPolicy) -> Self {
        ServiceConfig {
            policy,
            slice_panels: 0,
            schedule: PolicySpec::Batched,
        }
    }
}

/// One active (admitted, not yet finished) tenant.
pub(crate) struct Tenant {
    /// Its id, assigned at registration.
    pub(crate) id: TenantId,
    /// Registration name: SHM prefix owner; resize epochs nest under it.
    pub(crate) base: String,
    /// Live config; `cfg.name` carries the current resize epoch's
    /// namespace (`base` for epoch 0, `base@e{k}` after).
    pub(crate) cfg: SktConfig,
    pub(crate) rl: Ranklist,
    /// Pending resizes, the boundary flag and the resize audit.
    pub(crate) elastic: Elasticity,
    launches: usize,
    slices: usize,
    cycles: Vec<PhaseTimes>,
    /// The last pushed cycle still needs its Recover/Checkpoint bars
    /// from the next successful launch.
    pending_attr: bool,
    history: DaemonHistory,
    /// Time spent in the admission queue before activation.
    queued_for: Duration,
}

impl Tenant {
    /// A tenant admitted at `now` after queueing since `queued_at`.
    pub(crate) fn new(
        id: TenantId,
        cfg: SktConfig,
        rl: Ranklist,
        queued_at: Duration,
        now: Duration,
    ) -> Self {
        Tenant {
            id,
            base: cfg.name.clone(),
            cfg,
            rl,
            elastic: Elasticity::new(),
            launches: 0,
            slices: 0,
            cycles: Vec::new(),
            pending_attr: false,
            history: DaemonHistory::default(),
            queued_for: now - queued_at,
        }
    }
}

/// What the event queue delivers; each event carries its own payload.
pub(crate) enum ServiceEvent {
    /// The tenant is runnable again: enter the ready set.
    Ready(TenantId),
    /// Apply a timed storm fault.
    Storm(TimedFault),
    /// Deliver a scheduled resize request to the tenant named `name`.
    Resize { name: String, target: usize },
}

/// The multi-tenant checkpoint service daemon.
pub struct CheckpointService {
    pub(crate) cluster: Arc<Cluster>,
    pub(crate) cfg: ServiceConfig,
    /// The cluster (and the checkpoints on it) belongs to the caller,
    /// who may re-enter them after the run: never wipe a released
    /// shard. Otherwise released nodes are wiped, so a reassigned node
    /// hands no stale state to the next tenant.
    adopted: bool,
    pub(crate) pool: ServicePool,
    pub(crate) tenants: BTreeMap<TenantId, Tenant>,
    pub(crate) admission: WaitList,
    pub(crate) queue: EventQueue<ServiceEvent>,
    /// Runnable tenants, in the order they became ready; the policy
    /// picks from here.
    ready: Vec<TenantId>,
    /// Tenant that ran the most recent slice (policy stickiness).
    last: Option<TenantId>,
    pub(crate) reports: Vec<TenantReport>,
}

impl CheckpointService {
    /// A service over the whole cluster: compute nodes `0..nodes` are the
    /// shardable pool, the cluster's remaining spares are the ledger's
    /// spare supply.
    pub fn new(cluster: Arc<Cluster>, cfg: ServiceConfig) -> Self {
        let cc = cluster.config();
        let compute: Vec<NodeId> = (0..cc.nodes).filter(|&n| cluster.node_usable(n)).collect();
        let pool = ServicePool::new(compute, cluster.spares_left());
        Self::over(cluster, cfg, pool, false)
    }

    pub(crate) fn over(
        cluster: Arc<Cluster>,
        cfg: ServiceConfig,
        pool: ServicePool,
        adopted: bool,
    ) -> Self {
        CheckpointService {
            cluster,
            cfg,
            adopted,
            pool,
            tenants: BTreeMap::new(),
            admission: WaitList::default(),
            queue: EventQueue::new(),
            ready: Vec::new(),
            last: None,
            reports: Vec::new(),
        }
    }

    /// Run every registered tenant to a terminal state under `storm`,
    /// advancing per-tenant cycle state machines from the event queue on
    /// the cluster clock. Each dispatch round drains every due event
    /// into the ready set, then executes the configured policy's
    /// decision; the schedule stays a pure function of `(config, seed)`.
    /// Tenants still waiting for admission when the queue drains are
    /// reported [`Refusal::AdmissionStarved`].
    pub fn run(mut self, storm: &StormPlan) -> ServiceReport {
        let t0 = self.cluster.now();
        self.arm_storm(storm);
        loop {
            // deliver everything already due
            while self
                .queue
                .next_at()
                .is_some_and(|at| at <= self.cluster.now())
            {
                let (_, ev) = self.queue.pop().expect("peeked non-empty");
                self.dispatch(ev);
            }
            if self.ready.is_empty() {
                // idle: advance the clock to the next event, or stop
                let Some((at, ev)) = self.queue.pop() else {
                    break;
                };
                let now = self.cluster.now();
                if at > now {
                    self.cluster.runtime().advance(at - now);
                }
                self.dispatch(ev);
                continue;
            }
            let pick = self.cfg.schedule.next(&self.ready, self.last);
            self.ready.retain(|&t| t != pick);
            self.last = Some(pick);
            self.step_tenant(pick);
        }
        self.refuse_starved();
        self.reports.sort_by_key(|r| r.tenant);
        ServiceReport {
            tenants: self.reports,
            elapsed: self.cluster.now() - t0,
        }
    }

    /// Deliver one event. A `Ready` event is always pushed at the
    /// current clock, so appending it keeps the ready set FIFO.
    fn dispatch(&mut self, ev: ServiceEvent) {
        match ev {
            ServiceEvent::Storm(tf) => self.apply_timed(tf),
            ServiceEvent::Ready(id) => {
                if self.tenants.contains_key(&id) && !self.ready.contains(&id) {
                    self.ready.push(id);
                }
            }
            ServiceEvent::Resize { name, target } => {
                if let Some(t) = self.tenants.values_mut().find(|t| t.base == name) {
                    t.elastic.request(target);
                }
            }
        }
    }

    fn step_tenant(&mut self, id: TenantId) {
        let picked = self.tenants.remove(&id);
        let mut tenant = picked.expect("the ready set holds only active tenants");
        match self.run_slice(&mut tenant) {
            // still alive: re-enter the ready set and let the policy
            // decide who runs next
            Ok(None) => {
                self.queue.push(self.cluster.now(), ServiceEvent::Ready(id));
                self.tenants.insert(id, tenant);
            }
            Ok(Some(out)) => self.finish(tenant, TenantOutcome::Completed(out)),
            Err(refusal) => self.finish(tenant, TenantOutcome::Refused(refusal)),
        }
    }

    /// One turn on the runtime: heal, resize if one is due, launch.
    /// `Ok(Some(_))` is the completed solve, `Ok(None)` a yield, `Err`
    /// the typed verdict that ends the tenant.
    fn run_slice(&mut self, tenant: &mut Tenant) -> Result<Option<SktOutput>, Refusal> {
        // Slice-top health check: nodes may have died while this
        // tenant was off the runtime (a timed storm kill, deaths
        // inherited at registration, or a kill inside a resize
        // window). Arbitrate + repair before anything else.
        self.heal_shard(tenant)?;
        if !self.resize_at_boundary(tenant)? {
            return Ok(None);
        }
        self.launch_slice(tenant)
    }

    /// Replace every unusable (dead *or* fenced) node in the tenant's
    /// ranklist: ledger arbitration first (typed refusal), then the
    /// physical sequenced [`SpareDraw`]. `Ok` leaves the ranklist fully
    /// usable. A fenced node's shard is rebuilt by the relaunch's group
    /// recovery exactly like a dead one — its frozen checkpoints are
    /// quarantined, never read.
    fn heal_shard(&mut self, tenant: &mut Tenant) -> Result<(), Refusal> {
        let dead = node_set(&tenant.rl)
            .into_iter()
            .filter(|&n| !self.cluster.node_usable(n))
            .count();
        if dead == 0 {
            return Ok(());
        }
        self.pool.draw_spares(tenant.id, dead)?;
        // Physical draw through the sequenced op: replays detect a draw
        // already `Done` and skip it; the record is audit evidence.
        match ops::replay(SpareDraw(&self.cluster), &mut tenant.rl) {
            Ok(tok) => tenant.history.ops.push(tok.into_record()),
            // ledger said yes but the pool is physically dry (spares can
            // die too; the ledger learns it here)
            Err(_) => return Err(Refusal::OutOfSpares),
        }
        self.pool.reassign(tenant.id, node_set(&tenant.rl));
        Ok(())
    }

    /// One launch of the tenant's job; a failed launch is classified and
    /// handed to the failure ladder ([`Self::charge_failure`]).
    fn launch_slice(&mut self, tenant: &mut Tenant) -> Result<Option<SktOutput>, Refusal> {
        tenant.launches += 1;
        let known_dead = self.cluster.dead_nodes();
        self.cluster.reset_abort();
        let t_launch = self.cluster.stopwatch();
        let harvest: Mutex<Vec<RecoveryReport>> = Mutex::new(Vec::new());
        let result: Result<Vec<SktRun>, Fault> =
            run_on_cluster(Arc::clone(&self.cluster), &tenant.rl, |ctx| {
                run_skt_sliced(ctx, &tenant.cfg, |r| {
                    harvest.lock().unwrap().push(r.clone())
                })
            });
        if let Some(best) = harvest
            .into_inner()
            .unwrap()
            .into_iter()
            .max_by_key(|r| r.rebuilt_bytes)
        {
            tenant.history.recoveries.push(best);
        }
        match result {
            Ok(mut outs) => {
                tenant.slices += 1;
                tenant.elastic.parked(true);
                let run = outs.swap_remove(0);
                let (recover_s, ckpt_s, checkpoints) = match &run {
                    SktRun::Done(out) => (
                        out.recover_seconds,
                        out.hpl.ckpt_seconds,
                        out.hpl.checkpoints,
                    ),
                    SktRun::Paused(p) => (p.recover_seconds, p.ckpt_seconds, p.checkpoints),
                };
                // the first launch to succeed after a failure owns that
                // cycle's Recover and Checkpoint bars
                if let (true, Some(cycle)) = (tenant.pending_attr, tenant.cycles.last_mut()) {
                    cycle.set(CyclePhase::Recover, Duration::from_secs_f64(recover_s));
                    if checkpoints > 0 {
                        let per_ckpt = Duration::from_secs_f64(ckpt_s / checkpoints as f64);
                        cycle.set(CyclePhase::Checkpoint, per_ckpt);
                    }
                }
                tenant.pending_attr = false;
                Ok(match run {
                    SktRun::Done(out) => Some(out),
                    SktRun::Paused(_) => None,
                })
            }
            Err(fault) => {
                tenant.elastic.parked(false);
                let newly_dead = self.newly_dead(&known_dead);
                let repair = match fault {
                    _ if !newly_dead.is_empty() => Repair::Replace {
                        launched: &t_launch,
                    },
                    Fault::Suspect { node, score } => Repair::Adjudicate {
                        node,
                        score,
                        restart: t_launch.elapsed(),
                    },
                    _ => Repair::Futile,
                };
                self.charge_failure(tenant, fault, newly_dead, repair)?;
                Ok(None)
            }
        }
    }

    /// Nodes that died since `known_dead` was sampled.
    pub(crate) fn newly_dead(&self, known_dead: &[NodeId]) -> Vec<NodeId> {
        let mut dead = self.cluster.dead_nodes();
        dead.retain(|n| !known_dead.contains(n));
        dead
    }

    /// The failure ladder — the one place a failed attempt is charged,
    /// whichever way it failed (a crash under a launch, a suspicion
    /// verdict, a fault inside a resize window): record the attempt,
    /// test the failure budget, charge the modeled *detect* latency to
    /// the clock, run the [`Repair`] step, charge the doubling *backoff*.
    /// `Ok` means the tenant goes on (relaunch, or replay the resize);
    /// `Err` is the typed verdict that ends it. Either way the attempt
    /// is on the tenant's history, with a zero backoff when the service
    /// gave up. A suspicion spends a budget unit like any failure: a
    /// flapping straggler cannot livelock the service on free
    /// exonerations.
    pub(crate) fn charge_failure(
        &mut self,
        tenant: &mut Tenant,
        fault: Fault,
        newly_dead: Vec<NodeId>,
        repair: Repair<'_>,
    ) -> Result<(), Refusal> {
        let mut record = AttemptRecord {
            attempt: tenant.launches,
            fault,
            newly_dead,
            backoff: Duration::ZERO,
        };
        let failure_no = tenant.history.attempts.len() + 1;
        let verdict = if matches!(repair, Repair::Futile) {
            Err(Refusal::Unrecoverable)
        } else if failure_no > self.cfg.policy.max_failures {
            Err(Refusal::TooManyFailures)
        } else {
            // detect: modeled job-manager latency on the virtual clock —
            // which also gives a transient gray fault time to heal
            // before the probe decides anything irreversible
            self.cluster.runtime().advance(self.cfg.policy.detect);
            self.repair(tenant, repair)
        };
        if verdict.is_ok() {
            record.backoff = self.cfg.policy.backoff(failure_no);
            self.cluster.runtime().advance(record.backoff);
        }
        tenant.history.attempts.push(record);
        verdict
    }

    /// The ladder's repair step, timed as the Figure 10 cycle of the
    /// failed launch (none for a resize-window fault: nothing relaunches).
    fn repair(&mut self, tenant: &mut Tenant, repair: Repair<'_>) -> Result<(), Refusal> {
        self.cluster.reset_abort();
        let t_rep = self.cluster.stopwatch();
        let restart = match repair {
            // nothing left to repair, no relaunch to time
            Repair::Purged | Repair::Futile => return Ok(()),
            // replace: arbitration + sequenced physical draw
            Repair::Replace { launched } => {
                self.heal_shard(tenant)?;
                launched.elapsed()
            }
            Repair::Adjudicate {
                node,
                score,
                restart,
            } => {
                let (probe, outcome) = match self.cluster.probe_node(node) {
                    // the gray fault healed: relaunch on the same
                    // ranklist, bit-exact with a fault-free run
                    ProbeVerdict::Responsive => ("responsive", SuspicionOutcome::Exonerated),
                    // fence (zombie messages and SHM writes are rejected
                    // from here on) and migrate: the sequenced spare draw
                    // moves the suspect's ranks, the relaunch's group
                    // recovery rebuilds the shard from parity
                    degraded => {
                        let generation = self.cluster.fence_node(node);
                        self.heal_shard(tenant)?;
                        let probe = match degraded {
                            ProbeVerdict::Degraded(label) => label,
                            _ => "unresponsive",
                        };
                        (probe, SuspicionOutcome::Migrated { generation })
                    }
                };
                tenant.history.suspicions.push(SuspicionRecord {
                    node,
                    score,
                    probe,
                    outcome,
                });
                restart
            }
        };
        let mut phase = PhaseTimes::default();
        phase.set(CyclePhase::Detect, self.cfg.policy.detect);
        phase.set(CyclePhase::Replace, t_rep.elapsed());
        phase.set(CyclePhase::Restart, restart.min(Duration::from_secs(1)));
        tenant.cycles.push(phase);
        tenant.pending_attr = true;
        Ok(())
    }

    /// Terminal bookkeeping: isolation audit, shard release (queue
    /// drain), report. The tenant's namespace is the *base* prefix plus
    /// every resize epoch under `{base}@`, so a resized tenant's
    /// old-epoch leftovers are audited exactly like live ones.
    fn finish(&mut self, tenant: Tenant, outcome: TenantOutcome) {
        let now = self.cluster.now();
        let id = tenant.id;
        let prefix_slash = format!("{}/", tenant.base);
        let prefix_epoch = format!("{}@", tenant.base);
        let shard = self.pool.nodes_of(id).to_vec();
        let mut foreign: Vec<String> = shard
            .iter()
            .flat_map(|&n| self.cluster.shm(n).names())
            .filter(|name| !name.starts_with(&prefix_slash) && !name.starts_with(&prefix_epoch))
            .collect();
        foreign.sort_unstable();
        // off-shard state on a *fenced* node is quarantine, not a leak:
        // the zombie's frozen leftovers after a migration away from it
        let (fenced_stale, leaked): (Vec<NodeId>, Vec<NodeId>) = (0..self.cluster.total_nodes())
            .filter(|n| !shard.contains(n))
            .filter(|&n| {
                let shm = self.cluster.shm(n);
                shm.bytes_with_prefix(&prefix_slash) + shm.bytes_with_prefix(&prefix_epoch) > 0
            })
            .partition(|&n| self.cluster.node_fenced(n));
        let release = self.pool.release(id, |n| self.cluster.node_usable(n));
        let resizes = tenant.elastic.into_audits();
        // wiped on the tenant's behalf: what its resizes vacated, then
        // (unless the cluster is the caller's) the released shard
        let mut wiped: Vec<NodeId> = resizes.iter().flat_map(|r| &r.wiped).copied().collect();
        if !self.adopted {
            for &n in &release.freed {
                self.cluster.shm(n).wipe(self.cluster.pool());
            }
            wiped.extend(release.freed.iter().copied());
        }
        self.admit_drained(release.drained);
        wiped.sort_unstable();
        wiped.dedup();
        self.reports.push(TenantReport {
            launches: tenant.launches,
            slices: tenant.slices,
            failures: tenant.history.attempts.len(),
            cycles: tenant.cycles,
            history: tenant.history,
            resizes,
            wiped,
            foreign_on_shard: foreign,
            leaked_elsewhere: leaked,
            fenced_stale,
            ..TenantReport::new(id, tenant.base, outcome, tenant.queued_for, now)
        });
    }
}

/// The repair step of one failed attempt — what the failure ladder
/// ([`CheckpointService::charge_failure`]) runs between the *detect*
/// charge and the *backoff* charge. The two launch entries also record
/// a Figure 10 cycle, and differ in when its `Restart` bar is read (see
/// [`CyclePhase::Restart`]).
pub(crate) enum Repair<'a> {
    /// Nodes died under the launch: replace them from the spare ledger.
    /// `Restart` is the launch's stopwatch read *after* the repair.
    Replace { launched: &'a Stopwatch },
    /// The launch ended in [`Fault::Suspect`] with nobody dead — the
    /// gray-failure ladder: probe the suspect, then exonerate it or
    /// fence it and migrate its ranks. `restart` is the launch's
    /// stopwatch as read when it failed.
    Adjudicate {
        node: NodeId,
        score: u32,
        restart: Duration,
    },
    /// A fault inside a resize window: the caller already purged the
    /// free pool, and nothing is relaunched — no cycle.
    Purged,
    /// Nobody died and nobody is suspected — a protocol verdict (e.g. a
    /// checkpoint group damaged beyond the codec's repair) that no
    /// replacement can fix: [`Refusal::Unrecoverable`], whatever the
    /// failure budget says.
    Futile,
}

/// The physical spare draw of [`CheckpointService::heal_shard`]: replace
/// every unusable (dead or fenced) node in a tenant's ranklist with a
/// spare from the cluster's pool. Detect is usability-structural — a
/// ranklist whose every node is usable proves the previous draw
/// completed (or none was needed), so a daemon re-entering after a crash
/// mid-bookkeeping (including mid-*migration* away from a fenced
/// suspect) skips instead of double-drawing spares.
struct SpareDraw<'a>(&'a Cluster);

impl SequencedOp<Ranklist> for SpareDraw<'_> {
    fn name(&self) -> String {
        "daemon:spare-draw".into()
    }

    fn detect(&self, rl: &Ranklist) -> Result<OpState, Fault> {
        let all_usable = (0..rl.len()).all(|r| self.0.node_usable(rl.node_of(r)));
        Ok(if all_usable {
            OpState::Done
        } else {
            OpState::NotStarted
        })
    }

    fn apply(&self, rl: &mut Ranklist) -> Result<(), Fault> {
        rl.repair(self.0)
            .map(|_| ())
            .map_err(|_| Fault::Protocol("daemon: spare-node pool exhausted during replacement"))
    }
}

/// The distinct nodes a ranklist places ranks on, ascending.
pub(crate) fn node_set(rl: &Ranklist) -> Vec<NodeId> {
    let nodes: BTreeSet<NodeId> = (0..rl.len()).map(|r| rl.node_of(r)).collect();
    nodes.into_iter().collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use skt_cluster::{ClusterConfig, FailurePlan, FaultPlan, GrayKind};
    use skt_encoding::CodecSpec;
    use skt_hpl::{HplConfig, ITER_PROBE, RESIZE_PROBE};

    // ---- fixtures, shared with the admission / resize / storm tests ----

    pub(crate) fn tenant_cfg(name: &str, n: usize) -> SktConfig {
        let mut cfg = SktConfig::new(HplConfig::new(n, 4, 11), 2, 2);
        cfg.name = name.to_string();
        cfg
    }

    pub(crate) fn service(
        nodes: usize,
        spares: usize,
        slice_panels: usize,
        schedule: PolicySpec,
    ) -> CheckpointService {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(nodes, spares)));
        let mut cfg = ServiceConfig::new(RetryPolicy::new(3, Duration::from_secs(5)));
        cfg.slice_panels = slice_panels;
        cfg.schedule = schedule;
        CheckpointService::new(cluster, cfg)
    }

    /// A 6-rank Rs{2} tenant sized so resizes stay legal down to 4
    /// ranks (group min = m + 1 = 3).
    pub(crate) fn elastic_cfg(name: &str) -> SktConfig {
        let mut cfg = tenant_cfg(name, 48); // 12 panels at nb=4
        cfg.codec = CodecSpec::Rs { m: 2 };
        cfg.group_size = 6;
        cfg
    }

    pub(crate) fn residual_bits(rep: &ServiceReport, name: &str) -> u64 {
        match &rep.tenant(name).unwrap().outcome {
            TenantOutcome::Completed(out) => {
                assert!(out.hpl.passed, "{name}: residual check failed");
                out.hpl.residual.to_bits()
            }
            other => panic!("{name}: expected completion, got {other:?}"),
        }
    }

    // ---- dispatch, isolation, spare arbitration ----

    #[test]
    fn two_tenants_complete_batched() {
        let mut svc = service(4, 0, 0, PolicySpec::Batched);
        svc.register(tenant_cfg("a", 32), 2, 0).unwrap();
        svc.register(tenant_cfg("b", 32), 2, 0).unwrap();
        let rep = svc.run(&StormPlan::none());
        assert_eq!(rep.tenants.len(), 2);
        for t in &rep.tenants {
            match &t.outcome {
                TenantOutcome::Completed(out) => assert!(out.hpl.passed),
                other => panic!("{}: expected completion, got {other:?}", t.name),
            }
            assert_eq!(t.launches, 1);
            assert_eq!(t.failures, 0);
            assert!(t.foreign_on_shard.is_empty(), "{:?}", t.foreign_on_shard);
            assert!(t.leaked_elsewhere.is_empty(), "{:?}", t.leaked_elsewhere);
        }
    }

    #[test]
    fn round_robin_slices_interleave_tenants() {
        let mut svc = service(4, 0, 3, PolicySpec::RoundRobin);
        svc.register(tenant_cfg("a", 32), 2, 0).unwrap(); // 8 panels → 3 slices
        svc.register(tenant_cfg("b", 32), 2, 0).unwrap();
        let rep = svc.run(&StormPlan::none());
        for t in &rep.tenants {
            assert!(matches!(t.outcome, TenantOutcome::Completed(_)));
            assert_eq!(t.slices, 3, "{}: 8 panels in 3-panel slices", t.name);
            assert_eq!(t.launches, 3);
        }
        // round-robin interleaves: neither tenant finishes before the
        // other has started, so completion times differ by < one job
        let a = rep.tenant("a").unwrap().finished_at;
        let b = rep.tenant("b").unwrap().finished_at;
        assert!(b > a, "registration order round-robin: a finishes first");
    }

    #[test]
    fn tenant_survives_armed_kill_and_neighbor_is_untouched() {
        let mut svc = service(4, 1, 0, PolicySpec::Batched);
        svc.register(tenant_cfg("victim", 48), 2, 1).unwrap();
        svc.register(tenant_cfg("bystander", 48), 2, 0).unwrap();
        // victim's shard is nodes {0,1}; kill node 1 after its 5th panel
        let storm = StormPlan::none().kill(1, 5);
        let rep = svc.run(&storm);
        let v = rep.tenant("victim").unwrap();
        match &v.outcome {
            TenantOutcome::Completed(out) => {
                assert!(out.hpl.passed);
                assert_eq!(out.resumed_from_panel, 4);
            }
            other => panic!("victim should heal, got {other:?}"),
        }
        assert_eq!(v.failures, 1);
        assert_eq!(v.history.attempts[0].newly_dead, vec![1]);
        let b = rep.tenant("bystander").unwrap();
        assert!(matches!(b.outcome, TenantOutcome::Completed(_)));
        assert_eq!(b.failures, 0, "the neighbor's fault is not ours");
        assert!(b.foreign_on_shard.is_empty());
    }

    #[test]
    fn cascade_into_anothers_guarantee_is_refused_typed() {
        // one spare, reserved for "insured"; "gambler" has no guarantee.
        // gambler's node loss must be refused with the arbitration
        // verdict — not silently eat the insured tenant's spare.
        let mut svc = service(4, 1, 0, PolicySpec::Batched);
        svc.register(tenant_cfg("gambler", 48), 2, 0).unwrap();
        svc.register(tenant_cfg("insured", 48), 2, 1).unwrap();
        let storm = StormPlan::none().kill(0, 5);
        let rep = svc.run(&storm);
        let g = rep.tenant("gambler").unwrap();
        match &g.outcome {
            TenantOutcome::Refused(Refusal::SpareContention {
                requested,
                reserved_elsewhere,
                ..
            }) => {
                assert_eq!(*requested, 1);
                assert_eq!(*reserved_elsewhere, 1);
            }
            other => panic!("expected SpareContention, got {other:?}"),
        }
        let i = rep.tenant("insured").unwrap();
        assert!(
            matches!(i.outcome, TenantOutcome::Completed(_)),
            "the protected tenant completes untouched"
        );
    }

    #[test]
    fn straggling_tenant_node_is_fenced_migrated_and_isolated() {
        let mut svc = service(4, 1, 0, PolicySpec::Batched);
        svc.register(tenant_cfg("gray", 48), 2, 1).unwrap();
        svc.register(tenant_cfg("bystander", 48), 2, 0).unwrap();
        // gray's shard is nodes {0,1}; node 1 straggles 64x from its 3rd
        // panel and never heals: probe says "slow", fence + migrate
        let storm = StormPlan::none().arm(FaultPlan::gray(
            ITER_PROBE,
            3,
            1,
            GrayKind::Slow { factor: 64 },
        ));
        let rep = svc.run(&storm);
        let g = rep.tenant("gray").unwrap();
        match &g.outcome {
            TenantOutcome::Completed(out) => assert!(out.hpl.passed),
            other => panic!("gray tenant should migrate and complete, got {other:?}"),
        }
        assert_eq!(g.failures, 1, "the suspicion spent one budget unit");
        assert_eq!(g.history.suspicions.len(), 1);
        let s = &g.history.suspicions[0];
        assert_eq!((s.node, s.probe), (1, "slow"));
        assert!(matches!(s.outcome, SuspicionOutcome::Migrated { .. }));
        assert!(
            g.leaked_elsewhere.is_empty(),
            "quarantined zombie state is not a leak: {:?}",
            g.leaked_elsewhere
        );
        assert_eq!(
            g.fenced_stale,
            vec![1],
            "the zombie's frozen checkpoints stay quarantined on it"
        );
        let b = rep.tenant("bystander").unwrap();
        assert!(matches!(b.outcome, TenantOutcome::Completed(_)));
        assert_eq!(b.failures, 0, "the neighbor's gray fault is not ours");
        assert!(b.foreign_on_shard.is_empty());
    }

    /// A daemon re-entering its spare draw after the draw committed
    /// detects it `Done` and takes no second spare.
    #[test]
    fn spare_draw_replayed_after_it_committed_is_skipped() {
        let cluster = Cluster::new(ClusterConfig::new(2, 2));
        let mut rl = Ranklist::round_robin(2, 2);
        cluster.kill_node(1);
        let drawn = ops::replay(SpareDraw(&cluster), &mut rl).unwrap();
        assert_eq!(
            drawn.record().to_string(),
            "daemon:spare-draw not-started:replayed"
        );
        assert_eq!((node_set(&rl), cluster.spares_left()), (vec![0, 3], 1));
        let again = ops::replay(SpareDraw(&cluster), &mut rl).unwrap();
        assert_eq!(again.record().to_string(), "daemon:spare-draw done:skipped");
        assert_eq!((node_set(&rl), cluster.spares_left()), (vec![0, 3], 1));
    }

    // ---- the failure ladder's three entries ----

    /// Every way a failed attempt is charged — a crash under a launch,
    /// a suspicion verdict, a kill inside a resize window — runs out of
    /// budget the same way: `max_failures` charged attempts heal, the
    /// next one is refused `TooManyFailures` with no backoff, and the
    /// shard is released clean.
    #[test]
    fn every_ladder_entry_exhausts_the_failure_budget_typed() {
        // (entry, nodes, ranks, its faults in firing order): a budget of
        // `b` arms the first `b + 1`. Probe counts are per launch and a
        // slice is 3 panels, so every `nth` is <= 3.
        let kill = |probe, node, nth| FailurePlan::new(probe, nth, node);
        let hang = |node, nth| FaultPlan::gray(ITER_PROBE, nth, node, GrayKind::Hang);
        let table: [(&str, usize, usize, [FaultPlan; 2]); 3] = [
            (
                "crash",
                2,
                2,
                [kill(ITER_PROBE, 0, 2), kill(ITER_PROBE, 1, 3)],
            ),
            ("suspicion", 2, 2, [hang(0, 2), hang(1, 3)]),
            // the grow back to 6 stages nodes {4,5}; once 4 is dead the
            // replay stages {5,6}
            (
                "resize-window",
                9,
                6,
                [kill(RESIZE_PROBE, 4, 1), kill(RESIZE_PROBE, 6, 1)],
            ),
        ];
        for (entry, nodes, ranks, faults) in table {
            for max_failures in [0usize, 1] {
                let tag = format!("{entry}/max_failures={max_failures}");
                let cluster = Arc::new(Cluster::new_with_runtime(
                    ClusterConfig::new(nodes, 2),
                    skt_cluster::SimRuntime::new(5),
                ));
                let policy = RetryPolicy::new(max_failures, Duration::from_secs(5));
                let mut cfg = ServiceConfig::new(policy);
                cfg.slice_panels = 3;
                cfg.schedule = PolicySpec::RoundRobin;
                let mut svc = CheckpointService::new(cluster, cfg);
                if entry == "resize-window" {
                    svc.register(elastic_cfg("job"), ranks, 0).unwrap();
                    svc.schedule_resize("job", Duration::from_micros(1), 4);
                    svc.schedule_resize("job", Duration::from_micros(2), 6);
                } else {
                    svc.register(tenant_cfg("job", 48), ranks, 0).unwrap();
                }
                let storm = StormPlan {
                    armed: faults[..=max_failures].to_vec(),
                    timed: Vec::new(),
                };
                let rep = svc.run(&storm);
                let t = rep.tenant("job").unwrap();
                assert!(
                    matches!(t.outcome, TenantOutcome::Refused(Refusal::TooManyFailures)),
                    "{tag}: {:?}",
                    t.outcome
                );
                let attempts = &t.history.attempts;
                assert_eq!(attempts.len(), max_failures + 1, "{tag}");
                assert_eq!(t.failures, attempts.len(), "{tag}");
                let (last, healed) = attempts.split_last().unwrap();
                assert_eq!(last.backoff, Duration::ZERO, "{tag}: no retry, no backoff");
                assert!(
                    healed.iter().all(|a| a.backoff > Duration::ZERO),
                    "{tag}: a charged attempt that retried backed off"
                );
                assert!(!t.wiped.is_empty(), "{tag}: released shard wiped");
                assert!(t.foreign_on_shard.is_empty(), "{tag}");
                assert!(t.leaked_elsewhere.is_empty(), "{tag}");
            }
        }
    }
}
