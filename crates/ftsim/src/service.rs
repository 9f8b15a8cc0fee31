//! The multi-tenant checkpoint service: many independent SKT-HPL jobs
//! (tenants) supervised by **one** daemon over a common node pool.
//!
//! This is the ReStore direction of the ROADMAP: the paper's protocol
//! guards one application, but nothing in it is per-application — group
//! parity, sequenced recovery ops, and the ranklist-repair cycle compose
//! into a reusable service once three problems are solved, and this
//! module solves them on top of the [`skt_cluster::service`] substrate:
//!
//! * **Sharding + admission** — each tenant gets a disjoint node shard
//!   ([`ServicePool`]); demand that can't be met now queues FIFO, demand
//!   that can never be met is rejected typed.
//! * **Spare arbitration** — a tenant's recovery cascade draws spares
//!   through the reservation ledger; a draw that would starve another
//!   tenant's guarantee is refused with a typed collective verdict
//!   ([`Refusal::SpareContention`]) instead of silently consuming it.
//! * **Event-driven supervision** — the paper's single blocking
//!   work-fail-detect-restart cycle (§5.2) becomes a per-tenant state
//!   machine with one failure ladder, advanced from a deterministic
//!   [`EventQueue`] on the cluster's [`Runtime`](skt_cluster::Runtime)
//!   clock. Jobs time-share the runtime in *slices*
//!   ([`skt_hpl::run_skt_sliced`]): a tenant runs alone for a bounded
//!   number of panels, parks its state in SHM (the self-checkpoint
//!   move), and yields. *Which* tenant runs next is decided by the
//!   configured [`PolicySpec`] — the dispatch loop only maintains the
//!   ready set and runs the tenant [`PolicySpec::next`] names.
//! * **Elasticity** — a tenant can grow, shrink, or be relocated
//!   *between* slices, through the boundary checkpoint
//!   ([`crate::resize`]): the service harvests the parked matrix from
//!   the old layout, installs it under the new block-cyclic layout via
//!   a sequenced [`ResizeOp`](crate::resize), and only then moves the
//!   node accounting. With [`ServiceConfig::defrag`] on, the same
//!   machinery compacts the free pool by relocating the smallest shard
//!   toward low node ids between slices.
//!
//! Every tenant mutation of cluster state (spare draws / ranklist
//! repair / resize installs) flows through the sequenced-op layer
//! ([`skt_core::protocol::ops`]), so cross-tenant interleavings of
//! recovery remain idempotent by type: a re-entered repair detects the
//! draw already `Done` and skips it, and a resize replay after a kill
//! inside the install window wipes the partials and re-installs.
//!
//! The single-job daemon ([`crate::daemon::run_with_policy`]) is now a
//! thin wrapper over this engine: one tenant, whole-job slices, and the
//! entire spare pool as its float.

use crate::policy::{PolicySpec, SchedState, TenantProfile, TenantSched};
use crate::report::{
    AttemptRecord, CyclePhase, DaemonHistory, PhaseTimes, RetryPolicy, SuspicionOutcome,
    SuspicionRecord,
};
// the report types lived here before `report.rs`; their old paths stay
pub use crate::report::{Refusal, ServiceReport, TenantOutcome, TenantReport};
use crate::resize::{
    epoch_name, harvest, remove_prefix, Harvest, PendingResize, ResizeAudit, ResizeCtx,
    ResizeError, ResizeOp,
};
use skt_cluster::{
    Admission, AdmitError, ArbitrationError, Cluster, CorruptPlan, EventQueue, FailurePlan, Fault,
    FaultPlan, GrayPlan, NodeId, ProbeVerdict, Ranklist, ReshapeError, ServicePool, SplitMix64,
    Stopwatch, TenantId, TenantSpec,
};
use skt_core::protocol::ops::{self, SpareDraw};
use skt_core::{resize_group_size, MemoryBreakdown, RecoveryReport};
use skt_hpl::{run_skt_sliced, BlockCyclic1D, SktConfig, SktOutput, SktRun, ITER_PROBE};
use skt_mps::run_on_cluster;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Service-wide configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Per-tenant retry policy (detect latency, failure budget, backoff).
    pub policy: RetryPolicy,
    /// Panels per scheduling slice (0 = run each launch to completion).
    pub slice_panels: usize,
    /// Modeled memory capacity of one node, for admission control
    /// (`u64::MAX` = don't model memory).
    pub node_mem_bytes: u64,
    /// Slice scheduling policy, consulted at each dispatch.
    pub schedule: PolicySpec,
    /// Between slices, compact the free pool: relocate the smallest
    /// shard with a better (lower-id) placement through the resize
    /// machinery, so freed mid-pool nodes migrate to the high end where
    /// grows and admissions draw contiguously.
    pub defrag: bool,
}

impl ServiceConfig {
    /// Batched whole-job scheduling with unmodeled memory.
    pub fn new(policy: RetryPolicy) -> Self {
        ServiceConfig {
            policy,
            slice_panels: 0,
            node_mem_bytes: u64::MAX,
            schedule: PolicySpec::Batched,
            defrag: false,
        }
    }
}

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
    pub fn kill(mut self, node: NodeId, nth: u64) -> Self {
        self.armed
            .push(FaultPlan::Kill(FailurePlan::new(ITER_PROBE, nth, node)));
        self
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

struct Tenant {
    id: TenantId,
    /// Registration name: SHM prefix owner; resize epochs nest under it.
    base: String,
    /// Live config; `cfg.name` carries the current resize epoch's
    /// namespace (`base` for epoch 0, `base@e{k}` after).
    cfg: SktConfig,
    rl: Ranklist,
    profile: TenantProfile,
    launches: usize,
    slices: usize,
    cycles: Vec<PhaseTimes>,
    /// The last pushed cycle still needs its Recover/Checkpoint bars
    /// from the next successful launch.
    pending_attr: bool,
    history: DaemonHistory,
    queued_at: Duration,
    admitted_at: Duration,
    /// Resize requests not yet resolved, attempted FIFO at clean
    /// boundaries.
    pending_resize: VecDeque<PendingResize>,
    /// True when the tenant's parked state is a committed boundary
    /// checkpoint (initially, and after every clean park); false after
    /// a launch died mid-slice. Resizes only move boundary images.
    clean_boundary: bool,
    resize_epoch: u32,
    resizes: Vec<ResizeAudit>,
    wiped: Vec<NodeId>,
    /// Virtual time this tenant (re-)entered the ready set.
    enqueued_at: Duration,
    ready_seq: u64,
}

enum ServiceEvent {
    /// The tenant is runnable again: enter the ready set.
    Ready(TenantId),
    /// Apply the i-th timed storm fault.
    Storm(usize),
    /// Deliver the i-th scheduled resize request to its tenant.
    Resize(usize),
}

/// Outcome of one resize attempt at a clean boundary.
enum ResizeAttempt {
    /// Done (committed, cold, or a no-op): drop the request.
    Committed,
    /// Typed refusal recorded in the audit: drop the request, run on.
    Refused,
    /// Can't act at this boundary (image incomplete / boundary dirty):
    /// keep the request, run a slice, try again at the next boundary.
    Retry,
    /// A fault landed inside the resize window: budget charged, request
    /// kept — the next attempt replays the sequenced install.
    Faulted,
}

/// The multi-tenant checkpoint service daemon.
pub struct CheckpointService {
    cluster: Arc<Cluster>,
    cfg: ServiceConfig,
    /// The cluster (and the checkpoints on it) belongs to the caller,
    /// who may re-enter them after the run: never wipe a released
    /// shard. Otherwise released nodes are wiped, so a reassigned node
    /// hands no stale state to the next tenant.
    adopted: bool,
    pool: ServicePool,
    tenants: BTreeMap<TenantId, Tenant>,
    waiting: BTreeMap<TenantId, (SktConfig, Duration, TenantProfile)>,
    queue: EventQueue<ServiceEvent>,
    /// Runnable tenants, in ready order; the policy picks from here.
    ready: Vec<TenantId>,
    ready_seq: u64,
    /// Tenant that ran the most recent slice (policy stickiness).
    last: Option<TenantId>,
    /// Scheduled resize requests, referenced by `ServiceEvent::Resize`.
    resize_reqs: Vec<(String, usize)>,
    reports: Vec<TenantReport>,
}

impl CheckpointService {
    /// A service over the whole cluster: compute nodes `0..nodes` are the
    /// shardable pool, the cluster's remaining spares are the ledger's
    /// spare supply.
    pub fn new(cluster: Arc<Cluster>, cfg: ServiceConfig) -> Self {
        let cc = cluster.config();
        let compute: Vec<NodeId> = (0..cc.nodes).filter(|&n| cluster.node_usable(n)).collect();
        let pool = ServicePool::new(compute, cluster.spares_left(), cfg.node_mem_bytes);
        Self::over(cluster, cfg, pool, false)
    }

    fn over(cluster: Arc<Cluster>, cfg: ServiceConfig, pool: ServicePool, adopted: bool) -> Self {
        CheckpointService {
            cluster,
            cfg,
            adopted,
            pool,
            tenants: BTreeMap::new(),
            waiting: BTreeMap::new(),
            queue: EventQueue::new(),
            ready: Vec::new(),
            ready_seq: 0,
            last: None,
            resize_reqs: Vec::new(),
            reports: Vec::new(),
        }
    }

    /// Service for one pre-placed job (the single-job daemon wrapper):
    /// the shard is exactly the ranklist's node set — dead members
    /// included, the first slice's health check repairs them — and the
    /// whole spare pool is the tenant's float. The cluster stays the
    /// caller's: nothing on it is wiped when the job's shard is released.
    pub fn for_placed_job(
        cluster: Arc<Cluster>,
        cfg: ServiceConfig,
        skt: &SktConfig,
        ranklist: &Ranklist,
    ) -> (Self, TenantId) {
        let shard = node_set(ranklist);
        let nodes = shard.len();
        let pool = ServicePool::new(shard, cluster.spares_left(), u64::MAX);
        let mut svc = Self::over(cluster, cfg, pool, true);
        let spec = TenantSpec {
            name: skt.name.clone(),
            nodes,
            mem_bytes_per_node: 0,
            spare_guarantee: 0,
        };
        let tenant = match svc.pool.admit(spec) {
            Ok(Admission::Admitted { tenant, .. }) => tenant,
            other => unreachable!("placed job must admit immediately: {other:?}"),
        };
        let mut cfg_t = skt.clone();
        cfg_t.panel_budget = svc.cfg.slice_panels;
        // keep the caller's ranklist verbatim (it may map several ranks
        // to one node)
        svc.activate(
            tenant,
            cfg_t,
            ranklist.clone(),
            svc.cluster.now(),
            TenantProfile::default(),
        );
        (svc, tenant)
    }

    /// Modeled per-node memory demand of a job on `nodes` ranks: the
    /// rank-0 workspace under the configured method/codec, in bytes.
    pub fn mem_demand(cfg: &SktConfig, nodes: usize) -> u64 {
        let alloc = BlockCyclic1D::new(cfg.hpl.n, cfg.hpl.nb, nodes, 0).alloc_len();
        let parity = cfg.codec.parity_count();
        (MemoryBreakdown::with_parity(cfg.method, alloc, cfg.group_size, parity).total() * 8) as u64
    }

    /// Register a job as a tenant: `nodes` shard nodes (one rank per
    /// node), `spare_guarantee` spares reserved for its own recoveries.
    /// Admitted tenants are scheduled immediately; queued tenants start
    /// when capacity frees. The job's memory demand is derived from its
    /// HPL problem and checkpoint method.
    pub fn register(
        &mut self,
        cfg: SktConfig,
        nodes: usize,
        spare_guarantee: usize,
    ) -> Result<Admission, AdmitError> {
        self.register_profiled(cfg, nodes, spare_guarantee, TenantProfile::default())
    }

    /// [`Self::register`] with an explicit scheduling profile (class /
    /// deadline hints for the configured [`PolicySpec`]).
    pub fn register_profiled(
        &mut self,
        mut cfg: SktConfig,
        nodes: usize,
        spare_guarantee: usize,
        profile: TenantProfile,
    ) -> Result<Admission, AdmitError> {
        cfg.panel_budget = self.cfg.slice_panels;
        let spec = TenantSpec {
            name: cfg.name.clone(),
            nodes,
            mem_bytes_per_node: Self::mem_demand(&cfg, nodes),
            spare_guarantee,
        };
        let adm = self.pool.admit(spec)?;
        let now = self.cluster.now();
        match &adm {
            Admission::Admitted { tenant, nodes } => {
                self.activate(
                    *tenant,
                    cfg,
                    Ranklist::explicit(nodes.clone()),
                    now,
                    profile,
                );
            }
            Admission::Queued { tenant, .. } => {
                self.waiting.insert(*tenant, (cfg, now, profile));
            }
            other => unreachable!("unknown admission variant: {other:?}"),
        }
        Ok(adm)
    }

    /// Ask the service to resize the tenant named `name` (base name) to
    /// `target` ranks, delivered at virtual time `at`. The resize is
    /// applied at the tenant's next *clean boundary* after delivery;
    /// requests stack FIFO. A request for a tenant that already finished
    /// (or never activated) is dropped.
    pub fn schedule_resize(&mut self, name: &str, at: Duration, target: usize) {
        let i = self.resize_reqs.len();
        self.resize_reqs.push((name.to_string(), target));
        self.queue.push(at, ServiceEvent::Resize(i));
    }

    fn activate(
        &mut self,
        id: TenantId,
        cfg: SktConfig,
        rl: Ranklist,
        queued_at: Duration,
        profile: TenantProfile,
    ) {
        let now = self.cluster.now();
        self.tenants.insert(
            id,
            Tenant {
                id,
                base: cfg.name.clone(),
                cfg,
                rl,
                profile,
                launches: 0,
                slices: 0,
                cycles: Vec::new(),
                pending_attr: false,
                history: DaemonHistory::default(),
                queued_at,
                admitted_at: now,
                pending_resize: VecDeque::new(),
                clean_boundary: true,
                resize_epoch: 0,
                resizes: Vec::new(),
                wiped: Vec::new(),
                enqueued_at: now,
                ready_seq: 0,
            },
        );
        self.queue.push(now, ServiceEvent::Ready(id));
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
        for plan in &storm.armed {
            self.cluster.arm_fault(plan.clone());
        }
        for (i, tf) in storm.timed.iter().enumerate() {
            self.queue.push(tf.at, ServiceEvent::Storm(i));
        }
        loop {
            // deliver everything already due
            while self
                .queue
                .next_at()
                .is_some_and(|at| at <= self.cluster.now())
            {
                let (at, ev) = self.queue.pop().expect("peeked non-empty");
                self.dispatch(at, ev, storm);
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
                self.dispatch(at, ev, storm);
                continue;
            }
            if self.cfg.defrag {
                self.maybe_defrag();
            }
            let scheds: Vec<TenantSched> = self.ready.iter().map(|&id| self.sched_of(id)).collect();
            let pick = self.cfg.schedule.next(&SchedState {
                now: self.cluster.now(),
                last: self.last,
                ready: &scheds,
            });
            self.ready.retain(|&t| t != pick);
            self.last = Some(pick);
            self.step_tenant(pick);
        }
        // capacity never freed for these — typed, not silent
        for (id, (cfg, queued_at, _)) in std::mem::take(&mut self.waiting) {
            let now = self.cluster.now();
            let outcome = TenantOutcome::Refused(Refusal::AdmissionStarved);
            let queued_for = now - queued_at;
            let report = TenantReport::new(id, cfg.name, outcome, queued_for, now);
            self.reports.push(report);
        }
        self.reports.sort_by_key(|r| r.tenant);
        ServiceReport {
            tenants: self.reports,
            elapsed: self.cluster.now() - t0,
        }
    }

    fn dispatch(&mut self, at: Duration, ev: ServiceEvent, storm: &StormPlan) {
        match ev {
            ServiceEvent::Storm(i) => self.apply_timed(&storm.timed[i]),
            ServiceEvent::Ready(id) => {
                if let Some(t) = self.tenants.get_mut(&id) {
                    if !self.ready.contains(&id) {
                        t.enqueued_at = at;
                        t.ready_seq = self.ready_seq;
                        self.ready_seq += 1;
                        self.ready.push(id);
                    }
                }
            }
            ServiceEvent::Resize(i) => {
                let (name, target) = &self.resize_reqs[i];
                if let Some(t) = self.tenants.values_mut().find(|t| &t.base == name) {
                    t.pending_resize.push_back(PendingResize::Target(*target));
                }
            }
        }
    }

    fn sched_of(&self, id: TenantId) -> TenantSched {
        let t = &self.tenants[&id];
        TenantSched {
            tenant: id,
            class: t.profile.class,
            deadline: t.profile.deadline,
            enqueued_at: t.enqueued_at,
            ready_seq: t.ready_seq,
        }
    }

    /// Preemptive defragmentation: when no resize is in flight anywhere,
    /// nominate the *smallest* shard that has a strictly better (lower
    /// node-id) placement for relocation through the resize machinery.
    /// One nomination at a time; convergence is guaranteed because every
    /// committed relocation strictly lowers the nominee's node-id sum
    /// and a packed shard yields no plan.
    fn maybe_defrag(&mut self) {
        if self.tenants.values().any(|t| !t.pending_resize.is_empty()) {
            return;
        }
        let mut order: Vec<(usize, TenantId)> = self
            .tenants
            .keys()
            .filter_map(|&id| self.pool.nodes_of(id).map(|s| (s.len(), id)))
            .collect();
        order.sort_unstable();
        for (_, id) in order {
            if self.pool.plan_relocate(id).is_some() {
                self.tenants
                    .get_mut(&id)
                    .expect("nominee is active")
                    .pending_resize
                    .push_back(PendingResize::Relocate);
                return;
            }
        }
    }

    fn apply_timed(&mut self, tf: &TimedFault) {
        match &tf.kind {
            TimedKind::Kill(node) => {
                self.cluster.kill_node(*node);
                // a dead job is relaunched by its owner's next slice; a
                // dead *free* node must never be handed to a tenant
                self.cluster.reset_abort();
                self.pool.purge_free(|n| self.cluster.node_usable(n));
            }
            TimedKind::Corrupt(plan) => {
                self.cluster.corrupt_now(plan);
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
        if tenant.clean_boundary {
            if let Some(req) = tenant.pending_resize.front().cloned() {
                match self.attempt_resize(tenant, req)? {
                    ResizeAttempt::Committed | ResizeAttempt::Refused => {
                        tenant.pending_resize.pop_front();
                    }
                    ResizeAttempt::Retry => {}
                    // the shard (or staged nodes) took a hit inside the
                    // window: yield so the next pick re-heals before the
                    // replay
                    ResizeAttempt::Faulted => return Ok(None),
                }
            }
        }
        self.launch_slice(tenant)
    }

    /// One resize attempt at a clean boundary. Refusals are total and
    /// consume nothing: planning is pure, and the pool commit happens
    /// only after the new layout's image is installed (or the resize is
    /// cold). See `crate::resize` for the commit-point map.
    fn attempt_resize(
        &mut self,
        tenant: &mut Tenant,
        req: PendingResize,
    ) -> Result<ResizeAttempt, Refusal> {
        let now = self.cluster.now();
        let cur = tenant.rl.len();
        let m = tenant.cfg.codec.parity_count();
        let (plan, target, kind) = match req {
            PendingResize::Relocate => (self.pool.plan_relocate(tenant.id), cur, "relocate"),
            PendingResize::Target(t) if t == cur => (None, cur, "noop"),
            PendingResize::Target(t) => {
                let kind = if t > cur { "grow" } else { "shrink" };
                let planned = match resize_group_size(cur, tenant.cfg.group_size, t, m) {
                    None => Err(ResizeError::ShrinkBelowMinGroup {
                        requested: t,
                        min: (m + 1).max(2),
                    }),
                    Some(_) => self
                        .pool
                        .plan_resize(tenant.id, t, Self::mem_demand(&tenant.cfg, t))
                        .map_err(|e| match e {
                            ReshapeError::WouldStarve {
                                requested, free, ..
                            } => ResizeError::GrowWouldStarve { requested, free },
                            ReshapeError::NeverFits { demanded, total } => {
                                ResizeError::NeverFits { demanded, total }
                            }
                            ReshapeError::Oversubscribed { demanded, capacity } => {
                                ResizeError::Oversubscribed { demanded, capacity }
                            }
                            // an active tenant is always known to the pool
                            _ => unreachable!("unexpected reshape refusal: {e}"),
                        }),
                };
                match planned {
                    Ok(p) => (Some(p), t, kind),
                    Err(err) => {
                        let audit = ResizeAudit::refused(now, cur, kind, err);
                        tenant.resizes.push(audit);
                        return Ok(ResizeAttempt::Refused);
                    }
                }
            }
        };
        let Some(plan) = plan else {
            // already at the target, or already packed (or the free pool
            // moved on): no-op
            let audit = ResizeAudit::new(now, cur, cur, "noop", "committed");
            tenant.resizes.push(audit);
            return Ok(ResizeAttempt::Committed);
        };
        let new_g = resize_group_size(cur, tenant.cfg.group_size, target, m)
            .expect("legal group size checked above (relocations keep the rank count)");
        let (columns, panel) =
            match harvest(&self.cluster, &tenant.cfg.name, &tenant.cfg, &tenant.rl) {
                // a node died and was replaced since the park: the next
                // slice's group recovery rebuilds the missing workspaces;
                // resize at the boundary after that
                Harvest::Incomplete => return Ok(ResizeAttempt::Retry),
                Harvest::Torn => {
                    let audit = ResizeAudit::refused(now, cur, kind, ResizeError::TornBoundary);
                    tenant.resizes.push(audit);
                    return Ok(ResizeAttempt::Refused);
                }
                Harvest::AllMissing => {
                    // the tenant never ran: pure node accounting, no image
                    let mem = Self::mem_demand(&tenant.cfg, target);
                    let usable = |n| self.cluster.node_usable(n);
                    let audit = self.pool.commit_resize(tenant.id, &plan, mem, usable);
                    self.admit_drained(audit.drained);
                    tenant.rl = Ranklist::explicit(plan.new_nodes());
                    tenant.cfg.group_size = new_g;
                    let audit = ResizeAudit::new(now, cur, target, kind, "cold");
                    tenant.resizes.push(audit);
                    return Ok(ResizeAttempt::Committed);
                }
                Harvest::Complete { columns, panel } => (columns, panel),
            };
        let epoch = tenant.resize_epoch + 1;
        let mut new_cfg = tenant.cfg.clone();
        new_cfg.name = epoch_name(&tenant.base, epoch);
        new_cfg.group_size = new_g;
        let new_rl = Ranklist::explicit(plan.new_nodes());
        let mut ctx = ResizeCtx {
            cluster: Arc::clone(&self.cluster),
            new_cfg: new_cfg.clone(),
            new_rl: new_rl.clone(),
        };
        let known_dead = self.cluster.dead_nodes();
        self.cluster.reset_abort();
        let committed =
            ops::prepare_replay(ResizeOp { columns, panel }, &ctx).and_then(|p| p.commit(&mut ctx));
        let rec = match committed {
            Ok(tok) => tok.into_record(),
            Err(fault) => {
                // a fault landed inside the resize window. The old layout
                // is untouched (the pool commit never ran); charge the
                // failure budget and keep the request — the next
                // attempt's sequenced replay detects the partial install
                // and redoes it.
                let newly_dead = self.newly_dead(&known_dead);
                self.cluster.reset_abort();
                self.pool.purge_free(|n| self.cluster.node_usable(n));
                let charged = self.charge_failure(tenant, fault, newly_dead, Repair::Purged);
                if charged.is_err() {
                    // giving up: no replay will wipe the partial install,
                    // and the staged nodes are back in the free pool
                    remove_prefix(&self.cluster, &new_rl, &format!("{}/", new_cfg.name));
                }
                return charged.map(|()| ResizeAttempt::Faulted);
            }
        };
        let mem = Self::mem_demand(&new_cfg, target);
        let usable = |n| self.cluster.node_usable(n);
        let pool_audit = self.pool.commit_resize(tenant.id, &plan, mem, usable);
        // wipe the vacated (still-usable) nodes, and drop the old epoch's
        // segments from the nodes we keep
        let mut wiped = pool_audit.freed;
        for &n in &wiped {
            self.cluster.shm(n).wipe();
        }
        wiped.sort_unstable();
        remove_prefix(&self.cluster, &new_rl, &format!("{}/", tenant.cfg.name));
        self.admit_drained(pool_audit.drained);
        tenant.wiped.extend(wiped.iter().copied());
        let audit = ResizeAudit::installed(now, cur, target, kind, &rec, wiped);
        tenant.resizes.push(audit);
        tenant.cfg = new_cfg;
        tenant.rl = new_rl;
        tenant.resize_epoch = epoch;
        Ok(ResizeAttempt::Committed)
    }

    fn admit_drained(&mut self, drained: Vec<(TenantId, Vec<NodeId>)>) {
        for (id, nodes) in drained {
            let (cfg, queued_at, profile) = self
                .waiting
                .remove(&id)
                .expect("queued tenant must have a pending config");
            self.activate(id, cfg, Ranklist::explicit(nodes), queued_at, profile);
        }
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
        match self.pool.draw_spares(tenant.id, dead) {
            Ok(_) => {}
            Err(e @ ArbitrationError::WouldStarve { .. }) => {
                return Err(Refusal::SpareContention(e));
            }
            Err(_) => return Err(Refusal::OutOfSpares),
        }
        // Physical draw through the sequenced op: replays detect a draw
        // already `Done` and skip it; the record is audit evidence.
        let drawn = ops::prepare_replay(SpareDraw::new(&self.cluster), &tenant.rl)
            .and_then(|p| p.commit(&mut tenant.rl));
        match drawn {
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
                tenant.clean_boundary = true;
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
                // the park is gone: workspaces may hold mid-panel state,
                // so no resize until the next clean boundary
                tenant.clean_boundary = false;
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
    fn newly_dead(&self, known_dead: &[NodeId]) -> Vec<NodeId> {
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
    fn charge_failure(
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
        let prefix_slash = format!("{}/", tenant.base);
        let prefix_epoch = format!("{}@", tenant.base);
        let shard: Vec<NodeId> = match self.pool.nodes_of(tenant.id) {
            Some(nodes) => nodes.to_vec(),
            None => node_set(&tenant.rl),
        };
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
        let release = self
            .pool
            .release(tenant.id, |n| self.cluster.node_usable(n));
        let mut wiped = tenant.wiped;
        if !self.adopted {
            for &n in &release.freed {
                self.cluster.shm(n).wipe();
            }
            wiped.extend(release.freed.iter().copied());
        }
        self.admit_drained(release.drained);
        wiped.sort_unstable();
        wiped.dedup();
        let queued_for = tenant.admitted_at - tenant.queued_at;
        self.reports.push(TenantReport {
            launches: tenant.launches,
            slices: tenant.slices,
            failures: tenant.history.attempts.len(),
            cycles: tenant.cycles,
            history: tenant.history,
            resizes: tenant.resizes,
            wiped,
            foreign_on_shard: foreign,
            leaked_elsewhere: leaked,
            fenced_stale,
            ..TenantReport::new(tenant.id, tenant.base, outcome, queued_for, now)
        });
    }
}

/// The repair step of one failed attempt — what the failure ladder
/// ([`CheckpointService::charge_failure`]) runs between the *detect*
/// charge and the *backoff* charge. The two launch entries also record
/// a Figure 10 cycle, and differ in when its `Restart` bar is read (see
/// [`CyclePhase::Restart`]).
enum Repair<'a> {
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

/// The distinct nodes a ranklist places ranks on, ascending.
fn node_set(rl: &Ranklist) -> Vec<NodeId> {
    let nodes: BTreeSet<NodeId> = (0..rl.len()).map(|r| rl.node_of(r)).collect();
    nodes.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skt_cluster::ClusterConfig;
    use skt_encoding::CodecSpec;
    use skt_hpl::{HplConfig, RESIZE_PROBE};

    fn tenant_cfg(name: &str, n: usize) -> SktConfig {
        let mut cfg = SktConfig::new(HplConfig::new(n, 4, 11), 2, 2);
        cfg.name = name.to_string();
        cfg
    }

    fn service(
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
    fn priority_policy_runs_the_higher_class_to_completion_first() {
        let mut svc = service(4, 0, 3, PolicySpec::Priority { aging_us: 0 });
        svc.register_profiled(
            tenant_cfg("low", 32),
            2,
            0,
            TenantProfile {
                class: 0,
                deadline: None,
            },
        )
        .unwrap();
        svc.register_profiled(
            tenant_cfg("high", 32),
            2,
            0,
            TenantProfile {
                class: 5,
                deadline: None,
            },
        )
        .unwrap();
        let rep = svc.run(&StormPlan::none());
        let low = rep.tenant("low").unwrap();
        let high = rep.tenant("high").unwrap();
        assert!(matches!(low.outcome, TenantOutcome::Completed(_)));
        assert!(matches!(high.outcome, TenantOutcome::Completed(_)));
        assert!(
            high.finished_at < low.finished_at,
            "class 5 preempts class 0 even though it registered second"
        );
    }

    #[test]
    fn queued_tenant_runs_after_capacity_frees() {
        let mut svc = service(2, 0, 0, PolicySpec::Batched);
        svc.register(tenant_cfg("first", 32), 2, 0).unwrap();
        let adm = svc.register(tenant_cfg("second", 32), 2, 0).unwrap();
        assert!(matches!(adm, Admission::Queued { .. }));
        let rep = svc.run(&StormPlan::none());
        let second = rep.tenant("second").unwrap();
        assert!(matches!(second.outcome, TenantOutcome::Completed(_)));
        assert!(
            second.queued_for > Duration::ZERO,
            "waited for the first tenant's shard"
        );
        assert!(second.foreign_on_shard.is_empty(), "released shard wiped");
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
            TenantOutcome::Refused(Refusal::SpareContention(ArbitrationError::WouldStarve {
                requested,
                reserved_elsewhere,
                ..
            })) => {
                assert_eq!(*requested, 1);
                assert_eq!(*reserved_elsewhere, 1);
            }
            other => panic!("expected WouldStarve, got {other:?}"),
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
        let storm = StormPlan::none().gray(GrayPlan::slow(ITER_PROBE, 3, 1, 64));
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

    // ---- elasticity ----

    /// A 6-rank Rs{2} tenant sized so resizes stay legal down to 4
    /// ranks (group min = m + 1 = 3).
    fn elastic_cfg(name: &str) -> SktConfig {
        let mut cfg = tenant_cfg(name, 48); // 12 panels at nb=4
        cfg.codec = CodecSpec::Rs { m: 2 };
        cfg.group_size = 6;
        cfg
    }

    fn residual_bits(rep: &ServiceReport, name: &str) -> u64 {
        match &rep.tenant(name).unwrap().outcome {
            TenantOutcome::Completed(out) => {
                assert!(out.hpl.passed, "{name}: residual check failed");
                out.hpl.residual.to_bits()
            }
            other => panic!("{name}: expected completion, got {other:?}"),
        }
    }

    /// The acceptance scenario: shrink 6→4 at the first boundary, grow
    /// back 4→6 at the next, with an armed kill landing on a staged
    /// node *inside* the grow's install window. The sequenced ResizeOp
    /// replays idempotently, and the final residual is bit-exact with
    /// the unresized fault-free control — across 8 scheduler seeds.
    #[test]
    fn shrink_then_grow_with_kill_in_resize_window_matches_control() {
        let control = {
            let mut svc = service(6, 0, 0, PolicySpec::Batched);
            svc.register(elastic_cfg("elastic"), 6, 0).unwrap();
            let rep = svc.run(&StormPlan::none());
            residual_bits(&rep, "elastic")
        };
        for seed in 0..8u64 {
            let cluster = Arc::new(Cluster::new_with_runtime(
                ClusterConfig::new(9, 0),
                skt_cluster::SimRuntime::new(seed),
            ));
            let mut cfg = ServiceConfig::new(RetryPolicy::new(3, Duration::from_secs(5)));
            cfg.slice_panels = 3;
            cfg.schedule = PolicySpec::RoundRobin;
            let mut svc = CheckpointService::new(cluster, cfg);
            svc.register(elastic_cfg("elastic"), 6, 0).unwrap();
            svc.schedule_resize("elastic", Duration::from_micros(1), 4);
            svc.schedule_resize("elastic", Duration::from_micros(2), 6);
            // the grow stages nodes {4,5}; node 4's first resize-window
            // probe pass is the grow install → the kill lands inside it
            let storm = StormPlan::none().kill_at_probe(RESIZE_PROBE, 4, 1);
            let rep = svc.run(&storm);
            let got = residual_bits(&rep, "elastic");
            assert_eq!(
                got, control,
                "seed {seed}: resized run must be bit-exact with the control"
            );
            let t = rep.tenant("elastic").unwrap();
            assert_eq!(t.failures, 1, "seed {seed}: the kill charged one failure");
            let kinds: Vec<(&str, &str, usize, usize)> = t
                .resizes
                .iter()
                .map(|r| (r.kind, r.outcome, r.from, r.to))
                .collect();
            assert_eq!(
                kinds,
                vec![("shrink", "committed", 6, 4), ("grow", "committed", 4, 6)],
                "seed {seed}"
            );
            assert_eq!(
                t.resizes[0].wiped,
                vec![4, 5],
                "seed {seed}: the shrink's vacated nodes are wiped, not leaked"
            );
            assert!(
                t.wiped.contains(&5),
                "seed {seed}: wipe audit reaches the report"
            );
            assert!(
                t.leaked_elsewhere.is_empty(),
                "seed {seed}: {:?}",
                t.leaked_elsewhere
            );
            assert!(t.foreign_on_shard.is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn shrink_below_min_group_is_refused_typed_and_consumes_nothing() {
        let mut svc = service(4, 0, 3, PolicySpec::RoundRobin);
        svc.register(elastic_cfg("job"), 6, 0).unwrap_err(); // 6 > 4 nodes: NeverFits at admission
        let mut svc = service(8, 0, 3, PolicySpec::RoundRobin);
        svc.register(elastic_cfg("job"), 6, 0).unwrap();
        // Rs{2} needs groups of ≥ 3: shrinking to 2 ranks is refused
        svc.schedule_resize("job", Duration::from_micros(1), 2);
        let rep = svc.run(&StormPlan::none());
        let t = rep.tenant("job").unwrap();
        assert!(matches!(t.outcome, TenantOutcome::Completed(_)));
        assert_eq!(t.resizes.len(), 1);
        let r = &t.resizes[0];
        assert_eq!((r.kind, r.outcome), ("shrink", "refused"));
        assert_eq!(
            r.refusal,
            Some(ResizeError::ShrinkBelowMinGroup {
                requested: 2,
                min: 3
            })
        );
        assert_eq!((r.from, r.to), (6, 6), "a refusal changes nothing");
        assert_eq!(t.failures, 0, "refusals are free: no budget charged");
    }

    #[test]
    fn grow_beyond_free_pool_is_refused_typed() {
        let mut svc = service(4, 0, 3, PolicySpec::RoundRobin);
        svc.register(tenant_cfg("a", 32), 2, 0).unwrap();
        svc.register(tenant_cfg("b", 32), 2, 0).unwrap();
        // the pool is fully sharded: a's grow to 4 would starve
        svc.schedule_resize("a", Duration::from_micros(1), 4);
        let rep = svc.run(&StormPlan::none());
        let a = rep.tenant("a").unwrap();
        assert!(matches!(a.outcome, TenantOutcome::Completed(_)));
        let r = &a.resizes[0];
        assert_eq!((r.kind, r.outcome), ("grow", "refused"));
        assert_eq!(
            r.refusal,
            Some(ResizeError::GrowWouldStarve {
                requested: 2,
                free: 0
            })
        );
        let b = rep.tenant("b").unwrap();
        assert!(matches!(b.outcome, TenantOutcome::Completed(_)));
        assert_eq!(b.failures, 0, "the refused grow never touched b's shard");
    }

    #[test]
    fn resize_before_first_slice_is_cold_accounting() {
        let mut svc = service(4, 0, 3, PolicySpec::RoundRobin);
        svc.register(tenant_cfg("cold", 32), 2, 0).unwrap();
        // delivered before the tenant ever runs: no image exists, so the
        // resize is pure node accounting ("cold") and the job simply
        // starts at 3 ranks
        svc.schedule_resize("cold", Duration::ZERO, 3);
        let rep = svc.run(&StormPlan::none());
        let t = rep.tenant("cold").unwrap();
        assert!(matches!(t.outcome, TenantOutcome::Completed(_)));
        let r = &t.resizes[0];
        assert_eq!((r.kind, r.outcome, r.from, r.to), ("grow", "cold", 2, 3));
        assert!(r.op.is_none(), "no image, no sequenced install");
    }

    #[test]
    fn defrag_relocates_the_smallest_parked_shard_toward_low_ids() {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(6, 0)));
        let mut cfg = ServiceConfig::new(RetryPolicy::new(3, Duration::from_secs(5)));
        cfg.slice_panels = 3;
        cfg.schedule = PolicySpec::RoundRobin;
        cfg.defrag = true;
        let mut svc = CheckpointService::new(cluster, cfg);
        svc.register(tenant_cfg("early", 32), 2, 0).unwrap(); // nodes {0,1}, 8 panels → finishes first
        svc.register(tenant_cfg("late", 48), 2, 0).unwrap(); // nodes {2,3}, 12 panels
        let rep = svc.run(&StormPlan::none());
        let late = rep.tenant("late").unwrap();
        match &late.outcome {
            TenantOutcome::Completed(out) => assert!(out.hpl.passed),
            other => panic!("late should complete after relocating, got {other:?}"),
        }
        let reloc: Vec<&ResizeAudit> = late
            .resizes
            .iter()
            .filter(|r| r.kind == "relocate")
            .collect();
        assert_eq!(reloc.len(), 1, "one defrag move: {:?}", late.resizes);
        assert_eq!(reloc[0].outcome, "committed", "a parked image migrates");
        assert_eq!(
            reloc[0].wiped,
            vec![2, 3],
            "the vacated mid-pool nodes are wiped for the free list"
        );
        assert!(
            late.leaked_elsewhere.is_empty(),
            "{:?}",
            late.leaked_elsewhere
        );
    }

    // ---- the failure ladder's three entries, and the memory knob ----

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
        let kill = |probe, node, nth| FaultPlan::Kill(FailurePlan::new(probe, nth, node));
        let hang = |node, nth| FaultPlan::Gray(GrayPlan::hang(ITER_PROBE, nth, node));
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

    /// `node_mem_bytes` is finite: a registration over it is refused at
    /// admission, and a resize whose per-node demand exceeds it is an
    /// audited typed refusal that leaves the tenant running unresized.
    /// (Per-node demand only falls as ranks are added, so the resize
    /// that can oversubscribe a node is a shrink.)
    #[test]
    fn finite_node_memory_refuses_admission_and_resize_typed() {
        let job = tenant_cfg("job", 32);
        let fits = CheckpointService::mem_demand(&job, 4);
        let too_big = CheckpointService::mem_demand(&job, 2);
        assert!(fits < too_big, "fewer ranks, more bytes per node");
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 0)));
        let mut cfg = ServiceConfig::new(RetryPolicy::new(3, Duration::from_secs(5)));
        cfg.slice_panels = 3;
        cfg.schedule = PolicySpec::RoundRobin;
        cfg.node_mem_bytes = fits;
        let mut svc = CheckpointService::new(cluster, cfg);
        match svc.register(tenant_cfg("fat", 32), 2, 0) {
            Err(AdmitError::MemoryOversubscribed { demanded, capacity }) => {
                assert_eq!((demanded, capacity), (too_big, fits));
            }
            other => panic!("expected MemoryOversubscribed, got {other:?}"),
        }
        svc.register(job, 4, 0).unwrap();
        svc.schedule_resize("job", Duration::from_micros(1), 2);
        let rep = svc.run(&StormPlan::none());
        assert!(
            rep.tenant("fat").is_none(),
            "a refused registration never ran"
        );
        let t = rep.tenant("job").unwrap();
        assert!(matches!(t.outcome, TenantOutcome::Completed(_)));
        assert_eq!(t.resizes.len(), 1);
        let r = &t.resizes[0];
        assert_eq!(
            r.line(),
            "resize shrink 4->4 refused refusal=oversubscribed wiped=[]"
        );
        assert_eq!(
            r.refusal,
            Some(ResizeError::Oversubscribed {
                demanded: too_big,
                capacity: fits
            })
        );
        assert_eq!(t.failures, 0, "refusals are free: no budget charged");
    }
}
