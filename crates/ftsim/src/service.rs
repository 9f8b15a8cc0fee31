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
//! * **Event-driven supervision** — the single blocking
//!   work-fail-detect-restart cycle of [`crate::daemon`] becomes a
//!   per-tenant state machine advanced from a deterministic
//!   [`EventQueue`] on the cluster's [`Runtime`](skt_cluster::Runtime)
//!   clock. Jobs time-share the runtime in *slices*
//!   ([`skt_hpl::run_skt_sliced`]): a tenant runs alone for a bounded
//!   number of panels, parks its state in SHM (the self-checkpoint
//!   move), and yields. *Which* tenant runs next is decided by a
//!   pluggable [`SlicePolicy`](crate::policy::SlicePolicy) resolved
//!   from [`PolicySpec`] — the dispatch loop only maintains the ready
//!   set and executes decisions.
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

use crate::daemon::{
    AttemptRecord, CyclePhase, DaemonHistory, PhaseTimes, RetryPolicy, SuspicionOutcome,
    SuspicionRecord,
};
use crate::policy::{PolicySpec, SchedState, TenantProfile, TenantSched};
use crate::resize::{
    epoch_name, harvest, Harvest, PendingResize, ResizeAudit, ResizeCtx, ResizeError, ResizeOp,
};
use skt_cluster::SplitMix64;
use skt_cluster::{
    Admission, AdmitError, ArbitrationError, Cluster, CorruptPlan, EventQueue, FailurePlan, Fault,
    FaultPlan, GrayPlan, NodeId, ProbeVerdict, Ranklist, ReshapeError, ServicePool, TenantId,
    TenantSpec,
};
use skt_core::protocol::ops::{self, SpareDraw};
use skt_core::{resize_group_size, MemoryBreakdown, RecoveryReport};
use skt_hpl::{run_skt_sliced, BlockCyclic1D, SktConfig, SktOutput, SktRun, ITER_PROBE};
use skt_mps::run_on_cluster;
use std::collections::{BTreeMap, VecDeque};
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
    /// Slice scheduling policy, resolved through the
    /// [`PolicySpec`] registry at each dispatch.
    pub schedule: PolicySpec,
    /// Between slices, compact the free pool: relocate the smallest
    /// shard with a better (lower-id) placement through the resize
    /// machinery, so freed mid-pool nodes migrate to the high end where
    /// grows and admissions draw contiguously.
    pub defrag: bool,
    /// Wipe a tenant's SHM from its shard nodes when the shard is
    /// released, so reassigned nodes hand no stale state to the next
    /// tenant. The single-job daemon wrapper turns this off: its caller
    /// owns the cluster and may re-enter the same checkpoints.
    pub wipe_on_release: bool,
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
            wipe_on_release: true,
        }
    }
}

/// Typed collective verdict when the service stops retrying a tenant.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Refusal {
    /// Replacement needed a spare and the pool (reserve + float) is
    /// physically dry, with nothing reserved elsewhere either.
    OutOfSpares,
    /// The tenant exceeded its failure budget.
    TooManyFailures,
    /// The tenant failed without losing a node — a protocol verdict
    /// (e.g. a checkpoint group damaged beyond the codec's repair);
    /// replacement and retry cannot fix it.
    Unrecoverable,
    /// The arbitration layer refused the cascade: granting it would dip
    /// into spares reserved for other tenants' guarantees.
    SpareContention(ArbitrationError),
    /// Still waiting for admission when the service ran out of events —
    /// capacity never freed up.
    AdmissionStarved,
}

impl Refusal {
    /// Stable label for fingerprints and logs.
    pub fn label(&self) -> &'static str {
        match self {
            Refusal::OutOfSpares => "out-of-spares",
            Refusal::TooManyFailures => "too-many-failures",
            Refusal::Unrecoverable => "unrecoverable",
            Refusal::SpareContention(_) => "spare-contention",
            Refusal::AdmissionStarved => "admission-starved",
        }
    }
}

/// How a tenant's run ended.
#[derive(Clone, Debug)]
pub enum TenantOutcome {
    /// The solve completed (residual verified inside).
    Completed(SktOutput),
    /// The service stopped retrying, with the typed verdict.
    Refused(Refusal),
}

/// The service's full account of one tenant.
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// Tenant id (registration order).
    pub tenant: TenantId,
    /// Tenant base name (= its SHM namespace prefix; resize epochs nest
    /// under it as `{name}@e{k}`).
    pub name: String,
    /// Job launches performed (slices + retries).
    pub launches: usize,
    /// Slices that ran (a launch that paused or completed).
    pub slices: usize,
    /// Failed attempts (== `history.attempts.len()`).
    pub failures: usize,
    /// Time spent waiting in the admission queue.
    pub queued_for: Duration,
    /// Cluster-clock time when the tenant finished or was refused.
    pub finished_at: Duration,
    /// Terminal outcome.
    pub outcome: TenantOutcome,
    /// Per-failure cycle phase timings (Figure 10 bars), in order.
    pub cycles: Vec<PhaseTimes>,
    /// Attempt records, recovery reports, and the sequenced-op audit
    /// trail of every spare draw done on this tenant's behalf.
    pub history: DaemonHistory,
    /// Every resize attempt on this tenant, in order: grows, shrinks,
    /// defrag relocations, and their typed refusals.
    pub resizes: Vec<ResizeAudit>,
    /// Nodes whose SHM the service wiped on this tenant's behalf:
    /// vacated at resize commits, plus the released shard itself when
    /// [`ServiceConfig::wipe_on_release`] is set. A shrunk tenant's old
    /// nodes land here — wiped, not leaked.
    pub wiped: Vec<NodeId>,
    /// SHM segment names found on the tenant's shard that do **not**
    /// belong to it — must be empty (cross-tenant isolation).
    pub foreign_on_shard: Vec<String>,
    /// Nodes *outside* the shard holding segments with this tenant's
    /// prefix — must be empty (no state leaked off-shard).
    pub leaked_elsewhere: Vec<NodeId>,
    /// Fenced nodes still quarantining stale segments with this tenant's
    /// prefix — a zombie's frozen leftovers, **not** a leak: fencing
    /// guarantees nothing reads or merges them, and recommissioning
    /// wipes them.
    pub fenced_stale: Vec<NodeId>,
}

impl TenantReport {
    /// Canonical one-tenant fingerprint. With `timings` false it holds
    /// only scheduler-independent facts (outcome, residual bits, resumed
    /// panel, failure/recovery shape, resize audits, isolation) and is
    /// invariant across simulation seeds for probe-anchored storms; with
    /// `timings` true it additionally pins every duration and the
    /// replay-race detail of resize op records, and is byte-identical
    /// only for a fixed `(config, seed)`.
    pub fn fingerprint(&self, timings: bool) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "tenant={} launches={} slices={} failures={}",
            self.name, self.launches, self.slices, self.failures
        );
        match &self.outcome {
            TenantOutcome::Completed(out) => {
                let _ = writeln!(
                    s,
                    "  completed passed={} residual={:016x} resumed={} scratch={}",
                    out.hpl.passed,
                    out.hpl.residual.to_bits(),
                    out.resumed_from_panel,
                    out.restarted_from_scratch
                );
            }
            TenantOutcome::Refused(r) => {
                let detail = match r {
                    Refusal::SpareContention(e) => format!(" {e}"),
                    _ => String::new(),
                };
                let _ = writeln!(s, "  refused {}{detail}", r.label());
            }
        }
        for (i, a) in self.history.attempts.iter().enumerate() {
            let _ = writeln!(
                s,
                "  attempt[{i}] fault={} dead={:?}",
                a.fault.stable_label(),
                a.newly_dead
            );
        }
        for (i, sr) in self.history.suspicions.iter().enumerate() {
            let _ = writeln!(
                s,
                "  suspicion[{i}] node={} probe={} outcome={}",
                sr.node,
                sr.probe,
                sr.outcome.label()
            );
        }
        for (i, r) in self.history.recoveries.iter().enumerate() {
            let _ = writeln!(
                s,
                "  recovery[{i}] epoch={} source={:?} lost={:?} rebuilt={}",
                r.epoch, r.source, r.lost, r.rebuilt_bytes
            );
        }
        for (i, op) in self.history.ops.iter().enumerate() {
            let _ = writeln!(s, "  op[{i}] {op}");
        }
        for (i, r) in self.resizes.iter().enumerate() {
            let _ = writeln!(s, "  resize[{i}] {}", r.line());
        }
        let _ = writeln!(
            s,
            "  wiped={:?} isolation foreign={:?} leaked={:?} fenced_stale={:?}",
            self.wiped, self.foreign_on_shard, self.leaked_elsewhere, self.fenced_stale
        );
        if timings {
            let _ = writeln!(
                s,
                "  t queued_for={}us finished_at={}us",
                self.queued_for.as_micros(),
                self.finished_at.as_micros()
            );
            for (i, c) in self.cycles.iter().enumerate() {
                let _ = write!(s, "  cycle[{i}]");
                for (p, d) in c.iter() {
                    let _ = write!(s, " {}={}us", p.label(), d.as_micros());
                }
                let _ = writeln!(s);
            }
            for (i, a) in self.history.attempts.iter().enumerate() {
                let _ = writeln!(s, "  backoff[{i}]={}us", a.backoff.as_micros());
            }
            for (i, r) in self.resizes.iter().enumerate() {
                let _ = writeln!(
                    s,
                    "  resize_t[{i}]={}us record={:?}",
                    r.at.as_micros(),
                    r.op_record
                );
            }
        }
        s
    }
}

/// Everything the service observed: one report per tenant, id order.
#[derive(Clone, Debug, Default)]
pub struct ServiceReport {
    /// Per-tenant reports, ascending by [`TenantId`].
    pub tenants: Vec<TenantReport>,
    /// Cluster-clock time consumed by the whole run.
    pub elapsed: Duration,
}

impl ServiceReport {
    /// Report of the tenant named `name`, if it ran.
    pub fn tenant(&self, name: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.name == name)
    }

    /// Concatenated per-tenant fingerprints (id order).
    pub fn fingerprint(&self, timings: bool) -> String {
        self.tenants
            .iter()
            .map(|t| t.fingerprint(timings))
            .collect()
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
    last_slice: Duration,
}

enum ServiceEvent {
    /// The tenant is runnable again: enter the ready set.
    Ready(TenantId),
    /// Apply the i-th timed storm fault.
    Storm(usize),
    /// Deliver the i-th scheduled resize request to its tenant.
    Resize(usize),
}

enum SliceEnd {
    /// Tenant still alive: re-enter the ready set and let the policy
    /// decide who runs next.
    Yield,
    /// Tenant reached a terminal state (boxed: an [`SktOutput`] dwarfs
    /// the other variants).
    Finished(Box<TenantOutcome>),
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
        CheckpointService {
            cluster,
            cfg,
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
    /// whole spare pool is the tenant's float.
    pub fn for_placed_job(
        cluster: Arc<Cluster>,
        cfg: ServiceConfig,
        skt: &SktConfig,
        ranklist: &Ranklist,
    ) -> (Self, TenantId) {
        let mut shard: Vec<NodeId> = (0..ranklist.len()).map(|r| ranklist.node_of(r)).collect();
        shard.sort_unstable();
        shard.dedup();
        let nodes = shard.len();
        let pool = ServicePool::new(shard, cluster.spares_left(), u64::MAX);
        let mut svc = CheckpointService {
            cluster,
            cfg,
            pool,
            tenants: BTreeMap::new(),
            waiting: BTreeMap::new(),
            queue: EventQueue::new(),
            ready: Vec::new(),
            ready_seq: 0,
            last: None,
            resize_reqs: Vec::new(),
            reports: Vec::new(),
        };
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
                last_slice: Duration::ZERO,
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
            let decision = {
                let scheds: Vec<TenantSched> =
                    self.ready.iter().map(|&id| self.sched_of(id)).collect();
                let state = SchedState {
                    now: self.cluster.now(),
                    default_budget: self.cfg.slice_panels,
                    last: self.last.filter(|id| self.tenants.contains_key(id)),
                    ready: &scheds,
                };
                self.cfg.schedule.resolve().next(&state)
            };
            // a policy that idles or picks outside the ready set cannot
            // stall the service: fall back to the head of the ready set
            let pick = decision
                .filter(|d| self.ready.contains(&d.tenant))
                .unwrap_or(crate::policy::Decision {
                    tenant: self.ready[0],
                    panel_budget: self.cfg.slice_panels,
                });
            self.ready.retain(|&t| t != pick.tenant);
            self.last = Some(pick.tenant);
            self.step_tenant(pick.tenant, pick.panel_budget);
        }
        // capacity never freed for these — typed, not silent
        let starved: Vec<(TenantId, (SktConfig, Duration, TenantProfile))> =
            std::mem::take(&mut self.waiting).into_iter().collect();
        for (id, (cfg, queued_at, _)) in starved {
            let now = self.cluster.now();
            self.reports.push(TenantReport {
                tenant: id,
                name: cfg.name,
                launches: 0,
                slices: 0,
                failures: 0,
                queued_for: now - queued_at,
                finished_at: now,
                outcome: TenantOutcome::Refused(Refusal::AdmissionStarved),
                cycles: Vec::new(),
                history: DaemonHistory::default(),
                resizes: Vec::new(),
                wiped: Vec::new(),
                foreign_on_shard: Vec::new(),
                leaked_elsewhere: Vec::new(),
                fenced_stale: Vec::new(),
            });
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
            slices: t.slices,
            failures: t.history.attempts.len(),
            last_slice: t.last_slice,
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
                let cluster = Arc::clone(&self.cluster);
                self.pool.purge_free(|n| cluster.node_usable(n));
            }
            TimedKind::Corrupt(plan) => {
                self.cluster.corrupt_now(plan);
            }
        }
    }

    fn step_tenant(&mut self, id: TenantId, budget: usize) {
        // a stale pick for a tenant already finished is a no-op
        let Some(mut tenant) = self.tenants.remove(&id) else {
            return;
        };
        // Slice-top health check: nodes may have died while this
        // tenant was off the runtime (a timed storm kill, deaths
        // inherited at registration, or a kill inside a resize
        // window). Arbitrate + repair before anything else.
        if let Err(refusal) = self.heal_shard(&mut tenant) {
            self.finish(tenant, TenantOutcome::Refused(refusal));
            return;
        }
        if tenant.clean_boundary {
            if let Some(req) = tenant.pending_resize.front().cloned() {
                match self.attempt_resize(&mut tenant, req) {
                    Ok(ResizeAttempt::Committed | ResizeAttempt::Refused) => {
                        tenant.pending_resize.pop_front();
                    }
                    Ok(ResizeAttempt::Retry) => {}
                    Ok(ResizeAttempt::Faulted) => {
                        // the shard (or staged nodes) took a hit inside
                        // the window: yield so the next pick re-heals
                        // before the replay
                        self.queue.push(self.cluster.now(), ServiceEvent::Ready(id));
                        self.tenants.insert(id, tenant);
                        return;
                    }
                    Err(refusal) => {
                        self.finish(tenant, TenantOutcome::Refused(refusal));
                        return;
                    }
                }
            }
        }
        tenant.cfg.panel_budget = budget;
        match self.launch_slice(&mut tenant) {
            SliceEnd::Finished(outcome) => self.finish(tenant, *outcome),
            SliceEnd::Yield => {
                self.queue.push(self.cluster.now(), ServiceEvent::Ready(id));
                self.tenants.insert(id, tenant);
            }
        }
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
            PendingResize::Relocate => match self.pool.plan_relocate(tenant.id) {
                None => {
                    // already packed (or the free pool moved on): no-op
                    tenant.resizes.push(ResizeAudit {
                        at: now,
                        from: cur,
                        to: cur,
                        kind: "noop",
                        outcome: "committed",
                        refusal: None,
                        op: None,
                        op_record: None,
                        wiped: Vec::new(),
                    });
                    return Ok(ResizeAttempt::Committed);
                }
                Some(p) => (p, cur, "relocate"),
            },
            PendingResize::Target(t) if t == cur => {
                tenant.resizes.push(ResizeAudit {
                    at: now,
                    from: cur,
                    to: cur,
                    kind: "noop",
                    outcome: "committed",
                    refusal: None,
                    op: None,
                    op_record: None,
                    wiped: Vec::new(),
                });
                return Ok(ResizeAttempt::Committed);
            }
            PendingResize::Target(t) => {
                let kind = if t > cur { "grow" } else { "shrink" };
                if resize_group_size(cur, tenant.cfg.group_size, t, m).is_none() {
                    tenant.resizes.push(ResizeAudit {
                        at: now,
                        from: cur,
                        to: cur,
                        kind,
                        outcome: "refused",
                        refusal: Some(ResizeError::ShrinkBelowMinGroup {
                            requested: t,
                            min: (m + 1).max(2),
                        }),
                        op: None,
                        op_record: None,
                        wiped: Vec::new(),
                    });
                    return Ok(ResizeAttempt::Refused);
                }
                match self
                    .pool
                    .plan_resize(tenant.id, t, Self::mem_demand(&tenant.cfg, t))
                {
                    Ok(p) => (p, t, kind),
                    Err(e) => {
                        let err = match e {
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
                        };
                        tenant.resizes.push(ResizeAudit {
                            at: now,
                            from: cur,
                            to: cur,
                            kind,
                            outcome: "refused",
                            refusal: Some(err),
                            op: None,
                            op_record: None,
                            wiped: Vec::new(),
                        });
                        return Ok(ResizeAttempt::Refused);
                    }
                }
            }
        };
        let new_g = resize_group_size(cur, tenant.cfg.group_size, target, m)
            .expect("legal group size checked above (relocations keep the rank count)");
        match harvest(&self.cluster, &tenant.cfg.name, &tenant.cfg, &tenant.rl) {
            // a node died and was replaced since the park: the next
            // slice's group recovery rebuilds the missing workspaces;
            // resize at the boundary after that
            Harvest::Incomplete => Ok(ResizeAttempt::Retry),
            Harvest::Torn => {
                tenant.resizes.push(ResizeAudit {
                    at: now,
                    from: cur,
                    to: cur,
                    kind,
                    outcome: "refused",
                    refusal: Some(ResizeError::TornBoundary),
                    op: None,
                    op_record: None,
                    wiped: Vec::new(),
                });
                Ok(ResizeAttempt::Refused)
            }
            Harvest::AllMissing => {
                // the tenant never ran: pure node accounting, no image
                let mem = Self::mem_demand(&tenant.cfg, target);
                let cluster = Arc::clone(&self.cluster);
                let audit = self
                    .pool
                    .commit_resize(tenant.id, &plan, mem, |n| cluster.node_usable(n));
                self.admit_drained(audit.drained);
                tenant.rl = Ranklist::explicit(plan.new_nodes());
                tenant.cfg.group_size = new_g;
                tenant.resizes.push(ResizeAudit {
                    at: now,
                    from: cur,
                    to: target,
                    kind,
                    outcome: "cold",
                    refusal: None,
                    op: None,
                    op_record: None,
                    wiped: Vec::new(),
                });
                Ok(ResizeAttempt::Committed)
            }
            Harvest::Complete { columns, panel } => {
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
                let committed = ops::prepare_replay(ResizeOp { columns, panel }, &ctx)
                    .and_then(|p| p.commit(&mut ctx));
                match committed {
                    Ok(tok) => {
                        let rec = tok.into_record();
                        let mem = Self::mem_demand(&new_cfg, target);
                        let cluster = Arc::clone(&self.cluster);
                        let pool_audit = self
                            .pool
                            .commit_resize(tenant.id, &plan, mem, |n| cluster.node_usable(n));
                        // wipe the vacated (still-usable) nodes, and drop
                        // the old epoch's segments from the nodes we keep
                        let mut wiped = pool_audit.freed.clone();
                        for &n in &wiped {
                            self.cluster.shm(n).wipe();
                        }
                        wiped.sort_unstable();
                        let old_prefix = format!("{}/", tenant.cfg.name);
                        for r in 0..new_rl.len() {
                            let shm = self.cluster.shm(new_rl.node_of(r));
                            for seg in shm.names() {
                                if seg.starts_with(&old_prefix) {
                                    shm.remove(&seg);
                                }
                            }
                        }
                        self.admit_drained(pool_audit.drained);
                        tenant.wiped.extend(wiped.iter().copied());
                        tenant.resizes.push(ResizeAudit {
                            at: now,
                            from: cur,
                            to: target,
                            kind,
                            outcome: "committed",
                            refusal: None,
                            op: Some(rec.op.clone()),
                            op_record: Some(rec.to_string()),
                            wiped,
                        });
                        tenant.cfg = new_cfg;
                        tenant.rl = new_rl;
                        tenant.resize_epoch = epoch;
                        Ok(ResizeAttempt::Committed)
                    }
                    Err(fault) => {
                        // a fault landed inside the resize window. The
                        // old layout is untouched (the pool commit never
                        // ran); charge the failure budget and keep the
                        // request — the next attempt's sequenced replay
                        // detects the partial install and redoes it.
                        let dead_now = self.cluster.dead_nodes();
                        let newly_dead: Vec<NodeId> = dead_now
                            .iter()
                            .copied()
                            .filter(|n| !known_dead.contains(n))
                            .collect();
                        self.cluster.reset_abort();
                        let cluster = Arc::clone(&self.cluster);
                        self.pool.purge_free(|n| cluster.node_usable(n));
                        let mut record = AttemptRecord {
                            attempt: tenant.launches,
                            fault,
                            newly_dead,
                            backoff: Duration::ZERO,
                        };
                        let failure_no = tenant.history.attempts.len() + 1;
                        if failure_no > self.cfg.policy.max_failures {
                            tenant.history.attempts.push(record);
                            return Err(Refusal::TooManyFailures);
                        }
                        self.cluster.runtime().advance(self.cfg.policy.detect);
                        record.backoff = self.cfg.policy.backoff(failure_no);
                        self.cluster.runtime().advance(record.backoff);
                        tenant.history.attempts.push(record);
                        Ok(ResizeAttempt::Faulted)
                    }
                }
            }
        }
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
        let dead: usize = {
            let mut nodes: Vec<NodeId> = (0..tenant.rl.len())
                .map(|r| tenant.rl.node_of(r))
                .filter(|&n| !self.cluster.node_usable(n))
                .collect();
            nodes.sort_unstable();
            nodes.dedup();
            nodes.len()
        };
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
        let mut nodes: Vec<NodeId> = (0..tenant.rl.len()).map(|r| tenant.rl.node_of(r)).collect();
        nodes.sort_unstable();
        nodes.dedup();
        self.pool.reassign(tenant.id, nodes);
        Ok(())
    }

    /// One launch of the tenant's job, with the single-job daemon's
    /// failure classification on the error path.
    fn launch_slice(&mut self, tenant: &mut Tenant) -> SliceEnd {
        let policy = self.cfg.policy.clone();
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
        tenant.last_slice = t_launch.elapsed();
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
                match outs.swap_remove(0) {
                    SktRun::Done(out) => {
                        if tenant.pending_attr {
                            Self::attribute(
                                &mut tenant.cycles,
                                out.recover_seconds,
                                out.hpl.ckpt_seconds,
                                out.hpl.checkpoints,
                            );
                            tenant.pending_attr = false;
                        }
                        SliceEnd::Finished(Box::new(TenantOutcome::Completed(out)))
                    }
                    SktRun::Paused(p) => {
                        if tenant.pending_attr {
                            Self::attribute(
                                &mut tenant.cycles,
                                p.recover_seconds,
                                p.ckpt_seconds,
                                p.checkpoints,
                            );
                            tenant.pending_attr = false;
                        }
                        SliceEnd::Yield
                    }
                }
            }
            Err(fault) => {
                // the park is gone: workspaces may hold mid-panel state,
                // so no resize until the next clean boundary
                tenant.clean_boundary = false;
                let dead_now = self.cluster.dead_nodes();
                let newly_dead: Vec<NodeId> = dead_now
                    .iter()
                    .copied()
                    .filter(|n| !known_dead.contains(n))
                    .collect();
                if newly_dead.is_empty() {
                    if let Fault::Suspect { node, score } = fault {
                        return self.adjudicate_suspicion(
                            tenant,
                            node,
                            score,
                            &policy,
                            t_launch.elapsed(),
                        );
                    }
                }
                let mut record = AttemptRecord {
                    attempt: tenant.launches,
                    fault,
                    newly_dead: newly_dead.clone(),
                    backoff: Duration::ZERO,
                };
                if newly_dead.is_empty() {
                    tenant.history.attempts.push(record);
                    return SliceEnd::Finished(Box::new(TenantOutcome::Refused(
                        Refusal::Unrecoverable,
                    )));
                }
                let failure_no = tenant.history.attempts.len() + 1;
                if failure_no > policy.max_failures {
                    tenant.history.attempts.push(record);
                    return SliceEnd::Finished(Box::new(TenantOutcome::Refused(
                        Refusal::TooManyFailures,
                    )));
                }
                // detect: modeled job-manager latency on the virtual clock
                let mut phase = PhaseTimes::default();
                phase.set(CyclePhase::Detect, policy.detect);
                self.cluster.runtime().advance(policy.detect);
                // replace: arbitration + sequenced physical draw, timed
                let t_rep = self.cluster.stopwatch();
                self.cluster.reset_abort();
                if let Err(refusal) = self.heal_shard(tenant) {
                    tenant.history.attempts.push(record);
                    return SliceEnd::Finished(Box::new(TenantOutcome::Refused(refusal)));
                }
                phase.set(CyclePhase::Replace, t_rep.elapsed());
                phase.set(
                    CyclePhase::Restart,
                    t_launch.elapsed().min(Duration::from_secs(1)),
                );
                tenant.cycles.push(phase);
                tenant.pending_attr = true;
                record.backoff = policy.backoff(failure_no);
                self.cluster.runtime().advance(record.backoff);
                tenant.history.attempts.push(record);
                SliceEnd::Yield
            }
        }
    }

    /// The gray-failure ladder, entered when an attempt ends in
    /// [`Fault::Suspect`] with no node actually dead: **observe**
    /// (modeled detection latency on the virtual clock), **probe** the
    /// suspect directly, then either **exonerate** — the gray fault
    /// healed; clear the verdict and relaunch on the same ranklist, so
    /// the resume is bit-exact with a fault-free run — or **fence and
    /// migrate** — bump the suspect's generation (zombie messages and
    /// SHM writes are rejected from here on), and let [`Self::heal_shard`]'s
    /// sequenced [`SpareDraw`] move its ranks onto a spare; the
    /// relaunch's group recovery rebuilds the shard from parity.
    ///
    /// Either way the suspicion spends one unit of the failure budget:
    /// a flapping straggler cannot make the daemon livelock on free
    /// exonerations.
    fn adjudicate_suspicion(
        &mut self,
        tenant: &mut Tenant,
        node: NodeId,
        score: u32,
        policy: &RetryPolicy,
        restart_hint: Duration,
    ) -> SliceEnd {
        let mut record = AttemptRecord {
            attempt: tenant.launches,
            fault: Fault::Suspect { node, score },
            newly_dead: Vec::new(),
            backoff: Duration::ZERO,
        };
        let failure_no = tenant.history.attempts.len() + 1;
        if failure_no > policy.max_failures {
            tenant.history.attempts.push(record);
            return SliceEnd::Finished(Box::new(TenantOutcome::Refused(Refusal::TooManyFailures)));
        }
        // observe: modeled job-manager latency, charged to the clock —
        // which also gives a transient fault time to heal before the
        // probe decides anything irreversible
        let mut phase = PhaseTimes::default();
        phase.set(CyclePhase::Detect, policy.detect);
        self.cluster.runtime().advance(policy.detect);
        let verdict = self.cluster.probe_node(node);
        self.cluster.reset_abort();
        let t_rep = self.cluster.stopwatch();
        match verdict {
            ProbeVerdict::Responsive => {
                tenant.history.suspicions.push(SuspicionRecord {
                    node,
                    score,
                    probe: "responsive",
                    outcome: SuspicionOutcome::Exonerated,
                });
            }
            ProbeVerdict::Degraded(label) => {
                let generation = self.cluster.fence_node(node);
                if let Err(refusal) = self.heal_shard(tenant) {
                    tenant.history.attempts.push(record);
                    return SliceEnd::Finished(Box::new(TenantOutcome::Refused(refusal)));
                }
                tenant.history.suspicions.push(SuspicionRecord {
                    node,
                    score,
                    probe: label,
                    outcome: SuspicionOutcome::Migrated { generation },
                });
            }
            ProbeVerdict::Unresponsive => {
                let generation = self.cluster.fence_node(node);
                if let Err(refusal) = self.heal_shard(tenant) {
                    tenant.history.attempts.push(record);
                    return SliceEnd::Finished(Box::new(TenantOutcome::Refused(refusal)));
                }
                tenant.history.suspicions.push(SuspicionRecord {
                    node,
                    score,
                    probe: "unresponsive",
                    outcome: SuspicionOutcome::Migrated { generation },
                });
            }
        }
        phase.set(CyclePhase::Replace, t_rep.elapsed());
        phase.set(
            CyclePhase::Restart,
            restart_hint.min(Duration::from_secs(1)),
        );
        tenant.cycles.push(phase);
        tenant.pending_attr = true;
        record.backoff = policy.backoff(failure_no);
        self.cluster.runtime().advance(record.backoff);
        tenant.history.attempts.push(record);
        SliceEnd::Yield
    }

    fn attribute(cycles: &mut [PhaseTimes], recover_s: f64, ckpt_s: f64, checkpoints: usize) {
        if let Some(cycle) = cycles.last_mut() {
            cycle.set(CyclePhase::Recover, Duration::from_secs_f64(recover_s));
            if checkpoints > 0 {
                cycle.set(
                    CyclePhase::Checkpoint,
                    Duration::from_secs_f64(ckpt_s / checkpoints as f64),
                );
            }
        }
    }

    /// Terminal bookkeeping: isolation audit, shard release (queue
    /// drain), report. The tenant's namespace is the *base* prefix plus
    /// every resize epoch under `{base}@`, so a resized tenant's
    /// old-epoch leftovers are audited exactly like live ones.
    fn finish(&mut self, tenant: Tenant, outcome: TenantOutcome) {
        let now = self.cluster.now();
        let prefix_slash = format!("{}/", tenant.base);
        let prefix_epoch = format!("{}@", tenant.base);
        let shard: Vec<NodeId> = self
            .pool
            .nodes_of(tenant.id)
            .map(|s| s.to_vec())
            .unwrap_or_else(|| {
                let mut v: Vec<NodeId> =
                    (0..tenant.rl.len()).map(|r| tenant.rl.node_of(r)).collect();
                v.sort_unstable();
                v.dedup();
                v
            });
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
        if self.cfg.wipe_on_release {
            for &n in &shard {
                if self.cluster.node_usable(n) {
                    self.cluster.shm(n).wipe();
                }
            }
        }
        let cluster = Arc::clone(&self.cluster);
        let release = self.pool.release(tenant.id, |n| cluster.node_usable(n));
        self.admit_drained(release.drained);
        let mut wiped = tenant.wiped;
        if self.cfg.wipe_on_release {
            wiped.extend(release.freed.iter().copied());
        }
        wiped.sort_unstable();
        wiped.dedup();
        self.reports.push(TenantReport {
            tenant: tenant.id,
            name: tenant.base,
            launches: tenant.launches,
            slices: tenant.slices,
            failures: tenant.history.attempts.len(),
            queued_for: tenant.admitted_at - tenant.queued_at,
            finished_at: now,
            outcome,
            cycles: tenant.cycles,
            history: tenant.history,
            resizes: tenant.resizes,
            wiped,
            foreign_on_shard: foreign,
            leaked_elsewhere: leaked,
            fenced_stale,
        });
    }
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
}
