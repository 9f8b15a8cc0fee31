//! Tenant elasticity: grow or shrink a tenant's shard between slices,
//! through the boundary checkpoint.
//!
//! The self-checkpoint invariant makes this legal: at a slice boundary
//! the workspace *is* the checkpoint — a committed, globally consistent
//! image of the matrix at a known panel. Resizing is therefore a pure
//! data-layout change: **harvest** the matrix columns from the old
//! layout's workspaces (service-side reads, no job running), then
//! **install** them under the new block-cyclic distribution and commit
//! a fresh boundary checkpoint for the new group layout
//! ([`skt_hpl::install_relayout`]), and only then move the node
//! accounting (the ledger's `ServicePool::commit_resize`).
//!
//! The install is wrapped in a sequenced `ResizeOp`
//! ([`skt_core::protocol::ops`]): a kill landing inside the resize
//! window leaves partial new-layout segments, and the replay's detect
//! classifies them `NotStarted | InFlight | Done` — partials are wiped
//! and re-installed, a committed image is recognized and skipped — so
//! recovery-of-resize is idempotent by construction. `ResizeOp::detect`
//! is the one replay check: `install_relayout` only ever runs on the
//! empty namespace `apply` leaves, and refuses any other. The old layout's
//! checkpoints are untouched until the new image commits: the new
//! layout lives in an epoch-suffixed SHM namespace (`{base}@e{k}`), and
//! the old epoch is wiped only after the pool reshape commits.

use crate::ledger::{ResizePlan, TenantId};
use crate::report::Refusal;
use crate::service::{CheckpointService, Repair, ServiceEvent, Tenant};
use skt_cluster::{segment_name, Cluster, Fault, NodeId, Ranklist, Region};
use skt_core::protocol::ops::{self, OpState, SequencedOp};
use skt_core::protocol::{Header, HeaderState};
use skt_core::{resize_group_size, Checkpointer, OpRecord};
use skt_hpl::{install_relayout, BlockCyclic1D, SktConfig, A2_CAPACITY};
use skt_mps::run_on_cluster;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Why a resize request is refused. Typed and total: every refusal
/// consumes nothing from the pool and the tenant continues unresized.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ResizeError {
    /// The target rank count cannot form a legal checkpoint group: a
    /// group needs strictly more members than parity stripes.
    ShrinkBelowMinGroup {
        /// Ranks requested.
        requested: usize,
        /// Minimum legal rank count under the tenant's codec.
        min: usize,
    },
    /// The boundary image is torn: workspaces disagree on the parked
    /// panel (or a B2 counter is unreadable). The tenant's own recovery
    /// path still works — only the resize is refused.
    TornBoundary,
    /// The target shard exceeds the pool's total compute-node count.
    NeverFits {
        /// Nodes demanded.
        demanded: usize,
        /// Compute nodes the pool has in total.
        total: usize,
    },
    /// The grow needs more free nodes than the pool holds right now.
    WouldStarve {
        /// The refused tenant.
        tenant: TenantId,
        /// Extra nodes the grow needs.
        requested: usize,
        /// Free nodes actually available.
        free: usize,
    },
}

impl ResizeError {
    /// Stable label for fingerprints and logs.
    pub fn label(&self) -> &'static str {
        match self {
            ResizeError::ShrinkBelowMinGroup { .. } => "shrink-below-min-group",
            ResizeError::TornBoundary => "torn-boundary",
            ResizeError::NeverFits { .. } => "never-fits",
            ResizeError::WouldStarve { .. } => "grow-would-starve",
        }
    }
}

impl std::fmt::Display for ResizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResizeError::ShrinkBelowMinGroup { requested, min } => {
                write!(
                    f,
                    "shrink to {requested} rank(s) below minimum group of {min}"
                )
            }
            ResizeError::TornBoundary => write!(f, "boundary checkpoint torn across ranks"),
            ResizeError::NeverFits { demanded, total } => {
                write!(
                    f,
                    "resize to {demanded} nodes can never fit a {total}-node pool"
                )
            }
            ResizeError::WouldStarve {
                tenant,
                requested,
                free,
            } => write!(
                f,
                "{tenant}: grow needs {requested} free node(s), pool has {free}"
            ),
        }
    }
}

impl std::error::Error for ResizeError {}

/// One resize attempt in a tenant's report: what was asked, what
/// happened, and which vacated nodes were wiped. Scheduler-independent
/// facts only (the request time is pinned by the storm plan, and the
/// outcome is a pure function of `(config, seed)`).
#[derive(Clone, Debug)]
pub struct ResizeAudit {
    /// Virtual time the attempt ran at.
    pub at: Duration,
    /// Rank count before.
    pub from: usize,
    /// Rank count after (== `from` when refused).
    pub to: usize,
    /// `grow`, `shrink`, or `noop`.
    pub kind: &'static str,
    /// `committed` (through the sequenced op), `cold` (no boundary
    /// image existed; pure node accounting), or `refused`.
    pub outcome: &'static str,
    /// The typed refusal, when `outcome == "refused"`.
    pub refusal: Option<ResizeError>,
    /// Name of the sequenced install op, when one ran (e.g.
    /// `resize-install panel=6`). Scheduler-seed invariant: the boundary
    /// panel is probe-anchored.
    pub op: Option<String>,
    /// Full rendered [`OpRecord`] of the install
    /// (`name detected:action`). The detected state of a *replay* can
    /// legitimately differ across scheduler seeds — how far a killed
    /// attempt got before the abort propagated is a race — so this
    /// belongs with the timed fingerprint, not the stable one.
    pub op_record: Option<String>,
    /// Vacated nodes wiped after the commit (ascending).
    pub wiped: Vec<NodeId>,
}

impl ResizeAudit {
    /// An attempt that ran no install op: a request already satisfied
    /// (`kind` `noop`, `outcome` `committed`) or a `cold` resize.
    fn new(
        at: Duration,
        from: usize,
        to: usize,
        kind: &'static str,
        outcome: &'static str,
    ) -> Self {
        ResizeAudit {
            at,
            from,
            to,
            kind,
            outcome,
            refusal: None,
            op: None,
            op_record: None,
            wiped: Vec::new(),
        }
    }

    /// A typed refusal: the tenant stays at `ranks`.
    fn refused(at: Duration, ranks: usize, kind: &'static str, refusal: ResizeError) -> Self {
        ResizeAudit {
            refusal: Some(refusal),
            ..Self::new(at, ranks, ranks, kind, "refused")
        }
    }

    /// A resize committed through the sequenced install `rec`, after
    /// which the vacated nodes `wiped` (ascending) were wiped.
    fn installed(
        at: Duration,
        from: usize,
        to: usize,
        kind: &'static str,
        rec: &OpRecord,
        wiped: Vec<NodeId>,
    ) -> Self {
        ResizeAudit {
            op: Some(rec.op.clone()),
            op_record: Some(rec.to_string()),
            wiped,
            ..Self::new(at, from, to, kind, "committed")
        }
    }

    /// Stable fingerprint line (no timings, no replay-race detail).
    pub fn line(&self) -> String {
        let refusal = match &self.refusal {
            Some(e) => format!(" refusal={}", e.label()),
            None => String::new(),
        };
        let op = match &self.op {
            Some(r) => format!(" op[{r}]"),
            None => String::new(),
        };
        format!(
            "resize {} {}->{} {}{}{} wiped={:?}",
            self.kind, self.from, self.to, self.outcome, refusal, op, self.wiped
        )
    }
}

/// A tenant's elasticity state. Owned by this module: the engine only
/// delivers requests, reports how each launch parked, and collects the
/// audit when the tenant ends.
pub(crate) struct Elasticity {
    /// Target rank counts of the resize requests not yet resolved,
    /// attempted FIFO at clean boundaries.
    pending_resize: VecDeque<usize>,
    /// True when the tenant's parked state is a committed boundary
    /// checkpoint (initially, and after every clean park); false after
    /// a launch died mid-slice. Resizes only move boundary images.
    clean_boundary: bool,
    /// Installs committed so far; the live SHM namespace is
    /// [`epoch_name`] of it.
    resize_epoch: u32,
    audits: Vec<ResizeAudit>,
}

impl Elasticity {
    /// A tenant that never ran: nothing pending, boundary clean.
    pub(crate) fn new() -> Self {
        Elasticity {
            pending_resize: VecDeque::new(),
            clean_boundary: true,
            resize_epoch: 0,
            audits: Vec::new(),
        }
    }

    /// Queue a request to resize to `target` ranks behind those already
    /// pending.
    pub(crate) fn request(&mut self, target: usize) {
        self.pending_resize.push_back(target);
    }

    /// A launch ended: `clean` when it parked at a boundary checkpoint,
    /// not when it died mid-slice — the workspaces may then hold
    /// mid-panel state, so no resize until the next clean park.
    pub(crate) fn parked(&mut self, clean: bool) {
        self.clean_boundary = clean;
    }

    /// The tenant ended: the audit of every resize attempted on it.
    pub(crate) fn into_audits(self) -> Vec<ResizeAudit> {
        self.audits
    }
}

/// Outcome of one resize attempt at a clean boundary.
enum ResizeAttempt {
    /// Resolved — committed, cold, a no-op, or a typed refusal — with
    /// the audit to record: drop the request.
    Resolved(ResizeAudit),
    /// Can't act at this boundary (image incomplete): keep the request,
    /// run a slice, try again at the next boundary.
    Retry,
    /// A fault landed inside the resize window: budget charged, request
    /// kept — the next attempt replays the sequenced install.
    Faulted,
}

/// The boundary image harvested from a tenant's old layout.
enum Harvest {
    /// Every rank's workspace present and agreeing on the parked panel:
    /// the full matrix, by global column (`n + 1` columns, `b` last).
    Complete {
        /// Global column index → full column (length `n`).
        columns: Vec<Vec<f64>>,
        /// Panel counter the boundary checkpoint parked at.
        panel: u64,
    },
    /// No rank has any workspace — the tenant never ran. A resize is a
    /// pure node-accounting change (cold resize).
    AllMissing,
    /// Some workspaces are missing or unreadable (a node died and was
    /// replaced since the last boundary). A normal slice will rebuild
    /// them from parity; retry the resize at the next boundary.
    Incomplete,
    /// Workspaces disagree on the parked panel: the boundary is torn.
    Torn,
}

/// The panel counter a boundary checkpoint parked in a workspace image's
/// `A2`. `None` when the image is truncated or torn, or holds no 8-byte
/// counter (never parked at a boundary).
fn parked_panel(data: &[f64], a1_len: usize) -> Option<u64> {
    let a2 = Checkpointer::peek_a2(data, a1_len, A2_CAPACITY)?;
    Some(u64::from_le_bytes(a2.as_slice().try_into().ok()?))
}

/// Remove every segment under `prefix` from the nodes `rl` places ranks
/// on — one resize epoch's namespace, never anything else.
fn remove_prefix(cluster: &Cluster, rl: &Ranklist, prefix: &str) {
    for r in 0..rl.len() {
        let shm = cluster.shm(rl.node_of(r));
        for name in shm.names() {
            if name.starts_with(prefix) {
                shm.remove(&name);
            }
        }
    }
}

/// Read the boundary image of `cfg.name` from the old layout's workspaces.
/// Service-side, read-only — never mutates a segment.
fn harvest(cluster: &Cluster, cfg: &SktConfig, rl: &Ranklist) -> Harvest {
    let n = cfg.hpl.n;
    let nranks = rl.len();
    let a1_len = BlockCyclic1D::new(n, cfg.hpl.nb, nranks, 0).alloc_len();
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); n + 1];
    let mut panel: Option<u64> = None;
    let mut missing = 0usize;
    for r in 0..nranks {
        let node = rl.node_of(r);
        let work = segment_name(&cfg.name, r, Region::Work.suffix());
        let Some(seg) = cluster.shm(node).attach(&work) else {
            missing += 1;
            continue;
        };
        let g = seg.read();
        let data = g.as_f64();
        let Some(p) = parked_panel(data, a1_len) else {
            return Harvest::Torn;
        };
        match panel {
            None => panel = Some(p),
            Some(q) if q != p => return Harvest::Torn,
            Some(_) => {}
        }
        let dist = BlockCyclic1D::new(n, cfg.hpl.nb, nranks, r);
        for (lc, gc) in dist.owned_cols() {
            columns[gc] = data[lc * n..lc * n + n].to_vec();
        }
    }
    if missing == nranks {
        return Harvest::AllMissing;
    }
    if missing > 0 {
        return Harvest::Incomplete;
    }
    if columns.iter().any(|c| c.len() != n) {
        return Harvest::Torn;
    }
    Harvest::Complete {
        columns,
        panel: panel.expect("nranks >= 1"),
    }
}

/// Context the sequenced [`ResizeOp`] detects against and applies to:
/// the cluster plus the *new* layout's config and ranklist. The old
/// layout is never touched by the op — it stays the fallback until the
/// caller commits the pool reshape.
struct ResizeCtx {
    cluster: Arc<Cluster>,
    /// New-layout config: epoch-suffixed name, resized group size.
    new_cfg: SktConfig,
    /// Ranklist of the new world (retained + staged nodes, ascending).
    new_rl: Ranklist,
}

/// The sequenced install of a harvested boundary image under a new
/// layout. Detect classifies the new epoch's SHM namespace:
///
/// * **Done** — every new rank holds a committed header and a `B2`
///   panel counter equal to the boundary's: a previous attempt
///   finished; commit skips the install.
/// * **InFlight** — some new-epoch segment exists but the evidence is
///   incomplete: a previous attempt died inside the window. Apply wipes
///   the partials and re-installs (idempotent).
/// * **NotStarted** — no trace; forward path.
struct ResizeOp {
    /// Harvested matrix, by global column.
    columns: Vec<Vec<f64>>,
    /// Panel the boundary parked at (the new checkpoint's `A2`).
    panel: u64,
}

impl ResizeOp {
    fn prefix(ctx: &ResizeCtx) -> String {
        format!("{}/", ctx.new_cfg.name)
    }
}

impl SequencedOp<ResizeCtx> for ResizeOp {
    fn name(&self) -> String {
        format!("resize-install panel={}", self.panel)
    }

    fn detect(&self, ctx: &ResizeCtx) -> Result<OpState, Fault> {
        let prefix = Self::prefix(ctx);
        let nranks = ctx.new_rl.len();
        let n = ctx.new_cfg.hpl.n;
        let a1_len = BlockCyclic1D::new(n, ctx.new_cfg.hpl.nb, nranks, 0).alloc_len();
        let mut any = false;
        let mut committed = 0usize;
        for r in 0..nranks {
            let shm = ctx.cluster.shm(ctx.new_rl.node_of(r));
            if shm.bytes_with_prefix(&prefix) > 0 {
                any = true;
            }
            let seg =
                |region: Region| shm.attach(&segment_name(&ctx.new_cfg.name, r, region.suffix()));
            let (Some(work), Some(header)) = (seg(Region::Work), seg(Region::Header)) else {
                continue;
            };
            let HeaderState::Valid(h) = Header::classify(&header) else {
                continue;
            };
            if !h.has_committed() {
                continue; // created but never committed
            }
            if parked_panel(work.read().as_f64(), a1_len) == Some(self.panel) {
                committed += 1;
            }
        }
        Ok(if committed == nranks {
            OpState::Done
        } else if any {
            OpState::InFlight
        } else {
            OpState::NotStarted
        })
    }

    fn apply(&self, ctx: &mut ResizeCtx) -> Result<(), Fault> {
        // Wipe partials from a previous attempt: the install must start
        // from a clean namespace or `init_synced` would adopt torn
        // segments. Only the *new* epoch's prefix is touched.
        remove_prefix(&ctx.cluster, &ctx.new_rl, &Self::prefix(ctx));
        let cfg = ctx.new_cfg.clone();
        let columns = &self.columns;
        let panel = self.panel;
        run_on_cluster(Arc::clone(&ctx.cluster), &ctx.new_rl, |c| {
            install_relayout(c, &cfg, columns, panel)
        })?;
        Ok(())
    }
}

impl CheckpointService {
    /// Ask the service to resize the tenant named `name` (base name) to
    /// `target` ranks, delivered at virtual time `at`. The resize is
    /// applied at the tenant's next *clean boundary* after delivery;
    /// requests stack FIFO. A request for a tenant that already finished
    /// (or never activated) is dropped.
    pub fn schedule_resize(&mut self, name: &str, at: Duration, target: usize) {
        let name = name.to_string();
        self.queue.push(at, ServiceEvent::Resize { name, target });
    }

    /// The resize step of a slice top: when the tenant is parked at a
    /// clean boundary, attempt its oldest pending request. `Ok(false)`
    /// when the slice must not launch: the shard (or staged nodes) took
    /// a hit inside the window, so the tenant yields and the next pick
    /// re-heals before the replay.
    pub(crate) fn resize_at_boundary(&mut self, tenant: &mut Tenant) -> Result<bool, Refusal> {
        if !tenant.elastic.clean_boundary {
            return Ok(true);
        }
        let Some(&target) = tenant.elastic.pending_resize.front() else {
            return Ok(true);
        };
        match self.attempt_resize(tenant, target)? {
            ResizeAttempt::Resolved(audit) => {
                tenant.elastic.audits.push(audit);
                tenant.elastic.pending_resize.pop_front();
            }
            ResizeAttempt::Retry => {}
            ResizeAttempt::Faulted => return Ok(false),
        }
        Ok(true)
    }

    /// One resize attempt at a clean boundary. Refusals are total and
    /// consume nothing: planning is pure, and the pool commit happens
    /// only after the new layout's image is installed (or the resize is
    /// cold). See the module docs for the commit-point map.
    fn attempt_resize(
        &mut self,
        tenant: &mut Tenant,
        target: usize,
    ) -> Result<ResizeAttempt, Refusal> {
        let now = self.cluster.now();
        let cur = tenant.rl.len();
        if target == cur {
            let audit = ResizeAudit::new(now, cur, cur, "noop", "committed");
            return Ok(ResizeAttempt::Resolved(audit));
        }
        let kind = if target > cur { "grow" } else { "shrink" };
        let m = tenant.cfg.codec.parity_count();
        let planned = match resize_group_size(cur, tenant.cfg.group_size, target, m) {
            None => Err(ResizeError::ShrinkBelowMinGroup {
                requested: target,
                min: (m + 1).max(2),
            }),
            Some(new_g) => self
                .pool
                .plan_resize(tenant.id, target)
                .map(|plan| (plan, new_g)),
        };
        let (plan, new_g) = match planned {
            Ok(planned) => planned,
            Err(err) => {
                let audit = ResizeAudit::refused(now, cur, kind, err);
                return Ok(ResizeAttempt::Resolved(audit));
            }
        };
        let (columns, panel) = match harvest(&self.cluster, &tenant.cfg, &tenant.rl) {
            // a node died and was replaced since the park: the next
            // slice's group recovery rebuilds the missing workspaces;
            // resize at the boundary after that
            Harvest::Incomplete => return Ok(ResizeAttempt::Retry),
            Harvest::Torn => {
                let audit = ResizeAudit::refused(now, cur, kind, ResizeError::TornBoundary);
                return Ok(ResizeAttempt::Resolved(audit));
            }
            Harvest::AllMissing => {
                // the tenant never ran: pure node accounting, no image
                let mut new_cfg = tenant.cfg.clone();
                new_cfg.group_size = new_g;
                self.commit_layout(tenant, &plan, new_cfg);
                let audit = ResizeAudit::new(now, cur, target, kind, "cold");
                return Ok(ResizeAttempt::Resolved(audit));
            }
            Harvest::Complete { columns, panel } => (columns, panel),
        };
        let epoch = tenant.elastic.resize_epoch + 1;
        let mut new_cfg = tenant.cfg.clone();
        new_cfg.name = epoch_name(&tenant.base, epoch);
        new_cfg.group_size = new_g;
        let mut ctx = ResizeCtx {
            cluster: Arc::clone(&self.cluster),
            new_cfg,
            new_rl: Ranklist::explicit(plan.new_nodes()),
        };
        let known_dead = self.cluster.dead_nodes();
        self.cluster.reset_abort();
        let rec = match ops::replay(ResizeOp { columns, panel }, &mut ctx) {
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
                    remove_prefix(&self.cluster, &ctx.new_rl, &ResizeOp::prefix(&ctx));
                }
                return charged.map(|()| ResizeAttempt::Faulted);
            }
        };
        let wiped = self.commit_layout(tenant, &plan, ctx.new_cfg);
        tenant.elastic.resize_epoch = epoch;
        let audit = ResizeAudit::installed(now, cur, target, kind, &rec, wiped);
        Ok(ResizeAttempt::Resolved(audit))
    }

    /// Commit `plan` for `tenant` under `new_cfg`: the pool moves the
    /// shard, the vacated still-usable nodes are wiped and a renamed
    /// namespace's old segments dropped from the nodes kept, the tenants
    /// the freed capacity unblocks are admitted, and the tenant adopts
    /// the layout. Returns the wiped nodes.
    fn commit_layout(
        &mut self,
        tenant: &mut Tenant,
        plan: &ResizePlan,
        new_cfg: SktConfig,
    ) -> Vec<NodeId> {
        let new_rl = Ranklist::explicit(plan.new_nodes());
        let usable = |n| self.cluster.node_usable(n);
        let audit = self.pool.commit_resize(tenant.id, plan, usable);
        for &n in &audit.freed {
            self.cluster.shm(n).wipe(self.cluster.pool());
        }
        if new_cfg.name != tenant.cfg.name {
            remove_prefix(&self.cluster, &new_rl, &format!("{}/", tenant.cfg.name));
        }
        self.admit_drained(audit.drained);
        tenant.cfg = new_cfg;
        tenant.rl = new_rl;
        audit.freed
    }
}

/// Effective SHM namespace of resize epoch `k` over `base` (which must
/// not contain `'@'`): the base name for epoch 0, `{base}@e{k}` after.
fn epoch_name(base: &str, epoch: u32) -> String {
    debug_assert!(
        !base.contains('@'),
        "base tenant names must not contain '@'"
    );
    if epoch == 0 {
        base.to_string()
    } else {
        format!("{base}@e{epoch}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::{elastic_cfg, residual_bits, service, tenant_cfg};
    use crate::{PolicySpec, RetryPolicy, ServiceConfig, StormPlan, TenantOutcome};
    use skt_cluster::{ClusterConfig, FailurePlan, SegmentData};
    use skt_hpl::RESIZE_PROBE;

    #[test]
    fn epoch_names_nest_under_the_base_prefixes() {
        assert_eq!(epoch_name("job", 0), "job");
        assert_eq!(epoch_name("job", 2), "job@e2");
        // the isolation audit owns `{base}/` and `{base}@`; an epoch
        // name of one tenant must never match another tenant's prefixes
        assert!(epoch_name("job0", 1).starts_with("job0@"));
        assert!(!epoch_name("job00", 1).starts_with("job0/"));
        assert!(!epoch_name("job00", 1).starts_with("job0@"));
    }

    #[test]
    fn resize_error_labels_are_stable() {
        let table: [(ResizeError, &str, &str); 4] = [
            (
                ResizeError::ShrinkBelowMinGroup {
                    requested: 1,
                    min: 3,
                },
                "shrink-below-min-group",
                "shrink to 1 rank(s) below minimum group of 3",
            ),
            (
                ResizeError::TornBoundary,
                "torn-boundary",
                "boundary checkpoint torn across ranks",
            ),
            (
                ResizeError::WouldStarve {
                    tenant: TenantId(0),
                    requested: 2,
                    free: 0,
                },
                "grow-would-starve",
                "t0: grow needs 2 free node(s), pool has 0",
            ),
            (
                ResizeError::NeverFits {
                    demanded: 9,
                    total: 4,
                },
                "never-fits",
                "resize to 9 nodes can never fit a 4-node pool",
            ),
        ];
        for (e, label, text) in table {
            assert_eq!(e.label(), label);
            assert_eq!(e.to_string(), text);
        }
    }

    /// A replayed install whose previous attempt already committed on
    /// every new rank is detected `Done` and skipped: replaying it with
    /// a different image leaves the new namespace as the first install
    /// wrote it.
    #[test]
    fn replayed_install_that_already_committed_is_skipped() {
        let cfg = tenant_cfg("job", 16);
        let n = cfg.hpl.n;
        let mut ctx = ResizeCtx {
            cluster: Arc::new(Cluster::new(ClusterConfig::new(2, 0))),
            new_cfg: cfg,
            new_rl: Ranklist::explicit(vec![0, 1]),
        };
        let install = |ctx: &mut ResizeCtx, v: f64| {
            let op = ResizeOp {
                columns: vec![vec![v; n]; n + 1],
                panel: 2,
            };
            ops::replay(op, ctx).unwrap().into_record().to_string()
        };
        let segments = |ctx: &ResizeCtx| -> Vec<SegmentData> {
            let shms = [0, 1].map(|node| ctx.cluster.shm(node));
            (shms.iter())
                .flat_map(|shm| shm.names().into_iter().map(|name| shm.attach(&name)))
                .map(|seg| seg.unwrap().read().clone())
                .collect()
        };
        assert_eq!(
            install(&mut ctx, 1.0),
            "resize-install panel=2 not-started:replayed"
        );
        let installed = segments(&ctx);
        assert!(!installed.is_empty());
        assert_eq!(
            install(&mut ctx, 2.0),
            "resize-install panel=2 done:skipped"
        );
        assert_eq!(
            segments(&ctx),
            installed,
            "a skipped install rewrites nothing"
        );
    }

    // ---- the service's resize half, end to end ----

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
            let storm = StormPlan::none().arm(FailurePlan::new(RESIZE_PROBE, 1, 4));
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
            Some(ResizeError::WouldStarve {
                tenant: a.tenant,
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

    /// Two requests delivered at the *same* virtual instant apply in
    /// request order: the event queue breaks the tie by scheduling
    /// sequence, and the tenant's pending queue is FIFO.
    #[test]
    fn same_instant_resizes_apply_in_request_order() {
        let mut svc = service(8, 0, 3, PolicySpec::RoundRobin);
        svc.register(elastic_cfg("job"), 6, 0).unwrap();
        svc.schedule_resize("job", Duration::ZERO, 4);
        svc.schedule_resize("job", Duration::ZERO, 5);
        let rep = svc.run(&StormPlan::none());
        residual_bits(&rep, "job");
        let t = rep.tenant("job").unwrap();
        let steps: Vec<(&str, &str, usize, usize)> = t
            .resizes
            .iter()
            .map(|r| (r.kind, r.outcome, r.from, r.to))
            .collect();
        // reversed, it would read shrink 6->5 then shrink 5->4
        assert_eq!(
            steps,
            vec![("shrink", "cold", 6, 4), ("grow", "committed", 4, 5)]
        );
    }
}
