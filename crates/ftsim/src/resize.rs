//! Tenant elasticity: grow, shrink, or relocate a tenant's shard
//! between slices, through the boundary checkpoint.
//!
//! The self-checkpoint invariant makes this legal: at a slice boundary
//! the workspace *is* the checkpoint — a committed, globally consistent
//! image of the matrix at a known panel. Resizing is therefore a pure
//! data-layout change: **harvest** the matrix columns from the old
//! layout's workspaces (service-side reads, no job running), then
//! **install** them under the new block-cyclic distribution and commit
//! a fresh boundary checkpoint for the new group layout
//! ([`skt_hpl::install_relayout`]), and only then move the node
//! accounting ([`ServicePool::commit_resize`](skt_cluster::ServicePool)).
//!
//! The install is wrapped in a sequenced `ResizeOp`
//! ([`skt_core::protocol::ops`]): a kill landing inside the resize
//! window leaves partial new-layout segments, and the replay's detect
//! classifies them `NotStarted | InFlight | Done` — partials are wiped
//! and re-installed, a committed image is recognized and skipped — so
//! recovery-of-resize is idempotent by construction. The old layout's
//! checkpoints are untouched until the new image commits: the new
//! layout lives in an epoch-suffixed SHM namespace (`{base}@e{k}`), and
//! the old epoch is wiped only after the pool reshape commits.

use skt_cluster::{Cluster, Fault, NodeId, Ranklist};
use skt_core::protocol::ops::{OpState, SequencedOp};
use skt_core::protocol::{Header, HeaderState};
use skt_core::{Checkpointer, OpRecord};
use skt_hpl::{install_relayout, BlockCyclic1D, SktConfig, A2_CAPACITY};
use skt_mps::run_on_cluster;
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
    /// The grow needs more free nodes than the pool holds right now.
    GrowWouldStarve {
        /// Extra nodes the grow needs.
        requested: usize,
        /// Free nodes actually available.
        free: usize,
    },
    /// The boundary image is torn: workspaces disagree on the parked
    /// panel (or a B2 counter is unreadable). The tenant's own recovery
    /// path still works — only the resize is refused.
    TornBoundary,
    /// The target shard exceeds the pool's total compute-node count.
    NeverFits {
        /// Ranks demanded.
        demanded: usize,
        /// Compute nodes the pool has in total.
        total: usize,
    },
    /// The post-resize per-node memory demand exceeds node capacity.
    Oversubscribed {
        /// Bytes demanded per node after the resize.
        demanded: u64,
        /// Bytes a node can hold.
        capacity: u64,
    },
}

impl ResizeError {
    /// Stable label for fingerprints and logs.
    pub fn label(&self) -> &'static str {
        match self {
            ResizeError::ShrinkBelowMinGroup { .. } => "shrink-below-min-group",
            ResizeError::GrowWouldStarve { .. } => "grow-would-starve",
            ResizeError::TornBoundary => "torn-boundary",
            ResizeError::NeverFits { .. } => "never-fits",
            ResizeError::Oversubscribed { .. } => "oversubscribed",
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
            ResizeError::GrowWouldStarve { requested, free } => {
                write!(f, "grow needs {requested} free node(s), pool has {free}")
            }
            ResizeError::TornBoundary => write!(f, "boundary checkpoint torn across ranks"),
            ResizeError::NeverFits { demanded, total } => {
                write!(f, "{demanded} ranks can never fit a {total}-node pool")
            }
            ResizeError::Oversubscribed { demanded, capacity } => {
                write!(f, "{demanded} B/node demanded, nodes hold {capacity} B")
            }
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
    /// `grow`, `shrink`, `relocate`, or `noop`.
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
    pub(crate) fn new(
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
    pub(crate) fn refused(
        at: Duration,
        ranks: usize,
        kind: &'static str,
        refusal: ResizeError,
    ) -> Self {
        ResizeAudit {
            refusal: Some(refusal),
            ..Self::new(at, ranks, ranks, kind, "refused")
        }
    }

    /// A resize committed through the sequenced install `rec`, after
    /// which the vacated nodes `wiped` (ascending) were wiped.
    pub(crate) fn installed(
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

/// A pending resize on a tenant, attempted at its next slice top.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PendingResize {
    /// Grow or shrink to this rank count.
    Target(usize),
    /// Same-size defragmentation move onto lower node ids.
    Relocate,
}

/// The boundary image harvested from a tenant's old layout.
pub(crate) enum Harvest {
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
pub(crate) fn remove_prefix(cluster: &Cluster, rl: &Ranklist, prefix: &str) {
    for r in 0..rl.len() {
        let shm = cluster.shm(rl.node_of(r));
        for name in shm.names() {
            if name.starts_with(prefix) {
                shm.remove(&name);
            }
        }
    }
}

/// Read the boundary image of `name` from the old layout's workspaces.
/// Service-side, read-only — never mutates a segment.
pub(crate) fn harvest(cluster: &Cluster, name: &str, cfg: &SktConfig, rl: &Ranklist) -> Harvest {
    let n = cfg.hpl.n;
    let nranks = rl.len();
    let a1_len = BlockCyclic1D::new(n, cfg.hpl.nb, nranks, 0).alloc_len();
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); n + 1];
    let mut panel: Option<u64> = None;
    let mut missing = 0usize;
    for r in 0..nranks {
        let node = rl.node_of(r);
        let Some(seg) = cluster.shm(node).attach(&format!("{name}/r{r}/work")) else {
            missing += 1;
            continue;
        };
        let g = seg.read();
        let Ok(data) = g.try_as_f64() else {
            return Harvest::Torn;
        };
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
pub(crate) struct ResizeCtx {
    pub cluster: Arc<Cluster>,
    /// New-layout config: epoch-suffixed name, resized group size.
    pub new_cfg: SktConfig,
    /// Ranklist of the new world (retained + staged nodes, ascending).
    pub new_rl: Ranklist,
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
pub(crate) struct ResizeOp {
    /// Harvested matrix, by global column.
    pub columns: Vec<Vec<f64>>,
    /// Panel the boundary parked at (the new checkpoint's `A2`).
    pub panel: u64,
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
            let Some(work) = shm.attach(&format!("{}r{r}/work", prefix)) else {
                continue;
            };
            let Some(header) = shm.attach(&format!("{}r{r}/header", prefix)) else {
                continue;
            };
            let HeaderState::Valid(h) = Header::classify(&header) else {
                continue;
            };
            if h.d_epoch.max(h.bc_epoch).max(h.pair1_epoch) == 0 {
                continue; // created but never committed
            }
            let g = work.read();
            let Ok(data) = g.try_as_f64() else { continue };
            if parked_panel(data, a1_len) == Some(self.panel) {
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

/// Effective SHM namespace of resize epoch `k` over `base` (which must
/// not contain `'@'`): the base name for epoch 0, `{base}@e{k}` after.
pub(crate) fn epoch_name(base: &str, epoch: u32) -> String {
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
        let table: [(ResizeError, &str); 5] = [
            (
                ResizeError::ShrinkBelowMinGroup {
                    requested: 1,
                    min: 3,
                },
                "shrink-below-min-group",
            ),
            (
                ResizeError::GrowWouldStarve {
                    requested: 2,
                    free: 0,
                },
                "grow-would-starve",
            ),
            (ResizeError::TornBoundary, "torn-boundary"),
            (
                ResizeError::NeverFits {
                    demanded: 9,
                    total: 4,
                },
                "never-fits",
            ),
            (
                ResizeError::Oversubscribed {
                    demanded: 2,
                    capacity: 1,
                },
                "oversubscribed",
            ),
        ];
        for (e, label) in table {
            assert_eq!(e.label(), label);
            assert!(!e.to_string().is_empty());
        }
    }
}
