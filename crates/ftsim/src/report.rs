//! What the supervisor reports: pure data and its formatting.
//!
//! The service engine ([`crate::service`]) fills these in, and the
//! single-job daemon ([`crate::daemon`]) returns its one tenant's
//! [`TenantReport`] as is; nothing here touches a cluster. Per failed
//! attempt: an [`AttemptRecord`], a Figure 10 [`PhaseTimes`] cycle, and
//! for gray failures a [`SuspicionRecord`] — collected in a
//! [`DaemonHistory`] under the [`RetryPolicy`] that budgets them. Per
//! tenant: a [`TenantReport`] ending in a [`TenantOutcome`] (completed,
//! or a typed [`Refusal`]), whose `fingerprint` is the canonical text
//! the determinism jobs diff.
//!
//! Figure 10 timing: *detect* is modeled (it is a property of the job
//! manager — ~63 s on Tianhe-2, ~30 s on Tianhe-1A); *replace*,
//! *recover* and *checkpoint* are measured on the virtual cluster;
//! *restart* is a clamped stand-in (see [`CyclePhase::Restart`]).

use crate::ledger::TenantId;
use crate::resize::ResizeAudit;
use skt_cluster::{Fault, NodeId};
use skt_core::{OpRecord, RecoveryReport};
use skt_hpl::SktOutput;
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
    /// Relaunching the job. Not a spawn-to-first-rank measurement: it is
    /// the *failed* launch's elapsed clock, clamped to 1 s — read after
    /// the `Detect` advance and the repair on the crash path (so the
    /// constant 1 s under `SimRuntime` whenever `detect ≥ 1 s`), and
    /// before them on the suspicion path.
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
    /// through the service's sequenced `SpareDraw` op ([`crate::service`]).
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
/// [`Refusal`] must come with.
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

/// Backoff before the first retry; doubles on each consecutive failure.
const BACKOFF_BASE: Duration = Duration::from_secs(1);
/// Upper bound on the doubling backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(60);

/// Retry policy of the daemon's restart loop.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Node losses to survive before giving up.
    pub max_failures: usize,
    /// Modeled failure-detection latency (job-manager property).
    pub detect: Duration,
}

impl RetryPolicy {
    /// A failure budget and a detect latency.
    pub fn new(max_failures: usize, detect: Duration) -> Self {
        RetryPolicy {
            max_failures,
            detect,
        }
    }

    /// Backoff before retrying after the `failures`-th consecutive
    /// failure (1-based; 0 behaves as 1): 1 s doubled per failure, capped
    /// at 60 s. Charged to the cluster's
    /// [`Runtime`](skt_cluster::Runtime) clock, so it is virtual under
    /// simulation and never sleeps a test.
    pub fn backoff(&self, failures: usize) -> Duration {
        let doubled =
            BACKOFF_BASE.saturating_mul(1u32 << failures.saturating_sub(1).min(31) as u32);
        doubled.min(BACKOFF_CAP)
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
    /// The spare ledger refused the cascade: the pool still holds
    /// spares, but granting the draw would dip into those reserved for
    /// other tenants' guarantees.
    SpareContention {
        /// The refused tenant.
        tenant: TenantId,
        /// Spares the cascade needs.
        requested: usize,
        /// What remains of the tenant's own reservation.
        own_reserve: usize,
        /// Unreserved spares available to anyone.
        float: usize,
        /// Spares currently reserved for *other* tenants — the quantity
        /// this refusal protects.
        reserved_elsewhere: usize,
    },
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
            Refusal::SpareContention { .. } => "spare-contention",
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

impl TenantOutcome {
    /// The completed solve, or the verdict that refused it.
    pub fn completed(&self) -> Result<&SktOutput, &Refusal> {
        match self {
            TenantOutcome::Completed(out) => Ok(out),
            TenantOutcome::Refused(r) => Err(r),
        }
    }
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
    /// no-ops, and their typed refusals.
    pub resizes: Vec<ResizeAudit>,
    /// Nodes whose SHM the service wiped on this tenant's behalf:
    /// vacated at resize commits, plus the released shard itself unless
    /// the service adopted a caller-owned cluster
    /// ([`CheckpointService::for_placed_job`](crate::service::CheckpointService::for_placed_job)).
    /// A shrunk tenant's old nodes land here — wiped, not leaked.
    pub wiped: Vec<NodeId>,
    /// SHM segment names found on the tenant's shard that do **not**
    /// belong to it — must be empty (cross-tenant isolation).
    pub foreign_on_shard: Vec<String>,
    /// Nodes *outside* the shard holding segments with this tenant's
    /// prefix — must be empty (no state leaked off-shard).
    pub leaked_elsewhere: Vec<NodeId>,
    /// Fenced nodes still quarantining stale segments with this tenant's
    /// prefix — a zombie's frozen leftovers, **not** a leak: fencing
    /// guarantees nothing reads or merges them.
    pub fenced_stale: Vec<NodeId>,
}

impl TenantReport {
    /// Report of a tenant that never ran: zero counts, empty histories.
    /// The engine fills in the rest for tenants that did.
    pub(crate) fn new(
        tenant: TenantId,
        name: String,
        outcome: TenantOutcome,
        queued_for: Duration,
        finished_at: Duration,
    ) -> Self {
        TenantReport {
            tenant,
            name,
            launches: 0,
            slices: 0,
            failures: 0,
            queued_for,
            finished_at,
            outcome,
            cycles: Vec::new(),
            history: DaemonHistory::default(),
            resizes: Vec::new(),
            wiped: Vec::new(),
            foreign_on_shard: Vec::new(),
            leaked_elsewhere: Vec::new(),
            fenced_stale: Vec::new(),
        }
    }

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
                    Refusal::SpareContention {
                        tenant,
                        requested,
                        own_reserve,
                        float,
                        reserved_elsewhere,
                    } => format!(
                        " {tenant}: drawing {requested} spare(s) would starve other tenants' \
                         guarantees (own reserve {own_reserve}, float {float}, \
                         {reserved_elsewhere} reserved elsewhere)"
                    ),
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The contention refusal's fingerprint line names every number the
    /// ledger weighed; the determinism jobs diff it across processes.
    #[test]
    fn spare_contention_fingerprint_line_is_pinned() {
        let refusal = Refusal::SpareContention {
            tenant: TenantId(3),
            requested: 2,
            own_reserve: 1,
            float: 0,
            reserved_elsewhere: 11,
        };
        let outcome = TenantOutcome::Refused(refusal);
        let report = TenantReport::new(
            TenantId(3),
            "job03".into(),
            outcome,
            Duration::ZERO,
            Duration::ZERO,
        );
        let fp = report.fingerprint(false);
        assert_eq!(
            fp.lines().nth(1),
            Some(
                "  refused spare-contention t3: drawing 2 spare(s) would starve other tenants' \
                 guarantees (own reserve 1, float 0, 11 reserved elsewhere)"
            )
        );
    }
}
