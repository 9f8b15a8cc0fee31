//! Deterministic fault injection.
//!
//! The paper validates SKT-HPL by powering off nodes during the run (§6.2,
//! §6.3) and analyses recoverability by *when* the failure lands relative
//! to the protocol (Figures 2–5: during computing, during checksum
//! calculation, during checkpoint flush). Random power-offs can only sample
//! those windows; a plan armed with [`crate::Cluster::arm_failure`] fires
//! a chosen fault the *n-th time a node passes a named probe point*
//! ([`crate::Cluster::failpoint`]), so every window is exercised exactly
//! and reproducibly.
//!
//! A [`FaultPlan`] is **when** × **what**, each said once: the
//! probe-count trigger `(label, nth, node)` and a [`FaultAction`]:
//!
//! * **Kill** ([`FaultPlan::new`], a.k.a. [`FailurePlan`]) — power the
//!   node off: memory wiped, job aborted. Probe points exist on the
//!   forward protocol *and* on the recovery path, so cascading failures (a
//!   second node dying mid-rebuild) are as targetable as first failures.
//! * **Corrupt** ([`FaultPlan::corrupt`]) — flip one bit in one SHM
//!   checkpoint [`Region`] of the node, silently: nothing aborts, nothing
//!   is wiped. This models the DRAM bit flips that diskless in-memory
//!   checkpoints are exposed to for the whole job lifetime; the CRC/scrub
//!   layer in `skt-core` is what's expected to catch it.
//! * **Gray** ([`FaultPlan::gray`]) — degrade the node without killing it:
//!   a straggler ([`GrayKind::Slow`]), a hard hang ([`GrayKind::Hang`]), or
//!   a degraded link ([`GrayKind::LinkDegrade`]). Nothing aborts and no
//!   memory is lost; the suspicion layer (`crate::suspicion`) is what's
//!   expected to notice. Gray faults optionally heal after a virtual
//!   duration, which is what makes *false* suspicion testable.
//!
//! A clock-scheduled storm fault or a test's immediate flip is the same
//! action through the same door, [`crate::Cluster::apply_fault`].

use crate::cluster::NodeId;
use std::time::Duration;

/// Error type threaded through the whole stack when the job dies.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The job was aborted (MPI semantics: any node failure kills every
    /// rank of the job).
    JobAborted,
    /// This specific node just died (returned to the rank that was killed).
    NodeDead(NodeId),
    /// A protocol invariant was violated (wrong message payload type,
    /// missing collective contribution, wiped SHM segment). Carries a static
    /// description; the job-abort path treats it like any other fault
    /// instead of panicking the rank thread.
    Protocol(&'static str),
    /// The suspicion layer declared `node` suspect: it stopped making
    /// progress (or progressed far too slowly) but is not provably dead.
    /// `score` is the whole-φ suspicion score at declaration time; the
    /// service's suspicion ladder decides between exoneration and
    /// proactive migration. Returned by collectives instead of parking
    /// forever on a gray peer.
    Suspect {
        /// The suspect node.
        node: NodeId,
        /// Suspicion score (whole φ units) when the verdict was declared.
        score: u32,
    },
    /// The rank's node was fenced (its generation number advanced) while
    /// the job held an older generation: the node is an exonerated-too-
    /// late zombie whose messages and SHM writes must never be merged.
    Fenced {
        /// The fenced node.
        node: NodeId,
        /// The node's current (post-fence) generation.
        generation: u64,
    },
}

impl Fault {
    /// Canonical label with every timing-dependent detail stripped: the
    /// [`Fault::Suspect`] score depends on *when* a peer sampled the
    /// monitor, which varies with the scheduler seed even when the
    /// verdict (which node, and why) does not. Fingerprints that must be
    /// seed-invariant print this instead of the `Debug` form.
    pub fn stable_label(&self) -> String {
        match self {
            Fault::JobAborted => "job-aborted".into(),
            Fault::NodeDead(n) => format!("node-dead({n})"),
            Fault::Protocol(msg) => format!("protocol({msg})"),
            Fault::Suspect { node, .. } => format!("suspect({node})"),
            Fault::Fenced { node, .. } => format!("fenced({node})"),
        }
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::JobAborted => write!(f, "job aborted after a node failure"),
            Fault::NodeDead(n) => write!(f, "node {n} failed (powered off)"),
            Fault::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            Fault::Suspect { node, score } => {
                write!(f, "node {node} suspected gray-failed (score {score})")
            }
            Fault::Fenced { node, generation } => {
                write!(f, "node {node} fenced at generation {generation}")
            }
        }
    }
}

impl std::error::Error for Fault {}

/// The name of rank `rank`'s `part` segment of job `job` — the one place
/// the protocol's SHM naming (`{job}/r{rank}/{part}`) is spelled. `part`
/// is a [`Region::suffix`], or `"header"` / `"crc"` / an application part.
#[must_use]
pub fn segment_name(job: &str, rank: usize, part: &str) -> String {
    format!("{job}/r{rank}/{part}")
}

/// A per-rank SHM checkpoint region a [`FaultAction::Corrupt`] can target.
/// The variants mirror the `{part}` of [`segment_name`]; the injector
/// resolves a region to the matching segment on the victim node without
/// the cluster layer knowing anything else about the protocol.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Region {
    /// The live workspace `A1‖B2` (the in-place checkpoint).
    Work,
    /// The checkpoint copy `B`.
    CopyB,
    /// The checksum copy `C` (parity of `B`).
    ParityC,
    /// The fresh checksum `D` (parity of the workspace).
    ChecksumD,
    /// The second checkpoint copy `B1` (double-checkpoint baseline).
    CopyB1,
    /// The second checksum copy `C1` (double-checkpoint baseline).
    ParityC1,
    /// The commit header (epoch words + header CRC).
    Header,
}

impl Region {
    /// Every region, for sweeps.
    pub const ALL: [Region; 7] = [
        Region::Work,
        Region::CopyB,
        Region::ParityC,
        Region::ChecksumD,
        Region::CopyB1,
        Region::ParityC1,
        Region::Header,
    ];

    /// The segment-name suffix this region corresponds to (the `{part}`
    /// of [`segment_name`]).
    #[must_use]
    pub fn suffix(self) -> &'static str {
        match self {
            Region::Work => "work",
            Region::CopyB => "b",
            Region::ParityC => "c",
            Region::ChecksumD => "d",
            Region::CopyB1 => "b1",
            Region::ParityC1 => "c1",
            Region::Header => "header",
        }
    }

    /// Whether `segment` names this region of some rank of some job.
    pub(crate) fn is_segment(self, segment: &str) -> bool {
        segment
            .rsplit_once('/')
            .is_some_and(|(_, part)| part == self.suffix())
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.suffix())
    }
}

/// The species of a gray (degraded-but-not-dead) fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GrayKind {
    /// Straggler: every probe the node passes charges `factor` heartbeat
    /// intervals of extra virtual time — the node still progresses and
    /// still heartbeats, just `factor`× slower. Its steady-state
    /// suspicion score converges to `factor`, so factors at or below the
    /// suspicion threshold are *tolerated* (the job merely slows down)
    /// while factors above it are declared suspect.
    Slow {
        /// Slowdown multiple (also the steady-state suspicion score).
        factor: u32,
    },
    /// Hard hang: the node's ranks stop at their next yield point and
    /// its heartbeats freeze, so its suspicion score grows without bound
    /// until a peer declares it suspect (or the plan heals).
    Hang,
    /// Link degradation: every modeled send from the node costs
    /// `factor`× the α-β time. The *excess* over the healthy cost feeds
    /// the node's suspicion score, so small factors (or tiny messages)
    /// are tolerated and heavy degradation during bulk phases (encode,
    /// flush) is declared suspect.
    LinkDegrade {
        /// Multiple on the node's modeled send cost.
        factor: u32,
    },
}

impl GrayKind {
    /// Short label for events and reports.
    pub fn label(self) -> &'static str {
        match self {
            GrayKind::Slow { .. } => "slow",
            GrayKind::Hang => "hang",
            GrayKind::LinkDegrade { .. } => "link-degrade",
        }
    }
}

impl std::fmt::Display for GrayKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// *What* breaks. Produced by a fired [`FaultPlan`], scheduled on the
/// clock by a storm, or built on the spot by a test; applied by
/// [`crate::Cluster::apply_fault`] either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Power the node off.
    Kill,
    /// Flip bit `bit` of the byte at `offset` within the node's `region`
    /// segment — silently; the rank continues untroubled. Out-of-range
    /// offsets wrap modulo the region size, so sweeping arbitrary
    /// `(offset, bit)` pairs is always a valid single-bit corruption
    /// somewhere in the region.
    Corrupt {
        /// Which checkpoint region to damage.
        region: Region,
        /// Byte offset within the region (wrapped modulo its size).
        offset: usize,
        /// Bit within the byte (wrapped modulo 8).
        bit: u8,
    },
    /// Turn the node gray — degraded per `kind` but alive, with its
    /// memory intact. When `heal_after` is set the node recovers by itself
    /// that much virtual time later (the straggler-that-recovers scenario
    /// false suspicions come from); `None` means it stays gray until the
    /// service fences and migrates around it.
    Gray {
        /// What kind of gray failure.
        kind: GrayKind,
        /// Virtual duration after which the node spontaneously recovers;
        /// `None` = never.
        heal_after: Option<Duration>,
    },
}

/// One-shot plan — *when* × *what*: the `nth` time (1-based) any rank of
/// `node` passes the probe labeled `label`, `action` happens to `node`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Probe label, e.g. `"elimination-iter"`, `"encode"`, `"flush"`.
    pub label: String,
    /// 1-based occurrence count at which to fire.
    pub nth: u64,
    /// Victim node (also the node whose probe triggers).
    pub node: NodeId,
    /// What happens to it.
    pub action: FaultAction,
}

/// The kill plan's historical name: `FailurePlan::new(label, nth, node)`.
pub type FailurePlan = FaultPlan;

impl FaultPlan {
    /// A kill plan: power `node` off at the trigger.
    pub fn new(label: impl Into<String>, nth: u64, node: NodeId) -> Self {
        Self::with(label, nth, node, FaultAction::Kill)
    }

    /// A plan for any action. `nth = 0` behaves as 1.
    pub fn with(label: impl Into<String>, nth: u64, node: NodeId, action: FaultAction) -> Self {
        FaultPlan {
            label: label.into(),
            nth: nth.max(1),
            node,
            action,
        }
    }

    /// A silent bit flip in `node`'s `region` at the trigger.
    pub fn corrupt(
        label: impl Into<String>,
        nth: u64,
        node: NodeId,
        region: Region,
        offset: usize,
        bit: u8,
    ) -> Self {
        let action = FaultAction::Corrupt {
            region,
            offset,
            bit,
        };
        Self::with(label, nth, node, action)
    }

    /// A gray plan that never heals by itself (see [`Self::heal_after`]).
    /// `Slow` / `LinkDegrade` factors clamp to ≥ 1.
    pub fn gray(label: impl Into<String>, nth: u64, node: NodeId, mut kind: GrayKind) -> Self {
        if let GrayKind::Slow { factor } | GrayKind::LinkDegrade { factor } = &mut kind {
            *factor = (*factor).max(1);
        }
        let heal_after = None;
        Self::with(label, nth, node, FaultAction::Gray { kind, heal_after })
    }

    /// Builder: the node recovers by itself `d` of virtual time after
    /// the fault fires. Only a gray plan heals.
    #[must_use]
    pub fn heal_after(mut self, d: Duration) -> Self {
        let FaultAction::Gray { heal_after, .. } = &mut self.action else {
            panic!(
                "heal_after on a {:?} plan: only a gray fault heals",
                self.action
            );
        };
        *heal_after = Some(d);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_zero_clamps_to_one() {
        let p = FailurePlan::new("x", 0, 0);
        assert_eq!(p.nth, 1);
        let c = FaultPlan::corrupt("x", 0, 0, Region::CopyB, 0, 0);
        assert_eq!(c.nth, 1);
    }

    #[test]
    fn corrupt_and_gray_plans_carry_their_payload() {
        let c = FaultPlan::corrupt("computing", 2, 1, Region::ParityC, 17, 3);
        assert_eq!((c.label.as_str(), c.nth, c.node), ("computing", 2, 1));
        assert_eq!(
            c.action,
            FaultAction::Corrupt {
                region: Region::ParityC,
                offset: 17,
                bit: 3
            }
        );
        let heal = Duration::from_millis(1);
        let g = FaultPlan::gray("computing", 2, 3, GrayKind::Hang).heal_after(heal);
        assert_eq!(
            g.action,
            FaultAction::Gray {
                kind: GrayKind::Hang,
                heal_after: Some(heal)
            }
        );
    }

    #[test]
    fn gray_constructors_clamp_factors_and_nth() {
        let kind_of = |p: FaultPlan| match p.action {
            FaultAction::Gray { kind, heal_after } => (kind, heal_after),
            other => panic!("not a gray plan: {other:?}"),
        };
        let s = FaultPlan::gray("p", 0, 1, GrayKind::Slow { factor: 0 });
        assert_eq!(s.nth, 1);
        assert_eq!(kind_of(s), (GrayKind::Slow { factor: 1 }, None));
        let l = FaultPlan::gray("p", 1, 1, GrayKind::LinkDegrade { factor: 0 });
        assert_eq!(kind_of(l), (GrayKind::LinkDegrade { factor: 1 }, None));
        assert_eq!(GrayKind::Hang.label(), "hang");
    }

    #[test]
    #[should_panic(expected = "only a gray fault heals")]
    fn heal_after_rejects_a_plan_that_cannot_heal() {
        let _ = FailurePlan::new("p", 1, 0).heal_after(Duration::from_millis(1));
    }

    #[test]
    fn stable_label_strips_the_suspicion_score() {
        let a = Fault::Suspect { node: 4, score: 9 };
        let b = Fault::Suspect { node: 4, score: 31 };
        assert_eq!(a.stable_label(), b.stable_label());
        assert_eq!(a.stable_label(), "suspect(4)");
        assert_eq!(Fault::NodeDead(2).stable_label(), "node-dead(2)");
        assert_eq!(
            Fault::Fenced {
                node: 1,
                generation: 2
            }
            .stable_label(),
            "fenced(1)"
        );
    }

    #[test]
    fn region_suffixes_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for r in Region::ALL {
            assert!(seen.insert(r.suffix()), "duplicate suffix {r}");
        }
    }

    #[test]
    fn a_region_is_exactly_its_own_segments() {
        for r in Region::ALL {
            assert!(r.is_segment(&segment_name("job.e2", 13, r.suffix())));
        }
        // `b` is a suffix of nothing but `…/b`: not of `…/b1`, not of a
        // job that merely ends in `b`
        assert!(!Region::CopyB.is_segment(&segment_name("job", 0, "b1")));
        assert!(!Region::CopyB.is_segment("jobb"));
        assert!(!Region::Header.is_segment(&segment_name("job", 0, "crc")));
    }
}
