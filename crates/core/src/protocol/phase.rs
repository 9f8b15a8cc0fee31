//! The typed protocol phase machine.
//!
//! Every checkpoint method steps through a subset of these phases in a
//! fixed order; the phase is the single source of identity for
//! * **failure injection** — [`Phase::label`] is the probe name a
//!   [`FailurePlan`](skt_cluster::FailurePlan) is armed on (`FailurePlan::new`
//!   accepts a `Phase` directly via `From<Phase> for String`), and
//! * **observation** — phase enter/exit [`Event`](skt_cluster::Event)s
//!   carry the same label.

/// One window of the checkpoint protocol, in `make` order.
///
/// The self-checkpoint method (paper Figure 4) runs
/// `Serialize → Encode → CommitD → FlushB → Done`;
/// the single/double baselines (Figures 2–3) run
/// `Serialize → CopyB → Encode → Done`.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Application small state (`A2`) serialized into the `B2` mirror.
    Serialize,
    /// Parity of the checkpoint data being group-encoded (the CASE 1
    /// window: one stripe reduce per group member).
    Encode,
    /// The fresh checksum `D` committed (`d_epoch` written) — self method.
    CommitD,
    /// `work → B` flushed, the commit of `(B, X(e))` still pending (the
    /// CASE 2 window) — self method.
    FlushB,
    /// `work → B` copied over the live checkpoint — the baselines'
    /// inconsistency window (single: the *only* copy; double: the older
    /// pair).
    CopyB,
    /// The checkpoint fully committed.
    Done,
}

impl Phase {
    /// Canonical probe label. These strings are the wire format shared
    /// with the failure injector and the event bus; they are stable.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Serialize => "ckpt-a2",
            Phase::Encode => "ckpt-encode",
            Phase::CommitD => "ckpt-d-commit",
            Phase::FlushB => "ckpt-flush-b",
            Phase::CopyB => "ckpt-copy-b",
            Phase::Done => "ckpt-done",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Lets a `Phase` be armed directly:
/// `FailurePlan::new(Phase::FlushB, 3, node)`.
impl From<Phase> for String {
    fn from(p: Phase) -> String {
        p.label().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_arms_a_failure_plan() {
        let plan = skt_cluster::FailurePlan::new(Phase::FlushB, 3, 1);
        assert_eq!(plan.label, "ckpt-flush-b");
    }
}
