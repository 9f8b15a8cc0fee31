//! Structured account of what a recovery did.

use super::ops::{OpAction, OpRecord};
use super::planner::HeaderMaxima;
use super::RestoreSource;
use crate::memory::Method;
use std::time::Duration;

/// What [`Checkpointer::recover`](super::Checkpointer::recover) decided
/// and how much work it took. Retrieved via
/// [`Checkpointer::last_report`](super::Checkpointer::last_report) after a
/// successful restore; harnesses print it (the `fig10_cycle` bench) or
/// attach it to their outputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Protocol that performed the recovery.
    pub method: Method,
    /// The consistent pair restored from.
    pub source: RestoreSource,
    /// Epoch the job resumed at.
    pub epoch: u64,
    /// Group ranks whose state was rebuilt from parity (ascending order;
    /// empty when nothing was lost).
    pub lost: Vec<usize>,
    /// The survivor-header maxima the restore-source decision was
    /// derived from (see [`super::planner::plan_recovery`]).
    pub epochs_seen: HeaderMaxima,
    /// Bytes of lost state rebuilt from the survivors' parity (zero when
    /// no group member was lost).
    pub rebuilt_bytes: u64,
    /// Wall-clock time of the whole recovery collective.
    pub elapsed: Duration,
    /// Sequenced-op audit trail of this rank's restore: which commit
    /// points were applied, detected already-`Done` and skipped, or
    /// replayed (see [`super::ops`]).
    pub ops: Vec<OpRecord>,
}

impl RecoveryReport {
    /// Count of trail entries with the given action.
    fn action_count(&self, a: OpAction) -> usize {
        self.ops.iter().filter(|r| r.action == a).count()
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovered epoch {} from {} ({:?}; d={} bc={} pair1={} attempt={}; ",
            self.epoch,
            self.source.name(),
            self.method,
            self.epochs_seen.d,
            self.epochs_seen.bc,
            self.epochs_seen.pair1,
            self.epochs_seen.attempt,
        )?;
        match self.lost.as_slice() {
            [] => write!(f, "no rank lost; ")?,
            [r] => write!(f, "rebuilt {} bytes for rank {r}; ", self.rebuilt_bytes)?,
            ranks => write!(
                f,
                "rebuilt {} bytes for ranks {ranks:?}; ",
                self.rebuilt_bytes
            )?,
        }
        write!(f, "{:.1} ms", self.elapsed.as_secs_f64() * 1e3)?;
        if !self.ops.is_empty() {
            write!(
                f,
                "; ops: {} applied, {} replayed, {} skipped",
                self.action_count(OpAction::Applied),
                self.action_count(OpAction::Replayed),
                self.action_count(OpAction::Skipped),
            )?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_source_and_rebuild() {
        let r = RecoveryReport {
            method: Method::SelfCkpt,
            source: RestoreSource::WorkspaceAndChecksum,
            epoch: 3,
            lost: vec![1],
            epochs_seen: HeaderMaxima {
                d: 3,
                bc: 2,
                pair1: 0,
                attempt: 0,
            },
            rebuilt_bytes: 640,
            elapsed: Duration::from_millis(2),
            ops: vec![],
        };
        let s = r.to_string();
        assert!(s.contains("epoch 3"), "{s}");
        assert!(s.contains("workspace+checksum"), "{s}");
        assert!(s.contains("rebuilt 640 bytes for rank 1"), "{s}");
    }

    #[test]
    fn display_lists_a_multi_rank_rebuild() {
        let r = RecoveryReport {
            method: Method::SelfCkpt,
            source: RestoreSource::CheckpointAndChecksum,
            epoch: 5,
            lost: vec![0, 2],
            epochs_seen: HeaderMaxima::default(),
            rebuilt_bytes: 1280,
            elapsed: Duration::from_millis(1),
            ops: vec![],
        };
        let s = r.to_string();
        assert!(s.contains("rebuilt 1280 bytes for ranks [0, 2]"), "{s}");
    }
}
