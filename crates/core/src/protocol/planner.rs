//! Pure recovery planning: group consensus over survivor headers.
//!
//! Everything here is a plain function of data — no communicators, no
//! threads, no SHM — so the paper's CASE 1 / CASE 2 verdicts (Figures
//! 2–5) can be unit-tested against synthetic header sets directly. The
//! [`Checkpointer`](super::Checkpointer) gathers one [`SurvivorView`] per
//! group member, calls [`plan_recovery`], and then restores from the pair
//! the method's table row says holds the agreed epoch.
//!
//! Consensus rule: take the group **MAX** of each commit marker over
//! survivors. Every marker is written only after a group barrier, so "any
//! survivor committed phase X of epoch `e`" proves every rank's *data*
//! for that phase is complete — even on ranks whose own header write was
//! cut short by the abort.

use super::header::{Header, HeaderWord};
use crate::memory::Method;

/// One group member's contribution to the recovery consensus.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SurvivorView {
    /// True when the rank re-attached to nothing — a fresh or replaced
    /// node whose header words are all zero and whose data is gone.
    pub fresh: bool,
    /// The rank's header as gathered over the group.
    pub header: Header,
}

impl SurvivorView {
    /// A surviving rank advertising `header`.
    pub fn survivor(header: Header) -> Self {
        SurvivorView {
            fresh: false,
            header,
        }
    }

    /// A rank on a fresh (replaced) node.
    pub fn lost() -> Self {
        SurvivorView {
            fresh: true,
            header: Header::default(),
        }
    }
}

/// Component-wise MAX of the survivors' commit markers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeaderMaxima {
    /// Highest committed `d_epoch` (self method).
    pub d: u64,
    /// Highest committed `bc_epoch` (pair 0 for double).
    pub bc: u64,
    /// Highest committed pair-1 epoch (double method).
    pub pair1: u64,
    /// Highest *attempted* update epoch (single method's dirty marker).
    pub attempt: u64,
}

impl HeaderMaxima {
    /// Component-wise MAX over the views that can be trusted (not
    /// fresh); all zero when there is none.
    pub(crate) fn over(views: &[SurvivorView]) -> Self {
        let max_of = |f: fn(&Header) -> u64| {
            views
                .iter()
                .filter(|v| !v.fresh)
                .map(|v| f(&v.header))
                .max()
                .unwrap_or(0)
        };
        HeaderMaxima {
            d: max_of(|h| h.d_epoch),
            bc: max_of(|h| h.bc_epoch),
            pair1: max_of(|h| h.pair1_epoch),
            attempt: max_of(|h| h.dirty_epoch),
        }
    }

    /// The maxima as a fixed array, in `HeaderWord` order.
    pub(crate) fn words(&self) -> [u64; 4] {
        [self.d, self.bc, self.pair1, self.attempt]
    }

    /// The maximum seen for one commit word.
    pub(crate) fn word(&self, w: HeaderWord) -> u64 {
        self.words()[w as usize]
    }
}

/// What one group concludes from its survivors' headers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupPlan {
    /// The lost ranks, in ascending group-comm rank order (empty when
    /// nothing was lost or everything was — see `all_fresh`).
    pub lost: Vec<usize>,
    /// Every member is fresh — nothing to restore, start from scratch.
    pub all_fresh: bool,
    /// More members lost than the codec has parity stripes while a
    /// survivor proves a commit: beyond the code's repair power.
    pub multi_loss: bool,
    /// Single method only: an update attempt outran the last commit, so
    /// `(B, C)` may be torn (paper Figure 2, CASE 2).
    pub torn: bool,
    /// The epoch this group proposes to restore (job-wide MIN of the
    /// proposals is the final target).
    pub proposal: u64,
    /// The header maxima the proposal was derived from.
    pub maxima: HeaderMaxima,
}

/// Derive a group's recovery plan from its members' views. `parity` is
/// the erasure codec's parity-stripe count `m` — the most lost members
/// one group can rebuild.
pub fn plan_recovery(method: Method, views: &[SurvivorView], parity: usize) -> GroupPlan {
    let lost_list: Vec<usize> = views
        .iter()
        .enumerate()
        .filter(|(_, v)| v.fresh)
        .map(|(i, _)| i)
        .collect();
    let all_fresh = lost_list.len() == views.len();
    // More fresh members than parity stripes is beyond repair only when
    // a survivor's header proves something committed; otherwise (a loss
    // while the group first creates its segments) there is nothing to
    // lose and the group starts over.
    let committed = views.iter().any(|v| !v.fresh && v.header.has_committed());
    let multi_loss = committed && lost_list.len() > parity;
    let lost = if all_fresh { Vec::new() } else { lost_list };
    let maxima = HeaderMaxima::over(views);
    let (proposal, torn) = match method {
        // CASE 2 roll-forward: a committed D can outrank the committed
        // (B, C) and the workspace then stands in as the checkpoint.
        Method::SelfCkpt => (maxima.d.max(maxima.bc), false),
        // An attempt beyond the last commit means the only checkpoint may
        // be torn — the method's documented flaw.
        Method::Single => (maxima.bc, maxima.attempt > maxima.bc),
        // Whichever pair committed later is intact.
        Method::Double => (maxima.bc.max(maxima.pair1), false),
    };
    GroupPlan {
        lost,
        all_fresh,
        multi_loss,
        torn,
        proposal,
        maxima,
    }
}

#[cfg(test)]
mod tests {
    use super::super::table::{MethodTable, Pair, B_X, WORK_X};
    use super::*;

    /// The pair `method`'s table row says holds `target`.
    fn holding(method: Method, target: u64, seen: &HeaderMaxima) -> Option<&'static Pair> {
        MethodTable::of(method).holding(target, seen)
    }

    fn hdr(d: u64, bc: u64, pair1: u64, dirty: u64) -> Header {
        Header {
            d_epoch: d,
            bc_epoch: bc,
            pair1_epoch: pair1,
            dirty_epoch: dirty,
        }
    }

    /// A group of `n` identical survivors plus an optional lost rank at
    /// index `lost_at`.
    fn group(n: usize, h: Header, lost_at: Option<usize>) -> Vec<SurvivorView> {
        (0..n)
            .map(|i| {
                if Some(i) == lost_at {
                    SurvivorView::lost()
                } else {
                    SurvivorView::survivor(h)
                }
            })
            .collect()
    }

    #[test]
    fn clean_commit_rolls_back_to_bc() {
        // everyone at (d=3, bc=3): plain CASE 1 rollback
        let plan = plan_recovery(Method::SelfCkpt, &group(4, hdr(3, 3, 0, 0), Some(1)), 1);
        assert_eq!(plan.lost, vec![1]);
        assert!(!plan.multi_loss && !plan.torn && !plan.all_fresh);
        assert_eq!(plan.proposal, 3);
        assert_eq!(
            holding(Method::SelfCkpt, plan.proposal, &plan.maxima),
            Some(&B_X)
        );
    }

    #[test]
    fn committed_d_rolls_forward_from_workspace() {
        // D@3 committed group-wide, flush torn: recover from (work, X(3))
        let plan = plan_recovery(Method::SelfCkpt, &group(4, hdr(3, 2, 0, 0), Some(2)), 1);
        assert_eq!(plan.proposal, 3);
        assert_eq!(
            holding(Method::SelfCkpt, plan.proposal, &plan.maxima),
            Some(&WORK_X)
        );
    }

    #[test]
    fn cross_group_minimum_falls_back_to_bc_at_previous_epoch() {
        // (B, X(e-1)) fallback: our group committed D@3, but a peer group
        // only proposed 2 — the job-wide MIN forces target 2, which our
        // intact (B, X(2)) must serve (the pre-flush sync gate guarantees
        // it still exists).
        let plan = plan_recovery(Method::SelfCkpt, &group(4, hdr(3, 2, 0, 0), None), 1);
        assert_eq!(plan.proposal, 3);
        let cross_group_target = 2; // MIN with the slower peer group
        assert_eq!(
            holding(Method::SelfCkpt, cross_group_target, &plan.maxima),
            Some(&B_X)
        );
    }

    #[test]
    fn mixed_epoch_headers_take_the_group_max() {
        // The victim died after *its* commit fired but a peer's header
        // write was cut short: commit markers differ across survivors.
        // The barrier-before-commit discipline makes the MAX safe.
        let views = vec![
            SurvivorView::survivor(hdr(3, 2, 0, 0)),
            SurvivorView::survivor(hdr(2, 2, 0, 0)), // stale header word
            SurvivorView::lost(),
            SurvivorView::survivor(hdr(3, 2, 0, 0)),
        ];
        let plan = plan_recovery(Method::SelfCkpt, &views, 1);
        assert_eq!(plan.maxima.d, 3);
        assert_eq!(plan.maxima.bc, 2);
        assert_eq!(plan.proposal, 3);
        assert_eq!(plan.lost, vec![2]);
    }

    #[test]
    fn single_torn_update_is_flagged() {
        // dirty=3 but bc=2: the update attempt outran the commit, so the
        // only checkpoint may be torn (Figure 2 CASE 2)
        let plan = plan_recovery(Method::Single, &group(4, hdr(0, 2, 0, 3), Some(0)), 1);
        assert!(plan.torn);
        assert_eq!(plan.proposal, 2);
    }

    #[test]
    fn single_clean_commit_is_not_torn() {
        let plan = plan_recovery(Method::Single, &group(4, hdr(0, 3, 0, 3), Some(3)), 1);
        assert!(!plan.torn);
        assert_eq!(plan.proposal, 3);
    }

    #[test]
    fn double_restores_from_the_newer_pair() {
        // pair0@3, pair1@2: target 3 lives in pair 0
        let plan = plan_recovery(Method::Double, &group(4, hdr(0, 3, 2, 0), Some(1)), 1);
        assert_eq!(plan.proposal, 3);
        let pairs = MethodTable::of(Method::Double).pairs;
        assert_eq!(
            holding(Method::Double, plan.proposal, &plan.maxima),
            Some(&pairs[0])
        );
        // a cross-group MIN of 2 would pick the other pair
        assert_eq!(holding(Method::Double, 2, &plan.maxima), Some(&pairs[1]));
    }

    #[test]
    fn two_losses_are_beyond_repair() {
        let mut views = group(4, hdr(3, 3, 0, 0), Some(0));
        views[2] = SurvivorView::lost();
        let plan = plan_recovery(Method::SelfCkpt, &views, 1);
        assert!(plan.multi_loss);
        assert_eq!(plan.lost, vec![0, 2], "every lost rank reported");
    }

    #[test]
    fn two_losses_fit_within_dual_parity() {
        // The same double loss is repairable when the codec carries two
        // parity stripes.
        let mut views = group(4, hdr(3, 3, 0, 0), Some(0));
        views[2] = SurvivorView::lost();
        let plan = plan_recovery(Method::SelfCkpt, &views, 2);
        assert!(!plan.multi_loss);
        assert_eq!(plan.lost, vec![0, 2]);
        assert_eq!(plan.proposal, 3);
    }

    #[test]
    fn three_losses_exceed_dual_parity() {
        let mut views = group(5, hdr(3, 3, 0, 0), Some(0));
        views[2] = SurvivorView::lost();
        views[4] = SurvivorView::lost();
        let plan = plan_recovery(Method::SelfCkpt, &views, 2);
        assert!(plan.multi_loss);
        assert_eq!(plan.lost, vec![0, 2, 4]);
    }

    #[test]
    fn losses_before_any_commit_start_over() {
        // A loss while the group first creates its segments: two members
        // never attached, a third is lost, the survivor holds a fresh
        // header. Nothing committed, so nothing is lost: start over.
        let mut views = group(4, hdr(0, 0, 0, 0), Some(0));
        views[2] = SurvivorView::lost();
        views[3] = SurvivorView::lost();
        let plan = plan_recovery(Method::SelfCkpt, &views, 1);
        assert!(!plan.multi_loss, "no survivor proves a commit");
        assert_eq!(plan.proposal, 0);
        // the dirty word announces an attempt and proves nothing
        views[1] = SurvivorView::survivor(hdr(0, 0, 0, 1));
        assert!(!plan_recovery(Method::Single, &views, 1).multi_loss);
        // one survivor proving a commit makes the same losses fatal
        views[1] = SurvivorView::survivor(hdr(1, 0, 0, 0));
        assert!(plan_recovery(Method::SelfCkpt, &views, 1).multi_loss);
    }

    #[test]
    fn all_fresh_group_proposes_nothing() {
        let views: Vec<SurvivorView> = (0..4).map(|_| SurvivorView::lost()).collect();
        let plan = plan_recovery(Method::SelfCkpt, &views, 1);
        assert!(plan.all_fresh);
        assert!(!plan.multi_loss, "all-fresh is a restart, not a repair");
        assert!(plan.lost.is_empty());
        assert_eq!(plan.proposal, 0);
    }

    #[test]
    fn invariant_breakage_yields_no_source() {
        let maxima = HeaderMaxima {
            d: 3,
            bc: 2,
            ..Default::default()
        };
        assert_eq!(holding(Method::SelfCkpt, 5, &maxima), None);
        assert_eq!(holding(Method::Double, 5, &maxima), None);
    }
}
