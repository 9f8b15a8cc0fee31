//! The paper's case table for Figures 2–5, one test per row: every
//! checkpoint method is hit by a node failure in a protocol window, and
//! the outcome must match the paper's case analysis.
//!
//! | method  | failure window        | expected outcome                |
//! |---------|-----------------------|---------------------------------|
//! | single  | during computation    | roll back to last checkpoint    |
//! | single  | during update         | **unrecoverable** (Fig. 2 CASE 2)|
//! | double  | during computation    | roll back                       |
//! | double  | during update         | roll back to the intact pair    |
//! | self    | during computation    | roll back (CASE 1)              |
//! | self    | during encode         | roll back (CASE 1)              |
//! | self    | during flush          | **roll forward** from (A, D)    |
//!
//! Each case kills node 1 at one window of epoch 3's checkpoint under
//! real threads and recovers on the same cluster
//! (`crash_states::probe_cell`): the reference model, reading the memory
//! the loss left, must agree with the recovery, every restore must be
//! bit-exact with a passing parity check and a report that accounts for
//! it, and the verdict must be the one the paper's diagram names. Every
//! window of every method, commit edges and second losses included, is
//! `fault_sweep`'s probe matrix and crash-state sweep.

mod crash_states;

use crash_states::model::{Refusal, Source, Verdict};
use crash_states::{lose, probe_cell, recover, Config, Recording, SEED};
use self_checkpoint::cluster::FailurePlan;
use self_checkpoint::core::{Method, Phase, COPY_PROBE};
use self_checkpoint::encoding::CodecSpec;

/// Members of the group.
const N: usize = 4;

fn recording(method: Method) -> Recording {
    Recording::new(Config::new(method, CodecSpec::default(), N), SEED)
}

/// Kill node 1 at the `nth` pass of `label` and recover.
fn case(method: Method, label: impl Into<String>, nth: u64) -> Verdict {
    let cell = probe_cell(&recording(method), FailurePlan::new(label, nth, 1), 0);
    cell.expect("the armed failure fires")
        .unwrap_or_else(|e| panic!("{method:?}: {e}"))[0]
}

fn rolled_back(epoch: u64) -> Verdict {
    Verdict::Restored {
        epoch,
        source: Source::Checkpoint,
    }
}

const TORN: Verdict = Verdict::Unrecoverable(Refusal::TornSingle);
/// Encode fires once per ring fold, `N` times per make.
const ENCODE_3: u64 = 2 * N as u64 + 1;

#[test]
fn single_failure_during_computation_rolls_back() {
    assert_eq!(case(Method::Single, "computing", 3), rolled_back(2));
}

#[test]
fn single_failure_during_update_is_unrecoverable() {
    assert_eq!(case(Method::Single, Phase::CopyB, 3), TORN);
}

#[test]
fn single_failure_during_encode_is_unrecoverable() {
    // checksum being recomputed while B already overwritten: same flaw
    assert_eq!(case(Method::Single, Phase::Encode, ENCODE_3), TORN);
}

#[test]
fn double_failure_during_computation_rolls_back() {
    assert_eq!(case(Method::Double, "computing", 3), rolled_back(2));
}

#[test]
fn double_failure_during_update_restores_intact_pair() {
    assert_eq!(case(Method::Double, Phase::CopyB, 3), rolled_back(2));
}

#[test]
fn self_failure_during_computation_rolls_back() {
    assert_eq!(case(Method::SelfCkpt, "computing", 3), rolled_back(2));
}

#[test]
fn self_failure_during_encode_uses_old_checkpoint() {
    // CASE 1 of Figure 4: failure while calculating the new checksum D
    assert_eq!(
        case(Method::SelfCkpt, Phase::Encode, ENCODE_3),
        rolled_back(2)
    );
}

#[test]
fn self_failure_during_flush_rolls_forward() {
    // CASE 2 of Figure 4: D committed, flush torn -> recover from (A, D)
    // at the *new* epoch, losing no progress.
    let forward = Verdict::Restored {
        epoch: 3,
        source: Source::Workspace,
    };
    assert_eq!(case(Method::SelfCkpt, Phase::FlushB, 3), forward);
}

#[test]
fn self_failure_as_the_flush_starts_rolls_forward() {
    // past the cross-group gate every member committed D@3, so a loss as
    // the victim starts its `work → B` copy rolls forward too
    let forward = Verdict::Restored {
        epoch: 3,
        source: Source::Workspace,
    };
    assert_eq!(case(Method::SelfCkpt, COPY_PROBE, 3), forward);
}

#[test]
fn self_failure_right_after_a2_write_uses_old_checkpoint() {
    assert_eq!(case(Method::SelfCkpt, Phase::Serialize, 3), rolled_back(2));
}

#[test]
fn every_method_survives_failure_after_full_commit() {
    for method in [Method::Single, Method::Double, Method::SelfCkpt] {
        let v = case(method, Phase::Done, 3);
        assert!(
            matches!(v, Verdict::Restored { epoch: 3, .. }),
            "{method:?}: {v:?}"
        );
    }
}

#[test]
fn two_lost_nodes_in_one_group_are_unrecoverable() {
    // two members lost at once once everything committed: beyond single
    // parity, refused instead of rebuilt wrong
    let rec = recording(Method::SelfCkpt);
    let done = rec.states().pop().expect("a recorded state");
    let refused = Verdict::Unrecoverable(Refusal::TooManyErasures);
    assert_eq!(recover(&rec, &lose(&done, 0b0110)), Ok(vec![refused]));
}
