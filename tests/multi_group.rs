//! Cross-group consistency on real threads: with two checkpoint groups
//! of 4 under `init_synced`, a failure must never leave different groups
//! restored to different epochs — the global commit discipline (sync
//! barrier before the flush, global minimum at recovery) holds for every
//! failure window.
//!
//! Each case kills one node at a window of epoch 3's checkpoint and
//! recovers on the same cluster (`crash_states::probe_cell`): the
//! reference model, reading the memory the loss left, must agree with
//! every group's recovery, and every restore must be bit-exact with a
//! passing parity check and a report that accounts for it. A loss at
//! every scheduling step of the same shape is `fault_sweep`'s
//! `two_groups_restore_one_epoch_at_every_crash_state`.

mod crash_states;

use crash_states::model::Verdict;
use crash_states::{probe_cell, Config, Recording};
use self_checkpoint::cluster::FailurePlan;
use self_checkpoint::core::{Method, Phase};
use self_checkpoint::encoding::CodecSpec;

/// Members per group.
const GROUP: usize = 4;
/// The scheduler seed of the recording the model reads.
const SEED: u64 = 3;

/// Kill node `victim` at the `nth` pass of `label`, recover, and return
/// the one epoch every group restored.
fn case(label: impl Into<String>, nth: u64, victim: usize) -> u64 {
    let label: String = label.into();
    let cfg = Config::new(Method::SelfCkpt, CodecSpec::default(), GROUP).grouped(2);
    let rec = Recording::new(cfg, SEED);
    let verdicts = probe_cell(&rec, FailurePlan::new(label.as_str(), nth, victim), 0)
        .unwrap_or_else(|| panic!("{label}@{nth} must fire"))
        .unwrap_or_else(|e| panic!("{label}@{nth}, node {victim}: {e}"));
    let epochs: Vec<u64> = verdicts
        .iter()
        .map(|v| match v {
            Verdict::Restored { epoch, .. } => *epoch,
            other => panic!("{label}@{nth}, node {victim}: {other:?}"),
        })
        .collect();
    assert!(
        epochs.iter().all(|&e| e == epochs[0]),
        "groups restored different epochs: {verdicts:?}"
    );
    epochs[0]
}

#[test]
fn groups_agree_after_failure_during_computation() {
    assert_eq!(case("computing", 3, 1), 2);
}

#[test]
fn groups_agree_after_failure_during_encode() {
    // mid-encode of epoch 3: nobody flushed, so everyone must be at 2
    assert_eq!(case(Phase::Encode, 2 * GROUP as u64 + 1, 2), 2);
}

#[test]
fn groups_agree_after_failure_during_flush() {
    // the victim's group was flushing epoch 3; the cross-group gate
    // guarantees every other group had already committed D@3, so the
    // whole job rolls *forward* to 3
    assert_eq!(case(Phase::FlushB, 3, 1), 3);
}

#[test]
fn groups_agree_after_failure_at_d_commit() {
    let e = case(Phase::CommitD, 3, 5);
    assert!(e == 2 || e == 3, "consistent epoch, got {e}");
}

#[test]
fn victim_in_second_group_behaves_identically() {
    assert_eq!(case(Phase::FlushB, 3, 6), 3); // node 6 hosts a group-1 rank
}
