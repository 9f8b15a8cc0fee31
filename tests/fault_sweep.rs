//! Crash states, not probes. The paper's claim is that a node lost at
//! *any* instant is recoverable (CASE 1 / CASE 2, Figures 2–5), and that
//! with several groups the global commit brings every group back at the
//! same epoch (§3.3). The crash-state harness (`crash_states/`) records
//! one unarmed run per shape with a snapshot before every scheduling
//! step, loses ranks at every one of them, recovers each distinct crash
//! state once and judges it against a reference model of the paper's
//! rules:
//!
//! * **loss sets** — every set of 1..=`m + 1` ranks lost at every
//!   distinct state, for Self / Single / Double × {XOR, P+Q} and
//!   SelfCkpt × RS(3) in one group of 4; every method × XOR in groups of
//!   2 and 5; SelfCkpt × P+Q in groups of 3 and 5; every single loss in
//!   two groups of 4 (SelfCkpt × XOR, `init_synced`);
//! * **second losses** — a rank lost at every step of the recovery of
//!   every single-loss state (SelfCkpt × P+Q: of every victim; the other
//!   four-member configurations: of member 1; in the release-only test,
//!   every victim of every single-group shape and a first loss in either
//!   of two groups of 3);
//! * **seed invariance** — another seed reaches crash states the first
//!   one did, and they are judged the same: the verdict is a function of
//!   the durable state, not of the interleaving;
//! * **real-runtime cells** — a probe kill (and a second node lost while
//!   the job aborts) under real threads, with the model reading the
//!   memory the loss actually left as the oracle and the paper's verdict
//!   for the window as the expected column;
//! * **gray faults** — stragglers, hangs and degraded links, which are
//!   about suspicion rather than crash states.
//!
//! Every restore is checked bit-exact against the epoch's pattern, with
//! a passing parity check and a recovery report naming the epoch, source,
//! lost members and header maxima. `$SKT_RECOVERY_REPORT` exports one
//! block per loss-sweep shape and `.nested` one per second-loss sweep.

mod crash_states;

use crash_states::model::{self, Member, Reg, RegionState, Source, Verdict, Words};
use crash_states::{
    flip_sweep, lose, loss_sweep, pair_sweep, probe_cell, recover, recover_observed, sets_sweep,
    Config, Recording, Sweep, SEED,
};
use self_checkpoint::cluster::{
    Cluster, ClusterConfig, FailurePlan, FaultPlan, GrayKind, Ranklist, SimRuntime,
};
use self_checkpoint::core::{Method, Phase};
use self_checkpoint::encoding::{Code, CodecSpec};
use std::sync::{Arc, OnceLock};

const XOR: CodecSpec = CodecSpec::Single(Code::Xor);
const DUAL: CodecSpec = CodecSpec::Dual;
const SELF_XOR: Config = Config::new(Method::SelfCkpt, XOR, 4);
const SINGLE_XOR: Config = Config::new(Method::Single, XOR, 4);
const DOUBLE_XOR: Config = Config::new(Method::Double, XOR, 4);
const SELF_DUAL: Config = Config::new(Method::SelfCkpt, DUAL, 4);
const SINGLE_DUAL: Config = Config::new(Method::Single, DUAL, 4);
const DOUBLE_DUAL: Config = Config::new(Method::Double, DUAL, 4);
const SELF_RS3: Config = Config::new(Method::SelfCkpt, CodecSpec::Rs { m: 3 }, 4);
/// Two groups of 4, neighbouring ranks together.
const SELF_XOR_2X4: Config = SELF_XOR.grouped(2);

/// The scheduler seed of every shape but the four-member ones.
const SHAPE_SEED: u64 = 3;

/// Every tier-1 shape with its recording seed, in report order.
const SHAPES: [(Config, u64); 16] = [
    (SELF_XOR, SEED),
    (SINGLE_XOR, SEED),
    (DOUBLE_XOR, SEED),
    (SELF_DUAL, SEED),
    (SINGLE_DUAL, SEED),
    (DOUBLE_DUAL, SEED),
    (SELF_RS3, SEED),
    (Config::new(Method::SelfCkpt, XOR, 2), SHAPE_SEED),
    (Config::new(Method::Single, XOR, 2), SHAPE_SEED),
    (Config::new(Method::Double, XOR, 2), SHAPE_SEED),
    (Config::new(Method::SelfCkpt, XOR, 5), SHAPE_SEED),
    (Config::new(Method::Single, XOR, 5), SHAPE_SEED),
    (Config::new(Method::Double, XOR, 5), SHAPE_SEED),
    (Config::new(Method::SelfCkpt, DUAL, 3), SHAPE_SEED),
    (Config::new(Method::SelfCkpt, DUAL, 5), SHAPE_SEED),
    (SELF_XOR_2X4, SHAPE_SEED),
];

/// Shapes too slow for a debug build, recorded under [`SHAPE_SEED`]:
/// the double method over two groups.
const RELEASE_SHAPES: [Config; 1] = [DOUBLE_XOR.grouped(2)];

/// A second scheduler seed for the seed-invariance checks.
const OTHER_SEED: u64 = 2;

fn index(cfg: Config) -> usize {
    SHAPES
        .iter()
        .position(|(c, _)| c.label() == cfg.label())
        .unwrap()
}

/// `cfg`'s recording, taken once per process.
fn recording(cfg: Config) -> &'static Recording {
    static RECS: [OnceLock<Recording>; SHAPES.len()] = [const { OnceLock::new() }; SHAPES.len()];
    let (cfg, seed) = SHAPES[index(cfg)];
    RECS[index(cfg)].get_or_init(|| Recording::new(cfg, seed))
}

/// `cfg`'s loss sweep, taken once per process and required to be clean:
/// every set of 1..=m+1 ranks of one group; single losses of several
/// groups (one member lost in each group at once is in the release-only
/// test).
fn losses(cfg: Config) -> &'static Sweep {
    static SWEEPS: [OnceLock<Sweep>; SHAPES.len()] = [const { OnceLock::new() }; SHAPES.len()];
    let sizes = if cfg.groups == 1 {
        1..=cfg.m() + 1
    } else {
        1..=1
    };
    let sweep = SWEEPS[index(cfg)].get_or_init(|| loss_sweep(recording(cfg), sizes));
    sweep.assert_clean();
    sweep
}

/// First victims of the tier-1 second-loss sweeps: every member for
/// SelfCkpt × P+Q, member 1 elsewhere (every member in the release-only
/// test).
fn first_victims(cfg: Config) -> u32 {
    if index(cfg) == index(SELF_DUAL) {
        cfg.all()
    } else {
        0b0010
    }
}

/// `cfg`'s tier-1 second-loss sweep, taken once per process and required
/// to be clean, with some second loss healed.
fn pairs(cfg: Config) -> &'static Sweep {
    static SWEEPS: [OnceLock<Sweep>; SHAPES.len()] = [const { OnceLock::new() }; SHAPES.len()];
    let sweep = SWEEPS[index(cfg)].get_or_init(|| pair_sweep(recording(cfg), first_victims(cfg)));
    sweep.assert_clean();
    let healed = sweep.cases.iter().any(|c| restored(&c.2));
    assert!(healed, "{}: no second loss healed", sweep.name);
    sweep
}

/// Whether every group restored a checkpoint.
fn restored(verdicts: &[Verdict]) -> bool {
    verdicts
        .iter()
        .all(|v| matches!(v, Verdict::Restored { .. }))
}

/// Off every commit edge: all ranks hold segments and the same valid
/// header, so no commit word is half-written across the job.
fn off_edge(state: &[Member]) -> bool {
    state[0].words().is_some() && state.iter().all(|m| m.words() == state[0].words())
}

/// Loss sets of `size` end in a typed refusal, or in starting over when
/// no survivor's header proves a commit — never in a restore.
fn refuses_typed(sweep: &Sweep, size: u32) {
    let mut refused = 0;
    for (pre, lost, verdicts) in sweep.cases.iter().filter(|c| c.1.count_ones() == size) {
        let view = sweep.view(*pre, *lost);
        let proof = view
            .iter()
            .any(|m| m.words().is_some_and(|w| w.prove_a_commit()));
        match verdicts[..] {
            [Verdict::Unrecoverable(_)] => refused += 1,
            [Verdict::NoCheckpoint] if !proof => {}
            ref v => panic!("{}: {size} losses ended in {v:?}: {view:?}", sweep.name),
        }
    }
    assert!(refused > 0, "{}: no {size}-loss state refused", sweep.name);
}

/// Off the commit edges, losing `size` members at once (within `m`)
/// ends where losing the first of them alone does: the codec widens the
/// erasure budget, never the case analysis.
fn matches_single_loss(sweep: &Sweep, size: u32) {
    let mut compared = 0;
    for pre in (0..sweep.states.len()).filter(|&p| off_edge(&sweep.states[p])) {
        for lost in (1..1 << sweep.ranks).filter(|l: &u32| l.count_ones() == size) {
            let alone = 1 << lost.trailing_zeros();
            let (many, one) = (
                sweep.table.get(&(pre, lost)),
                sweep.table.get(&(pre, alone)),
            );
            assert_eq!(many, one, "{}: state {pre} lost {lost:b}", sweep.name);
            compared += 1;
        }
    }
    assert!(compared > 0, "{}: nothing compared", sweep.name);
}

/// Off the commit edges, which member a single loss hits does not change
/// the verdict (on them, a commit word written by some members only, it
/// may, and the model says exactly how); no single loss is refused.
fn victim_independent(sweep: &Sweep) {
    let mut checked = 0;
    for pre in (0..sweep.states.len()).filter(|&p| off_edge(&sweep.states[p])) {
        let verdicts: Vec<_> = (0..sweep.ranks)
            .map(|v| &sweep.table[&(pre, 1 << v)])
            .collect();
        assert!(
            verdicts.windows(2).all(|w| w[0] == w[1]),
            "{}: state {pre}: {verdicts:?}",
            sweep.name
        );
        checked += 1;
    }
    assert!(checked > 0);
    let single = sweep.cases.iter().filter(|c| c.1.count_ones() == 1);
    assert!(single.clone().count() > 0);
    for (pre, lost, v) in single {
        assert!(
            !v.iter().any(|v| matches!(v, Verdict::Unrecoverable(_))),
            "{}: {:?}",
            sweep.name,
            sweep.view(*pre, *lost)
        );
    }
}

/// The enumeration under [`OTHER_SEED`], loss sets of `size` only: clean,
/// and every crash state both seeds reached judged the same.
fn seed_invariant(cfg: Config, size: usize) {
    let base = losses(cfg);
    let other = loss_sweep(&Recording::new(cfg, OTHER_SEED), size..=size);
    other.assert_clean();
    let first: std::collections::HashMap<Vec<Member>, &Vec<Verdict>> = base
        .cases
        .iter()
        .filter(|c| c.1.count_ones() as usize == size)
        .map(|(pre, lost, v)| (base.view(*pre, *lost), v))
        .collect();
    let mut shared = 0;
    for (pre, lost, v) in &other.cases {
        if let Some(w) = first.get(&other.view(*pre, *lost)) {
            assert_eq!(*w, v, "{}: state {pre} lost {lost:b}", other.name);
            shared += 1;
        }
    }
    assert!(
        shared > 0,
        "{}: no crash state in common with seed {SEED}",
        other.name
    );
}

// ---------------------------------------------------------------------
// The model against the paper
// ---------------------------------------------------------------------

/// The paper's Figures 2–5, a failure in epoch 3's checkpoint with
/// epoch 2 committed: what recovery must return with member 1 lost, and
/// with members 1 and 2 lost under single parity. Then §3.3 over two
/// groups: a group that committed `D@3` restores epoch 2 with the group
/// that had not, which the cross-group gate makes possible — and a group
/// that flushed `B@3` past that gate leaves no right answer.
#[test]
fn the_model_reproduces_the_papers_case_analysis() {
    let held = |e| RegionState {
        epoch: Some(e),
        witnessed: true,
    };
    let member = |[d, bc, pair1, dirty]: [u64; 4], regions: &[(Reg, u64)]| Member::Present {
        header: Some(Words {
            d,
            bc,
            pair1,
            dirty,
        }),
        regions: regions.iter().map(|&(r, e)| (r, held(e))).collect(),
    };
    use Method::{Double, SelfCkpt, Single};
    use Reg::*;
    let one =
        |method, m, group: [Member; 4]| model::recover(method, m, &[group.to_vec()]).map(|v| v[0]);
    // The self method's parity alternates, X(e) = D at odd e and C at even
    // e, so at epoch 3 the paper's roles hold: P(3) is encoded into D over
    // the stale P(1), and (B, C) is the checkpoint at epoch 2.
    #[rustfmt::skip]
    let figures = [
        // Figure 4, CASE 1: D@3 not committed; roll back to (B, C)@2.
        ("self, encoding D", SelfCkpt, [2, 2, 0, 0], &[(B, 2), (C, 2), (D, 1)][..], back(2)),
        // Figure 5, CASE 2: D@3 committed, B being overwritten; roll
        // forward from (work, D)@3.
        ("self, flushing B", SelfCkpt, [3, 2, 0, 0], &[(Work, 3), (D, 3), (B, 3), (C, 2)], forward(3)),
        // Figure 2: (B, C)@2 intact before the update, maybe torn in it.
        ("single, computing", Single, [0, 2, 0, 2], &[(B, 2), (C, 2)], back(2)),
        ("single, updating", Single, [0, 2, 0, 3], &[(B, 3), (C, 2)], TORN),
        // Figure 3: epoch 3 overwrites pair 0 (epoch 1); pair 1 holds 2.
        ("double, updating", Double, [0, 1, 2, 0], &[(B1, 2), (C1, 2)], back(2)),
        ("double, committed", Double, [0, 3, 2, 0], &[(B, 3), (C, 3), (B1, 2), (C1, 2)], back(3)),
    ];
    for (tag, method, words, regions, want) in figures {
        let m = member(words, regions);
        let lost_1 = [m.clone(), Member::Gone, m.clone(), m.clone()];
        assert_eq!(one(method, 1, lost_1), Ok(want), "{tag}");
        let lost_2 = [m.clone(), Member::Gone, Member::Gone, m];
        let refused = one(method, 1, lost_2);
        assert!(
            matches!(refused, Ok(Verdict::Unrecoverable(_))),
            "{tag}: {refused:?}"
        );
    }
    // nothing committed anywhere: start over, however many are gone
    let gone = [
        member([0; 4], &[]),
        Member::Gone,
        Member::Gone,
        Member::Gone,
    ];
    assert_eq!(one(SelfCkpt, 1, gone), Ok(Verdict::NoCheckpoint));
    // a trusted member holding another epoch under a valid witness is a
    // broken invariant, not a verdict (epoch 1's pair is (B, D))
    let stale = member([1, 1, 0, 0], &[(B, 2), (D, 1)]);
    let broken = [stale.clone(), Member::Gone, stale.clone(), stale];
    assert!(one(SelfCkpt, 1, broken).is_err());

    // §3.3: group 0 committed D@3 behind the gate, group 1 lost a member
    // while encoding it; both restore (B, C)@2
    let gated = member([3, 2, 0, 0], &[(Work, 3), (D, 3), (B, 2), (C, 2)]);
    let encoding = member([2, 2, 0, 0], &[(Work, 3), (B, 2), (C, 2), (D, 1)]);
    let lost_1 = vec![
        encoding.clone(),
        Member::Gone,
        encoding.clone(),
        encoding.clone(),
    ];
    let groups = |first: &Member| [vec![first.clone(); 4], lost_1.clone()];
    assert_eq!(
        model::recover(SelfCkpt, 1, &groups(&gated)),
        Ok(vec![back(2); 2])
    );
    // the same with group 0 past a missing gate, its B holding epoch 3
    let ungated = member([3, 2, 0, 0], &[(Work, 3), (D, 3), (B, 3), (C, 2)]);
    assert!(model::recover(SelfCkpt, 1, &groups(&ungated)).is_err());
    // a refusal in one group refuses the job
    let beyond = [
        vec![gated.clone(); 4],
        vec![encoding.clone(), Member::Gone, Member::Gone, encoding],
    ];
    let refused = Verdict::Unrecoverable(model::Refusal::TooManyErasures);
    assert_eq!(model::recover(SelfCkpt, 1, &beyond), Ok(vec![refused; 2]));
}

// ---------------------------------------------------------------------
// Regressions the enumeration found
// ---------------------------------------------------------------------

/// A member lost while the group first creates its segments: some
/// members never attached, so more than `m` come back without a header,
/// but no survivor proves a commit. Nothing is lost by starting over,
/// and that is the verdict — not the multi-loss refusal.
#[test]
fn a_loss_while_the_group_creates_its_segments_starts_over() {
    let rec = recording(SELF_XOR);
    let (state, victim) = rec
        .states()
        .into_iter()
        .find_map(|s| {
            let view = rec.view(&s);
            let present: Vec<usize> = (0..view.len())
                .filter(|&i| view[i] != Member::Gone)
                .collect();
            (present.len() == 2).then(|| (s, present[0]))
        })
        .expect("a state where two members have created their segments");
    let crash = lose(&state, 1 << victim);
    let start_over = Ok(vec![Verdict::NoCheckpoint]);
    assert_eq!(rec.model(&rec.view(&crash)), start_over);
    assert_eq!(recover(rec, &crash), start_over);
}

/// A second loss late in a SelfCkpt roll-forward. In epoch 2's make one
/// member alone had committed `D@2` when another was lost; recovery rolls
/// forward from `(work, X(2))@2` and flushes `work` into `B`. The member
/// holding the only `D@2` is lost as soon as any other member's `B` holds
/// epoch 2. Two erasures are within `m = 2`: the next recovery must
/// still roll forward to epoch 2, not rebuild epoch 1 through a `B` that
/// already holds epoch 2 under a valid witness.
#[test]
fn a_second_loss_late_in_a_roll_forward_heals_to_the_rolled_forward_epoch() {
    let rec = recording(SELF_DUAL);
    let d_of = |m: &Member| m.words().map(|w| w.d);
    let (state, holder) = rec
        .states()
        .into_iter()
        .find_map(|s| {
            let view = rec.view(&s);
            let twos: Vec<usize> = (0..view.len())
                .filter(|&i| d_of(&view[i]) == Some(2))
                .collect();
            (view.iter().all(|m| d_of(m).is_some()) && twos.len() == 1).then(|| (s, twos[0]))
        })
        .expect("a state where one member alone committed D@2");
    let first_victim = (holder + 1) % state.len();
    let rolled = Ok(vec![Verdict::Restored {
        epoch: 2,
        source: Source::Workspace,
    }]);
    let (first, steps) = recover_observed(rec, &lose(&state, 1 << first_victim));
    assert_eq!(first, rolled, "the first recovery rolls forward");
    let b_holds_2 = |m: &Member| m.region(Reg::B).is_some_and(|b| b.epoch == Some(2));
    let late = steps
        .iter()
        .find(|s| {
            rec.view(s)
                .iter()
                .enumerate()
                .any(|(i, m)| i != holder && b_holds_2(m))
        })
        .expect("the roll-forward flushes B");
    let crash = lose(late, 1 << holder);
    assert_eq!(rec.model(&rec.view(&crash)), rolled);
    assert_eq!(recover(rec, &crash), rolled);
}

/// A second loss while two groups roll forward together. In a make, one
/// member of group 0 alone had committed `D@e` (group 1 had too) when
/// another member of group 0 was lost; recovery rolls both groups
/// forward to `e`. Group 1 must not flush `B@e` before every member
/// of group 0 committed `D@e`: losing the one holder in that window left
/// group 0 proposing `e - 1`, which group 1 could no longer restore (the
/// restore had panicked with "agreed epoch … is held by no pair"). Every
/// step of the first recovery is judged with the holder lost.
#[test]
fn a_second_loss_while_two_groups_roll_forward_keeps_one_epoch() {
    let rec = recording(SELF_XOR_2X4);
    let groups = SELF_XOR_2X4.members();
    let d_of = |m: &Member| m.words().map_or(0, |w| w.d);
    let (state, holder) = rec
        .states()
        .into_iter()
        .find_map(|s| {
            let view = rec.view(&s);
            let e = view.iter().map(d_of).max()?;
            let holders = |g: &Vec<usize>| -> Vec<usize> {
                g.iter().copied().filter(|&r| d_of(&view[r]) == e).collect()
            };
            let present = view.iter().all(|m| m.words().is_some());
            let (one, other) = (holders(&groups[0]), holders(&groups[1]));
            (present && e > 1 && one.len() == 1 && !other.is_empty()).then(|| (s, one[0]))
        })
        .expect("a state where one member of group 0 alone committed D");
    let victim = groups[0].iter().copied().find(|&r| r != holder).unwrap();
    let (first, steps) = recover_observed(rec, &lose(&state, 1 << victim));
    assert_eq!(first, rec.model(&rec.view(&lose(&state, 1 << victim))));
    // consecutive steps often leave the same memory (the same images)
    let mut seen = std::collections::HashSet::new();
    let images = |s: &crash_states::State| -> Vec<_> {
        s.iter().map(|i| i.as_ref().map(Arc::as_ptr)).collect()
    };
    for step in steps.iter().filter(|s| seen.insert(images(s))) {
        let crash = lose(step, 1 << holder);
        let want = rec.model(&rec.view(&crash));
        assert!(want.is_ok(), "{want:?}");
        assert_eq!(recover(rec, &crash), want);
    }
}

// ---------------------------------------------------------------------
// Real-runtime cells: the model reads what a probe kill left behind
// ---------------------------------------------------------------------

/// A restore of `epoch` from a committed checkpoint (CASE 1).
const fn back(epoch: u64) -> Verdict {
    Verdict::Restored {
        epoch,
        source: Source::Checkpoint,
    }
}

/// A roll-forward to `epoch` from the workspace (CASE 2).
const fn forward(epoch: u64) -> Verdict {
    Verdict::Restored {
        epoch,
        source: Source::Workspace,
    }
}

const TORN: Verdict = Verdict::Unrecoverable(model::Refusal::TornSingle);
const BEYOND: Verdict = Verdict::Unrecoverable(model::Refusal::TooManyErasures);

/// The `nth` pass of the encode probe that opens epoch 3's ring: it fires
/// once per ring fold, 4 times per make of a group of 4.
const ENCODE_3: u64 = 2 * 4 + 1;

/// One real-runtime cell: kill node `victim` at the `nth` pass of
/// `probe`, power off the nodes in `also` while the job aborts, and the
/// verdicts the paper allows for that window (more than one only on a
/// commit edge, where which side the survivors were on is a race; none
/// for a window the method never passes).
type Cell<'a> = (&'a str, u64, usize, u32, &'a [Verdict]);

/// Run `cfg`'s `cells` under real threads: each must fire (or not, as
/// its expected column says), recover to the model's verdict for the
/// memory the loss actually left, and land in its expected column.
fn probe_matrix(cfg: Config, cells: &[Cell]) {
    let rec = recording(cfg);
    for &(probe, nth, victim, also, want) in cells {
        let tag = format!(
            "{}: node {victim} at {probe}#{nth}, also {also:b}",
            cfg.label()
        );
        let got = probe_cell(rec, FailurePlan::new(probe, nth, victim), also);
        match got {
            None => assert!(want.is_empty(), "{tag}: never fired"),
            Some(got) => {
                let got = got.unwrap_or_else(|e| panic!("{tag}: {e}"));
                assert!(
                    want.contains(&got[0]),
                    "{tag}: {got:?}, want one of {want:?}"
                );
            }
        }
    }
}

/// Figures 4–5 on real threads: CASE 1 up to the commit of `D@3`, CASE 2
/// after it; under single parity two losses are refused, under P+Q
/// rebuilt in either case.
#[test]
fn self_checkpoint_recovers_across_every_probe_window() {
    probe_matrix(
        SELF_XOR,
        &[
            ("computing", 3, 1, 0, &[back(2)]),
            (Phase::Serialize.label(), 3, 1, 0, &[back(2)]),
            (Phase::Encode.label(), ENCODE_3, 2, 0, &[back(2)]),
            (Phase::CommitD.label(), 3, 3, 0, &[back(2), forward(3)]),
            (Phase::FlushB.label(), 3, 1, 0, &[forward(3)]),
            (Phase::Done.label(), 3, 1, 0, &[back(3), forward(3)]),
            (Phase::Done.label(), 2, 1, 0b0100, &[BEYOND]),
            (Phase::CopyB.label(), 3, 1, 0, &[]),
        ],
    );
    probe_matrix(
        SELF_DUAL,
        &[
            ("computing", 3, 1, 0b0100, &[back(2)]),
            (Phase::FlushB.label(), 3, 0, 0b1000, &[forward(3)]),
        ],
    );
}

/// Figure 2 on real threads: a loss inside the update window leaves the
/// only checkpoint torn, refused typed; outside it the pair restores.
#[test]
fn single_checkpoint_matrix_matches_paper_case_analysis() {
    probe_matrix(
        SINGLE_XOR,
        &[
            ("computing", 3, 1, 0, &[back(2)]),
            (Phase::Serialize.label(), 3, 1, 0, &[back(2)]),
            (Phase::CopyB.label(), 3, 1, 0, &[TORN]),
            (Phase::Encode.label(), ENCODE_3, 1, 0, &[TORN]),
            (Phase::Done.label(), 3, 1, 0, &[back(3)]),
            (Phase::CommitD.label(), 3, 1, 0, &[]),
            (Phase::FlushB.label(), 3, 1, 0, &[]),
        ],
    );
}

/// Figure 3 on real threads: the pair not being overwritten restores,
/// with one loss under XOR and two under P+Q.
#[test]
fn double_checkpoint_matrix_rolls_back_to_intact_pair() {
    probe_matrix(
        DOUBLE_XOR,
        &[
            ("computing", 3, 2, 0, &[back(2)]),
            (Phase::Serialize.label(), 3, 1, 0, &[back(2)]),
            (Phase::CopyB.label(), 3, 1, 0, &[back(2)]),
            (Phase::Encode.label(), ENCODE_3, 1, 0, &[back(2)]),
            (Phase::Done.label(), 3, 1, 0, &[back(3)]),
            (Phase::CommitD.label(), 3, 1, 0, &[]),
        ],
    );
    probe_matrix(
        DOUBLE_DUAL,
        &[(Phase::CopyB.label(), 3, 1, 0b1000, &[back(2)])],
    );
}

// ---------------------------------------------------------------------
// Loss sets at every instant
// ---------------------------------------------------------------------

#[test]
fn self_checkpoint_matrix_is_victim_independent() {
    victim_independent(losses(SELF_XOR));
}

#[test]
fn single_parity_double_kill_matrix_refuses_with_the_typed_verdict() {
    for cfg in [SELF_XOR, SINGLE_XOR, DOUBLE_XOR] {
        refuses_typed(losses(cfg), 2);
    }
}

#[test]
fn dual_codec_double_kill_matrix_matches_the_single_loss_case_analysis() {
    for cfg in [SELF_DUAL, SINGLE_DUAL, DOUBLE_DUAL] {
        matches_single_loss(losses(cfg), 2);
    }
}

#[test]
fn dual_codec_triple_kill_matrix_refuses_with_the_typed_verdict() {
    for cfg in [SELF_DUAL, SINGLE_DUAL, DOUBLE_DUAL] {
        refuses_typed(losses(cfg), 3);
    }
}

#[test]
fn rs3_codec_triple_kill_matrix_matches_the_single_loss_case_analysis() {
    matches_single_loss(losses(SELF_RS3), 3);
}

/// Groups of 2 (the smallest: each member's parity is the other's data)
/// and 5 under every method: clean, and beyond the one loss XOR repairs
/// a loss set is refused or, with nothing proven committed, starts over
/// — which is all that losing both members of a pair leaves.
#[test]
fn every_method_recovers_groups_of_two_and_five() {
    for method in [Method::SelfCkpt, Method::Single, Method::Double] {
        losses(Config::new(method, XOR, 2));
        refuses_typed(losses(Config::new(method, XOR, 5)), 2);
    }
    victim_independent(losses(Config::new(Method::SelfCkpt, XOR, 5)));
}

/// P+Q in groups of 3 (one data stripe beside two parities) and 5: two
/// losses end where one does; three are refused in a group of 5 and, in
/// a group of 3, leave nothing to restore.
#[test]
fn self_checkpoint_p_q_recovers_groups_of_three_and_five() {
    for n in [3, 5] {
        matches_single_loss(losses(Config::new(Method::SelfCkpt, DUAL, n)), 2);
    }
    refuses_typed(losses(Config::new(Method::SelfCkpt, DUAL, 5)), 3);
}

/// Two groups of 4 under `init_synced`, a single loss at every instant:
/// every group restores the same epoch (or the job starts over), never
/// refused — also where the victim's group rolls forward while the other
/// restores the checkpoint it already flushed, or rolls back with it.
#[test]
fn two_groups_restore_one_epoch_at_every_crash_state() {
    let sweep = losses(SELF_XOR_2X4);
    let epoch = |v: &Verdict| match v {
        Verdict::Restored { epoch, .. } => Some(*epoch),
        _ => None,
    };
    let mut mixed = 0;
    for (_, _, verdicts) in &sweep.cases {
        assert!(
            verdicts.iter().all(|v| epoch(v) == epoch(&verdicts[0])),
            "{}: {verdicts:?}",
            sweep.name
        );
        assert!(restored(verdicts) || verdicts.iter().all(|v| *v == Verdict::NoCheckpoint));
        mixed += usize::from(verdicts[0] != verdicts[1]);
    }
    assert!(
        mixed > 0,
        "{}: no group restored another source",
        sweep.name
    );
}

#[test]
fn self_checkpoint_sweep_is_seed_invariant_under_sim() {
    seed_invariant(SELF_XOR, 1);
}

#[test]
fn single_checkpoint_sweep_is_seed_invariant_under_sim() {
    seed_invariant(SINGLE_XOR, 1);
}

#[test]
fn double_checkpoint_sweep_is_seed_invariant_under_sim() {
    seed_invariant(DOUBLE_XOR, 1);
}

#[test]
fn self_double_kill_verdicts_are_seed_invariant_under_sim() {
    seed_invariant(SELF_DUAL, 2);
}

#[test]
fn single_double_kill_verdicts_are_seed_invariant_under_sim() {
    seed_invariant(SINGLE_DUAL, 2);
}

#[test]
fn double_double_kill_verdicts_are_seed_invariant_under_sim() {
    seed_invariant(DOUBLE_DUAL, 2);
}

#[test]
fn rs3_triple_kill_verdicts_are_seed_invariant_under_sim() {
    seed_invariant(SELF_RS3, 3);
}

/// One block per loss-sweep shape, exported through
/// `$SKT_RECOVERY_REPORT` for the CI cross-process diff; one shape is
/// re-taken in process and must reproduce its block.
#[test]
fn cascade_report_is_stable_and_exported() {
    let report: String = SHAPES.iter().map(|&(c, _)| losses(c).block()).collect();
    let again = loss_sweep(&Recording::new(SINGLE_XOR, SEED), 1..=2);
    assert_eq!(again.block(), losses(SINGLE_XOR).block());
    if let Ok(path) = std::env::var("SKT_RECOVERY_REPORT") {
        std::fs::write(&path, report).unwrap();
    }
}

// ---------------------------------------------------------------------
// Second losses at every recovery step
// ---------------------------------------------------------------------

#[test]
fn self_recovery_survives_kills_at_every_recovery_yield_point() {
    pairs(SELF_XOR);
}

#[test]
fn single_recovery_survives_kills_at_every_recovery_yield_point() {
    pairs(SINGLE_XOR);
}

#[test]
fn double_recovery_survives_kills_at_every_recovery_yield_point() {
    pairs(DOUBLE_XOR);
}

#[test]
fn nested_fault_in_self_recovery_retry_heals_or_refuses() {
    pairs(SELF_DUAL);
}

#[test]
fn nested_fault_in_single_recovery_retry_heals_or_refuses() {
    pairs(SINGLE_DUAL);
}

#[test]
fn nested_fault_in_double_recovery_retry_heals_or_refuses() {
    pairs(DOUBLE_DUAL);
}

/// One block per tier-1 second-loss configuration, exported through
/// `$SKT_RECOVERY_REPORT.nested`; one configuration is re-taken in
/// process and must reproduce its block.
#[test]
fn nested_report_is_stable_and_exported() {
    let report: String = SHAPES[..6].iter().map(|&(c, _)| pairs(c).block()).collect();
    let again = pair_sweep(&Recording::new(SINGLE_XOR, SEED), first_victims(SINGLE_XOR));
    assert_eq!(again.block(), pairs(SINGLE_XOR).block());
    if let Ok(path) = std::env::var("SKT_RECOVERY_REPORT") {
        std::fs::write(format!("{path}.nested"), report).unwrap();
    }
}

/// Too slow for a debug build. Every single-group shape: second losses
/// after every first victim, and a one-bit flip in every region of every
/// survivor at every single-loss state. Two groups of 4 (SelfCkpt and
/// Double): every single loss, and one
/// member lost in each group at once, which must restore. Two groups of
/// 3, the smallest two-group shape: second losses after a first loss in
/// either group, and the flips. CI runs it under `--release`.
#[test]
#[ignore = "release-only: cargo test --release --test fault_sweep -- --ignored"]
fn every_configuration_survives_second_losses_and_flips() {
    for &(cfg, _) in SHAPES.iter().filter(|(c, _)| c.groups == 1) {
        pair_sweep(recording(cfg), cfg.all()).assert_clean();
        flip_sweep(recording(cfg)).assert_clean();
    }
    let release = RELEASE_SHAPES.map(|c| Recording::new(c, SHAPE_SEED));
    for rec in std::iter::once(recording(SELF_XOR_2X4)).chain(&release) {
        loss_sweep(rec, 1..=1).assert_clean();
        let members = rec.cfg.members();
        let one_each: Vec<u32> = (1..=rec.cfg.all())
            .filter(|l| {
                members
                    .iter()
                    .all(|g| g.iter().filter(|&&r| l & (1 << r) != 0).count() == 1)
            })
            .collect();
        let sweep = sets_sweep(rec, "one lost in each group", &one_each);
        sweep.assert_clean();
        for (_, _, verdicts) in &sweep.cases {
            let started_over = verdicts.iter().all(|v| *v == Verdict::NoCheckpoint);
            assert!(
                restored(verdicts) || started_over,
                "{}: {verdicts:?}",
                sweep.name
            );
        }
    }
    let two_of_3 = Recording::new(Config::new(Method::SelfCkpt, XOR, 3).grouped(2), SHAPE_SEED);
    pair_sweep(&two_of_3, 0b010_010).assert_clean();
    flip_sweep(&two_of_3).assert_clean();
}

// ---------------------------------------------------------------------
// Gray-failure dimension: stragglers, hangs, degraded links
// ---------------------------------------------------------------------

use self_checkpoint::ftsim::{run_with_daemon, Refusal, SuspicionOutcome};
use self_checkpoint::hpl::{HplConfig, SktConfig, ITER_PROBE};
use std::time::Duration;

/// The node the gray plans degrade.
const GRAY_VICTIM: usize = 1;
/// Nodes of a gray run: one 4-member group, so every codec (m = 1, 2, 3)
/// is well-formed.
const GRAY_NODES: usize = 4;

/// The three gray-fault shapes of the taxonomy.
#[derive(Clone, Copy, Debug)]
enum GrayCase {
    /// Straggler: every probe costs 64× the heartbeat interval.
    Slow,
    /// Hard hang: the node parks indefinitely at the probe.
    Hang,
    /// Degraded link: every send from the node costs 1000× the model.
    Link,
}

impl GrayCase {
    const ALL: [GrayCase; 3] = [GrayCase::Slow, GrayCase::Hang, GrayCase::Link];

    /// The probe-anchored plan: injected at the victim's 3rd panel; with
    /// `heal` the fault clears itself later (virtual time) — after the
    /// peers' declaration but well inside the daemon's 5 s detect
    /// latency, so the ladder must exonerate instead of migrating. The
    /// link case heals slower: its suspicion score builds only from send
    /// excess (decaying under ordinary probes), so declaration takes
    /// more virtual time than a straggler's.
    fn plan(self, heal: bool) -> FaultPlan {
        let (kind, heal_after) = match self {
            GrayCase::Slow => (GrayKind::Slow { factor: 64 }, Duration::from_millis(50)),
            GrayCase::Hang => (GrayKind::Hang, Duration::from_millis(50)),
            GrayCase::Link => (
                GrayKind::LinkDegrade { factor: 1000 },
                Duration::from_secs(1),
            ),
        };
        let p = FaultPlan::gray(ITER_PROBE, 3, GRAY_VICTIM, kind);
        if heal {
            p.heal_after(heal_after)
        } else {
            p
        }
    }

    /// The probe verdict an unhealed fault of this shape produces.
    fn probe_label(self) -> &'static str {
        match self {
            GrayCase::Slow => "slow",
            GrayCase::Hang => "unresponsive",
            GrayCase::Link => "link-degrade",
        }
    }
}

fn gray_skt_cfg(method: Method, codec: CodecSpec) -> SktConfig {
    let mut cfg = SktConfig::new(HplConfig::new(48, 4, 11), GRAY_NODES, 2);
    cfg.method = method;
    cfg.codec = codec;
    cfg
}

/// Residual bits of a fault-free daemon run — the bit-exactness anchor
/// for exonerated cells.
fn gray_reference_residual(method: Method, codec: CodecSpec) -> u64 {
    let cluster = Arc::new(Cluster::new_with_runtime(
        ClusterConfig::new(GRAY_NODES, 1),
        SimRuntime::new(0),
    ));
    let rl = Ranklist::round_robin(GRAY_NODES, GRAY_NODES);
    let rep = run_with_daemon(
        cluster,
        &rl,
        &gray_skt_cfg(method, codec),
        3,
        Duration::from_secs(5),
    );
    let out = rep
        .outcome
        .completed()
        .expect("fault-free reference must complete");
    assert!(out.hpl.passed);
    out.hpl.residual.to_bits()
}

/// One cell of the gray matrix, through the full daemon ladder: inject,
/// let the peers declare the suspect, probe, then exonerate (healed
/// plans — residual must be bit-exact with the fault-free reference) or
/// fence-and-migrate (unhealed plans — the zombie stays fenced, its
/// shard lands on the spare). Returns the cell's stable fingerprint —
/// the matrix asserts it is invariant across scheduler seeds.
fn gray_cell(
    case: GrayCase,
    heal: bool,
    method: Method,
    codec: CodecSpec,
    reference: u64,
    seed: u64,
) -> String {
    let tag = format!("{case:?}/heal={heal}/{method:?}/seed{seed}");
    let cluster = Arc::new(Cluster::new_with_runtime(
        ClusterConfig::new(GRAY_NODES, 1),
        SimRuntime::new(seed),
    ));
    let rl = Ranklist::round_robin(GRAY_NODES, GRAY_NODES);
    cluster.arm_failure(case.plan(heal));
    let mut s = String::new();
    let rep = run_with_daemon(
        Arc::clone(&cluster),
        &rl,
        &gray_skt_cfg(method, codec),
        3,
        Duration::from_secs(5),
    );
    match rep.outcome.completed() {
        Ok(out) => {
            assert!(out.hpl.passed, "{tag}: residual failed");
            assert_eq!(
                rep.history.suspicions.len(),
                1,
                "{tag}: exactly one suspicion adjudicated: {:?}",
                rep.history.suspicions
            );
            let sr = &rep.history.suspicions[0];
            assert_eq!(sr.node, GRAY_VICTIM, "{tag}: wrong suspect");
            if heal {
                assert_eq!(sr.outcome, SuspicionOutcome::Exonerated, "{tag}");
                assert_eq!(sr.probe, "responsive", "{tag}");
                assert!(
                    !cluster.node_fenced(GRAY_VICTIM),
                    "{tag}: exoneration never fences"
                );
                assert_eq!(cluster.spares_left(), 1, "{tag}: no spare spent");
                assert_eq!(
                    out.hpl.residual.to_bits(),
                    reference,
                    "{tag}: exonerated resume must be bit-exact with the fault-free run"
                );
            } else {
                assert!(
                    matches!(sr.outcome, SuspicionOutcome::Migrated { .. }),
                    "{tag}: unhealed fault must migrate, got {:?}",
                    sr.outcome
                );
                assert_eq!(sr.probe, case.probe_label(), "{tag}");
                assert!(
                    cluster.node_fenced(GRAY_VICTIM),
                    "{tag}: zombie must be fenced"
                );
                assert!(
                    cluster.node_alive(GRAY_VICTIM),
                    "{tag}: fenced, not killed — the node never powered off"
                );
                assert_eq!(
                    cluster.spares_left(),
                    0,
                    "{tag}: shard migrated to the spare"
                );
            }
            s.push_str(&format!(
                "{case:?}/heal={heal}/{method:?}: completed residual={:016x}\n",
                out.hpl.residual.to_bits()
            ));
            for sr in &rep.history.suspicions {
                s.push_str(&format!(
                    "  suspicion node={} probe={} outcome={}\n",
                    sr.node,
                    sr.probe,
                    sr.outcome.label()
                ));
            }
            for a in &rep.history.attempts {
                s.push_str(&format!(
                    "  attempt fault={} dead={:?}\n",
                    a.fault.stable_label(),
                    a.newly_dead
                ));
            }
        }
        Err(Refusal::Unrecoverable) => {
            // The suspicion abort can land inside a *baseline* method's
            // torn update window; with the victim's copy then quarantined
            // the group is beyond that method's repair — the documented
            // flaw, refused typed, never silent. Self-checkpoint has no
            // such window.
            assert!(
                method != Method::SelfCkpt,
                "{tag}: self-checkpoint must never refuse: {:?}",
                rep.history.attempts
            );
            s.push_str(&format!(
                "{case:?}/heal={heal}/{method:?}: refused unrecoverable\n"
            ));
            for sr in &rep.history.suspicions {
                s.push_str(&format!(
                    "  suspicion node={} probe={} outcome={}\n",
                    sr.node,
                    sr.probe,
                    sr.outcome.label()
                ));
            }
        }
        Err(other) => panic!("{tag}: daemon gave up: {other:?}"),
    }
    s.push_str(&format!(
        "  victim fenced={} alive={} spares_left={}\n",
        cluster.node_fenced(GRAY_VICTIM),
        cluster.node_alive(GRAY_VICTIM),
        cluster.spares_left()
    ));
    s
}

/// Seeds per gray cell (ISSUE criterion: 8).
const GRAY_SEEDS: u64 = 8;

/// Every gray shape × heal × seed for one method: each cell ends in
/// exoneration or migration (or, for a baseline method, the typed
/// torn-window refusal) — never a hang, never silent corruption — and
/// the cell fingerprint is seed-invariant.
fn gray_matrix(method: Method, codec: CodecSpec) -> String {
    let reference = gray_reference_residual(method, codec);
    let mut all = String::new();
    for case in GrayCase::ALL {
        for heal in [false, true] {
            let mut first: Option<(u64, String)> = None;
            for seed in 0..GRAY_SEEDS {
                let fp = gray_cell(case, heal, method, codec, reference, seed);
                match &first {
                    None => {
                        all.push_str(&fp);
                        first = Some((seed, fp));
                    }
                    Some((s0, fp0)) => assert_eq!(
                        &fp, fp0,
                        "{case:?}/heal={heal}/{method:?}/seed{seed}: differs from seed {s0} — not seed-invariant"
                    ),
                }
            }
        }
    }
    all
}

#[test]
fn gray_faults_exonerate_or_migrate_self_checkpoint() {
    gray_matrix(Method::SelfCkpt, CodecSpec::default());
}

#[test]
fn gray_faults_exonerate_or_migrate_single_checkpoint() {
    gray_matrix(Method::Single, CodecSpec::default());
}

#[test]
fn gray_faults_exonerate_or_migrate_double_checkpoint() {
    gray_matrix(Method::Double, CodecSpec::default());
}

/// Migration only ever loses *one* member (the fenced zombie), so the
/// verdict is codec-independent: every codec rebuilds the migrated
/// shard and lands on the same fingerprint shape.
#[test]
fn gray_migration_verdicts_are_codec_independent() {
    for codec in [CodecSpec::default(), CodecSpec::Dual, CodecSpec::rs(3)] {
        let reference = gray_reference_residual(Method::SelfCkpt, codec);
        for case in GrayCase::ALL {
            for seed in 0..2u64 {
                gray_cell(case, false, Method::SelfCkpt, codec, reference, seed);
            }
        }
    }
}

/// The gray matrix is a pure function of `(case, heal, method, seed)`:
/// two in-process evaluations must agree byte-for-byte, and
/// `$SKT_GRAYFAULT_REPORT` exports the report so the CI `gray-faults`
/// job can diff two independent *processes*.
#[test]
fn gray_report_is_stable_and_exported() {
    let build = || {
        let mut s = String::new();
        for method in [Method::SelfCkpt, Method::Single, Method::Double] {
            let reference = gray_reference_residual(method, CodecSpec::default());
            for case in GrayCase::ALL {
                for heal in [false, true] {
                    for seed in 0..2u64 {
                        s.push_str(&gray_cell(
                            case,
                            heal,
                            method,
                            CodecSpec::default(),
                            reference,
                            seed,
                        ));
                    }
                }
            }
        }
        s
    };
    let a = build();
    let b = build();
    assert_eq!(
        a, b,
        "gray outcomes must be a pure function of (case, heal, method, seed)"
    );
    if let Ok(path) = std::env::var("SKT_GRAYFAULT_REPORT") {
        std::fs::write(&path, &a).unwrap();
    }
}
