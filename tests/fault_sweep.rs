//! Probe-sweep recoverability matrix: every checkpoint method is hit by
//! a node failure at **every** [`skt_core::Phase`], and recovery must
//! land exactly where the paper's case analysis says (Figures 2–5):
//!
//! * self-checkpoint never loses the job — it rolls back (CASE 1) or
//!   rolls forward from `(work, D)` (CASE 2), whatever the window;
//! * single-checkpoint is unrecoverable exactly in its update window
//!   (`CopyB`, `Encode` — Figure 2 CASE 2) and recoverable elsewhere;
//! * double-checkpoint always has an intact pair to fall back to.
//!
//! Phases a method's `make` never reaches (e.g. `FlushB` for the
//! baselines) are asserted to never fire: the armed plan stays cold and
//! the run completes.
//!
//! After every successful recovery the sweep asserts the full recovery
//! invariant: all ranks agree on the epoch, `A2` round-trips, the
//! workspace holds that epoch's data bit-for-bit, and
//! `verify_integrity` (a fresh parity check of `(B, C)`) passes.

//! A sim dimension rides on top: the same sweep runs under
//! [`SimRuntime`] across a range of scheduler seeds, asserting the
//! matrix verdicts are *seed-invariant* — the paper's case analysis is a
//! property of the protocol, not of any particular interleaving.

use self_checkpoint::cluster::{
    explore_yield_kills, Cluster, ClusterConfig, FailurePlan, FaultPlan, GrayKind, Ranklist,
    Region, SimRuntime,
};
use self_checkpoint::core::{
    Checkpointer, CkptConfig, Method, Phase, RecoverError, Recovery, RestoreSource,
    RECOVER_COMMIT_PROBE, RECOVER_PHASE_LABEL, RECOVER_PLAN_PROBE, RECOVER_REBUILD_PROBE,
};
use self_checkpoint::encoding::CodecSpec;
use self_checkpoint::mps::{run_on_cluster, Ctx, Fault};
use std::sync::Arc;

const N: usize = 4;
const A1: usize = 128;
const TOTAL_EPOCHS: u64 = 5;

fn pattern(rank: usize, epoch: u64) -> Vec<f64> {
    (0..A1)
        .map(|i| (rank * 7919 + i) as f64 * 0.25 + epoch as f64)
        .collect()
}

fn sweep_cfg(method: Method, codec: CodecSpec) -> CkptConfig {
    CkptConfig::new("sweep", method, A1, 16).with_codec(codec)
}

fn writer(ctx: &Ctx, method: Method) -> Result<(), Fault> {
    writer_with(ctx, sweep_cfg(method, CodecSpec::default()))
}

fn writer_with(ctx: &Ctx, cfg: CkptConfig) -> Result<(), Fault> {
    let world = ctx.world();
    let (mut ck, _) = Checkpointer::init(world, cfg);
    for e in 1..=TOTAL_EPOCHS {
        {
            let ws = ck.workspace();
            ws.write().as_f64_mut()[..A1].copy_from_slice(&pattern(ctx.world_rank(), e));
        }
        ctx.failpoint("computing")?;
        ck.make(&e.to_le_bytes())?;
    }
    Ok(())
}

enum Outcome {
    /// The armed phase never fired; the job ran to completion.
    NeverFired,
    /// Recovery gave up job-wide with this message.
    Unrecoverable(String),
    /// Per-rank (recovery result, workspace data, integrity verdict).
    Recovered(Vec<(Recovery, Vec<f64>, bool)>),
}

impl Outcome {
    fn describe(&self) -> String {
        match self {
            Outcome::NeverFired => "never fired".into(),
            Outcome::Unrecoverable(m) => format!("unrecoverable: {m}"),
            Outcome::Recovered(outs) => format!("recovered: {:?}", outs[0].0),
        }
    }
}

impl Outcome {
    /// Canonical per-cell fingerprint: everything the matrix asserts on,
    /// plus the exact workspace bits. Two runs of a seed-invariant cell
    /// must produce equal fingerprints whatever the interleaving.
    fn fingerprint(&self) -> String {
        match self {
            Outcome::NeverFired => "never-fired".into(),
            Outcome::Unrecoverable(m) => format!("unrecoverable({m})"),
            Outcome::Recovered(outs) => {
                let mut s = String::from("recovered");
                for (rec, data, intact) in outs {
                    let bits = data
                        .iter()
                        .fold(0u64, |h, v| h.rotate_left(7) ^ v.to_bits());
                    s.push_str(&format!(" [{rec:?} bits={bits:016x} intact={intact}]"));
                }
                s
            }
        }
    }
}

/// Arm `phase`/`nth` on node `victim`, run until the failure (or
/// completion), then repair and collectively recover. With a `seed` the
/// whole cycle (failure run + recovery run) executes on a fresh
/// [`SimRuntime`], making the cell a pure function of `(config, seed)`.
fn sweep(method: Method, phase: Phase, nth: u64, victim: usize, seed: Option<u64>) -> Outcome {
    let config = ClusterConfig::new(N, 1);
    let cluster = Arc::new(match seed {
        Some(s) => Cluster::new_with_runtime(config, SimRuntime::new(s)),
        None => Cluster::new(config),
    });
    let mut rl = Ranklist::round_robin(N, N);
    cluster.arm_failure(FailurePlan::new(phase, nth, victim));
    let first = run_on_cluster(Arc::clone(&cluster), &rl, |ctx| writer(ctx, method));
    if first.is_ok() {
        return Outcome::NeverFired;
    }
    assert_eq!(cluster.dead_nodes(), vec![victim], "only the victim dies");
    cluster.reset_abort();
    rl.repair(&cluster).unwrap();

    let unrec = std::sync::Mutex::new(None);
    let outs = run_on_cluster(cluster, &rl, |ctx| {
        let world = ctx.world();
        let (mut ck, _) = Checkpointer::init(world, CkptConfig::new("sweep", method, A1, 16));
        match ck.recover() {
            Ok(rec) => {
                let ok = ck.verify_integrity()?;
                let data = {
                    let ws = ck.workspace();
                    let g = ws.read();
                    g.as_f64()[..A1].to_vec()
                };
                Ok(Some((rec, data, ok)))
            }
            Err(RecoverError::Unrecoverable(msg)) => {
                *unrec.lock().unwrap() = Some(msg);
                Ok(None)
            }
            Err(RecoverError::Fault(f)) => Err(f),
            Err(other) => panic!("unexpected recovery error: {other}"),
        }
    })
    .unwrap();
    if let Some(msg) = unrec.into_inner().unwrap() {
        return Outcome::Unrecoverable(msg);
    }
    Outcome::Recovered(
        outs.into_iter()
            .map(|o| o.expect("all ranks must agree"))
            .collect(),
    )
}

/// The multi-kill dimension: arm `phase`/`nth` on the first victim, and
/// once the job aborts power off every node in `extra_victims` — before
/// any recovery step runs, so the relaunch faces `1 + extra_victims`
/// erasures against the survivor state frozen at that window. The codec
/// decides the verdict: a codec with `m ≥` losses must restore exactly
/// where single parity restores one loss; a smaller `m` must refuse with
/// the typed multi-loss message instead of rebuilding wrong data.
fn sweep_multi(
    method: Method,
    phase: Phase,
    nth: u64,
    codec: CodecSpec,
    extra_victims: &[usize],
    seed: Option<u64>,
) -> Outcome {
    const V1: usize = 1;
    let config = ClusterConfig::new(N, 1 + extra_victims.len());
    let cluster = Arc::new(match seed {
        Some(s) => Cluster::new_with_runtime(config, SimRuntime::new(s)),
        None => Cluster::new(config),
    });
    let mut rl = Ranklist::round_robin(N, N);
    cluster.arm_failure(FailurePlan::new(phase, nth, V1));
    let first = run_on_cluster(Arc::clone(&cluster), &rl, |ctx| {
        writer_with(ctx, sweep_cfg(method, codec))
    });
    if first.is_ok() {
        return Outcome::NeverFired;
    }
    assert_eq!(cluster.dead_nodes(), vec![V1], "only the armed victim dies");
    for &v in extra_victims {
        cluster.kill_node(v);
    }
    cluster.reset_abort();
    rl.repair(&cluster).unwrap();

    let unrec = std::sync::Mutex::new(None);
    let outs = run_on_cluster(cluster, &rl, |ctx| {
        let world = ctx.world();
        let (mut ck, _) = Checkpointer::init(world, sweep_cfg(method, codec));
        match ck.recover() {
            Ok(rec) => {
                let ok = ck.verify_integrity()?;
                let data = {
                    let ws = ck.workspace();
                    let g = ws.read();
                    g.as_f64()[..A1].to_vec()
                };
                Ok(Some((rec, data, ok)))
            }
            Err(RecoverError::Unrecoverable(msg)) => {
                *unrec.lock().unwrap() = Some(msg);
                Ok(None)
            }
            Err(RecoverError::Fault(f)) => Err(f),
            Err(other) => panic!("unexpected recovery error: {other}"),
        }
    })
    .unwrap();
    if let Some(msg) = unrec.into_inner().unwrap() {
        return Outcome::Unrecoverable(msg);
    }
    Outcome::Recovered(
        outs.into_iter()
            .map(|o| o.expect("all ranks must agree"))
            .collect(),
    )
}

/// Two losses per group: the armed victim plus node 2.
fn sweep_double(
    method: Method,
    phase: Phase,
    nth: u64,
    codec: CodecSpec,
    seed: Option<u64>,
) -> Outcome {
    sweep_multi(method, phase, nth, codec, &[2], seed)
}

/// Three losses per group: the armed victim plus nodes 2 and 3 — only
/// rank 0 of the group survives.
fn sweep_triple(
    method: Method,
    phase: Phase,
    nth: u64,
    codec: CodecSpec,
    seed: Option<u64>,
) -> Outcome {
    sweep_multi(method, phase, nth, codec, &[2, 3], seed)
}

#[derive(Debug)]
enum Expect {
    /// Recovery succeeds at one of `epochs`, from `source` when pinned.
    Restored {
        epochs: &'static [u64],
        source: Option<RestoreSource>,
    },
    /// Recovery must refuse (single-checkpoint torn update).
    Unrec,
    /// The method's `make` never reaches this phase.
    NeverFires,
    /// A commit-edge window: the victim dies with its own commit marker
    /// written while the survivors' header writes race the abort, so
    /// which consistent state recovery lands on depends on the
    /// interleaving. Restored at one of `epochs` (the source follows
    /// from whichever markers survive); `torn_ok` additionally admits
    /// the single method's conservative give-up, when no survivor
    /// header can prove the commit happened.
    Edge {
        epochs: &'static [u64],
        torn_ok: bool,
    },
}

/// The paper's case analysis. The failure lands in epoch 3's `make`
/// (epoch 2 committed, epoch 3 in flight), except `Done`, which fires
/// after epoch 3 committed.
fn expectation(method: Method, phase: Phase) -> Expect {
    let cc = Some(RestoreSource::CheckpointAndChecksum);
    let wd = Some(RestoreSource::WorkspaceAndChecksum);
    match (method, phase) {
        // CASE 1: D not yet committed anywhere -> roll back to (B, C)@2.
        (Method::SelfCkpt, Phase::Serialize | Phase::Encode) => Expect::Restored {
            epochs: &[2],
            source: cc,
        },
        // On the commit edge: depending on which side of the barrier the
        // survivors were parked, D@3 is committed (roll forward) or not
        // (roll back). Both are consistent states; either is sound.
        (Method::SelfCkpt, Phase::CommitD) => Expect::Edge {
            epochs: &[2, 3],
            torn_ok: false,
        },
        // CASE 2: D@3 committed, flush torn -> roll FORWARD from
        // (work, D), losing no progress.
        (Method::SelfCkpt, Phase::FlushB | Phase::FlushC) => Expect::Restored {
            epochs: &[3],
            source: wd,
        },
        // Done fires after the final commit, but the survivors' own
        // BcEpoch writes race the abort: either the committed pair or a
        // roll-forward from (work, D) serves epoch 3.
        (Method::SelfCkpt, Phase::Done) => Expect::Edge {
            epochs: &[3],
            torn_ok: false,
        },
        // CopyB (and anything else): self-checkpoint has no blind
        // full-copy window — its flush is covered by FlushB/FlushC.
        (Method::SelfCkpt, _) => Expect::NeverFires,

        // Before the update window opens the old pair is intact...
        (Method::Single, Phase::Serialize) => Expect::Restored {
            epochs: &[2],
            source: cc,
        },
        // ...inside it, B is overwritten while C still matches the old B:
        // the method's documented flaw (Figure 2 CASE 2).
        (Method::Single, Phase::CopyB | Phase::Encode) => Expect::Unrec,
        // After the final commit the method is safe only if a survivor's
        // header proves it: if every survivor was still parked in the
        // commit barrier, dirty=3/bc=2 reads as a torn update and the
        // planner must conservatively give up.
        (Method::Single, Phase::Done) => Expect::Edge {
            epochs: &[3],
            torn_ok: true,
        },
        (Method::Single, _) => Expect::NeverFires,

        // Double always keeps the previous pair untouched.
        (Method::Double, Phase::Serialize | Phase::CopyB | Phase::Encode) => Expect::Restored {
            epochs: &[2],
            source: cc,
        },
        // Same edge for double: if no survivor's pair-commit landed, the
        // group falls back to the older intact pair at epoch 2.
        (Method::Double, Phase::Done) => Expect::Edge {
            epochs: &[2, 3],
            torn_ok: false,
        },
        (Method::Double, _) => Expect::NeverFires,
    }
}

/// Probe count landing the failure in epoch 3's `make`: Encode fires
/// once per slot reduce (N per make), so the third make's first probe is
/// 2N+1. Every other phase fires once per make.
fn nth_for(phase: Phase) -> u64 {
    if phase == Phase::Encode {
        2 * N as u64 + 1
    } else {
        3
    }
}

fn check(method: Method, phase: Phase, victim: usize) {
    let out = sweep(method, phase, nth_for(phase), victim, None);
    let tag = format!("{method:?}/{phase}/victim{victim}");
    assert_expected(method, phase, out, &tag);
}

fn assert_expected(method: Method, phase: Phase, out: Outcome, tag: &str) {
    match (expectation(method, phase), out) {
        (Expect::NeverFires, Outcome::NeverFired) => {}
        (Expect::Unrec, Outcome::Unrecoverable(msg))
        | (Expect::Edge { torn_ok: true, .. }, Outcome::Unrecoverable(msg)) => {
            assert!(msg.contains("inconsistent"), "{tag}: wrong reason: {msg}");
        }
        (Expect::Restored { epochs, source }, Outcome::Recovered(outs)) => {
            assert_restored(&outs, epochs, source, tag);
        }
        (Expect::Edge { epochs, .. }, Outcome::Recovered(outs)) => {
            assert_restored(&outs, epochs, None, tag);
        }
        (want, got) => panic!("{tag}: expected {want:?}, got {}", got.describe()),
    }
}

fn assert_restored(
    outs: &[(Recovery, Vec<f64>, bool)],
    epochs: &[u64],
    source: Option<RestoreSource>,
    tag: &str,
) {
    assert_eq!(outs.len(), N, "{tag}: all ranks report");
    let e0 = match &outs[0].0 {
        Recovery::Restored { epoch, .. } => *epoch,
        other => panic!("{tag}: rank 0 got {other:?}"),
    };
    assert!(
        epochs.contains(&e0),
        "{tag}: restored epoch {e0}, allowed {epochs:?}"
    );
    for (rank, (rec, data, intact)) in outs.iter().enumerate() {
        match rec {
            Recovery::Restored {
                epoch,
                a2,
                source: got,
            } => {
                assert_eq!(*epoch, e0, "{tag}: rank {rank} disagrees on epoch");
                assert_eq!(a2.as_slice(), e0.to_le_bytes(), "{tag}: rank {rank} A2");
                if let Some(want) = source {
                    assert_eq!(*got, want, "{tag}: rank {rank} restore source");
                }
            }
            other => panic!("{tag}: rank {rank} got {other:?}"),
        }
        assert!(
            *intact,
            "{tag}: rank {rank} failed the post-recovery parity check"
        );
        assert_eq!(data, &pattern(rank, e0), "{tag}: rank {rank} workspace");
    }
}

#[test]
fn self_checkpoint_recovers_across_every_probe_window() {
    for phase in Phase::ALL {
        check(Method::SelfCkpt, phase, 1);
    }
}

#[test]
fn single_checkpoint_matrix_matches_paper_case_analysis() {
    for phase in Phase::ALL {
        check(Method::Single, phase, 1);
    }
}

#[test]
fn double_checkpoint_matrix_rolls_back_to_intact_pair() {
    for phase in Phase::ALL {
        check(Method::Double, phase, 1);
    }
}

#[test]
fn self_checkpoint_matrix_is_victim_independent() {
    for victim in [0, 2, 3] {
        for phase in Phase::ALL {
            check(Method::SelfCkpt, phase, victim);
        }
    }
}

/// One cell of the single-parity double-kill matrix: wherever the armed
/// plan fires, losing two group members must end in the typed refusal —
/// the multi-loss verdict, or the torn-update/consistency verdict on the
/// windows where even one loss is already fatal.
fn assert_single_parity_refusal(method: Method, phase: Phase, out: Outcome, tag: &str) {
    match (expectation(method, phase), out) {
        (Expect::NeverFires, Outcome::NeverFired) => {}
        (_, Outcome::Unrecoverable(msg)) => {
            assert!(
                msg.contains("more than one member") || msg.contains("inconsistent"),
                "{tag}: wrong refusal: {msg}"
            );
        }
        (want, got) => panic!(
            "{tag}: two losses under m=1 must refuse (case {want:?}), got {}",
            got.describe()
        ),
    }
}

#[test]
fn dual_codec_double_kill_matrix_matches_the_single_loss_case_analysis() {
    // With m = 2 the two-loss matrix must reproduce the paper's one-loss
    // case analysis cell for cell: same restore epochs, same sources,
    // same torn-update refusals — the codec only widens the erasure
    // budget, never the protocol's commit discipline.
    for method in [Method::SelfCkpt, Method::Single, Method::Double] {
        for phase in Phase::ALL {
            let out = sweep_double(method, phase, nth_for(phase), CodecSpec::Dual, None);
            let tag = format!("dual/{method:?}/{phase}");
            assert_expected(method, phase, out, &tag);
        }
    }
}

#[test]
fn single_parity_double_kill_matrix_refuses_with_the_typed_verdict() {
    for method in [Method::SelfCkpt, Method::Single, Method::Double] {
        for phase in Phase::ALL {
            let out = sweep_double(method, phase, nth_for(phase), CodecSpec::default(), None);
            let tag = format!("m1/{method:?}/{phase}");
            assert_single_parity_refusal(method, phase, out, &tag);
        }
    }
}

/// One cell of the `m = 2` triple-kill matrix: wherever the armed plan
/// fires, losing three group members must end in the typed refusal —
/// the `m`-aware multi-loss verdict, or the torn-update/consistency
/// verdict on the windows where even one loss is already fatal.
fn assert_dual_parity_refusal(method: Method, phase: Phase, out: Outcome, tag: &str) {
    match (expectation(method, phase), out) {
        (Expect::NeverFires, Outcome::NeverFired) => {}
        (_, Outcome::Unrecoverable(msg)) => {
            assert!(
                msg.contains("more than 2 members") || msg.contains("inconsistent"),
                "{tag}: wrong refusal: {msg}"
            );
        }
        (want, got) => panic!(
            "{tag}: three losses under m=2 must refuse (case {want:?}), got {}",
            got.describe()
        ),
    }
}

#[test]
fn rs3_codec_triple_kill_matrix_matches_the_single_loss_case_analysis() {
    // With m = 3, losing three of the four group members (only rank 0
    // survives) must still reproduce the paper's one-loss case analysis
    // cell for cell — the RS codec widens the erasure budget to the
    // group's maximum while the protocol's commit discipline is
    // untouched.
    for method in [Method::SelfCkpt, Method::Single, Method::Double] {
        for phase in Phase::ALL {
            let out = sweep_triple(method, phase, nth_for(phase), CodecSpec::rs(3), None);
            let tag = format!("rs3/{method:?}/{phase}");
            assert_expected(method, phase, out, &tag);
        }
    }
}

#[test]
fn dual_codec_triple_kill_matrix_refuses_with_the_typed_verdict() {
    for method in [Method::SelfCkpt, Method::Single, Method::Double] {
        for phase in Phase::ALL {
            let out = sweep_triple(method, phase, nth_for(phase), CodecSpec::Dual, None);
            let tag = format!("m2-triple/{method:?}/{phase}");
            assert_dual_parity_refusal(method, phase, out, &tag);
        }
    }
}

/// Seeds per cell of the triple-kill sim sweep (kept small: the cells
/// already run once without a seed in the matrix tests above).
const TRIPLE_SEEDS: u64 = 4;

#[test]
fn rs3_triple_kill_verdicts_are_seed_invariant_under_sim() {
    for phase in Phase::ALL {
        let mut first: Option<(u64, String)> = None;
        for seed in 0..TRIPLE_SEEDS {
            let out = sweep_triple(
                Method::SelfCkpt,
                phase,
                nth_for(phase),
                CodecSpec::rs(3),
                Some(seed),
            );
            let tag = format!("rs3/SelfCkpt/{phase}/seed{seed}");
            let fp = out.fingerprint();
            assert_expected(Method::SelfCkpt, phase, out, &tag);
            if !matches!(expectation(Method::SelfCkpt, phase), Expect::Edge { .. }) {
                match &first {
                    None => first = Some((seed, fp)),
                    Some((s0, fp0)) => assert_eq!(
                        &fp, fp0,
                        "{tag}: outcome differs from seed {s0} — not seed-invariant"
                    ),
                }
            }
            let out = sweep_triple(
                Method::SelfCkpt,
                phase,
                nth_for(phase),
                CodecSpec::Dual,
                Some(seed),
            );
            let tag = format!("m2-triple/SelfCkpt/{phase}/seed{seed}");
            assert_dual_parity_refusal(Method::SelfCkpt, phase, out, &tag);
        }
    }
}

/// Seeds per cell of the double-kill sim sweep: enough interleavings to
/// catch a schedule-dependent verdict without dominating the suite.
const DOUBLE_SEEDS: u64 = 8;

/// Both double-kill verdicts must be seed-invariant under [`SimRuntime`]:
/// dual parity restores the expected cell (same fingerprint off the
/// commit edges), single parity refuses, at every scheduler seed.
fn check_double_kill_seed_invariant(method: Method) {
    for phase in Phase::ALL {
        let mut first: Option<(u64, String)> = None;
        for seed in 0..DOUBLE_SEEDS {
            let out = sweep_double(method, phase, nth_for(phase), CodecSpec::Dual, Some(seed));
            let tag = format!("dual/{method:?}/{phase}/seed{seed}");
            let fp = out.fingerprint();
            assert_expected(method, phase, out, &tag);
            if !matches!(expectation(method, phase), Expect::Edge { .. }) {
                match &first {
                    None => first = Some((seed, fp)),
                    Some((s0, fp0)) => assert_eq!(
                        &fp, fp0,
                        "{tag}: outcome differs from seed {s0} — not seed-invariant"
                    ),
                }
            }
            let out = sweep_double(
                method,
                phase,
                nth_for(phase),
                CodecSpec::default(),
                Some(seed),
            );
            let tag = format!("m1/{method:?}/{phase}/seed{seed}");
            assert_single_parity_refusal(method, phase, out, &tag);
        }
    }
}

#[test]
fn self_double_kill_verdicts_are_seed_invariant_under_sim() {
    check_double_kill_seed_invariant(Method::SelfCkpt);
}

#[test]
fn single_double_kill_verdicts_are_seed_invariant_under_sim() {
    check_double_kill_seed_invariant(Method::Single);
}

#[test]
fn double_double_kill_verdicts_are_seed_invariant_under_sim() {
    check_double_kill_seed_invariant(Method::Double);
}

/// Seeds per Method×Phase×victim cell of the sim sweep below.
const SEEDS: u64 = 32;

/// The seed-sweep dimension: every cell re-runs under [`SimRuntime`]
/// across [`SEEDS`] scheduler seeds. Each seed must land on the paper's
/// expected verdict, and — except on the commit-edge windows (`CommitD`
/// and `Done`), where either side of the barrier is sound — the outcome
/// fingerprint (recovery epoch, restore source, workspace bits, parity
/// verdict) must be identical across seeds: the case analysis is a
/// protocol property, not an interleaving accident.
fn check_seed_invariant(method: Method, victim: usize) {
    for phase in Phase::ALL {
        let mut first: Option<(u64, String)> = None;
        for seed in 0..SEEDS {
            let out = sweep(method, phase, nth_for(phase), victim, Some(seed));
            let tag = format!("{method:?}/{phase}/victim{victim}/seed{seed}");
            let fp = out.fingerprint();
            assert_expected(method, phase, out, &tag);
            if matches!(expectation(method, phase), Expect::Edge { .. }) {
                continue; // either side of a commit edge is sound
            }
            match &first {
                None => first = Some((seed, fp)),
                Some((s0, fp0)) => assert_eq!(
                    &fp, fp0,
                    "{tag}: outcome differs from seed {s0} — not seed-invariant"
                ),
            }
        }
    }
}

/// What one armed point of the recovery-phase kill sweep produced.
#[derive(Debug)]
enum CascadeOutcome {
    /// The second death interrupted recovery; replacing the node and
    /// retrying restored a consistent state at this epoch.
    Retried(u64),
    /// The second death left the group beyond repair; the retry refused
    /// with this typed verdict instead of restoring wrong data.
    TypedRefusal(String),
}

/// One collective recovery run; `Ok(per-rank results)` or the job-wide
/// typed verdict.
#[allow(clippy::type_complexity)]
fn recover_once(
    cluster: &Arc<Cluster>,
    rl: &Ranklist,
    method: Method,
) -> Result<Result<Vec<(Recovery, Vec<f64>, bool)>, String>, Fault> {
    let unrec = std::sync::Mutex::new(None);
    let outs = run_on_cluster(Arc::clone(cluster), rl, |ctx| {
        let world = ctx.world();
        let (mut ck, _) = Checkpointer::init(world, CkptConfig::new("sweep", method, A1, 16));
        match ck.recover() {
            Ok(rec) => {
                let ok = ck.verify_integrity()?;
                let data = {
                    let ws = ck.workspace();
                    let g = ws.read();
                    g.as_f64()[..A1].to_vec()
                };
                Ok(Some((rec, data, ok)))
            }
            Err(RecoverError::Unrecoverable(msg)) => {
                *unrec.lock().unwrap() = Some(msg);
                Ok(None)
            }
            Err(RecoverError::Fault(f)) => Err(f),
            Err(other) => panic!("unexpected recovery error: {other}"),
        }
    })?;
    Ok(match unrec.into_inner().unwrap() {
        Some(msg) => Err(msg),
        None => Ok(outs
            .into_iter()
            .map(|o| o.expect("all ranks agree"))
            .collect()),
    })
}

/// Cascading-failure sweep: after a first kill and repair, the explorer
/// kills a *second* node at every kill-capable yield point inside the
/// recovery window itself — mid-detection, mid-rebuild, mid-commit.
/// Whatever the point, the daemon's move (replace the node, recover
/// again) must either restore a consistent state at the first recovery's
/// target epoch or refuse with a typed verdict; it must never panic,
/// hang, or restore silently wrong data.
///
/// Returns a per-point outcome report — a pure function of
/// `(method, seed)`, exported for the CI cross-process diff.
fn recovery_phase_kill_sweep(method: Method, seed: u64) -> String {
    const FIRST_VICTIM: usize = 1;
    const SECOND_VICTIM: usize = 2;
    // A first-kill phase that leaves every method recoverable, and the
    // epoch its recovery restores (the case analysis above).
    let (first_phase, epoch) = match method {
        Method::SelfCkpt => (Phase::FlushB, 3),
        Method::Double => (Phase::CopyB, 2),
        Method::Single => (Phase::Serialize, 2),
    };
    let tag = format!("{method:?}/seed{seed}");
    let report = explore_yield_kills(seed, SECOND_VICTIM, RECOVER_PHASE_LABEL, |rt| {
        let cluster = Arc::new(Cluster::new_with_runtime(ClusterConfig::new(N, 2), rt));
        let mut rl = Ranklist::round_robin(N, N);
        cluster.arm_failure(FailurePlan::new(
            first_phase,
            nth_for(first_phase),
            FIRST_VICTIM,
        ));
        let first = run_on_cluster(Arc::clone(&cluster), &rl, |ctx| writer(ctx, method));
        assert!(first.is_err(), "the armed {first_phase} plan must fire");
        cluster.reset_abort();
        rl.repair(&cluster).unwrap();
        // Recovery attempt #1: the explorer may kill SECOND_VICTIM at any
        // yield point inside the "recover" window.
        match recover_once(&cluster, &rl, method) {
            Ok(Ok(outs)) => {
                // The kill landed after this node's part was done (or this
                // is the unarmed recording run): recovery came through.
                assert_restored(&outs, &[epoch], None, "first attempt");
                CascadeOutcome::Retried(epoch)
            }
            Ok(Err(msg)) => CascadeOutcome::TypedRefusal(msg),
            Err(f) => {
                // The second death aborted the recovery mid-flight. The
                // survivors must name the culprit, not a generic abort.
                assert_eq!(f, Fault::NodeDead(SECOND_VICTIM), "attributed fault");
                assert_eq!(cluster.dead_nodes(), vec![FIRST_VICTIM, SECOND_VICTIM]);
                cluster.reset_abort();
                rl.repair(&cluster).unwrap();
                // Attempt #2 runs with no armed plans left: it must reach
                // a verdict — restore or typed refusal — cleanly.
                match recover_once(&cluster, &rl, method).expect("no third fault exists") {
                    Ok(outs) => {
                        assert_restored(&outs, &[epoch], None, "retry");
                        CascadeOutcome::Retried(epoch)
                    }
                    Err(msg) => CascadeOutcome::TypedRefusal(msg),
                }
            }
        }
    });
    // Recording run: no second kill, recovery simply succeeds.
    assert!(
        matches!(report.baseline, CascadeOutcome::Retried(e) if e == epoch),
        "{tag}: baseline was {:?}",
        report.baseline
    );
    let mut retried = 0usize;
    for (nth, out) in &report.outcomes {
        match out {
            CascadeOutcome::Retried(e) => {
                assert_eq!(*e, epoch, "{tag}: kill #{nth} retried to the wrong epoch");
                retried += 1;
            }
            CascadeOutcome::TypedRefusal(msg) => {
                // A second loss before the first rebuild committed leaves
                // two fresh members — beyond single parity, and said so.
                assert!(
                    msg.contains("more than one member")
                        || msg.contains("single parity")
                        || msg.contains("inconsistent"),
                    "{tag}: kill #{nth}: unexpected verdict: {msg}"
                );
            }
        }
    }
    // Late kill points (after the rebuilt state committed) must retry to
    // success — a sweep where every point refuses would mean retrying
    // never works at all.
    assert!(
        retried > 0,
        "{tag}: no kill point survived a retry ({} points)",
        report.yield_points
    );
    let mut s = format!("{tag}: points={}\n", report.yield_points);
    for (nth, out) in &report.outcomes {
        match out {
            CascadeOutcome::Retried(e) => {
                s.push_str(&format!("  kill@{nth}: retried epoch={e}\n"));
            }
            CascadeOutcome::TypedRefusal(msg) => {
                s.push_str(&format!("  kill@{nth}: refused: {msg}\n"));
            }
        }
    }
    s
}

/// ISSUE criterion: a second node killed at every yield point of the
/// recovery itself, for every method, across 8 scheduler seeds — each
/// armed run must end in a retried recovery or a typed refusal, never a
/// panic, hang, or silent corruption.
const CASCADE_SEEDS: u64 = 8;

#[test]
fn self_recovery_survives_kills_at_every_recovery_yield_point() {
    for seed in 0..CASCADE_SEEDS {
        recovery_phase_kill_sweep(Method::SelfCkpt, seed);
    }
}

#[test]
fn single_recovery_survives_kills_at_every_recovery_yield_point() {
    for seed in 0..CASCADE_SEEDS {
        recovery_phase_kill_sweep(Method::Single, seed);
    }
}

#[test]
fn double_recovery_survives_kills_at_every_recovery_yield_point() {
    for seed in 0..CASCADE_SEEDS {
        recovery_phase_kill_sweep(Method::Double, seed);
    }
}

/// The cascade sweep's point-by-point outcomes are a pure function of
/// `(method, seed)`: two in-process evaluations must agree
/// byte-for-byte, and `$SKT_RECOVERY_REPORT` exports the report so the
/// CI `recovery-faults` job can diff two independent *processes*.
#[test]
fn cascade_report_is_stable_and_exported() {
    let build = || {
        let mut s = String::new();
        for method in [Method::SelfCkpt, Method::Single, Method::Double] {
            for seed in 0..2u64 {
                s.push_str(&recovery_phase_kill_sweep(method, seed));
            }
        }
        s
    };
    let a = build();
    let b = build();
    assert_eq!(
        a, b,
        "cascade outcomes must be a pure function of (method, seed)"
    );
    if let Ok(path) = std::env::var("SKT_RECOVERY_REPORT") {
        std::fs::write(&path, &a).unwrap();
    }
}

#[test]
fn self_checkpoint_sweep_is_seed_invariant_under_sim() {
    check_seed_invariant(Method::SelfCkpt, 1);
}

#[test]
fn single_checkpoint_sweep_is_seed_invariant_under_sim() {
    check_seed_invariant(Method::Single, 1);
}

#[test]
fn double_checkpoint_sweep_is_seed_invariant_under_sim() {
    check_seed_invariant(Method::Double, 1);
}

// ---------------------------------------------------------------------
// Nested-fault dimension: recovery of a recovery
// ---------------------------------------------------------------------

/// The fault armed *inside* the recovery window, so the retry of the
/// already-faulted recovery is what gets hit.
#[derive(Clone, Copy, Debug)]
enum NestedFault {
    /// A second node dies at the armed recovery probe.
    Kill,
    /// One bit of the inner victim's checkpoint copy flips silently at
    /// the armed recovery probe.
    Flip,
}

/// What one armed point of the nested sweep produced. There is no third
/// variant: a cell that neither heals nor refuses — a panic, a hang, or
/// a silently wrong workspace — fails its assertion instead.
#[derive(Debug)]
enum NestedOutcome {
    /// Healing converged: every rank restored epoch `epoch` bit-exact
    /// with a passing parity check, after `attempts` collective heal
    /// runs. `trail` is rank 0's op-level audit of the final restore.
    Healed {
        epoch: u64,
        attempts: usize,
        trail: String,
    },
    /// The group was beyond repair; the heal refused job-wide with this
    /// typed verdict instead of restoring wrong data.
    TypedRefusal(String),
}

/// One collective heal run: init, recover, parity-check; if the fresh
/// parity check fails (silent corruption survived the restore), scrub
/// the damaged pair and restore once more. The `verify_integrity`
/// branch is collective-safe: it is an allreduce, so every rank takes
/// the scrub path together. Per-rank results carry the op-record trail
/// of the rank's last restore (the detect/replay audit).
#[allow(clippy::type_complexity)]
fn heal_once(
    cluster: &Arc<Cluster>,
    rl: &Ranklist,
    method: Method,
    codec: CodecSpec,
) -> Result<Result<Vec<(Recovery, Vec<f64>, bool, Vec<String>)>, String>, Fault> {
    let unrec = std::sync::Mutex::new(None);
    let outs = run_on_cluster(Arc::clone(cluster), rl, |ctx| {
        let world = ctx.world();
        let (mut ck, _) = Checkpointer::init(world, sweep_cfg(method, codec));
        let mut rec = None;
        let mut trail = Vec::new();
        let mut intact = false;
        for pass in 0..2 {
            rec = match ck.recover() {
                Ok(r) => Some(r),
                Err(RecoverError::Unrecoverable(msg)) => {
                    *unrec.lock().unwrap() = Some(msg);
                    return Ok(None);
                }
                Err(RecoverError::Fault(f)) => return Err(f),
                Err(other) => panic!("unexpected recovery error: {other}"),
            };
            trail = ck
                .last_report()
                .map(|r| r.ops.iter().map(|o| o.to_string()).collect())
                .unwrap_or_default();
            intact = ck.verify_integrity()?;
            if intact || pass == 1 {
                break;
            }
            match ck.scrub() {
                Ok(_) => {}
                Err(RecoverError::Unrecoverable(msg)) => {
                    *unrec.lock().unwrap() = Some(msg);
                    return Ok(None);
                }
                Err(RecoverError::Fault(f)) => return Err(f),
                Err(other) => panic!("unexpected scrub error: {other}"),
            }
        }
        let data = {
            let ws = ck.workspace();
            let g = ws.read();
            g.as_f64()[..A1].to_vec()
        };
        Ok(Some((rec.expect("loop ran"), data, intact, trail)))
    })?;
    Ok(match unrec.into_inner().unwrap() {
        Some(msg) => Err(msg),
        None => Ok(outs
            .into_iter()
            .map(|o| o.expect("all ranks agree"))
            .collect()),
    })
}

/// The recovery probes a nested fault can be armed at, in protocol
/// order: after planning, around the parity rebuild, before the header
/// re-commit.
const NESTED_LABELS: [&str; 3] = [
    RECOVER_PLAN_PROBE,
    RECOVER_REBUILD_PROBE,
    RECOVER_COMMIT_PROBE,
];

/// The recovery-of-recovery sweep. Layer the faults three deep:
///
/// 1. a first node loss at the method's armed checkpoint phase aborts
///    the job (the cascade sweep's setup);
/// 2. a nested fault — a second death or a silent bit flip, alternating
///    by seed parity — is armed at recovery probe `label`, so the first
///    recovery is itself faulted;
/// 3. the explorer then kills a *third* node at every kill-capable
///    yield point inside every recovery window of that scenario —
///    including the windows of the retries healing fault #2.
///
/// Whatever the interleaving, the bounded heal loop must converge to a
/// bit-exact restored state (the dual-parity codec covers two
/// concurrent erasures) or refuse with the typed collective verdict
/// (three members fresh at once exceeds `m = 2`). Healed cells are
/// checked against `pattern(rank, epoch)` bit-for-bit — the healed
/// fingerprint is the same whatever the seed — and every fault must be
/// *attributed* (the culprit node named), never a generic abort.
fn nested_recovery_sweep(method: Method, label: &'static str, seed: u64) -> String {
    const FIRST_VICTIM: usize = 1;
    const INNER_VICTIM: usize = 2;
    const EXPLORE_VICTIM: usize = 3;
    const MAX_HEALS: usize = 6;
    // Alternating by seed parity sweeps both nested-fault kinds across
    // the seed range without doubling the matrix.
    let kind = if seed.is_multiple_of(2) {
        NestedFault::Kill
    } else {
        NestedFault::Flip
    };
    let (first_phase, epoch) = match method {
        Method::SelfCkpt => (Phase::FlushB, 3),
        Method::Double => (Phase::CopyB, 2),
        Method::Single => (Phase::Serialize, 2),
    };
    let codec = CodecSpec::Dual;
    let tag = format!("{method:?}/{label}/{kind:?}/seed{seed}");
    let report = explore_yield_kills(seed, EXPLORE_VICTIM, RECOVER_PHASE_LABEL, |rt| {
        let cluster = Arc::new(Cluster::new_with_runtime(ClusterConfig::new(N, 3), rt));
        let mut rl = Ranklist::round_robin(N, N);
        cluster.arm_failure(FailurePlan::new(
            first_phase,
            nth_for(first_phase),
            FIRST_VICTIM,
        ));
        match kind {
            NestedFault::Kill => {
                cluster.arm_failure(FailurePlan::new(label, 1, INNER_VICTIM));
            }
            NestedFault::Flip => {
                let flip = FaultPlan::corrupt(label, 1, INNER_VICTIM, Region::CopyB, 21, 5);
                cluster.arm_failure(flip);
            }
        }
        let first = run_on_cluster(Arc::clone(&cluster), &rl, |ctx| {
            writer_with(ctx, sweep_cfg(method, codec))
        });
        assert!(
            first.is_err(),
            "{tag}: the armed {first_phase} plan must fire"
        );
        cluster.reset_abort();
        rl.repair(&cluster).unwrap();
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            assert!(
                attempts <= MAX_HEALS,
                "{tag}: no verdict after {MAX_HEALS} heal attempts"
            );
            match heal_once(&cluster, &rl, method, codec) {
                Ok(Ok(outs)) => {
                    for (rank, (rec, data, intact, _)) in outs.iter().enumerate() {
                        match rec {
                            Recovery::Restored { epoch: e, .. } => {
                                assert_eq!(*e, epoch, "{tag} rank {rank}: wrong epoch");
                            }
                            other => panic!("{tag} rank {rank}: {other:?}"),
                        }
                        assert!(*intact, "{tag} rank {rank}: parity check failed after heal");
                        assert_eq!(
                            data,
                            &pattern(rank, epoch),
                            "{tag} rank {rank}: healed bits differ from the epoch pattern"
                        );
                    }
                    return NestedOutcome::Healed {
                        epoch,
                        attempts,
                        trail: outs[0].3.join(", "),
                    };
                }
                Ok(Err(msg)) => {
                    // Refusal is deterministic (no armed plan left can
                    // change the survivor set): retrying is futile, the
                    // verdict stands.
                    assert!(
                        msg.contains("more than")
                            || msg.contains("inconsistent")
                            || msg.contains("rebuild at most")
                            || msg.contains("single parity"),
                        "{tag}: unexpected refusal: {msg}"
                    );
                    return NestedOutcome::TypedRefusal(msg);
                }
                Err(f) => {
                    // A bit flip landing between the lost-set agreement and
                    // the reconstruction read is refused with a typed fault
                    // (the TOCTOU guard in `rebuild_regions`); the retry's
                    // source verification downgrades the stale rank to one
                    // more erasure.
                    let attributed = f == Fault::NodeDead(INNER_VICTIM)
                        || f == Fault::NodeDead(EXPLORE_VICTIM)
                        || matches!(f, Fault::Protocol(m) if m.contains("changed under reconstruction"));
                    assert!(attributed, "{tag}: unattributed fault {f:?}");
                    cluster.reset_abort();
                    rl.repair(&cluster).unwrap();
                }
            }
        }
    });
    // Recording run: the nested fault alone (no explorer kill) must heal.
    match &report.baseline {
        NestedOutcome::Healed { epoch: e, .. } => {
            assert_eq!(*e, epoch, "{tag}: baseline healed the wrong epoch")
        }
        other => panic!("{tag}: baseline must heal without the explorer kill: {other:?}"),
    }
    let mut healed = 0usize;
    for (nth, out) in &report.outcomes {
        if let NestedOutcome::Healed { epoch: e, .. } = out {
            assert_eq!(*e, epoch, "{tag}: kill #{nth} healed the wrong epoch");
            healed += 1;
        }
    }
    // A sweep where no point heals would mean the retry loop never works
    // under a third fault at all.
    assert!(
        healed > 0,
        "{tag}: no kill point healed ({} points)",
        report.yield_points
    );
    let mut s = format!("{tag}: points={}\n", report.yield_points);
    for (nth, out) in &report.outcomes {
        match out {
            NestedOutcome::Healed {
                epoch,
                attempts,
                trail,
            } => {
                s.push_str(&format!(
                    "  kill@{nth}: healed epoch={epoch} attempts={attempts} ops=[{trail}]\n"
                ));
            }
            NestedOutcome::TypedRefusal(msg) => {
                s.push_str(&format!("  kill@{nth}: refused: {msg}\n"));
            }
        }
    }
    s
}

/// ISSUE criterion: a fault injected inside the retry of an
/// already-faulted recovery, at every recovery yield point, for every
/// method × recovery probe label × 8 sim seeds — each cell must heal
/// bit-exact or refuse with the typed collective verdict, with zero
/// silent outcomes.
const NESTED_SEEDS: u64 = 8;

#[test]
fn nested_fault_in_self_recovery_retry_heals_or_refuses() {
    for label in NESTED_LABELS {
        for seed in 0..NESTED_SEEDS {
            nested_recovery_sweep(Method::SelfCkpt, label, seed);
        }
    }
}

#[test]
fn nested_fault_in_single_recovery_retry_heals_or_refuses() {
    for label in NESTED_LABELS {
        for seed in 0..NESTED_SEEDS {
            nested_recovery_sweep(Method::Single, label, seed);
        }
    }
}

#[test]
fn nested_fault_in_double_recovery_retry_heals_or_refuses() {
    for label in NESTED_LABELS {
        for seed in 0..NESTED_SEEDS {
            nested_recovery_sweep(Method::Double, label, seed);
        }
    }
}

// ---------------------------------------------------------------------
// Gray-failure dimension: stragglers, hangs, degraded links
// ---------------------------------------------------------------------

use self_checkpoint::ftsim::{run_with_daemon, Refusal, SuspicionOutcome};
use self_checkpoint::hpl::{HplConfig, SktConfig, ITER_PROBE};
use std::time::Duration;

/// The node the gray plans degrade.
const GRAY_VICTIM: usize = 1;

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
    // one 4-member group so every codec (m = 1, 2, 3) is well-formed
    let mut cfg = SktConfig::new(HplConfig::new(48, 4, 11), 4, 2);
    cfg.method = method;
    cfg.codec = codec;
    cfg
}

/// Residual bits of a fault-free daemon run — the bit-exactness anchor
/// for exonerated cells.
fn gray_reference_residual(method: Method, codec: CodecSpec) -> u64 {
    let cluster = Arc::new(Cluster::new_with_runtime(
        ClusterConfig::new(N, 1),
        SimRuntime::new(0),
    ));
    let rl = Ranklist::round_robin(N, N);
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
        ClusterConfig::new(N, 1),
        SimRuntime::new(seed),
    ));
    let rl = Ranklist::round_robin(N, N);
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

/// The nested sweep's point-by-point outcomes — including the op-level
/// detect/replay audit of every healed cell — are a pure function of
/// `(method, label, seed)`: two in-process evaluations must agree
/// byte-for-byte, and `$SKT_RECOVERY_REPORT.nested` exports the report
/// so the CI `recovery-reentrancy` job can diff two independent
/// *processes*. (The `.nested` suffix keeps it from clobbering the
/// cascade sweep's export when both run in one process.)
#[test]
fn nested_report_is_stable_and_exported() {
    let build = || {
        let mut s = String::new();
        for method in [Method::SelfCkpt, Method::Single, Method::Double] {
            for label in NESTED_LABELS {
                for seed in 0..2u64 {
                    s.push_str(&nested_recovery_sweep(method, label, seed));
                }
            }
        }
        s
    };
    let a = build();
    let b = build();
    assert_eq!(
        a, b,
        "nested outcomes must be a pure function of (method, label, seed)"
    );
    if let Ok(path) = std::env::var("SKT_RECOVERY_REPORT") {
        std::fs::write(format!("{path}.nested"), &a).unwrap();
    }
}
