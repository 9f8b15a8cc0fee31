//! Acceptance tests for the deterministic sim runtime (`skt-sim`):
//!
//! * a full checkpoint / fail / recover cycle — including daemon-driven
//!   restarts and every virtual-clock duration — is bit-for-bit
//!   reproducible for a fixed `(config, seed)`;
//! * the targeted explorer kills the victim at **every** kill-capable
//!   yield point inside `Phase::FlushB` and inside `Phase::Encode`, and
//!   each outcome matches the paper's case analysis — CASE 2
//!   roll-forward (Figure 5) and CASE 1 roll-back;
//! * a canonical report over a seed sweep is byte-identical across
//!   independent in-process runs, and is written to `$SKT_SIM_REPORT`
//!   so the CI `sim-determinism` job can diff it across *process* runs.

use self_checkpoint::cluster::{
    explore_yield_kills, Cluster, ClusterConfig, FailurePlan, FaultAction, Ranklist, Runtime,
    SimRuntime,
};
use self_checkpoint::core::{
    Checkpointer, CkptConfig, Method, Phase, RecoverError, Recovery, RestoreSource,
};
use self_checkpoint::ftsim::{
    run_with_daemon, CheckpointService, PolicySpec, RetryPolicy, ServiceConfig, StormPlan,
    TenantOutcome,
};
use self_checkpoint::hpl::{HplConfig, SktConfig, ITER_PROBE};
use self_checkpoint::mps::{run_on_cluster, Ctx, Fault};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 4;
const A1: usize = 128;
const EPOCHS: u64 = 5;

fn pattern(rank: usize, epoch: u64) -> Vec<f64> {
    (0..A1)
        .map(|i| (rank * 7919 + i) as f64 * 0.25 + epoch as f64)
        .collect()
}

fn writer(ctx: &Ctx) -> Result<(), Fault> {
    writer_noting(ctx, |_| {})
}

/// [`writer`], telling `entering_make` the epoch before each `make`.
fn writer_noting(ctx: &Ctx, entering_make: impl Fn(u64)) -> Result<(), Fault> {
    let (mut ck, _) = Checkpointer::init(
        ctx.world(),
        CkptConfig::new("sim-det", Method::SelfCkpt, A1, 16),
    );
    for e in 1..=EPOCHS {
        {
            let ws = ck.workspace();
            ws.write().as_f64_mut()[..A1].copy_from_slice(&pattern(ctx.world_rank(), e));
        }
        ctx.failpoint("computing")?;
        entering_make(e);
        ck.make(&e.to_le_bytes())?;
    }
    Ok(())
}

/// One armed checkpoint/fail/recover cycle on `rt`, canonically
/// serialized: per-rank [`Recovery`], the full [`RecoveryReport`]
/// (including its virtual-clock `elapsed`), and the workspace bits.
fn cycle_report(rt: Arc<SimRuntime>) -> String {
    let cluster = Arc::new(Cluster::new_with_runtime(ClusterConfig::new(N, 1), rt));
    let mut rl = Ranklist::round_robin(N, N);
    cluster.arm_failure(FailurePlan::new(Phase::FlushB, 3, 1));
    let first = run_on_cluster(Arc::clone(&cluster), &rl, writer);
    assert!(first.is_err(), "the armed FlushB plan must fire");
    cluster.reset_abort();
    rl.repair(&cluster).unwrap();
    let outs = run_on_cluster(cluster, &rl, |ctx| {
        let (mut ck, _) = Checkpointer::init(
            ctx.world(),
            CkptConfig::new("sim-det", Method::SelfCkpt, A1, 16),
        );
        let rec = ck.recover().map_err(|e| match e {
            RecoverError::Fault(f) => f,
            other => panic!("unexpected recovery error: {other}"),
        })?;
        let report = ck.last_report().expect("a restore leaves a report");
        let bits = {
            let ws = ck.workspace();
            let g = ws.read();
            g.as_f64()[..A1]
                .iter()
                .fold(0u64, |h, v| h.rotate_left(7) ^ v.to_bits())
        };
        Ok(format!("{rec:?} | {report:?} | bits={bits:016x}"))
    })
    .unwrap();
    let mut s = String::new();
    for (rank, line) in outs.iter().enumerate() {
        writeln!(s, "rank{rank}: {line}").unwrap();
    }
    s
}

/// A daemon-supervised double-failure run, canonically serialized with
/// every per-cycle phase duration off the virtual clock.
fn daemon_report(seed: u64) -> String {
    let rt = SimRuntime::new(seed);
    let cluster = Arc::new(Cluster::new_with_runtime(
        ClusterConfig::new(4, 2),
        rt.clone(),
    ));
    let rl = Ranklist::round_robin(4, 4);
    cluster.arm_failure(FailurePlan::new(ITER_PROBE, 3, 0));
    cluster.arm_failure(FailurePlan::new(ITER_PROBE, 3, 2));
    let cfg = SktConfig::new(HplConfig::new(48, 4, 11), 2, 2);
    let rep = run_with_daemon(cluster, &rl, &cfg, 5, Duration::from_secs(63));
    let out = rep.outcome.completed().unwrap();
    assert!(out.hpl.passed, "seed {seed}");
    format!(
        "launches={} failures={} resumed={} cycles={:?} steps={} clock={:?}",
        rep.launches,
        rep.failures,
        out.resumed_from_panel,
        rep.cycles,
        rt.steps(),
        rt.now(),
    )
}

/// Three tenants time-sharing one daemon through pipelined slices, with
/// one probe-anchored kill (a failure cycle for `alpha`) and one timed
/// kill (a slice-top heal for `gamma`) — the full timed per-tenant
/// report set, every virtual duration included.
fn service_report(seed: u64) -> String {
    let cluster = Arc::new(Cluster::new_with_runtime(
        ClusterConfig::new(6, 2),
        SimRuntime::new(seed),
    ));
    let mut cfg = ServiceConfig::new(RetryPolicy::new(3, Duration::from_secs(5)));
    cfg.slice_panels = 3;
    cfg.schedule = PolicySpec::RoundRobin;
    let mut svc = CheckpointService::new(cluster, cfg);
    for (i, name) in ["alpha", "beta", "gamma"].iter().enumerate() {
        let mut c = SktConfig::new(HplConfig::new(48, 4, 17 + i as u64), 2, 2);
        c.name = name.to_string();
        svc.register(c, 2, 0).unwrap();
    }
    let storm = StormPlan::none()
        .kill(1, 5)
        .timed(Duration::from_millis(1), 4, FaultAction::Kill);
    let rep = svc.run(&storm);
    for t in &rep.tenants {
        assert!(
            matches!(t.outcome, TenantOutcome::Completed(_)),
            "seed {seed}: {} must heal from the float, got {:?}",
            t.name,
            t.outcome
        );
    }
    rep.fingerprint(true)
}

/// Same `(config, seed)` twice → byte-identical recovery reports,
/// durations included.
#[test]
fn recovery_report_is_byte_identical_for_fixed_config_and_seed() {
    for seed in [1u64, 7, 1234] {
        let a = cycle_report(SimRuntime::new(seed));
        let b = cycle_report(SimRuntime::new(seed));
        assert_eq!(a, b, "seed {seed}: reports must be byte-identical");
        assert!(
            a.contains("WorkspaceAndChecksum"),
            "seed {seed}: a FlushB kill is the CASE 2 roll-forward: {a}"
        );
    }
}

/// Same seed twice → the same failure schedule, restart count, phase
/// timings, scheduler step count, and final virtual-clock reading.
#[test]
fn daemon_cycle_timings_are_reproducible_on_the_virtual_clock() {
    for seed in [0u64, 3] {
        let a = daemon_report(seed);
        let b = daemon_report(seed);
        assert_eq!(a, b, "seed {seed}: daemon cycles must be reproducible");
    }
}

/// The targeted explorer: kill the victim at every kill-capable yield
/// point inside `Phase::FlushB` — the flush copy's entry probe and the
/// trailing phase probe, for each of the five epochs — and check every
/// outcome against the paper's case analysis: D@e is committed job-wide
/// before any flush starts, so recovery always rolls FORWARD from
/// `(work, D)` to the in-flight epoch, losing no progress.
#[test]
fn flush_b_kills_at_every_yield_point_roll_forward() {
    const VICTIM: usize = 1;
    let report = explore_yield_kills(42, VICTIM, Phase::FlushB.label(), |rt| {
        let cluster = Arc::new(Cluster::new_with_runtime(ClusterConfig::new(N, 1), rt));
        let mut rl = Ranklist::round_robin(N, N);
        let first = run_on_cluster(Arc::clone(&cluster), &rl, writer);
        if first.is_ok() {
            return None; // the unarmed recording run completes
        }
        assert_eq!(cluster.dead_nodes(), vec![VICTIM], "only the victim dies");
        cluster.reset_abort();
        rl.repair(&cluster).unwrap();
        let outs = run_on_cluster(cluster, &rl, |ctx| {
            let (mut ck, _) = Checkpointer::init(
                ctx.world(),
                CkptConfig::new("sim-det", Method::SelfCkpt, A1, 16),
            );
            let rec = ck.recover().map_err(|e| match e {
                RecoverError::Fault(f) => f,
                other => panic!("unexpected recovery error: {other}"),
            })?;
            let data = {
                let ws = ck.workspace();
                let g = ws.read();
                g.as_f64()[..A1].to_vec()
            };
            Ok((rec, data))
        })
        .unwrap();
        let (epoch, source) = match &outs[0].0 {
            Recovery::Restored { epoch, source, .. } => (*epoch, *source),
            other => panic!("rank 0 got {other:?}"),
        };
        for (rank, (rec, data)) in outs.iter().enumerate() {
            match rec {
                Recovery::Restored {
                    epoch: e,
                    source: s,
                    ..
                } => {
                    assert_eq!(*e, epoch, "rank {rank} disagrees on epoch");
                    assert_eq!(*s, source, "rank {rank} disagrees on source");
                }
                other => panic!("rank {rank} got {other:?}"),
            }
            assert_eq!(data, &pattern(rank, epoch), "rank {rank} workspace");
        }
        Some((epoch, source))
    });
    assert_eq!(
        report.yield_points,
        2 * EPOCHS,
        "two kill-capable yields per make: the copy probe and the phase probe"
    );
    assert!(report.baseline.is_none(), "recording run must complete");
    assert_eq!(report.outcomes.len() as u64, report.yield_points);
    for (nth, out) in &report.outcomes {
        let (epoch, source) = out.expect("every armed kill must fire");
        assert_eq!(
            epoch,
            nth.div_ceil(2),
            "kill #{nth}: roll forward to the epoch whose flush was torn"
        );
        assert_eq!(
            source,
            RestoreSource::WorkspaceAndChecksum,
            "kill #{nth}: CASE 2 restores from (work, D)"
        );
    }
}

/// The same explorer over `Phase::Encode`, the window the ring
/// reduce-scatter runs in: the victim dies at every kill-capable yield
/// point of it — each send of its ring steps and deliveries, each park
/// on a neighbour's accumulator, each encode probe, the closing barrier
/// — for each of the five epochs. Every survivor, wherever on the ring
/// it was parked, must come back with the dead neighbour named, and
/// recovery restores a committed epoch bit-exactly: while the ring runs
/// nobody can commit D@e, so it rolls BACK to e-1 from `(B, C)` (CASE 1;
/// no checkpoint when e = 1).
#[test]
fn encode_kills_at_every_yield_point_roll_back() {
    const VICTIM: usize = 1;
    let report = explore_yield_kills(42, VICTIM, Phase::Encode.label(), |rt| {
        let cluster = Arc::new(Cluster::new_with_runtime(ClusterConfig::new(N, 1), rt));
        let mut rl = Ranklist::round_robin(N, N);
        let torn = AtomicU64::new(0); // the epoch the victim was encoding
        let first = run_on_cluster(Arc::clone(&cluster), &rl, |ctx| {
            Ok(writer_noting(ctx, |e| {
                if ctx.node() == VICTIM {
                    torn.store(e, Ordering::SeqCst);
                }
            }))
        })
        .unwrap();
        if first.iter().all(Result::is_ok) {
            return None; // the unarmed recording run completes
        }
        assert_eq!(cluster.dead_nodes(), vec![VICTIM], "only the victim dies");
        for (rank, res) in first.iter().enumerate() {
            assert_eq!(*res, Err(Fault::NodeDead(VICTIM)), "rank {rank}");
        }
        cluster.reset_abort();
        rl.repair(&cluster).unwrap();
        let outs = run_on_cluster(cluster, &rl, |ctx| {
            let (mut ck, _) = Checkpointer::init(
                ctx.world(),
                CkptConfig::new("sim-det", Method::SelfCkpt, A1, 16),
            );
            let rec = ck.recover().map_err(|e| match e {
                RecoverError::Fault(f) => f,
                other => panic!("unexpected recovery error: {other}"),
            })?;
            let data = {
                let ws = ck.workspace();
                let g = ws.read();
                g.as_f64()[..A1].to_vec()
            };
            Ok((rec, data))
        })
        .unwrap();
        let restored = match &outs[0].0 {
            Recovery::NoCheckpoint => None,
            Recovery::Restored { epoch, source, .. } => Some((*epoch, *source)),
        };
        for (rank, (rec, data)) in outs.iter().enumerate() {
            match (rec, restored) {
                (Recovery::NoCheckpoint, None) => {}
                (
                    Recovery::Restored {
                        epoch: e,
                        source: s,
                        ..
                    },
                    Some((epoch, source)),
                ) => {
                    assert_eq!((*e, *s), (epoch, source), "rank {rank} disagrees");
                    assert_eq!(data, &pattern(rank, epoch), "rank {rank} workspace");
                }
                other => panic!("rank {rank} disagrees with rank 0: {other:?}"),
            }
        }
        Some((torn.into_inner(), restored))
    });
    assert!(report.baseline.is_none(), "recording run must complete");
    assert_eq!(report.outcomes.len() as u64, report.yield_points);
    // Per make the victim yields at least at: one send per ring step
    // (m = 1), one probe per step and delivery, and its send into the
    // closing barrier — plus however often the schedule parked it on a
    // neighbour. Up to and including that barrier send nobody can have
    // committed D@e: CASE 1. Parked *inside* the barrier afterwards, the
    // others may pass it and commit — the encode had completed job-wide,
    // so those kills roll forward to e from `(work, D)` (CASE 2).
    let floor = ((N - 1) + N + 1) as u64;
    let mut rolled_back = [0u64; EPOCHS as usize + 1];
    let mut rolled_forward = [false; EPOCHS as usize + 1];
    for (nth, out) in &report.outcomes {
        let (torn, restored) = out.expect("every armed kill must fire");
        let back = (torn > 1).then(|| (torn - 1, RestoreSource::CheckpointAndChecksum));
        if restored == back {
            assert!(
                !rolled_forward[torn as usize],
                "kill #{nth}: epoch {torn} rolled back after a later kill committed it"
            );
            rolled_back[torn as usize] += 1;
        } else {
            assert_eq!(
                restored,
                Some((torn, RestoreSource::WorkspaceAndChecksum)),
                "kill #{nth}: neither side of the torn encode {torn}"
            );
            rolled_forward[torn as usize] = true;
        }
    }
    assert!(
        rolled_back[1..].iter().all(|&k| k >= floor),
        "every epoch's ring was explored: {rolled_back:?}"
    );
}

/// Three concurrent tenants interleaved through one daemon: a fixed
/// `(config, seed)` reproduces the per-tenant reports byte-for-byte,
/// timings and all.
#[test]
fn multi_tenant_interleaving_is_reproducible_for_fixed_seed() {
    for seed in [2u64, 11] {
        let a = service_report(seed);
        let b = service_report(seed);
        assert_eq!(a, b, "seed {seed}: tenant interleaving must replay exactly");
        for name in ["alpha", "beta", "gamma"] {
            assert!(a.contains(&format!("tenant={name}")), "seed {seed}: {name}");
        }
    }
}

/// The canonical determinism report for CI: recovery cycles over a seed
/// sweep plus a daemon run. Two in-process evaluations must agree
/// byte-for-byte; when `SKT_SIM_REPORT` is set the report is written
/// there so the CI job can diff two independent *processes*.
#[test]
fn determinism_report_is_stable_and_exported() {
    let build = || {
        let mut s = String::new();
        for seed in 0..4u64 {
            writeln!(s, "cycle seed={seed}").unwrap();
            s.push_str(&cycle_report(SimRuntime::new(seed)));
        }
        for seed in 0..2u64 {
            writeln!(s, "daemon seed={seed}").unwrap();
            writeln!(s, "{}", daemon_report(seed)).unwrap();
        }
        for seed in 0..2u64 {
            writeln!(s, "service seed={seed}").unwrap();
            s.push_str(&service_report(seed));
        }
        s
    };
    let a = build();
    let b = build();
    assert_eq!(a, b, "the report must be a pure function of the seeds");
    if let Ok(path) = std::env::var("SKT_SIM_REPORT") {
        std::fs::write(&path, &a).unwrap();
    }
}
