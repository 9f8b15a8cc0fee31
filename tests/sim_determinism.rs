//! Acceptance tests for the deterministic sim runtime (`skt-sim`):
//!
//! * a full checkpoint / fail / recover cycle — including daemon-driven
//!   restarts and every virtual-clock duration — is bit-for-bit
//!   reproducible for a fixed `(config, seed)`;
//! * the crash-state premise holds live: a node powered off through the
//!   per-step hook at any step leaves exactly the snapshot taken before
//!   that step minus the victim, every rank names the victim, and
//!   recovery matches the reference model — CASE 2 roll-forward
//!   (Figure 5), CASE 1 roll-back, and the baselines' verdicts;
//! * a canonical report over a seed sweep is byte-identical across
//!   independent in-process runs, and is written to `$SKT_SIM_REPORT`
//!   so the CI `sim-determinism` job can diff it across *process* runs.

mod crash_states;

use crash_states::model::{Source, Verdict};
use crash_states::{live_kills, Config, Recording, SEED};
use self_checkpoint::cluster::{
    Cluster, ClusterConfig, FailurePlan, FaultAction, Ranklist, Runtime, SimRuntime,
};
use self_checkpoint::core::{Checkpointer, CkptConfig, Method, Phase, RecoverError};
use self_checkpoint::encoding::CodecSpec;
use self_checkpoint::ftsim::{
    run_with_daemon, CheckpointService, PolicySpec, RetryPolicy, ServiceConfig, StormPlan,
    TenantOutcome,
};
use self_checkpoint::hpl::{HplConfig, SktConfig, ITER_PROBE};
use self_checkpoint::mps::{run_on_cluster, Ctx, Fault};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

const N: usize = 4;
const A1: usize = 128;
const EPOCHS: u64 = 5;
const SELF_XOR: Config = Config::new(
    Method::SelfCkpt,
    CodecSpec::Single(self_checkpoint::encoding::Code::Xor),
    N,
);

fn pattern(rank: usize, epoch: u64) -> Vec<f64> {
    (0..A1)
        .map(|i| (rank * 7919 + i) as f64 * 0.25 + epoch as f64)
        .collect()
}

fn writer(ctx: &Ctx) -> Result<(), Fault> {
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

/// The premise of the crash-state enumeration, checked live where the
/// paper rolls forward (Figure 5, CASE 2: `D@e` committed, `B` being
/// flushed): for every single-loss state of a SelfCkpt recording whose
/// verdict is a restore from `(work, X(e))`, the victim's node is
/// powered off through the per-step hook at the step the state was first
/// seen. Every rank returns `NodeDead(victim)`, the memory left behind is
/// that snapshot minus the victim byte for byte, and recovery rolls
/// forward to the model's epoch.
#[test]
fn flush_b_kills_at_every_yield_point_roll_forward() {
    let forward = |v| {
        matches!(
            v,
            Verdict::Restored {
                source: Source::Workspace,
                ..
            }
        )
    };
    assert!(live_kills(&Recording::new(SELF_XOR, SEED), forward) >= EPOCHS as usize);
}

/// The same premise where the paper rolls back (Figure 4, CASE 1): every
/// single-loss state whose verdict is a restore from `(B, X(e))` — a loss
/// during the computation or the encode ring, before anyone committed
/// `D@e` — or, in epoch 1, starting over.
#[test]
fn encode_kills_at_every_yield_point_roll_back() {
    let back = |v| {
        !matches!(
            v,
            Verdict::Restored {
                source: Source::Workspace,
                ..
            }
        )
    };
    assert!(live_kills(&Recording::new(SELF_XOR, SEED), back) >= EPOCHS as usize);
}

/// The premise for the baseline methods: every single-loss state of a
/// Single and a Double recording, killed live, leaves its snapshot minus
/// the victim and recovers to the model's verdict — torn-update
/// refusals included.
#[test]
fn live_kills_leave_the_snapshot_for_the_baseline_methods() {
    for cfg in [
        Config::new(Method::Single, CodecSpec::default(), N),
        Config::new(Method::Double, CodecSpec::default(), N),
    ] {
        assert!(live_kills(&Recording::new(cfg, SEED), |_| true) > 0);
    }
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
