//! Stress acceptance for the multi-tenant checkpoint service: dozens of
//! concurrent tenants sharded over well past a hundred sim nodes, driven
//! through a seeded fault storm (kills and silent bit flips across tenant
//! boundaries, including a multi-node cascade contending for reserved
//! spares). Every tenant must end either healed bit-exact or refused with
//! a typed collective verdict, cross-tenant isolation must hold (no
//! foreign SHM on any shard, no tenant state leaked off-shard), and the
//! per-tenant report set must be invariant across simulation scheduler
//! seeds. When `SKT_SERVICE_REPORT` is set, the canonical report is
//! written there so the CI `service-stress` job can diff two independent
//! process runs byte-for-byte.

use self_checkpoint::cluster::{
    Cluster, ClusterConfig, FailurePlan, FaultAction, NodeId, SimRuntime,
};
use self_checkpoint::encoding::CodecSpec;
use self_checkpoint::ftsim::{
    Admission, CheckpointService, PolicySpec, Refusal, RetryPolicy, ServiceConfig, ServiceReport,
    StormPlan, TenantOutcome,
};
use self_checkpoint::hpl::{HplConfig, SktConfig, RESIZE_PROBE};
use std::sync::Arc;
use std::time::Duration;

const COMPUTE: usize = 120;
const SPARES: usize = 12; // 132 sim nodes total
const TENANTS: usize = 32; // 30 admitted immediately, 2 queue
const SHARD: usize = 4;
/// Tenants 0..SPARES each reserve one spare, so the float is zero and
/// every grant must be arbitrated against someone's guarantee.
const GUARANTEED: usize = SPARES;
const STORM_SEED: u64 = 0xD15EA5E;

fn tenant_cfg(i: usize) -> SktConfig {
    // 8 panels, checkpoint every 2; per-tenant matrix seeds so no two
    // tenants share a residual (a cross-tenant data leak cannot hide)
    let mut cfg = SktConfig::new(HplConfig::new(32, 4, 11 + i as u64), 4, 2);
    cfg.name = format!("job{i:02}");
    if i.is_multiple_of(3) {
        cfg.codec = CodecSpec::Dual;
    }
    cfg
}

/// The service with all tenants registered; returns the admitted shards
/// (registration order) for storm targeting.
fn storm_service(sim_seed: u64) -> (CheckpointService, Vec<Vec<NodeId>>) {
    let cluster = Arc::new(Cluster::new_with_runtime(
        ClusterConfig::new(COMPUTE, SPARES),
        SimRuntime::new(sim_seed),
    ));
    assert!(cluster.total_nodes() >= 128, "acceptance floor");
    let cfg = ServiceConfig::new(RetryPolicy::new(3, Duration::from_secs(5)));
    let mut svc = CheckpointService::new(cluster, cfg);
    let mut shards = Vec::new();
    for i in 0..TENANTS {
        let guarantee = usize::from(i < GUARANTEED);
        match svc.register(tenant_cfg(i), SHARD, guarantee).unwrap() {
            Admission::Admitted { nodes, .. } => shards.push(nodes),
            Admission::Queued { .. } => {}
        }
    }
    assert!(shards.len() >= 24, "at least 24 tenants run concurrently");
    (svc, shards)
}

/// Six seeded kills and four seeded flips over the bystander shards,
/// plus a deterministic two-node cascade on tenant 0: its second loss
/// must be refused typed (one reserve of its own, zero float, eleven
/// spares reserved for others).
fn storm(shards: &[Vec<NodeId>]) -> StormPlan {
    StormPlan::seeded(STORM_SEED, &shards[1..], 6, 4)
        .kill(shards[0][0], 1)
        .kill(shards[0][1], 2)
}

fn audit(rep: &ServiceReport) {
    assert_eq!(rep.tenants.len(), TENANTS, "every tenant is accounted for");
    let mut healed_after_loss = 0;
    let mut refused = 0;
    for t in &rep.tenants {
        match &t.outcome {
            TenantOutcome::Completed(out) => {
                assert!(out.hpl.passed, "{}: must verify bit-exact", t.name);
                if t.failures > 0 {
                    healed_after_loss += 1;
                }
            }
            TenantOutcome::Refused(r) => {
                refused += 1;
                assert!(
                    matches!(
                        r,
                        Refusal::OutOfSpares
                            | Refusal::TooManyFailures
                            | Refusal::Unrecoverable
                            | Refusal::SpareContention { .. }
                            | Refusal::AdmissionStarved
                    ),
                    "{}: refusal must be a typed verdict, got {r:?}",
                    t.name
                );
            }
        }
        assert!(
            t.foreign_on_shard.is_empty(),
            "{}: foreign SHM on shard: {:?}",
            t.name,
            t.foreign_on_shard
        );
        assert!(
            t.leaked_elsewhere.is_empty(),
            "{}: state leaked off-shard to {:?}",
            t.name,
            t.leaked_elsewhere
        );
    }
    // the storm bit: some tenant lost a node and still verified
    assert!(healed_after_loss >= 1, "no tenant healed after a loss");
    assert!(refused >= 1, "no tenant was refused");
    // tenant 0's cascade: first loss heals from its own reserve, the
    // second would dip into spares reserved for other tenants' guarantees
    let t0 = rep.tenant("job00").unwrap();
    match &t0.outcome {
        TenantOutcome::Refused(Refusal::SpareContention {
            requested,
            reserved_elsewhere,
            ..
        }) => {
            assert_eq!(*requested, 1);
            assert!(*reserved_elsewhere > 0, "the verdict names the conflict");
        }
        other => panic!("job00 cascade must be refused SpareContention, got {other:?}"),
    }
    assert_eq!(t0.failures, 2, "heal, then refuse");
    // the two queued tenants got the freed capacity and ran
    for name in ["job30", "job31"] {
        let t = rep.tenant(name).unwrap();
        assert!(
            matches!(t.outcome, TenantOutcome::Completed(_)),
            "{name}: queued tenant must run once capacity frees, got {:?}",
            t.outcome
        );
        assert!(t.queued_for > Duration::ZERO, "{name}: waited in the queue");
    }
}

/// The tentpole acceptance: a 32-tenant storm over 132 sim nodes, with
/// the outcome fingerprint (residual bits, failure/recovery shape, op
/// trail, isolation) invariant across 8 scheduler seeds, and the full
/// timed fingerprint byte-identical for a re-run at a pinned seed.
#[test]
fn storm_sweep_outcomes_are_seed_invariant_and_exported() {
    let (svc, shards) = storm_service(0);
    let plan = storm(&shards);
    let base = svc.run(&plan);
    audit(&base);
    let stable = base.fingerprint(false);
    for seed in 1..8u64 {
        let (svc, sh) = storm_service(seed);
        assert_eq!(sh, shards, "placement is scheduler-independent");
        let rep = svc.run(&plan);
        audit(&rep);
        assert_eq!(
            rep.fingerprint(false),
            stable,
            "sim seed {seed}: probe-anchored storm outcomes must not depend on the scheduler"
        );
    }
    let timed = base.fingerprint(true);
    let (svc, _) = storm_service(0);
    assert_eq!(
        svc.run(&plan).fingerprint(true),
        timed,
        "same (config, seed): every duration reproduces byte-for-byte"
    );
    if let Ok(path) = std::env::var("SKT_SERVICE_REPORT") {
        let report =
            format!("== stable (8-seed invariant) ==\n{stable}== timed seed=0 ==\n{timed}");
        std::fs::write(&path, report).unwrap();
    }
}

/// Simultaneous multi-tenant losses contending for one reserve ledger:
/// a timed storm kills one node of each tenant between slices. The
/// insured tenant heals from its own reserve; the uninsured tenant's
/// draw is refused with a typed verdict instead of silently eating a
/// reserved spare — and the whole interleaved run is byte-reproducible.
#[test]
fn simultaneous_cross_tenant_losses_contend_for_spares() {
    let run = |seed: u64| {
        let cluster = Arc::new(Cluster::new_with_runtime(
            ClusterConfig::new(4, 2),
            SimRuntime::new(seed),
        ));
        let mut cfg = ServiceConfig::new(RetryPolicy::new(3, Duration::from_secs(5)));
        cfg.slice_panels = 3;
        cfg.schedule = PolicySpec::RoundRobin;
        let mut svc = CheckpointService::new(cluster, cfg);
        let mut a = SktConfig::new(HplConfig::new(48, 4, 11), 2, 2);
        a.name = "insured".into();
        let mut b = SktConfig::new(HplConfig::new(48, 4, 13), 2, 2);
        b.name = "gambler".into();
        // gambler registers (and so round-robins) first: its heal runs
        // while the insured tenant still holds both reserves
        svc.register(b, 2, 0).unwrap();
        svc.register(a, 2, 2).unwrap(); // both spares reserved for "insured"
                                        // both tenants lose a node at the same instant, between slices
        let at = Duration::from_millis(1);
        let kill = FaultAction::Kill;
        let storm = StormPlan::none().timed(at, 0, kill).timed(at, 3, kill);
        svc.run(&storm)
    };
    let rep = run(7);
    let a = rep.tenant("insured").unwrap();
    match &a.outcome {
        TenantOutcome::Completed(out) => assert!(out.hpl.passed),
        other => panic!("insured must heal from its reserve, got {other:?}"),
    }
    assert!(
        !a.history.ops.is_empty(),
        "the slice-top repair's sequenced spare-draw is on the audit trail"
    );
    let b = rep.tenant("gambler").unwrap();
    match &b.outcome {
        TenantOutcome::Refused(r) => assert!(
            matches!(r, Refusal::SpareContention { .. } | Refusal::OutOfSpares),
            "gambler's draw must be refused typed, got {r:?}"
        ),
        other => panic!("gambler must not eat a reserved spare, got {other:?}"),
    }
    for t in &rep.tenants {
        assert!(t.foreign_on_shard.is_empty(), "{}: isolation", t.name);
        assert!(t.leaked_elsewhere.is_empty(), "{}: isolation", t.name);
    }
    assert_eq!(
        rep.fingerprint(true),
        run(7).fingerprint(true),
        "the interleaved contention run reproduces byte-for-byte"
    );
}

/// The elasticity storm: one tenant shrinks and grows back across
/// boundary checkpoints (with a node kill landing *inside* the grow's
/// install window), a bystander loses a node at a panel probe and heals
/// from its reserve, and two more tenants run to completion beside them —
/// all interleaved under round-robin slicing.
/// The resized tenant's residual must be bit-exact with an unresized
/// fault-free control, and the whole outcome fingerprint invariant
/// across 8 scheduler seeds. With `SKT_SERVICE_REPORT` set, the elastic
/// report is written to `$SKT_SERVICE_REPORT.elastic` for the CI
/// double-run diff.
#[test]
fn resize_churn_storm_is_seed_invariant_and_bit_exact() {
    fn elastic_cfg() -> SktConfig {
        // 12 panels at nb=4; Rs{2} so shrinking to 4 ranks stays legal
        let mut cfg = SktConfig::new(HplConfig::new(48, 4, 211), 6, 2);
        cfg.name = "elastic".into();
        cfg.codec = CodecSpec::Rs { m: 2 };
        cfg
    }
    fn small_cfg(name: &str, n: usize, seed: u64) -> SktConfig {
        let mut cfg = SktConfig::new(HplConfig::new(n, 4, seed), 2, 2);
        cfg.name = name.into();
        cfg
    }
    let control = {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(6, 0)));
        let mut svc = CheckpointService::new(
            cluster,
            ServiceConfig::new(RetryPolicy::new(3, Duration::from_secs(5))),
        );
        svc.register(elastic_cfg(), 6, 0).unwrap();
        let rep = svc.run(&StormPlan::none());
        match &rep.tenant("elastic").unwrap().outcome {
            TenantOutcome::Completed(out) => {
                assert!(out.hpl.passed);
                out.hpl.residual.to_bits()
            }
            other => panic!("control must complete, got {other:?}"),
        }
    };
    let run = |seed: u64| {
        let cluster = Arc::new(Cluster::new_with_runtime(
            ClusterConfig::new(14, 1),
            SimRuntime::new(seed),
        ));
        let mut cfg = ServiceConfig::new(RetryPolicy::new(3, Duration::from_secs(5)));
        cfg.slice_panels = 3;
        cfg.schedule = PolicySpec::RoundRobin;
        let mut svc = CheckpointService::new(cluster, cfg);
        svc.register(elastic_cfg(), 6, 0).unwrap(); // nodes {0..5}
        svc.register(small_cfg("early", 32, 223), 2, 0).unwrap(); // {6,7}, finishes first
        svc.register(small_cfg("late", 48, 227), 2, 0).unwrap(); // {8,9}
        svc.register(small_cfg("victim", 48, 229), 2, 1).unwrap(); // {10,11}, loses a node
                                                                   // shrink 6→4 at the first clean boundary, grow back at the next
        svc.schedule_resize("elastic", Duration::from_micros(1), 4);
        svc.schedule_resize("elastic", Duration::from_micros(2), 6);
        // the shrink vacates {4,5}; the grow re-stages node 4, whose
        // first resize-probe pass is the install — the kill lands inside
        // the resize window and the sequenced op must replay
        // probe counts are per launch, so the panel kill must land
        // inside one 3-panel slice: victim's node dies at its 2nd panel
        let storm = StormPlan::none()
            .arm(FailurePlan::new(RESIZE_PROBE, 1, 4))
            .kill(10, 2);
        svc.run(&storm)
    };
    let base = run(0);
    for t in &base.tenants {
        match &t.outcome {
            TenantOutcome::Completed(out) => {
                assert!(out.hpl.passed, "{}: must verify bit-exact", t.name)
            }
            other => panic!("{}: churn must not refuse anyone, got {other:?}", t.name),
        }
        assert!(t.foreign_on_shard.is_empty(), "{}: isolation", t.name);
        assert!(
            t.leaked_elsewhere.is_empty(),
            "{}: leaked to {:?}",
            t.name,
            t.leaked_elsewhere
        );
    }
    let e = base.tenant("elastic").unwrap();
    match &e.outcome {
        TenantOutcome::Completed(out) => assert_eq!(
            out.hpl.residual.to_bits(),
            control,
            "resized run must be bit-exact with the unresized control"
        ),
        other => panic!("elastic must complete, got {other:?}"),
    }
    assert_eq!(e.failures, 1, "the in-window kill charged one failure");
    let kinds: Vec<(&str, &str)> = e
        .resizes
        .iter()
        .filter(|r| r.kind != "noop")
        .map(|r| (r.kind, r.outcome))
        .collect();
    assert_eq!(
        kinds,
        vec![("shrink", "committed"), ("grow", "committed")],
        "full audit: {:?}",
        e.resizes
    );
    assert_eq!(
        e.resizes[0].wiped,
        vec![4, 5],
        "the shrink's vacated nodes are wiped, not leaked"
    );
    let v = base.tenant("victim").unwrap();
    assert_eq!(v.failures, 1, "the panel-probe kill healed from reserve");
    let stable = base.fingerprint(false);
    for seed in 1..8u64 {
        assert_eq!(
            run(seed).fingerprint(false),
            stable,
            "sim seed {seed}: resize churn outcomes must not depend on the scheduler"
        );
    }
    let timed = base.fingerprint(true);
    assert_eq!(
        run(0).fingerprint(true),
        timed,
        "same (config, seed): the elastic run reproduces byte-for-byte"
    );
    if let Ok(path) = std::env::var("SKT_SERVICE_REPORT") {
        let report =
            format!("== stable (8-seed invariant) ==\n{stable}== timed seed=0 ==\n{timed}");
        std::fs::write(format!("{path}.elastic"), report).unwrap();
    }
}
