//! `service_mix`: `ftsim` admission, dispatch, failure ladder and resize
//! plus `mps` launch/teardown do most of the work; the bytes are tiny, so
//! the kernels do almost none. Guards the `service.rs` split and any
//! runtime change.
//!
//! Each timed operation is one `CheckpointService::run` on a fresh
//! 9-node + 2-spare cluster: three 3-node tenants (`Xor`, `Dual`,
//! `Rs{2}`) in 3-panel round-robin slices, one probe-anchored kill on a
//! seeded node of the `Dual` or `Rs{2}` shard healed through the spare
//! draw, and one shrink + grow (3 → 2 → 3) of the `Xor` tenant.
//! Everything is anchored to probes and slice boundaries, not to the
//! clock, so every run of a seed must repeat the first run's
//! `fingerprint(false)`.

use super::{observe, Checks, Session};
use crate::host::{timed, Timed};
use crate::trace::{scoped, Tracer};
use skt_cluster::{Cluster, ClusterConfig, Runtime, SplitMix64};
use skt_encoding::CodecSpec;
use skt_ftsim::{
    CheckpointService, PolicySpec, RetryPolicy, ServiceConfig, ServiceReport, StormPlan,
    TenantOutcome,
};
use skt_hpl::{BlockCyclic1D, HplConfig, SktConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const N: usize = 256;
pub const NB: usize = 16;
/// Nodes (= ranks) per tenant.
pub const SHARD: usize = 3;
pub const SLICE_PANELS: usize = 3;
const CKPT_EVERY: usize = 2;

pub const TENANTS: [(&str, CodecSpec); 3] = [
    ("xor", CodecSpec::Single(skt_encoding::Code::Xor)),
    ("dual", CodecSpec::Dual),
    ("rs2", CodecSpec::Rs { m: 2 }),
];

/// Rank 0's workspace length of one tenant, `f64` elements.
pub fn alloc_len() -> usize {
    BlockCyclic1D::new(N, NB, SHARD, 0).alloc_len()
}

/// Tenant `i`'s job, as the service and the solo reference both run it.
pub fn tenant_config(seed: u64, i: usize) -> SktConfig {
    let (name, codec) = TENANTS[i];
    let mut c = SktConfig::new(
        HplConfig::new(N, NB, seed.wrapping_add(i as u64)),
        SHARD,
        CKPT_EVERY,
    );
    c.name = name.into();
    c.codec = codec;
    c
}

/// One service run on a fresh cluster under `runtime` (`None`: real
/// threads and the wall clock). Returns the report and the timed
/// `run()`.
pub fn run_once(
    seed: u64,
    runtime: Option<Arc<dyn Runtime>>,
    tracer: Option<&Arc<Tracer>>,
) -> (ServiceReport, Timed) {
    let shape = ClusterConfig::new(TENANTS.len() * SHARD, 2);
    let cluster = Arc::new(match runtime {
        Some(rt) => Cluster::new_with_runtime(shape, rt),
        None => Cluster::new(shape),
    });
    observe(&cluster, tracer);
    let mut cfg = ServiceConfig::new(RetryPolicy::new(3, Duration::from_millis(1)));
    cfg.slice_panels = SLICE_PANELS;
    cfg.schedule = PolicySpec::RoundRobin;
    let mut svc = CheckpointService::new(cluster, cfg);
    for i in 0..TENANTS.len() {
        svc.register(tenant_config(seed, i), SHARD, 0)
            .expect("nine nodes admit three 3-node tenants");
    }
    // Both requests are due before the first dispatch, whatever the
    // clock: the shrink lands at the tenant's first slice top, before it
    // ever ran (pure node accounting, audited `cold`); the grow at its
    // next clean boundary re-encodes a real boundary image (`committed`).
    svc.schedule_resize("xor", Duration::ZERO, 2);
    svc.schedule_resize("xor", Duration::ZERO, 3);
    // Shards are drawn ascending from the free pool: tenant `i` holds
    // nodes `3i..3i+3`. The victim dies at the last panel probe of its
    // first slice, with one checkpoint committed. That panel's owner is
    // shard rank 2, which can run ahead of its peers' post-barrier commit
    // writes; a victim of rank 0 or 1 cannot, so the restore source — and
    // with it the fingerprint — does not depend on the scheduler.
    let mut rng = SplitMix64::new(seed ^ 0x5E41CE);
    let tenant = 1 + rng.below(2) as usize;
    let victim = tenant * SHARD + rng.below(2) as usize;
    let nth = SLICE_PANELS as u64;
    let storm = StormPlan::none().kill(victim, nth);

    scoped(tracer, "service.run", true, || timed(|| svc.run(&storm)))
}

/// Count a report's checks; `reference` is the fingerprint every run of
/// this seed must repeat.
pub fn verify(report: &ServiceReport, reference: &str, checks: &mut Checks) {
    checks.check(report.tenants.len() == TENANTS.len(), || {
        format!("{} tenant reports", report.tenants.len())
    });
    for t in &report.tenants {
        let passed = matches!(&t.outcome, TenantOutcome::Completed(o) if o.hpl.passed);
        checks.check(passed, || format!("tenant {}: {:?}", t.name, t.outcome));
        checks.check(
            t.foreign_on_shard.is_empty() && t.leaked_elsewhere.is_empty(),
            || {
                format!(
                    "tenant {}: foreign {:?} leaked {:?}",
                    t.name, t.foreign_on_shard, t.leaked_elsewhere
                )
            },
        );
    }
    let failures: usize = report.tenants.iter().map(|t| t.failures).sum();
    checks.check(failures == 1, || {
        format!("{failures} failed attempts, expected the one kill")
    });
    let resizes: Vec<&str> = report
        .tenant("xor")
        .map(|t| t.resizes.iter().map(|r| r.outcome).collect())
        .unwrap_or_default();
    checks.check(resizes == ["cold", "committed"], || {
        format!("xor tenant resizes: {resizes:?}")
    });
    let fp = report.fingerprint(false);
    checks.check(fp == reference, || {
        format!("fingerprint differs from the first run:\n{fp}--- first:\n{reference}")
    });
}

pub fn session(
    seed: u64,
    budget: Option<Duration>,
    tracer: Option<&Arc<Tracer>>,
    checks: &mut Checks,
) -> Session {
    let mut s = Session::default();
    let t_setup = Instant::now();
    let (warm, _) = run_once(seed, None, None);
    let reference = warm.fingerprint(false);
    verify(&warm, &reference, checks);
    s.setup_s = t_setup.elapsed().as_secs_f64();
    let t_loop = Instant::now();
    while budget.is_some_and(|b| t_loop.elapsed() < b) {
        let (report, wall) = scoped(tracer, "repetition", false, || run_once(seed, None, tracer));
        verify(&report, &reference, checks);
        s.ops.push(wall);
        s.service.push(report);
    }
    s
}
