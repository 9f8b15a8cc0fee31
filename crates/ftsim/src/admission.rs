//! Admission: how a job becomes a tenant of the service.
//!
//! A registration is sized ([`CheckpointService::mem_demand`]) and put
//! to the pool ledger ([`ServicePool::admit`]): admitted tenants are
//! activated at once, queued ones wait here — with the config,
//! registration time and profile their activation needs — until a
//! release or a shrink frees capacity, and demand that can never be met
//! is refused typed ([`AdmitError`]). Tenants still waiting when the
//! service runs out of events are reported
//! [`Refusal::AdmissionStarved`].

use crate::policy::TenantProfile;
use crate::report::{Refusal, TenantOutcome, TenantReport};
use crate::service::{node_set, CheckpointService, ServiceConfig, ServiceEvent, Tenant};
use skt_cluster::{
    Admission, AdmitError, Cluster, NodeId, Ranklist, ServicePool, TenantId, TenantSpec,
};
use skt_core::MemoryBreakdown;
use skt_hpl::{BlockCyclic1D, SktConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Tenants the pool has queued, by id: what [`CheckpointService::activate`]
/// needs once capacity frees.
#[derive(Default)]
pub(crate) struct WaitList {
    waiting: BTreeMap<TenantId, (SktConfig, Duration, TenantProfile)>,
}

impl CheckpointService {
    /// Service for one pre-placed job (the single-job daemon wrapper):
    /// the shard is exactly the ranklist's node set — dead members
    /// included, the first slice's health check repairs them — and the
    /// whole spare pool is the tenant's float. The cluster stays the
    /// caller's: nothing on it is wiped when the job's shard is released.
    pub fn for_placed_job(
        cluster: Arc<Cluster>,
        cfg: ServiceConfig,
        skt: &SktConfig,
        ranklist: &Ranklist,
    ) -> (Self, TenantId) {
        let shard = node_set(ranklist);
        let nodes = shard.len();
        let pool = ServicePool::new(shard, cluster.spares_left(), u64::MAX);
        let mut svc = Self::over(cluster, cfg, pool, true);
        let spec = TenantSpec {
            name: skt.name.clone(),
            nodes,
            mem_bytes_per_node: 0,
            spare_guarantee: 0,
        };
        let tenant = match svc.pool.admit(spec) {
            Ok(Admission::Admitted { tenant, .. }) => tenant,
            other => unreachable!("placed job must admit immediately: {other:?}"),
        };
        let mut cfg_t = skt.clone();
        cfg_t.panel_budget = svc.cfg.slice_panels;
        // keep the caller's ranklist verbatim (it may map several ranks
        // to one node)
        svc.activate(
            tenant,
            cfg_t,
            ranklist.clone(),
            svc.cluster.now(),
            TenantProfile::default(),
        );
        (svc, tenant)
    }

    /// Modeled per-node memory demand of a job on `nodes` ranks: the
    /// rank-0 workspace under the configured method/codec, in bytes.
    pub fn mem_demand(cfg: &SktConfig, nodes: usize) -> u64 {
        let alloc = BlockCyclic1D::new(cfg.hpl.n, cfg.hpl.nb, nodes, 0).alloc_len();
        let parity = cfg.codec.parity_count();
        (MemoryBreakdown::with_parity(cfg.method, alloc, cfg.group_size, parity).total() * 8) as u64
    }

    /// Register a job as a tenant: `nodes` shard nodes (one rank per
    /// node), `spare_guarantee` spares reserved for its own recoveries.
    /// Admitted tenants are scheduled immediately; queued tenants start
    /// when capacity frees. The job's memory demand is derived from its
    /// HPL problem and checkpoint method.
    pub fn register(
        &mut self,
        cfg: SktConfig,
        nodes: usize,
        spare_guarantee: usize,
    ) -> Result<Admission, AdmitError> {
        self.register_profiled(cfg, nodes, spare_guarantee, TenantProfile::default())
    }

    /// [`Self::register`] with an explicit scheduling profile (class /
    /// deadline hints for the configured [`PolicySpec`](crate::PolicySpec)).
    pub fn register_profiled(
        &mut self,
        mut cfg: SktConfig,
        nodes: usize,
        spare_guarantee: usize,
        profile: TenantProfile,
    ) -> Result<Admission, AdmitError> {
        cfg.panel_budget = self.cfg.slice_panels;
        let spec = TenantSpec {
            name: cfg.name.clone(),
            nodes,
            mem_bytes_per_node: Self::mem_demand(&cfg, nodes),
            spare_guarantee,
        };
        let adm = self.pool.admit(spec)?;
        let now = self.cluster.now();
        match &adm {
            Admission::Admitted { tenant, nodes } => {
                self.activate(
                    *tenant,
                    cfg,
                    Ranklist::explicit(nodes.clone()),
                    now,
                    profile,
                );
            }
            Admission::Queued { tenant, .. } => {
                self.admission.waiting.insert(*tenant, (cfg, now, profile));
            }
            other => unreachable!("unknown admission variant: {other:?}"),
        }
        Ok(adm)
    }

    /// Make an admitted tenant runnable: it enters the ready set now.
    fn activate(
        &mut self,
        id: TenantId,
        cfg: SktConfig,
        rl: Ranklist,
        queued_at: Duration,
        profile: TenantProfile,
    ) {
        let now = self.cluster.now();
        let tenant = Tenant::new(id, cfg, rl, profile, queued_at, now);
        self.tenants.insert(id, tenant);
        self.queue.push(now, ServiceEvent::Ready(id));
    }

    /// Activate the queued tenants a release or a shrink just admitted.
    pub(crate) fn admit_drained(&mut self, drained: Vec<(TenantId, Vec<NodeId>)>) {
        for (id, nodes) in drained {
            let waited = self.admission.waiting.remove(&id);
            let (cfg, queued_at, profile) =
                waited.expect("queued tenant must have a pending config");
            self.activate(id, cfg, Ranklist::explicit(nodes), queued_at, profile);
        }
    }

    /// Capacity never freed for the tenants still waiting — typed, not
    /// silent.
    pub(crate) fn refuse_starved(&mut self) {
        let now = self.cluster.now();
        for (id, (cfg, queued_at, _)) in std::mem::take(&mut self.admission.waiting) {
            let outcome = TenantOutcome::Refused(Refusal::AdmissionStarved);
            let report = TenantReport::new(id, cfg.name, outcome, now - queued_at, now);
            self.reports.push(report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::{service, tenant_cfg};
    use crate::{PolicySpec, ResizeError, RetryPolicy, StormPlan};
    use skt_cluster::{ClusterConfig, ReshapeError};

    #[test]
    fn queued_tenant_runs_after_capacity_frees() {
        let mut svc = service(2, 0, 0, PolicySpec::Batched);
        svc.register(tenant_cfg("first", 32), 2, 0).unwrap();
        let adm = svc.register(tenant_cfg("second", 32), 2, 0).unwrap();
        assert!(matches!(adm, Admission::Queued { .. }));
        let rep = svc.run(&StormPlan::none());
        let second = rep.tenant("second").unwrap();
        assert!(matches!(second.outcome, TenantOutcome::Completed(_)));
        assert!(
            second.queued_for > Duration::ZERO,
            "waited for the first tenant's shard"
        );
        assert!(second.foreign_on_shard.is_empty(), "released shard wiped");
    }

    /// `node_mem_bytes` is finite: a registration over it is refused at
    /// admission, and a resize whose per-node demand exceeds it is an
    /// audited typed refusal that leaves the tenant running unresized.
    /// (Per-node demand only falls as ranks are added, so the resize
    /// that can oversubscribe a node is a shrink.)
    #[test]
    fn finite_node_memory_refuses_admission_and_resize_typed() {
        let job = tenant_cfg("job", 32);
        let fits = CheckpointService::mem_demand(&job, 4);
        let too_big = CheckpointService::mem_demand(&job, 2);
        assert!(fits < too_big, "fewer ranks, more bytes per node");
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 0)));
        let mut cfg = ServiceConfig::new(RetryPolicy::new(3, Duration::from_secs(5)));
        cfg.slice_panels = 3;
        cfg.schedule = PolicySpec::RoundRobin;
        cfg.node_mem_bytes = fits;
        let mut svc = CheckpointService::new(cluster, cfg);
        match svc.register(tenant_cfg("fat", 32), 2, 0) {
            Err(AdmitError::MemoryOversubscribed { demanded, capacity }) => {
                assert_eq!((demanded, capacity), (too_big, fits));
            }
            other => panic!("expected MemoryOversubscribed, got {other:?}"),
        }
        svc.register(job, 4, 0).unwrap();
        svc.schedule_resize("job", Duration::from_micros(1), 2);
        let rep = svc.run(&StormPlan::none());
        assert!(
            rep.tenant("fat").is_none(),
            "a refused registration never ran"
        );
        let t = rep.tenant("job").unwrap();
        assert!(matches!(t.outcome, TenantOutcome::Completed(_)));
        assert_eq!(t.resizes.len(), 1);
        let r = &t.resizes[0];
        assert_eq!(
            r.line(),
            "resize shrink 4->4 refused refusal=oversubscribed wiped=[]"
        );
        assert_eq!(
            r.refusal,
            Some(ResizeError::Pool(ReshapeError::Oversubscribed {
                demanded: too_big,
                capacity: fits
            }))
        );
        assert_eq!(t.failures, 0, "refusals are free: no budget charged");
    }
}
