//! Admission: how a job becomes a tenant of the service.
//!
//! A registration is put to the pool ledger (`ServicePool::admit`) as
//! a node count and a spare guarantee: admitted tenants are activated at
//! once, queued ones wait here — with the config and registration time
//! their activation needs — until a release or a shrink frees capacity,
//! and demand that can never be met is refused typed ([`AdmitError`]).
//! Tenants still waiting when the service runs out of events are
//! reported [`Refusal::AdmissionStarved`].

use crate::ledger::{Admission, AdmitError, ServicePool, TenantId, TenantSpec};
use crate::report::{Refusal, TenantOutcome, TenantReport};
use crate::service::{node_set, CheckpointService, ServiceConfig, ServiceEvent, Tenant};
use skt_cluster::{Cluster, NodeId, Ranklist};
use skt_hpl::SktConfig;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Tenants the pool has queued, by id: what [`CheckpointService::activate`]
/// needs once capacity frees.
#[derive(Default)]
pub(crate) struct WaitList {
    waiting: BTreeMap<TenantId, (SktConfig, Duration)>,
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
        let pool = ServicePool::new(shard, cluster.spares_left());
        let mut svc = Self::over(cluster, cfg, pool, true);
        let spec = TenantSpec {
            name: skt.name.clone(),
            nodes,
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
        svc.activate(tenant, cfg_t, ranklist.clone(), svc.cluster.now());
        (svc, tenant)
    }

    /// Register a job as a tenant: `nodes` shard nodes (one rank per
    /// node), `spare_guarantee` spares reserved for its own recoveries.
    /// Admitted tenants are scheduled immediately; queued tenants start
    /// when capacity frees.
    pub fn register(
        &mut self,
        mut cfg: SktConfig,
        nodes: usize,
        spare_guarantee: usize,
    ) -> Result<Admission, AdmitError> {
        cfg.panel_budget = self.cfg.slice_panels;
        let spec = TenantSpec {
            name: cfg.name.clone(),
            nodes,
            spare_guarantee,
        };
        let adm = self.pool.admit(spec)?;
        let now = self.cluster.now();
        match &adm {
            Admission::Admitted { tenant, nodes } => {
                self.activate(*tenant, cfg, Ranklist::explicit(nodes.clone()), now);
            }
            Admission::Queued { tenant, .. } => {
                self.admission.waiting.insert(*tenant, (cfg, now));
            }
        }
        Ok(adm)
    }

    /// Make an admitted tenant runnable: it enters the ready set now.
    fn activate(&mut self, id: TenantId, cfg: SktConfig, rl: Ranklist, queued_at: Duration) {
        let now = self.cluster.now();
        let tenant = Tenant::new(id, cfg, rl, queued_at, now);
        self.tenants.insert(id, tenant);
        self.queue.push(now, ServiceEvent::Ready(id));
    }

    /// Activate the queued tenants a release or a shrink just admitted.
    pub(crate) fn admit_drained(&mut self, drained: Vec<(TenantId, Vec<NodeId>)>) {
        for (id, nodes) in drained {
            let waited = self.admission.waiting.remove(&id);
            let (cfg, queued_at) = waited.expect("queued tenant must have a pending config");
            self.activate(id, cfg, Ranklist::explicit(nodes), queued_at);
        }
    }

    /// Capacity never freed for the tenants still waiting — typed, not
    /// silent.
    pub(crate) fn refuse_starved(&mut self) {
        let now = self.cluster.now();
        for (id, (cfg, queued_at)) in std::mem::take(&mut self.admission.waiting) {
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
    use crate::{PolicySpec, StormPlan};

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
}
