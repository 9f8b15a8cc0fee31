//! The service's ledger: tenant identity, shard placement, admission
//! control, spare-pool arbitration, and a deterministic event queue.
//!
//! Pure bookkeeping under the engine ([`crate::service`]), which moves
//! the actual nodes and reports back:
//!
//! * **Shard map** — each admitted tenant owns a *disjoint* set of
//!   compute nodes, so no node ever hosts two tenants' ranks or SHM
//!   checkpoints. Isolation is structural, not policed.
//! * **Admission control** — a tenant whose node-count demand cannot be
//!   met *right now* is queued (FIFO, no overtaking); one whose demand
//!   can *never* be met is rejected with a typed [`AdmitError`].
//! * **Spare arbitration** — every tenant may reserve a spare-node
//!   guarantee at admission. Draws come from the tenant's own reserve
//!   first, then the unreserved float; a cascade that would have to dip
//!   into *another* tenant's reserve is refused
//!   [`Refusal::SpareContention`] instead of silently starving the other
//!   tenant's recovery guarantee.
//! * **Event queue** — a `(virtual time, sequence)`-ordered queue the
//!   service loop pops deterministically, so a fixed `(config, seed)`
//!   replays the same cross-tenant interleaving bit for bit.
//!
//! The engine only ever asks about a tenant it holds: a lookup of a
//! tenant the ledger does not know is a bug, and panics.

use crate::report::Refusal;
use crate::resize::ResizeError;
use skt_cluster::NodeId;
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// Tenant identifier, assigned at registration in order (`t0`, `t1`, …).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// What a tenant asks the service for.
#[derive(Clone, Debug)]
pub(crate) struct TenantSpec {
    /// Unique tenant name — also the tenant's SHM namespace prefix, so
    /// duplicate names would alias checkpoint segments and are refused.
    pub(crate) name: String,
    /// Compute nodes demanded (the tenant's shard size).
    pub(crate) nodes: usize,
    /// Spares this tenant wants *guaranteed* for its own recoveries.
    /// Zero means best-effort: draw from the float only.
    pub(crate) spare_guarantee: usize,
}

/// Outcome of a registration
/// ([`CheckpointService::register`](crate::CheckpointService::register)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Admitted now, on these nodes (disjoint from every other shard).
    Admitted {
        /// The new tenant's id.
        tenant: TenantId,
        /// Nodes assigned to the shard, ascending.
        nodes: Vec<NodeId>,
    },
    /// Demand is satisfiable but not right now; the tenant waits in a
    /// FIFO queue and is admitted when capacity frees (no overtaking).
    Queued {
        /// The new tenant's id (already assigned; stable across the wait).
        tenant: TenantId,
        /// Position in the wait queue at registration time (0 = next).
        position: usize,
    },
}

/// Why admission is refused outright (the demand can *never* be met on
/// this pool, so queueing would be a silent hang).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum AdmitError {
    /// A tenant with this name already exists (alive or queued).
    DuplicateName(String),
    /// The shard demand exceeds the pool's total compute-node count.
    NeverFits {
        /// Nodes demanded.
        demanded: usize,
        /// Compute nodes the pool has in total.
        total: usize,
    },
    /// The spare guarantee exceeds the pool's total spare count.
    GuaranteeUnmeetable {
        /// Spares demanded as a guarantee.
        demanded: usize,
        /// Spares the pool has in total.
        total: usize,
    },
    /// A zero-node shard is meaningless.
    ZeroNodes(String),
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::DuplicateName(n) => write!(f, "tenant name '{n}' already registered"),
            AdmitError::NeverFits { demanded, total } => {
                write!(
                    f,
                    "shard of {demanded} nodes can never fit a {total}-node pool"
                )
            }
            AdmitError::GuaranteeUnmeetable { demanded, total } => {
                write!(
                    f,
                    "guarantee of {demanded} spares exceeds the pool's {total}"
                )
            }
            AdmitError::ZeroNodes(n) => write!(f, "tenant '{n}' demands zero nodes"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Why a lookup must hit: the engine holds the tenant it asks about.
const HELD: &str = "the engine asks the ledger only about tenants it holds";

struct Shard {
    /// The admitted spec's name, for [`ServicePool::release`].
    name: String,
    nodes: Vec<NodeId>,
    /// Remaining reserved spares of this tenant's guarantee.
    reserve: usize,
}

/// How a shard's node set would change under a resize. Computed by
/// [`ServicePool::plan_resize`] *without consuming anything*, so a
/// refusal downstream is free; the caller materializes the move and then
/// [`ServicePool::commit_resize`]s.
#[derive(Debug)]
pub(crate) struct ResizePlan {
    /// Shard nodes retained across the resize (ascending).
    pub(crate) keep: Vec<NodeId>,
    /// Nodes staged from the free pool (ascending draw, not yet drawn).
    pub(crate) add: Vec<NodeId>,
    /// Shard nodes vacated back to the free pool (ascending).
    pub(crate) vacate: Vec<NodeId>,
}

impl ResizePlan {
    /// The shard's node set after this plan commits (ascending).
    pub(crate) fn new_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.keep.iter().chain(&self.add).copied().collect();
        v.sort_unstable();
        v
    }
}

/// Audit of a [`ServicePool::release`] or [`ServicePool::commit_resize`]:
/// which vacated nodes returned to the free pool (the dead ones are
/// dropped), and which queued tenants the freed capacity admitted. The
/// caller folds `freed` into the tenant's isolation report so vacated
/// nodes show as wiped, not leaked.
#[derive(Debug)]
pub(crate) struct ReleaseAudit {
    /// Vacated nodes returned to the free pool (ascending).
    pub(crate) freed: Vec<NodeId>,
    /// Queued tenants admitted by the freed capacity, FIFO.
    pub(crate) drained: Vec<(TenantId, Vec<NodeId>)>,
}

/// The service's node and spare ledger: disjoint shards over a common
/// compute pool, FIFO admission queue, and reservation-aware spare
/// accounting. Purely bookkeeping — the caller moves the actual nodes
/// (via `Ranklist::repair` / `Cluster::take_spare`) and reports back
/// with [`ServicePool::reassign`].
pub(crate) struct ServicePool {
    total_nodes: usize,
    free: Vec<NodeId>,
    shards: BTreeMap<TenantId, Shard>,
    names: BTreeMap<String, TenantId>,
    queue: VecDeque<(TenantId, TenantSpec)>,
    spares_total: usize,
    float: usize,
    next: u32,
}

impl ServicePool {
    /// A pool over `compute` nodes (typically `0..nodes`) with `spares`
    /// spare nodes.
    pub(crate) fn new(compute: Vec<NodeId>, spares: usize) -> Self {
        let mut free = compute;
        free.sort_unstable();
        free.dedup();
        ServicePool {
            total_nodes: free.len(),
            free,
            shards: BTreeMap::new(),
            names: BTreeMap::new(),
            queue: VecDeque::new(),
            spares_total: spares,
            float: spares,
            next: 0,
        }
    }

    /// Register a tenant: admit immediately if the shard and guarantee
    /// fit, queue FIFO if they fit in principle but not now, refuse with
    /// a typed error if they can never fit.
    pub(crate) fn admit(&mut self, spec: TenantSpec) -> Result<Admission, AdmitError> {
        if spec.nodes == 0 {
            return Err(AdmitError::ZeroNodes(spec.name));
        }
        if self.names.contains_key(&spec.name) {
            return Err(AdmitError::DuplicateName(spec.name));
        }
        if spec.nodes > self.total_nodes {
            return Err(AdmitError::NeverFits {
                demanded: spec.nodes,
                total: self.total_nodes,
            });
        }
        if spec.spare_guarantee > self.spares_total {
            return Err(AdmitError::GuaranteeUnmeetable {
                demanded: spec.spare_guarantee,
                total: self.spares_total,
            });
        }
        let tenant = TenantId(self.next);
        self.next += 1;
        self.names.insert(spec.name.clone(), tenant);
        // No overtaking: while anyone is queued, newcomers queue behind
        // them even if their own (smaller) demand would fit right now.
        if self.queue.is_empty() && self.fits_now(&spec) {
            let nodes = self.place(tenant, spec);
            Ok(Admission::Admitted { tenant, nodes })
        } else {
            self.queue.push_back((tenant, spec));
            Ok(Admission::Queued {
                tenant,
                position: self.queue.len() - 1,
            })
        }
    }

    fn fits_now(&self, spec: &TenantSpec) -> bool {
        spec.nodes <= self.free.len() && spec.spare_guarantee <= self.float
    }

    fn place(&mut self, tenant: TenantId, spec: TenantSpec) -> Vec<NodeId> {
        let nodes: Vec<NodeId> = self.free.drain(..spec.nodes).collect();
        self.float -= spec.spare_guarantee;
        self.shards.insert(
            tenant,
            Shard {
                reserve: spec.spare_guarantee,
                nodes: nodes.clone(),
                name: spec.name,
            },
        );
        nodes
    }

    /// Release a finished (or refused) tenant: nodes for which `alive`
    /// holds return to the free pool, the unspent reserve returns to the
    /// float, and the wait queue is drained in FIFO order. The audit
    /// names every freed node so the caller can wipe and report it
    /// instead of flagging it as a leak.
    pub(crate) fn release(
        &mut self,
        tenant: TenantId,
        alive: impl Fn(NodeId) -> bool,
    ) -> ReleaseAudit {
        let shard = self.shards.remove(&tenant).expect(HELD);
        self.names.remove(&shard.name);
        self.float += shard.reserve;
        let freed = Self::vacate(&mut self.free, &shard.nodes, alive);
        let drained = self.drain_queue();
        ReleaseAudit { freed, drained }
    }

    /// Hand vacated shard nodes back: the alive ones rejoin `free` and
    /// are returned (ascending), the dead ones are dropped.
    fn vacate(
        free: &mut Vec<NodeId>,
        nodes: &[NodeId],
        alive: impl Fn(NodeId) -> bool,
    ) -> Vec<NodeId> {
        let mut freed: Vec<NodeId> = nodes.iter().copied().filter(|&n| alive(n)).collect();
        freed.sort_unstable();
        free.extend(&freed);
        free.sort_unstable();
        freed
    }

    /// Drop dead nodes from the free pool (a storm can kill an
    /// unassigned node; it must not be handed to a future tenant).
    pub(crate) fn purge_free(&mut self, alive: impl Fn(NodeId) -> bool) {
        self.free.retain(|&n| alive(n));
    }

    /// Plan a resize of `tenant`'s shard to `target` nodes. Pure preview:
    /// nothing is drawn or vacated until [`ServicePool::commit_resize`].
    ///
    /// Grows stage the lowest free nodes (same ascending draw as
    /// admission); shrinks vacate the highest shard nodes, so repeated
    /// resizes keep every shard packed toward low node ids.
    pub(crate) fn plan_resize(
        &self,
        tenant: TenantId,
        target: usize,
    ) -> Result<ResizePlan, ResizeError> {
        let shard = self.shards.get(&tenant).expect(HELD);
        if target > self.total_nodes {
            return Err(ResizeError::NeverFits {
                demanded: target,
                total: self.total_nodes,
            });
        }
        let cur = shard.nodes.len();
        if target >= cur {
            let extra = target - cur;
            if extra > self.free.len() {
                return Err(ResizeError::WouldStarve {
                    tenant,
                    requested: extra,
                    free: self.free.len(),
                });
            }
            Ok(ResizePlan {
                keep: shard.nodes.clone(),
                add: self.free[..extra].to_vec(),
                vacate: Vec::new(),
            })
        } else {
            // Shrink: vacate the highest shard nodes.
            let mut nodes = shard.nodes.clone();
            nodes.sort_unstable();
            let vacate = nodes.split_off(target);
            Ok(ResizePlan {
                keep: nodes,
                add: Vec::new(),
                vacate,
            })
        }
    }

    /// Commit a previously planned resize: draw the staged nodes from
    /// the free pool, return the vacated *alive* nodes to it, rewrite
    /// the shard, and drain the FIFO queue (a shrink can admit a waiting
    /// tenant). Returns the audit of what moved.
    ///
    /// The plan must still be consistent with the pool (the staged nodes
    /// free) — callers re-plan after any pool mutation rather than
    /// committing a stale plan.
    pub(crate) fn commit_resize(
        &mut self,
        tenant: TenantId,
        plan: &ResizePlan,
        alive: impl Fn(NodeId) -> bool,
    ) -> ReleaseAudit {
        let shard = self.shards.get_mut(&tenant).expect(HELD);
        debug_assert!(
            plan.add.iter().all(|n| self.free.contains(n)),
            "stale resize plan: staged node no longer free"
        );
        self.free.retain(|n| !plan.add.contains(n));
        let freed = Self::vacate(&mut self.free, &plan.vacate, alive);
        shard.nodes = plan.new_nodes();
        let drained = self.drain_queue();
        ReleaseAudit { freed, drained }
    }

    fn drain_queue(&mut self) -> Vec<(TenantId, Vec<NodeId>)> {
        let mut admitted = Vec::new();
        while let Some((tenant, spec)) = self.queue.front() {
            if !self.fits_now(spec) {
                break; // FIFO: the head blocks; no overtaking
            }
            let (tenant, spec) = (*tenant, spec.clone());
            self.queue.pop_front();
            let nodes = self.place(tenant, spec);
            admitted.push((tenant, nodes));
        }
        admitted
    }

    /// Arbitrated spare draw for `tenant`'s cascade: `k` spares, reserve
    /// before float — a tenant's guarantee is the *last* thing its own
    /// cascade burns. Refused [`Refusal::SpareContention`] when the
    /// request would dip into other tenants' guarantees, and
    /// [`Refusal::OutOfSpares`] when the pool is plain dry with nothing
    /// reserved elsewhere; a refusal consumes nothing.
    pub(crate) fn draw_spares(&mut self, tenant: TenantId, k: usize) -> Result<(), Refusal> {
        let reserved_elsewhere: usize = self
            .shards
            .iter()
            .filter(|(t, _)| **t != tenant)
            .map(|(_, s)| s.reserve)
            .sum();
        let shard = self.shards.get_mut(&tenant).expect(HELD);
        if k > shard.reserve + self.float {
            return Err(if reserved_elsewhere > 0 {
                Refusal::SpareContention {
                    tenant,
                    requested: k,
                    own_reserve: shard.reserve,
                    float: self.float,
                    reserved_elsewhere,
                }
            } else {
                Refusal::OutOfSpares
            });
        }
        let from_reserve = k.min(shard.reserve);
        shard.reserve -= from_reserve;
        self.float -= k - from_reserve;
        Ok(())
    }

    /// Rewrite `tenant`'s shard after the caller materialized a repair
    /// (spares actually drawn, ranklist rewritten). `nodes` is the
    /// shard's new node set.
    pub(crate) fn reassign(&mut self, tenant: TenantId, mut nodes: Vec<NodeId>) {
        nodes.sort_unstable();
        nodes.dedup();
        self.shards.get_mut(&tenant).expect(HELD).nodes = nodes;
    }

    /// Nodes of `tenant`'s shard (ascending).
    pub(crate) fn nodes_of(&self, tenant: TenantId) -> &[NodeId] {
        &self.shards.get(&tenant).expect(HELD).nodes
    }
}

/// Deterministic time-ordered event queue: pops strictly by
/// `(virtual time, insertion sequence)`, so two events at the same
/// instant run in the order they were scheduled — never in allocator or
/// hash order.
pub(crate) struct EventQueue<K> {
    events: BTreeMap<(Duration, u64), K>,
    seq: u64,
}

impl<K> EventQueue<K> {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        EventQueue {
            events: BTreeMap::new(),
            seq: 0,
        }
    }

    /// Schedule `kind` at virtual time `at`.
    pub(crate) fn push(&mut self, at: Duration, kind: K) {
        self.events.insert((at, self.seq), kind);
        self.seq += 1;
    }

    /// Pop the earliest event (ties broken by scheduling order).
    pub(crate) fn pop(&mut self) -> Option<(Duration, K)> {
        self.events.pop_first().map(|((at, _), kind)| (at, kind))
    }

    /// Virtual time of the earliest queued event, if any.
    pub(crate) fn next_at(&self) -> Option<Duration> {
        self.events.keys().next().map(|&(at, _)| at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, nodes: usize, guarantee: usize) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            nodes,
            spare_guarantee: guarantee,
        }
    }

    fn pool(nodes: usize, spares: usize) -> ServicePool {
        ServicePool::new((0..nodes).collect(), spares)
    }

    /// Remaining reserved spares of an admitted tenant.
    fn reserve(p: &ServicePool, t: u32) -> usize {
        p.shards[&TenantId(t)].reserve
    }

    #[test]
    fn admits_disjoint_shards_in_order() {
        let mut p = pool(8, 2);
        let a = p.admit(spec("a", 3, 0)).unwrap();
        let b = p.admit(spec("b", 3, 0)).unwrap();
        assert_eq!(
            a,
            Admission::Admitted {
                tenant: TenantId(0),
                nodes: vec![0, 1, 2]
            }
        );
        assert_eq!(
            b,
            Admission::Admitted {
                tenant: TenantId(1),
                nodes: vec![3, 4, 5]
            }
        );
        assert_eq!(p.free, vec![6, 7]);
    }

    #[test]
    fn admission_at_exact_capacity_succeeds() {
        // Every node and every spare claimed in one admission: the
        // boundary case must be admitted, not queued.
        let mut p = pool(4, 2);
        match p.admit(spec("edge", 4, 2)).unwrap() {
            Admission::Admitted { nodes, .. } => assert_eq!(nodes, vec![0, 1, 2, 3]),
            other => panic!("expected admission at exact capacity, got {other:?}"),
        }
        assert!(p.free.is_empty());
        assert_eq!(p.float, 0);
        // the next tenant queues (fits in principle) …
        assert!(matches!(
            p.admit(spec("next", 1, 0)).unwrap(),
            Admission::Queued { position: 0, .. }
        ));
        // … and is admitted the moment capacity frees
        let audit = p.release(TenantId(0), |_| true);
        assert_eq!(audit.freed, vec![0, 1, 2, 3]);
        assert_eq!(audit.drained.len(), 1);
        assert_eq!(audit.drained[0].0, TenantId(1));
        assert_eq!(audit.drained[0].1, vec![0]);
    }

    #[test]
    fn never_satisfiable_demands_are_rejected_not_queued() {
        let mut p = pool(4, 1);
        assert_eq!(
            p.admit(spec("big", 5, 0)).unwrap_err(),
            AdmitError::NeverFits {
                demanded: 5,
                total: 4
            }
        );
        assert_eq!(
            p.admit(spec("greedy", 2, 2)).unwrap_err(),
            AdmitError::GuaranteeUnmeetable {
                demanded: 2,
                total: 1
            }
        );
        assert_eq!(
            p.admit(spec("", 0, 0)).unwrap_err(),
            AdmitError::ZeroNodes("".into())
        );
        assert!(p.queue.is_empty(), "rejections never queue");
    }

    #[test]
    fn duplicate_names_are_refused_even_while_queued() {
        let mut p = pool(2, 0);
        p.admit(spec("x", 2, 0)).unwrap();
        assert!(matches!(
            p.admit(spec("y", 2, 0)).unwrap(),
            Admission::Queued { .. }
        ));
        assert_eq!(
            p.admit(spec("x", 1, 0)).unwrap_err(),
            AdmitError::DuplicateName("x".into())
        );
        assert_eq!(
            p.admit(spec("y", 1, 0)).unwrap_err(),
            AdmitError::DuplicateName("y".into())
        );
    }

    #[test]
    fn queue_is_fifo_with_no_overtaking() {
        let mut p = pool(4, 0);
        p.admit(spec("a", 4, 0)).unwrap();
        let big = p.admit(spec("big", 3, 0)).unwrap(); // queued first
        let small = p.admit(spec("small", 1, 0)).unwrap(); // would fit sooner, must wait
        assert!(matches!(big, Admission::Queued { position: 0, .. }));
        assert!(matches!(small, Admission::Queued { position: 1, .. }));
        // freeing everything admits both, in FIFO order
        let audit = p.release(TenantId(0), |_| true);
        assert_eq!(
            audit.drained.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![TenantId(1), TenantId(2)]
        );
        assert_eq!(audit.drained[0].1, vec![0, 1, 2]);
        assert_eq!(audit.drained[1].1, vec![3]);
    }

    #[test]
    fn release_keeps_dead_nodes_out_of_the_free_pool() {
        let mut p = pool(3, 0);
        p.admit(spec("a", 3, 0)).unwrap();
        let audit = p.release(TenantId(0), |n| n != 1);
        assert!(audit.drained.is_empty());
        assert_eq!(audit.freed, vec![0, 2], "audit names what came back");
        assert_eq!(p.free, vec![0, 2], "node 1 died and must not be re-issued");
    }

    #[test]
    fn purge_free_drops_dead_nodes() {
        let mut p = pool(4, 0);
        p.admit(spec("a", 2, 0)).unwrap();
        p.purge_free(|n| n != 3);
        assert_eq!(p.free, vec![2]);
        p.purge_free(|_| true);
        assert_eq!(p.free, vec![2]);
    }

    #[test]
    fn resize_plans_stage_low_and_vacate_high() {
        let mut p = pool(8, 0);
        p.admit(spec("a", 4, 0)).unwrap(); // nodes 0..4
                                           // grow 4 -> 6 stages the two lowest free nodes, consumes nothing yet
        let grow = p.plan_resize(TenantId(0), 6).unwrap();
        assert_eq!(grow.keep, vec![0, 1, 2, 3]);
        assert_eq!(grow.add, vec![4, 5]);
        assert!(grow.vacate.is_empty());
        assert_eq!(p.free.len(), 4, "planning consumes nothing");
        // shrink 4 -> 2 vacates the two highest shard nodes
        let shrink = p.plan_resize(TenantId(0), 2).unwrap();
        assert_eq!(shrink.keep, vec![0, 1]);
        assert!(shrink.add.is_empty());
        assert_eq!(shrink.vacate, vec![2, 3]);
        // typed refusal, nothing consumed
        assert_eq!(
            p.plan_resize(TenantId(0), 9).unwrap_err(),
            ResizeError::NeverFits {
                demanded: 9,
                total: 8
            }
        );
        assert_eq!(p.free.len(), 4);
    }

    #[test]
    fn grow_beyond_free_pool_is_would_starve() {
        let mut p = pool(6, 0);
        p.admit(spec("a", 3, 0)).unwrap();
        p.admit(spec("b", 2, 0)).unwrap();
        assert_eq!(
            p.plan_resize(TenantId(0), 5).unwrap_err(),
            ResizeError::WouldStarve {
                tenant: TenantId(0),
                requested: 2,
                free: 1,
            }
        );
    }

    #[test]
    fn commit_resize_moves_nodes_and_drains_the_queue() {
        let mut p = pool(5, 0);
        p.admit(spec("a", 5, 0)).unwrap(); // 0..5
        assert!(matches!(
            p.admit(spec("w", 2, 0)).unwrap(),
            Admission::Queued { .. }
        ));
        // shrink 5 -> 3 frees nodes 3,4 — enough to admit the waiter
        let plan = p.plan_resize(TenantId(0), 3).unwrap();
        let audit = p.commit_resize(TenantId(0), &plan, |_| true);
        assert_eq!(audit.freed, vec![3, 4]);
        assert_eq!(audit.drained.len(), 1);
        assert_eq!(audit.drained[0].0, TenantId(1));
        assert_eq!(audit.drained[0].1, vec![3, 4]);
        assert_eq!(p.nodes_of(TenantId(0)), &[0, 1, 2]);
        // a vacated node that died is dropped, not re-issued
        let plan = p.plan_resize(TenantId(0), 2).unwrap();
        let audit = p.commit_resize(TenantId(0), &plan, |n| n != 2);
        assert!(audit.freed.is_empty());
        assert!(p.free.is_empty());
    }

    #[test]
    fn event_queue_next_at_peeks_without_popping() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_at(), None);
        q.push(Duration::from_secs(5), "late");
        q.push(Duration::from_secs(1), "early");
        assert_eq!(q.next_at(), Some(Duration::from_secs(1)));
        assert_eq!(q.events.len(), 2, "peeking pops nothing");
    }

    #[test]
    fn spare_draws_burn_own_reserve_before_float() {
        let mut p = pool(4, 4);
        p.admit(spec("a", 2, 2)).unwrap();
        p.admit(spec("b", 2, 1)).unwrap();
        assert_eq!(p.float, 1);
        p.draw_spares(TenantId(0), 3).unwrap();
        // two from a's reserve, one from the float
        assert_eq!((reserve(&p, 0), p.float), (0, 0));
        // b's guarantee is untouched and still drawable
        assert_eq!(reserve(&p, 1), 1);
        p.draw_spares(TenantId(1), 1).unwrap();
        assert_eq!((reserve(&p, 1), p.float), (0, 0));
    }

    #[test]
    fn oversubscribing_cascade_gets_the_typed_starvation_refusal() {
        // Two tenants, two spares, both guaranteed one each: a cascade
        // needing two spares would eat the other tenant's guarantee and
        // must be refused with the arbitration verdict, naming exactly
        // what the refusal protects.
        let mut p = pool(4, 2);
        p.admit(spec("a", 2, 1)).unwrap();
        p.admit(spec("b", 2, 1)).unwrap();
        assert_eq!(
            p.draw_spares(TenantId(0), 2).unwrap_err(),
            Refusal::SpareContention {
                tenant: TenantId(0),
                requested: 2,
                own_reserve: 1,
                float: 0,
                reserved_elsewhere: 1,
            }
        );
        // the refusal must not have consumed anything
        assert_eq!(reserve(&p, 0), 1);
        assert_eq!(reserve(&p, 1), 1);
        // each tenant's single-loss cascade still succeeds
        assert!(p.draw_spares(TenantId(0), 1).is_ok());
        assert!(p.draw_spares(TenantId(1), 1).is_ok());
    }

    #[test]
    fn exhaustion_ordering_first_cascade_wins_the_float() {
        // No guarantees: the float is first-come-first-served, and the
        // pool reports plain exhaustion (not contention) once dry.
        let mut p = pool(4, 2);
        p.admit(spec("a", 2, 0)).unwrap();
        p.admit(spec("b", 2, 0)).unwrap();
        assert!(p.draw_spares(TenantId(0), 2).is_ok());
        assert_eq!(
            p.draw_spares(TenantId(1), 1).unwrap_err(),
            Refusal::OutOfSpares
        );
    }

    #[test]
    fn released_reserve_returns_to_the_float() {
        let mut p = pool(4, 2);
        p.admit(spec("a", 2, 2)).unwrap();
        p.admit(spec("b", 2, 0)).unwrap();
        assert_eq!(p.float, 0);
        assert!(matches!(
            p.draw_spares(TenantId(1), 1).unwrap_err(),
            Refusal::SpareContention { .. }
        ));
        p.release(TenantId(0), |_| true);
        assert_eq!(p.float, 2);
        assert!(p.draw_spares(TenantId(1), 1).is_ok());
    }

    #[test]
    fn reassign_tracks_replacement_nodes() {
        let mut p = pool(2, 1);
        p.admit(spec("a", 2, 1)).unwrap();
        p.draw_spares(TenantId(0), 1).unwrap();
        p.reassign(TenantId(0), vec![2, 0]);
        assert_eq!(p.nodes_of(TenantId(0)), &[0, 2]);
    }

    #[test]
    fn event_queue_pops_by_time_then_sequence() {
        let mut q = EventQueue::new();
        q.push(Duration::from_secs(5), "late");
        q.push(Duration::from_secs(1), "tie-first");
        q.push(Duration::from_secs(1), "tie-second");
        q.push(Duration::ZERO, "early");
        assert_eq!(q.events.len(), 4);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, k)| k)).collect();
        assert_eq!(order, vec!["early", "tie-first", "tie-second", "late"]);
        assert!(q.events.is_empty());
    }
}
