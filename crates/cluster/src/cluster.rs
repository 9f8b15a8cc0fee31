//! The virtual cluster: node inventory, spare pool, rank placement, and
//! MPI-style whole-job abort on node failure.

use crate::events::{Event, EventBus};
use crate::failure::{Fault, FaultAction, FaultPlan, GrayKind, Region};
use crate::net::NetModel;
use crate::pool::BufferPool;
use crate::shm::ShmStore;
use crate::suspicion::{ProbeVerdict, Suspicion, SuspicionMonitor};
use parking_lot::Mutex;
use skt_sim::{RealRuntime, Runtime, Stopwatch};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Node identifier (index into the cluster's node tables).
pub type NodeId = usize;

/// Cluster shape.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Compute nodes initially in the job's resource pool.
    pub nodes: usize,
    /// Additional spare nodes available to replace failures.
    pub spares: usize,
}

impl ClusterConfig {
    /// `nodes` compute nodes plus `spares` spares.
    pub fn new(nodes: usize, spares: usize) -> Self {
        assert!(nodes >= 1, "need at least one node");
        ClusterConfig { nodes, spares }
    }

    fn total(&self) -> usize {
        self.nodes + self.spares
    }
}

/// A node's current gray degradation (None = healthy).
#[derive(Clone, Copy, Debug)]
struct GrayState {
    kind: GrayKind,
    /// Virtual time the degradation began. For a [`GrayKind::Hang`] this
    /// is when the node's heartbeat daemon froze — the one record of it;
    /// the suspicion monitor is told it when scoring.
    since: Duration,
    /// Virtual time at which the node spontaneously recovers; evaluated
    /// lazily by [`Cluster::gray_kind`].
    heal_at: Option<Duration>,
}

/// The virtual cluster. One instance outlives many job launches — that is
/// the point: node SHM persists across job aborts.
pub struct Cluster {
    config: ClusterConfig,
    shm: Vec<ShmStore>,
    /// Recycled node memory and stripe buffers (see [`BufferPool`]).
    pool: BufferPool,
    alive: Mutex<Vec<bool>>,
    spare_pool: Mutex<Vec<NodeId>>,
    job_abort: AtomicBool,
    /// Armed fault plans; [`Self::failpoint`] fires and removes them.
    plans: Mutex<Vec<FaultPlan>>,
    net: NetModel,
    events: EventBus,
    runtime: Arc<dyn Runtime>,
    /// Per-node gray degradation state (straggler / hang / bad link).
    gray: Mutex<Vec<Option<GrayState>>>,
    /// Per-node fencing generation. Bumped by [`Self::fence_node`]; work
    /// launched under an older generation is a zombie and gets rejected.
    generation: Mutex<Vec<u64>>,
    /// Heartbeat/suspicion monitor (consulted only when armed).
    monitor: SuspicionMonitor,
    /// Whether the suspicion layer is armed (a gray plan was armed or a
    /// heartbeat config was set explicitly).
    suspicion_on: AtomicBool,
    /// Nodes the current job runs on — the suspicion evaluation set.
    watched: Mutex<Vec<NodeId>>,
    /// First declared suspicion verdict of the current launch (sticky
    /// until [`Self::reset_abort`]); every rank echoes this one verdict
    /// so outcomes are seed-invariant even though scores are not.
    verdict: Mutex<Option<Suspicion>>,
}

impl Cluster {
    /// Build a cluster on real threads and the wall clock. Node ids
    /// `0..nodes` start in the job pool; ids `nodes..nodes+spares` start
    /// in the spare pool.
    pub fn new(config: ClusterConfig) -> Self {
        Self::new_with_runtime(config, RealRuntime::new())
    }

    /// Build a cluster on an explicit [`Runtime`] — pass a
    /// [`SimRuntime`](skt_sim::SimRuntime) to make every job on this
    /// cluster a deterministic function of `(config, seed)`.
    pub fn new_with_runtime(config: ClusterConfig, runtime: Arc<dyn Runtime>) -> Self {
        let total = config.total();
        Cluster {
            config,
            shm: (0..total).map(|_| ShmStore::new()).collect(),
            pool: BufferPool::new(),
            alive: Mutex::new(vec![true; total]),
            spare_pool: Mutex::new((config.nodes..total).collect()),
            job_abort: AtomicBool::new(false),
            plans: Mutex::new(Vec::new()),
            // Local-cluster-ish defaults; experiments override via
            // platform models where it matters.
            net: NetModel::new(2e-6, 12.5e9, 2),
            events: EventBus::new(),
            runtime,
            gray: Mutex::new(vec![None; total]),
            generation: Mutex::new(vec![0; total]),
            monitor: SuspicionMonitor::default(),
            suspicion_on: AtomicBool::new(false),
            watched: Mutex::new(Vec::new()),
            verdict: Mutex::new(None),
        }
    }

    /// The runtime this cluster's jobs are scheduled and timed by.
    pub fn runtime(&self) -> &Arc<dyn Runtime> {
        &self.runtime
    }

    /// Current time on the cluster's clock (wall under [`RealRuntime`],
    /// virtual under simulation).
    pub fn now(&self) -> Duration {
        self.runtime.now()
    }

    /// Start a [`Stopwatch`] on the cluster's clock. Every layer that
    /// reports a duration measures with this rather than `Instant::now()`
    /// so reports are bit-identical for a fixed `(config, seed)` under
    /// simulation.
    pub fn stopwatch(&self) -> Stopwatch {
        Stopwatch::start(&self.runtime)
    }

    /// Charge the modeled network cost of moving `bytes` point-to-point
    /// to the virtual clock (under real time modeled costs are reported,
    /// never waited out), attributed to the sending node so
    /// link degradation can inflate the cost: a gray
    /// [`GrayKind::LinkDegrade`] sender pays `factor`× the α-β time, and
    /// the *excess* over the healthy cost feeds its suspicion score.
    /// Healthy senders feed a zero sample (their score decays).
    pub fn charge_send_from(&self, node: NodeId, bytes: usize) {
        let base = self.net.p2p(bytes);
        let cost = match self.gray_kind(node) {
            Some(GrayKind::LinkDegrade { factor }) => {
                let degraded = base * factor;
                self.monitor.sample(node, degraded.saturating_sub(base));
                degraded
            }
            _ => {
                if self.suspicion_enabled() {
                    self.monitor.sample(node, Duration::ZERO);
                }
                base
            }
        };
        if self.runtime.is_sim() {
            self.runtime.advance(cost);
        }
    }

    // ---- gray faults, suspicion, fencing -------------------------------

    /// Whether the suspicion layer is armed.
    pub fn suspicion_enabled(&self) -> bool {
        self.suspicion_on.load(Ordering::SeqCst)
    }

    /// The heartbeat/suspicion monitor.
    pub fn monitor(&self) -> &SuspicionMonitor {
        &self.monitor
    }

    fn enable_suspicion(&self) {
        self.suspicion_on.store(true, Ordering::SeqCst);
        // A hung node parks every live task sooner or later; the stall
        // wake turns that from a sim deadlock into heartbeat-granular
        // passage of time, which is what lets a peer's score cross the
        // threshold.
        self.runtime
            .set_stall_wake(Some(self.monitor.config().interval));
    }

    /// Announce a job launch on `nodes`: they become the suspicion
    /// evaluation set and their slowness EWMAs restart. No-op while the
    /// suspicion layer is unarmed.
    pub fn begin_job(&self, nodes: &[NodeId]) {
        if !self.suspicion_enabled() {
            return;
        }
        let mut set: Vec<NodeId> = nodes.to_vec();
        set.sort_unstable();
        set.dedup();
        self.monitor.reset(&set);
        *self.watched.lock() = set;
    }

    /// The node's current gray degradation, evaluating self-healing
    /// lazily: once the plan's `heal_after` deadline passes on the
    /// virtual clock the state clears (and the hang-start with it), so an
    /// expired gray can never be observed, declared, or probed late.
    fn gray_state(&self, node: NodeId) -> Option<GrayState> {
        let mut gray = self.gray.lock();
        let state = gray[node]?;
        if state.heal_at.is_some_and(|at| self.runtime.now() >= at) {
            gray[node] = None;
            return None;
        }
        Some(state)
    }

    /// The node's current gray degradation, if any (healed lazily).
    pub fn gray_kind(&self, node: NodeId) -> Option<GrayKind> {
        self.gray_state(node).map(|s| s.kind)
    }

    /// When the node's heartbeat froze, if it is hung right now.
    fn hung_since(&self, node: NodeId) -> Option<Duration> {
        self.gray_state(node)
            .and_then(|s| matches!(s.kind, GrayKind::Hang).then_some(s.since))
    }

    /// Is the node currently hard-hung? Rank code polls this to hold the
    /// node's tasks at their next yield point.
    pub fn node_hung(&self, node: NodeId) -> bool {
        matches!(self.gray_kind(node), Some(GrayKind::Hang))
    }

    /// Management-plane probe of a node (the service's observe → probe
    /// step). Dead and hung nodes don't answer; stragglers and degraded
    /// links answer but self-report.
    pub fn probe_node(&self, node: NodeId) -> ProbeVerdict {
        if !self.node_alive(node) {
            return ProbeVerdict::Unresponsive;
        }
        match self.gray_kind(node) {
            None => ProbeVerdict::Responsive,
            Some(GrayKind::Hang) => ProbeVerdict::Unresponsive,
            Some(k) => ProbeVerdict::Degraded(k.label()),
        }
    }

    /// One heartbeat step of `node` at a probe point: a straggler charges
    /// its extra virtual time and self-reports it, a healthy node beats a
    /// zero sample, and either way the node evaluates its *peers* for
    /// declaration. No-op while the suspicion layer is unarmed.
    fn heartbeat_step(&self, node: NodeId) {
        if !self.suspicion_enabled() {
            return;
        }
        match self.gray_kind(node) {
            Some(GrayKind::Slow { factor }) => {
                let extra = self.monitor.config().interval * factor;
                self.runtime.advance(extra);
                self.monitor.sample(node, extra);
            }
            // A hung node never reaches a probe (it is held at its yield
            // point); its frozen heartbeat is what peers score.
            Some(GrayKind::Hang) => {}
            _ => self.monitor.sample(node, Duration::ZERO),
        }
        self.evaluate_suspicion(node);
    }

    /// Evaluate suspicion from `observer`'s point of view: score every
    /// *other* live, unfenced watched node and declare the worst one
    /// suspect if it exceeds the threshold. The first declaration wins
    /// and aborts the job; later calls echo it. Returns the standing
    /// verdict, if any.
    pub fn evaluate_suspicion(&self, observer: NodeId) -> Option<Suspicion> {
        if !self.suspicion_enabled() {
            return None;
        }
        let peers: Vec<NodeId> = {
            let alive = self.alive.lock();
            self.watched
                .lock()
                .iter()
                .copied()
                .filter(|&n| n != observer && alive[n] && !self.node_fenced(n))
                .collect()
        };
        // reading a peer's hang-start is its lazy-heal pass too, so an
        // expired gray is never declared late
        let peers = peers.iter().map(|&n| (n, self.hung_since(n)));
        if let Some(v) = self.monitor.worst(peers, self.runtime.now()) {
            let mut verdict = self.verdict.lock();
            if verdict.is_none() {
                *verdict = Some(v);
                drop(verdict);
                self.events.emit(Event::SuspicionDeclared {
                    node: v.node,
                    score: v.score,
                });
                self.job_abort.store(true, Ordering::SeqCst);
                self.runtime.notify();
            }
        }
        self.suspected()
    }

    /// The standing suspicion verdict of the current launch, if one was
    /// declared. Cleared by [`Self::reset_abort`].
    pub fn suspected(&self) -> Option<Suspicion> {
        *self.verdict.lock()
    }

    /// Abort-style check for gray failure: evaluate suspicion from
    /// `observer`'s point of view and surface the standing verdict as a
    /// typed fault. Rank code calls this in blocking-receive loops so a
    /// collective returns [`Fault::Suspect`] instead of parking forever
    /// on a gray peer.
    pub fn check_gray(&self, observer: NodeId) -> Result<(), Fault> {
        match self.evaluate_suspicion(observer) {
            Some(v) => Err(Fault::Suspect {
                node: v.node,
                score: v.score,
            }),
            None => Ok(()),
        }
    }

    /// Fence a node: bump its generation, freeze its SHM (stale writes
    /// vanish into detached copies), and quarantine it from placement.
    /// The node stays "alive" — that is the point: a fenced zombie may
    /// keep running, but nothing it does is visible. Returns the new
    /// generation.
    pub fn fence_node(&self, node: NodeId) -> u64 {
        let generation = {
            let mut g = self.generation.lock();
            g[node] += 1;
            g[node]
        };
        self.shm[node].freeze();
        self.events.emit(Event::NodeFenced { node, generation });
        self.runtime.notify();
        generation
    }

    /// Is the node fenced? A node is fenced exactly while its SHM is
    /// frozen — the store owns the fact.
    pub fn node_fenced(&self, node: NodeId) -> bool {
        self.shm[node].is_frozen()
    }

    /// The node's current fencing generation.
    pub fn node_generation(&self, node: NodeId) -> u64 {
        self.generation.lock()[node]
    }

    /// Alive *and* not fenced — the placement predicate. Repair, spare
    /// draws and shard healing treat a fenced node exactly like a dead
    /// one; only its quarantined memory distinguishes them.
    pub fn node_usable(&self, node: NodeId) -> bool {
        self.node_alive(node) && !self.node_fenced(node)
    }

    /// Cluster shape.
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    /// Total node count including spares.
    pub fn total_nodes(&self) -> usize {
        self.config.total()
    }

    /// Shared-memory store of a node.
    pub fn shm(&self, node: NodeId) -> &ShmStore {
        &self.shm[node]
    }

    /// The cluster's buffer pool: where a powered-off node's segment
    /// payloads go and new segments and engine stripes come from.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Network model used for modeled-time estimates.
    pub fn net(&self) -> NetModel {
        self.net
    }

    /// The cluster-wide observation bus. Protocol layers emit into it;
    /// harnesses subscribe [`Observer`](crate::events::Observer)s.
    pub fn events(&self) -> &EventBus {
        &self.events
    }

    /// Is the node alive?
    pub fn node_alive(&self, node: NodeId) -> bool {
        self.alive.lock()[node]
    }

    /// Nodes currently dead.
    pub fn dead_nodes(&self) -> Vec<NodeId> {
        self.alive
            .lock()
            .iter()
            .enumerate()
            .filter(|(_, a)| !**a)
            .map(|(i, _)| i)
            .collect()
    }

    /// Power off a node: its memory (SHM included) is destroyed and the
    /// whole running job aborts, which is what every mainstream MPI
    /// runtime does on a node loss (§1 of the paper). Destroyed means
    /// unreachable: the segment table is cleared and stale handles see
    /// empty payloads, while the payloads themselves are recycled into
    /// [`Self::pool`] for the spares that replace the node.
    pub fn kill_node(&self, node: NodeId) {
        {
            let mut alive = self.alive.lock();
            if !alive[node] {
                return;
            }
            alive[node] = false;
        }
        self.shm[node].wipe(&self.pool);
        self.job_abort.store(true, Ordering::SeqCst);
        // parked peers must wake to observe the abort
        self.runtime.notify();
    }

    /// Take a spare node from the pool (daemon replacing a lost node).
    /// Dead and fenced spares are skipped.
    pub fn take_spare(&self) -> Option<NodeId> {
        let mut pool = self.spare_pool.lock();
        while let Some(n) = pool.pop() {
            if self.node_usable(n) {
                return Some(n);
            }
        }
        None
    }

    /// Spares remaining.
    pub fn spares_left(&self) -> usize {
        self.spare_pool.lock().len()
    }

    /// Has the current job been aborted?
    pub fn aborted(&self) -> bool {
        self.job_abort.load(Ordering::SeqCst)
    }

    /// Clear the abort flag (and any standing suspicion verdict) before
    /// relaunching a job. Dead nodes stay dead, their SHM stays wiped;
    /// gray nodes stay gray and fenced nodes stay fenced.
    pub fn reset_abort(&self) {
        self.job_abort.store(false, Ordering::SeqCst);
        *self.verdict.lock() = None;
    }

    /// Arm a fault plan — a kill, a silent bit flip, or a gray
    /// degradation (see [`FaultPlan`]). Several plans may be armed at
    /// once (two kills in different groups, a kill beside a flip).
    /// Arming a gray plan arms the suspicion layer as a side effect.
    pub fn arm_failure(&self, plan: FaultPlan) {
        if matches!(plan.action, FaultAction::Gray { .. }) {
            self.enable_suspicion();
        }
        self.plans.lock().push(plan);
    }

    /// Disarm all fault plans.
    pub fn clear_failures(&self) {
        self.plans.lock().clear();
    }

    /// Make `action` happen to `node` right now — the one door for a
    /// fired plan ([`Self::failpoint`]), a clock-scheduled storm fault and
    /// a test's immediate flip. Returns whether anything changed.
    ///
    /// * `Kill` — [`Self::kill_node`]; `false` if the node was already
    ///   dead.
    /// * `Corrupt` — flip the bit in the first (name-sorted) segment on
    ///   `node` that is the region's. Offsets wrap modulo the region size
    ///   so every `(offset, bit)` pair is a valid flip somewhere in the
    ///   region. `false` when the node has no such segment or it is empty
    ///   (e.g. a wiped node) — a corruption of nothing is a no-op.
    /// * `Gray` — the node turns gray from now (replacing any earlier
    ///   degradation, hang included) and the suspicion layer is armed;
    ///   always `true`.
    pub fn apply_fault(&self, node: NodeId, action: &FaultAction) -> bool {
        match *action {
            FaultAction::Kill => {
                let was_alive = self.node_alive(node);
                self.kill_node(node);
                was_alive
            }
            FaultAction::Corrupt {
                region,
                offset,
                bit,
            } => self.flip_bit(node, region, offset, bit),
            FaultAction::Gray { kind, heal_after } => {
                let since = self.runtime.now();
                self.gray.lock()[node] = Some(GrayState {
                    kind,
                    since,
                    heal_at: heal_after.map(|d| since + d),
                });
                self.enable_suspicion();
                self.events.emit(Event::GrayInjected {
                    node,
                    kind: kind.label(),
                });
                true
            }
        }
    }

    /// The `Corrupt` arm of [`Self::apply_fault`].
    fn flip_bit(&self, node: NodeId, region: Region, offset: usize, bit: u8) -> bool {
        let store = &self.shm[node];
        let Some(name) = store.names().into_iter().find(|n| region.is_segment(n)) else {
            return false;
        };
        let Some(seg) = store.attach(&name) else {
            return false;
        };
        let mut g = seg.write();
        let v = g.as_f64_mut();
        if v.is_empty() {
            return false;
        }
        // bit `bit % 8` of LE byte `offset % len` of the payload
        let byte = offset % (v.len() * 8);
        let bit_pos = (byte % 8) * 8 + usize::from(bit % 8);
        v[byte / 8] = f64::from_bits(v[byte / 8].to_bits() ^ (1u64 << bit_pos));
        drop(g);
        let region = region.suffix();
        self.events.emit(Event::CorruptionInjected { node, region });
        true
    }

    /// Named probe point, called from rank code with the rank's own
    /// 1-based occurrence count for `label` (per-rank counting keeps
    /// multi-threaded runs deterministic). An armed plan matches on
    /// `(node, label, nth == count)` and fires once: it is removed. If a
    /// kill plan matches, the node is killed and `Err(Fault::NodeDead)`
    /// is returned to the dying rank; a matching corrupt plan flips its
    /// bit silently and a gray plan degrades the node, and the rank
    /// continues.
    /// Otherwise this doubles as an abort check so every rank notices a
    /// failure promptly.
    pub fn failpoint(&self, node: NodeId, label: &str, count: u64) -> Result<(), Fault> {
        let fired = {
            let mut plans = self.plans.lock();
            let pos = plans
                .iter()
                .position(|p| p.node == node && p.label == label && p.nth == count);
            pos.map(|i| plans.remove(i).action)
        };
        if let Some(action) = fired {
            self.apply_fault(node, &action);
            if action == FaultAction::Kill {
                return Err(Fault::NodeDead(node));
            }
        }
        // heartbeat + peer evaluation ride on every probe pass
        self.heartbeat_step(node);
        if let Some(v) = self.suspected() {
            return Err(Fault::Suspect {
                node: v.node,
                score: v.score,
            });
        }
        self.check_abort()?;
        if !self.node_alive(node) {
            return Err(Fault::NodeDead(node));
        }
        Ok(())
    }

    /// Abort the running job without killing a node (used by the runtime
    /// when a rank thread panics, so its peers unblock promptly).
    pub fn job_abort_for_panic(&self) {
        self.job_abort.store(true, Ordering::SeqCst);
        self.runtime.notify();
    }

    /// Return `Err(Fault::JobAborted)` if the job has been aborted.
    pub fn check_abort(&self) -> Result<(), Fault> {
        if self.aborted() {
            Err(Fault::JobAborted)
        } else {
            Ok(())
        }
    }
}

/// Rank-to-node placement, the paper's `ranklist` file (§5.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ranklist {
    node_of_rank: Vec<NodeId>,
}

impl Ranklist {
    /// Explicit placement.
    pub fn explicit(node_of_rank: Vec<NodeId>) -> Self {
        assert!(!node_of_rank.is_empty());
        Ranklist { node_of_rank }
    }

    /// Round-robin placement: rank `r` on node `r % nodes`. With group
    /// size dividing the node count this puts every member of a
    /// checkpoint group on a distinct node — the property §3.3 requires
    /// to survive a node loss.
    pub fn round_robin(nranks: usize, nodes: usize) -> Self {
        assert!(nranks >= 1 && nodes >= 1);
        Ranklist {
            node_of_rank: (0..nranks).map(|r| r % nodes).collect(),
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.node_of_rank.len()
    }

    /// True if empty (never constructed so; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.node_of_rank.is_empty()
    }

    /// Node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> NodeId {
        self.node_of_rank[rank]
    }

    /// Number of ranks sharing the node of `rank` (device/port sharers).
    pub fn sharers_of(&self, rank: usize) -> usize {
        let node = self.node_of(rank);
        self.node_of_rank.iter().filter(|n| **n == node).count()
    }

    /// Replace every unusable (dead *or* fenced) node with a spare, in
    /// place. Returns `(rank, old_node, new_node)` for each migrated
    /// rank. Errors with the unreplaceable node if the spare pool runs
    /// dry.
    pub fn repair(&mut self, cluster: &Cluster) -> Result<Vec<(usize, NodeId, NodeId)>, NodeId> {
        let mut moved = Vec::new();
        let dead: Vec<NodeId> = self
            .node_of_rank
            .iter()
            .copied()
            .filter(|n| !cluster.node_usable(*n))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        for old in dead {
            let new = cluster.take_spare().ok_or(old)?;
            for (r, n) in self.node_of_rank.iter_mut().enumerate() {
                if *n == old {
                    *n = new;
                    moved.push((r, old, new));
                }
            }
        }
        Ok(moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FailurePlan;
    use crate::shm::SegmentData;

    #[test]
    fn kill_node_wipes_shm_and_aborts_job() {
        let c = Cluster::new(ClusterConfig::new(2, 1));
        c.shm(0)
            .get_or_create("seg", || SegmentData::F64(vec![1.0; 4]));
        c.shm(1)
            .get_or_create("seg", || SegmentData::F64(vec![2.0; 4]));
        c.kill_node(1);
        assert!(c.aborted());
        assert!(!c.node_alive(1));
        assert_eq!(c.dead_nodes(), vec![1]);
        assert!(c.shm(1).is_empty(), "dead node memory wiped");
        assert_eq!(c.shm(0).total_bytes(), 32, "healthy node memory intact");
    }

    #[test]
    fn reset_abort_keeps_node_dead() {
        let c = Cluster::new(ClusterConfig::new(2, 0));
        c.kill_node(0);
        c.reset_abort();
        assert!(!c.aborted());
        assert!(!c.node_alive(0));
    }

    #[test]
    fn spares_come_from_the_tail() {
        let c = Cluster::new(ClusterConfig::new(3, 2));
        let s1 = c.take_spare().unwrap();
        let s2 = c.take_spare().unwrap();
        assert!(s1 >= 3 && s2 >= 3 && s1 != s2);
        assert!(c.take_spare().is_none());
    }

    #[test]
    fn dead_spare_is_skipped() {
        let c = Cluster::new(ClusterConfig::new(1, 2));
        c.kill_node(2);
        c.reset_abort();
        assert_eq!(c.take_spare(), Some(1));
        assert!(c.take_spare().is_none());
    }

    #[test]
    fn failpoint_kills_at_armed_plan() {
        let c = Cluster::new(ClusterConfig::new(2, 0));
        c.arm_failure(FailurePlan::new("encode", 2, 1));
        assert!(c.failpoint(1, "encode", 1).is_ok());
        assert_eq!(c.failpoint(1, "encode", 2), Err(Fault::NodeDead(1)));
        // other ranks now see the abort
        assert_eq!(c.failpoint(0, "anything", 1), Err(Fault::JobAborted));
    }

    #[test]
    fn failpoint_fires_a_plan_once_at_its_nth_hit() {
        let c = Cluster::new(ClusterConfig::new(2, 0));
        let rec = recorder(&c);
        c.shm(1)
            .get_or_create("job/r1/b", || SegmentData::F64(vec![0.0; 4]));
        c.arm_failure(FaultPlan::corrupt("encode", 3, 1, Region::CopyB, 0, 0));
        let flips = || rec.count(|e| matches!(e, Event::CorruptionInjected { node: 1, .. }));
        for hit in 1..=2 {
            assert!(c.failpoint(1, "encode", hit).is_ok());
        }
        assert_eq!(flips(), 0);
        assert!(c.failpoint(1, "encode", 3).is_ok(), "a flip is silent");
        assert_eq!(flips(), 1);
        assert!(c.failpoint(1, "encode", 3).is_ok());
        assert_eq!(flips(), 1, "one-shot");
    }

    #[test]
    fn failpoint_matches_a_plan_by_node_and_label() {
        let c = Cluster::new(ClusterConfig::new(4, 0));
        c.arm_failure(FailurePlan::new("flush", 1, 2));
        assert!(c.failpoint(3, "flush", 1).is_ok());
        assert!(c.failpoint(2, "encode", 1).is_ok());
        assert_eq!(c.failpoint(2, "flush", 1), Err(Fault::NodeDead(2)));
    }

    #[test]
    fn clear_failures_disarms() {
        let c = Cluster::new(ClusterConfig::new(1, 0));
        c.arm_failure(FailurePlan::new("x", 1, 0));
        c.clear_failures();
        assert!(c.failpoint(0, "x", 1).is_ok());
        assert!(c.node_alive(0));
    }

    #[test]
    fn kill_flip_and_gray_plans_coexist() {
        let c = Cluster::new(ClusterConfig::new(3, 0));
        let rec = recorder(&c);
        c.shm(1)
            .get_or_create("job/r1/b", || SegmentData::F64(vec![0.0; 4]));
        c.arm_failure(FailurePlan::new("p", 1, 0));
        c.arm_failure(FaultPlan::corrupt("p", 1, 1, Region::CopyB, 0, 0));
        c.arm_failure(FaultPlan::gray("p", 2, 2, GrayKind::Hang));
        assert!(c.failpoint(1, "p", 1).is_ok());
        assert!(c.failpoint(2, "p", 1).is_ok());
        assert!(c.gray_kind(2).is_none(), "gray fires at its 2nd hit");
        assert!(c.failpoint(2, "p", 2).is_ok());
        assert_eq!(c.gray_kind(2), Some(GrayKind::Hang));
        assert_eq!(c.failpoint(0, "p", 1), Err(Fault::NodeDead(0)));
        let injected = rec.count(|e| {
            matches!(
                e,
                Event::CorruptionInjected { node: 1, .. }
                    | Event::GrayInjected {
                        node: 2,
                        kind: "hang"
                    }
            )
        });
        assert_eq!(injected, 2);
    }

    #[test]
    fn failpoint_on_dead_node_reports_dead() {
        let c = Cluster::new(ClusterConfig::new(2, 0));
        c.kill_node(1);
        c.reset_abort();
        assert_eq!(c.failpoint(1, "x", 1), Err(Fault::NodeDead(1)));
    }

    #[test]
    fn ranklist_round_robin() {
        let rr = Ranklist::round_robin(8, 4);
        assert_eq!(rr.node_of(0), 0);
        assert_eq!(rr.node_of(4), 0);
        assert_eq!(rr.node_of(5), 1);
        assert_eq!(rr.sharers_of(1), 2);
    }

    #[test]
    fn repair_moves_ranks_to_spares() {
        let c = Cluster::new(ClusterConfig::new(2, 1));
        let mut rl = Ranklist::round_robin(4, 2);
        c.kill_node(1);
        c.reset_abort();
        let moved = rl.repair(&c).unwrap();
        assert_eq!(moved.len(), 2, "two ranks lived on node 1");
        for (_, old, new) in &moved {
            assert_eq!(*old, 1);
            assert_eq!(*new, 2);
        }
        assert_eq!(rl.node_of(1), 2);
        assert_eq!(rl.node_of(3), 2);
        // nothing dead now, repair is a no-op
        assert!(rl.repair(&c).unwrap().is_empty());
    }

    #[test]
    fn repair_fails_without_spares() {
        let c = Cluster::new(ClusterConfig::new(2, 0));
        let mut rl = Ranklist::round_robin(2, 2);
        c.kill_node(0);
        c.reset_abort();
        assert_eq!(rl.repair(&c), Err(0));
    }

    fn recorder(c: &Cluster) -> Arc<crate::events::Recorder> {
        let rec = Arc::new(crate::events::Recorder::new());
        c.events()
            .subscribe(Arc::clone(&rec) as Arc<dyn crate::events::Observer>);
        rec
    }

    fn flip(region: Region, offset: usize, bit: u8) -> FaultAction {
        FaultAction::Corrupt {
            region,
            offset,
            bit,
        }
    }

    fn gray(kind: GrayKind) -> FaultPlan {
        FaultPlan::gray("p", 1, 0, kind)
    }

    #[test]
    fn apply_fault_flips_one_bit_and_emits() {
        let c = Cluster::new(ClusterConfig::new(1, 0));
        let rec = recorder(&c);
        c.shm(0)
            .get_or_create("job/r0/b", || SegmentData::F64(vec![0.0; 4]));
        let action = flip(Region::CopyB, 9, 2);
        assert!(c.apply_fault(0, &action));
        let seg = c.shm(0).attach("job/r0/b").unwrap();
        // byte 9 lives in element 1; bit 2 of that byte is bit 10 of the word
        assert_eq!(seg.read().as_f64()[1].to_bits(), 1u64 << 10);
        assert_eq!(
            rec.count(|e| matches!(
                e,
                Event::CorruptionInjected {
                    node: 0,
                    region: "b"
                }
            )),
            1
        );
        // flipping again restores the original bits (xor involution)
        assert!(c.apply_fault(0, &action));
        assert_eq!(seg.read().as_f64()[1].to_bits(), 0);
        // offsets wrap modulo the region (32 bytes) and bits modulo 8
        assert!(c.apply_fault(0, &flip(Region::CopyB, 32 + 9, 8 + 2)));
        assert_eq!(seg.read().as_f64()[1].to_bits(), 1u64 << 10);
    }

    /// The one door, as a table: every action × every state a node can
    /// be in → "did anything change", the event (or its absence), and
    /// for gray actions the armed suspicion layer and the lazy heal.
    #[test]
    fn apply_fault_table() {
        #[derive(Clone, Copy, Debug)]
        enum NodeState {
            Live,
            Dead,
            WithoutTheRegion,
            WipedRegion,
        }
        use NodeState::*;
        const N: NodeId = 1;
        let heal = Duration::from_millis(1);
        let gray_of = |kind| FaultAction::Gray {
            kind,
            heal_after: Some(heal),
        };
        let corrupt = Event::CorruptionInjected {
            node: N,
            region: "b",
        };
        let injected = |kind| Event::GrayInjected { node: N, kind };
        // (action, [changed on Live, Dead, WithoutTheRegion, WipedRegion], event when changed)
        let table: [(FaultAction, [bool; 4], Option<Event>); 5] = [
            (FaultAction::Kill, [true, false, true, true], None),
            (
                flip(Region::CopyB, 77, 3),
                [true, false, false, false],
                Some(corrupt),
            ),
            (gray_of(GrayKind::Hang), [true; 4], Some(injected("hang"))),
            (
                gray_of(GrayKind::Slow { factor: 3 }),
                [true; 4],
                Some(injected("slow")),
            ),
            (
                gray_of(GrayKind::LinkDegrade { factor: 3 }),
                [true; 4],
                Some(injected("link-degrade")),
            ),
        ];
        for (action, changed, event) in table {
            for (state, want) in [Live, Dead, WithoutTheRegion, WipedRegion]
                .into_iter()
                .zip(changed)
            {
                let case = format!("{action:?} on a {state:?} node");
                let rt = skt_sim::SimRuntime::new(1);
                let c = Cluster::new_with_runtime(ClusterConfig::new(2, 0), rt.clone());
                let seg = |name: &str, len| {
                    c.shm(N)
                        .get_or_create(name, || SegmentData::F64(vec![0.0; len]));
                };
                match state {
                    Live => seg("job/r1/b", 4),
                    Dead => {
                        seg("job/r1/b", 4);
                        c.kill_node(N);
                        c.reset_abort();
                    }
                    WithoutTheRegion => seg("job/r1/b1", 4),
                    WipedRegion => seg("job/r1/b", 0),
                }
                let rec = recorder(&c);
                assert_eq!(c.apply_fault(N, &action), want, "{case}");
                let injections: Vec<Event> = rec
                    .events()
                    .into_iter()
                    .filter(|e| {
                        matches!(
                            e,
                            Event::CorruptionInjected { .. } | Event::GrayInjected { .. }
                        )
                    })
                    .collect();
                let expected: Vec<Event> = event.iter().filter(|_| want).cloned().collect();
                assert_eq!(injections, expected, "{case}");
                match action {
                    FaultAction::Kill => {
                        assert!(!c.node_alive(N), "{case}");
                        assert_eq!(c.aborted(), want, "{case}: only a fresh death aborts");
                        assert!(!c.suspicion_enabled(), "{case}");
                    }
                    FaultAction::Corrupt { .. } => {
                        assert!(!c.aborted() && !c.suspicion_enabled(), "{case}: silent");
                        if want {
                            let seg = c.shm(N).attach("job/r1/b").unwrap();
                            // byte 77 wraps to 77 % 32 = 13: element 1, byte 5, bit 3
                            assert_eq!(seg.read().as_f64()[1].to_bits(), 1u64 << 43, "{case}");
                        }
                    }
                    FaultAction::Gray { kind, .. } => {
                        assert!(c.suspicion_enabled(), "{case}: arms the suspicion layer");
                        assert_eq!(c.gray_kind(N), Some(kind), "{case}");
                        rt.advance(heal - Duration::from_nanos(1));
                        assert_eq!(c.gray_kind(N), Some(kind), "{case}: not healed early");
                        rt.advance(Duration::from_nanos(1));
                        assert_eq!(
                            c.gray_kind(N),
                            None,
                            "{case}: healed lazily at the deadline"
                        );
                        assert_eq!(c.hung_since(N), None, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn armed_corrupt_plan_fires_at_failpoint_without_killing() {
        let c = Cluster::new(ClusterConfig::new(1, 0));
        c.shm(0)
            .get_or_create("job/r0/header", || SegmentData::F64(vec![0.0; 5]));
        c.arm_failure(FaultPlan::corrupt("computing", 2, 0, Region::Header, 3, 5));
        assert!(
            !c.suspicion_enabled(),
            "a flip (like a kill) leaves the suspicion layer off"
        );
        assert!(c.failpoint(0, "computing", 1).is_ok());
        assert!(
            c.failpoint(0, "computing", 2).is_ok(),
            "corruption is silent"
        );
        assert!(c.node_alive(0));
        assert!(!c.aborted());
        let seg = c.shm(0).attach("job/r0/header").unwrap();
        // offset 3, bit 5 is bit 5 of LE byte 3 of word 0: the mapping
        // every header flip relies on
        let words: Vec<u64> = seg.read().as_f64().iter().map(|w| w.to_bits()).collect();
        assert_eq!(words[0].to_le_bytes(), [0, 0, 0, 1 << 5, 0, 0, 0, 0]);
        assert!(words[1..].iter().all(|&w| w == 0));
    }

    #[test]
    fn mild_straggler_is_tolerated() {
        let c = Cluster::new(ClusterConfig::new(2, 0));
        c.arm_failure(gray(GrayKind::Slow { factor: 4 }));
        assert!(c.suspicion_enabled(), "gray plan arms the suspicion layer");
        c.begin_job(&[0, 1]);
        for i in 1..=20 {
            assert!(c.failpoint(0, "p", i).is_ok());
            assert!(c.failpoint(1, "p", i).is_ok());
        }
        assert_eq!(c.gray_kind(0), Some(GrayKind::Slow { factor: 4 }));
        assert!(
            c.node_alive(0) && !c.aborted(),
            "factor ≤ threshold: job continues"
        );
    }

    #[test]
    fn heavy_straggler_is_declared_by_a_peer() {
        let c = Cluster::new(ClusterConfig::new(2, 0));
        c.arm_failure(gray(GrayKind::Slow { factor: 64 }));
        c.begin_job(&[0, 1]);
        // the straggler cannot declare itself…
        assert!(c.failpoint(0, "p", 1).is_ok());
        assert!(c.failpoint(0, "p", 2).is_ok());
        // …but its peer's next probe sees the self-reported slowness
        let err = c.failpoint(1, "p", 1).unwrap_err();
        assert!(matches!(err, Fault::Suspect { node: 0, .. }), "{err:?}");
        assert!(c.aborted());
        // and the verdict is sticky — the straggler echoes it
        assert!(matches!(
            c.failpoint(0, "p", 3),
            Err(Fault::Suspect { node: 0, .. })
        ));
        assert!(c.node_alive(0), "suspect, not dead: memory intact");
        c.reset_abort();
        assert_eq!(c.suspected(), None);
    }

    #[test]
    fn hang_heals_lazily_on_the_virtual_clock() {
        let rt = skt_sim::SimRuntime::new(7);
        let c = Cluster::new_with_runtime(ClusterConfig::new(2, 0), rt.clone());
        let hang = FaultAction::Gray {
            kind: GrayKind::Hang,
            heal_after: Some(Duration::from_millis(1)),
        };
        assert!(c.apply_fault(1, &hang));
        // after the fault: `begin_job` is a no-op while suspicion is unarmed
        c.begin_job(&[0, 1]);
        assert!(c.node_hung(1));
        assert_eq!(
            c.probe_node(1),
            crate::suspicion::ProbeVerdict::Unresponsive
        );
        rt.advance(Duration::from_millis(2));
        assert!(!c.node_hung(1), "heal deadline passed");
        assert_eq!(c.probe_node(1), crate::suspicion::ProbeVerdict::Responsive);
        assert_eq!(c.evaluate_suspicion(0), None, "healed before declaration");
    }

    /// A node's hang has one owner, the gray state: a later gray fault on
    /// the same node (reachable with two ranks per node — the sharer
    /// still passes probes) replaces the hang, lag included. While the
    /// monitor kept its own `hung_since` the overwrite left it set, and
    /// the node was declared suspect for a hang it no longer had.
    #[test]
    fn gray_overwrite_of_a_hung_node_drops_the_hang_lag() {
        let rt = skt_sim::SimRuntime::new(5);
        let c = Cluster::new_with_runtime(ClusterConfig::new(2, 0), rt.clone());
        let interval = c.monitor().config().interval;
        let of = |kind| FaultAction::Gray {
            kind,
            heal_after: None,
        };
        assert!(c.apply_fault(1, &of(GrayKind::Hang)));
        c.begin_job(&[0, 1]);
        rt.advance(interval * 5);
        let score = |at| c.monitor().score(1, c.hung_since(1), at);
        assert_eq!(score(rt.now()), 5, "five intervals of hang lag");
        c.begin_job(&[0, 1]);
        assert_eq!(
            score(rt.now()),
            5,
            "the lag tracks the node: a relaunch keeps it"
        );
        assert!(c.apply_fault(1, &of(GrayKind::Slow { factor: 2 })));
        rt.advance(interval * 20);
        assert_eq!(c.gray_kind(1), Some(GrayKind::Slow { factor: 2 }));
        assert_eq!(
            score(rt.now()),
            0,
            "the score is the slowness EWMA only (no sample yet): no stale hang lag"
        );
        assert_eq!(c.evaluate_suspicion(0), None, "nothing to declare");
        // the straggler's own probes feed the EWMA towards its factor
        for i in 1..=40 {
            assert!(c.failpoint(1, "p", i).is_ok());
        }
        assert_eq!(score(rt.now()), 1, "EWMA converging on factor 2 from below");
    }

    #[test]
    fn degraded_link_inflates_cost_and_is_declared() {
        let rt = skt_sim::SimRuntime::new(3);
        let c = Cluster::new_with_runtime(ClusterConfig::new(2, 0), rt.clone());
        c.arm_failure(gray(GrayKind::LinkDegrade { factor: 1000 }));
        c.begin_job(&[0, 1]);
        assert!(c.failpoint(0, "p", 1).is_ok());
        let healthy = c.net().p2p(1 << 20);
        let t0 = rt.now();
        c.charge_send_from(0, 1 << 20);
        let cost = rt.now() - t0;
        assert!(cost >= healthy * 900, "cost inflated ~1000×: {cost:?}");
        // a couple of bulk sends push the excess EWMA over the threshold
        c.charge_send_from(0, 1 << 20);
        assert!(matches!(
            c.check_gray(1),
            Err(Fault::Suspect { node: 0, .. })
        ));
    }

    #[test]
    fn fencing_quarantines_a_live_node_like_a_dead_one() {
        let c = Cluster::new(ClusterConfig::new(2, 0));
        c.shm(1)
            .get_or_create("seg", || SegmentData::F64(vec![9.0; 8]));
        let generation = c.fence_node(1);
        assert_eq!(generation, 1);
        assert_eq!(c.node_generation(1), 1);
        assert!(c.node_alive(1), "fenced, not dead");
        assert!(!c.node_usable(1));
        // a zombie write after the fence vanishes
        if let Some(seg) = c.shm(1).attach("seg") {
            seg.write().as_f64_mut()[0] = 42.0;
        }
        // repair treats the fenced node exactly like a dead one
        let mut rl = Ranklist::round_robin(2, 2);
        assert_eq!(rl.repair(&c), Err(1), "no spares to migrate onto");
    }

    #[test]
    fn take_spare_skips_fenced_nodes() {
        let c = Cluster::new(ClusterConfig::new(1, 2));
        c.fence_node(2);
        assert_eq!(c.take_spare(), Some(1));
        assert_eq!(c.take_spare(), None);
    }
}
