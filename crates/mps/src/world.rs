//! World launch: spawn one thread per rank on a virtual cluster and run a
//! rank function to completion or whole-job abort.

use crate::comm::{Comm, Envelope};
use skt_cluster::{Cluster, ClusterConfig, Fault, NodeId, Ranklist, Runtime};
use skt_encoding::kernels::RankThread;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a real-time blocking receive sleeps in `recv_timeout` between
/// its abort, fence, hang and suspicion checks, once its [`SPIN`] budget
/// is spent. Short enough that a job abort propagates promptly, long
/// enough not to burn CPU.
pub(crate) const POLL: Duration = Duration::from_micros(500);

/// How long a real-time blocking receive polls its empty mailbox —
/// `try_recv`, then `yield_now` — before it sleeps in the timed wait.
/// A sleeping receiver pays a futex wake-up per message; a polling one
/// sees the message within a yield. Measured on a 2-vCPU x86-64 host
/// (`run_local`, 4,000 rounds, budget 0 = sleep at once): one-way hop
/// 4.4 → 1.1 µs; barrier 17–20 → 4.5 µs at n = 3 and 27 → 9–11 µs at
/// n = 4, with budgets of 20, 50 and 200 µs alike. The yield is what
/// keeps polling safe with more ranks than cores: without it the n = 4
/// barrier took 63 µs at a 20 µs budget and 132 µs at 50 µs. 50 µs is
/// a tenth of [`POLL`], so the loop's checks keep their cadence.
pub(crate) const SPIN: Duration = Duration::from_micros(50);

/// Per-rank execution context. One per rank thread; not shared.
pub struct Ctx {
    world_rank: usize,
    nranks: usize,
    node: NodeId,
    /// The node's fencing generation captured at launch. If the cluster's
    /// generation for this node moves past it mid-job, this rank is a
    /// zombie: every send and probe returns [`Fault::Fenced`].
    generation: u64,
    cluster: Arc<Cluster>,
    ranklist: Ranklist,
    rx: Receiver<Envelope>,
    /// One sender per rank, shared by all of them (`mpsc::Sender` is
    /// `Sync` since Rust 1.72).
    txs: Arc<Vec<Sender<Envelope>>>,
    pub(crate) pending: RefCell<Vec<Envelope>>,
    fail_counts: RefCell<HashMap<String, u64>>,
    pub(crate) next_comm_salt: Cell<u64>,
    pub(crate) coll_seqs: RefCell<HashMap<u64, u64>>,
}

impl Ctx {
    /// This rank's world rank.
    pub fn world_rank(&self) -> usize {
        self.world_rank
    }

    /// Total ranks in the world.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The node hosting this rank.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The cluster this job runs on.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The rank placement of this job.
    pub fn ranklist(&self) -> &Ranklist {
        &self.ranklist
    }

    /// This node's shared-memory store (survives job abort).
    pub fn shm(&self) -> &skt_cluster::ShmStore {
        self.cluster.shm(self.node)
    }

    /// Ranks sharing this rank's node (for device/port contention).
    pub fn node_sharers(&self) -> usize {
        self.ranklist.sharers_of(self.world_rank)
    }

    /// The world communicator.
    pub fn world(&self) -> Comm<'_> {
        Comm::world(self)
    }

    /// A [`Stopwatch`](skt_cluster::Stopwatch) on the cluster's clock —
    /// what rank code uses instead of `Instant::now()` so measured
    /// durations are reproducible under simulation.
    pub fn stopwatch(&self) -> skt_cluster::Stopwatch {
        self.cluster.stopwatch()
    }

    /// Named failure probe: increments this rank's counter for `label`
    /// and consults the cluster's armed plans. Returns `Err` if this node
    /// just died or the job is aborted. Doubles as a simulation yield
    /// point, so every probe is also a schedulable instant — one a node
    /// may be lost at — and, when a hang plan fired here, the point where
    /// the node's ranks stop making progress.
    pub fn failpoint(&self, label: &str) -> Result<(), Fault> {
        self.cluster.runtime().yield_now(label);
        self.check_fence()?;
        let count = {
            let mut counts = self.fail_counts.borrow_mut();
            let c = counts.entry(label.to_string()).or_insert(0);
            *c += 1;
            *c
        };
        match self.cluster.failpoint(self.node, label, count) {
            // The cluster sees only its abort flag; re-attribute the
            // abort to the dead peer so a survivor's probe reports the
            // same culprit as a survivor's blocked receive would.
            Err(Fault::JobAborted) => match self.check_abort() {
                Ok(()) => Err(Fault::JobAborted),
                Err(e) => Err(e),
            },
            Ok(()) => self.hold_if_hung(),
            other => other,
        }
    }

    /// Reject a zombie: `Err(Fault::Fenced)` once this rank's node has
    /// been fenced (or re-generationed) out from under the running job.
    pub fn check_fence(&self) -> Result<(), Fault> {
        let current = self.cluster.node_generation(self.node);
        if current != self.generation || self.cluster.node_fenced(self.node) {
            return Err(Fault::Fenced {
                node: self.node,
                generation: current,
            });
        }
        Ok(())
    }

    /// While this rank's node is hard-hung, hold here: the rank makes no
    /// progress and sends no heartbeats, but still exits promptly on a
    /// job abort, a suspicion verdict against anyone, a fence, or a heal.
    fn hold_if_hung(&self) -> Result<(), Fault> {
        while self.cluster.node_hung(self.node) {
            self.check_abort()?;
            self.check_fence()?;
            if !self.cluster.runtime().park_blocked() {
                // real time: the hang is wall-clock; sleep a poll tick
                std::thread::sleep(POLL);
            }
        }
        Ok(())
    }

    /// Abort check without a probe (used inside blocking loops).
    ///
    /// Faults are attributed, not just raised: a rank whose own node died
    /// gets `NodeDead(its node)`; a survivor unblocked by the job abort
    /// gets `NodeDead(the failed peer)` when a node failure caused the
    /// abort, and `JobAborted` only for node-less aborts (e.g. a rank
    /// panic). A collective parked on a dead peer therefore returns
    /// promptly with the culprit named instead of a generic abort —
    /// what the recovery daemon keys its detection-and-replace loop on.
    pub fn check_abort(&self) -> Result<(), Fault> {
        if !self.cluster.node_alive(self.node) {
            return Err(Fault::NodeDead(self.node));
        }
        // A suspicion abort names the suspect on every rank, the same way
        // a node-death abort names the dead peer below.
        if let Some(v) = self.cluster.suspected() {
            return Err(Fault::Suspect {
                node: v.node,
                score: v.score,
            });
        }
        if self.cluster.check_abort().is_err() {
            // The culprit is a dead node *currently hosting a rank*:
            // nodes lost in earlier launches stay dead on the cluster but
            // were already replaced out of this job's ranklist.
            let culprit = self
                .cluster
                .dead_nodes()
                .into_iter()
                .find(|&n| (0..self.nranks).any(|r| self.ranklist.node_of(r) == n));
            return Err(match culprit {
                Some(n) => Fault::NodeDead(n),
                None => Fault::JobAborted,
            });
        }
        Ok(())
    }

    pub(crate) fn raw_send(&self, dst_world: usize, env: Envelope) -> Result<(), Fault> {
        self.cluster.runtime().yield_now("send");
        self.hold_if_hung()?;
        self.check_abort()?;
        // A fenced zombie's messages are rejected at the source: they
        // must never reach a live rank's mailbox.
        self.check_fence()?;
        let bytes = env.payload.size_bytes();
        // Sending to a dead node's mailbox is allowed (the message is
        // simply never consumed) — like a NIC buffering for a dead peer.
        // The abort flag unblocks the sender's future operations.
        self.txs[dst_world]
            .send(env)
            .map_err(|_| Fault::JobAborted)?;
        // Under simulation: charge the modeled transfer to the virtual
        // clock (inflated when this node's link is degraded, feeding the
        // sender's suspicion score) and wake any peer parked in a receive.
        self.cluster.charge_send_from(self.node, bytes);
        self.cluster.runtime().notify();
        Ok(())
    }

    /// Receive the next envelope matching `pred`, buffering mismatches.
    pub(crate) fn recv_match(
        &self,
        mut pred: impl FnMut(&Envelope) -> bool,
    ) -> Result<Envelope, Fault> {
        // Check the out-of-order buffer first.
        {
            let mut pending = self.pending.borrow_mut();
            if let Some(pos) = pending.iter().position(&mut pred) {
                return Ok(pending.remove(pos));
            }
        }
        // In real time, an empty mailbox is polled until this deadline
        // before the receive sleeps; under simulation it is never polled.
        let spin_until = (!self.cluster.runtime().is_sim()).then(|| Instant::now() + SPIN);
        loop {
            self.hold_if_hung()?;
            self.check_abort()?;
            // A blocked receiver is the watchdog for gray peers: evaluate
            // suspicion here so a collective parked on a hung or straggling
            // node returns `Fault::Suspect` instead of waiting forever.
            self.cluster.check_gray(self.node)?;
            // Drain everything already delivered; while the real-time
            // poll budget lasts, keep polling, yielding the core between
            // polls so the sender (maybe on the same core) can run.
            loop {
                match self.rx.try_recv() {
                    Ok(env) => {
                        if pred(&env) {
                            return Ok(env);
                        }
                        self.pending.borrow_mut().push(env);
                    }
                    Err(TryRecvError::Empty) if spin_until.is_some_and(|t| Instant::now() < t) => {
                        std::thread::yield_now()
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return Err(Fault::JobAborted),
                }
            }
            // Nothing matched. Under simulation, park until a send or an
            // abort wakes us (a timed poll would be a hidden wall-clock
            // dependency); in real time, the poll budget is spent, so
            // sleep in the timed wait.
            if self.cluster.runtime().park_blocked() {
                continue;
            }
            if self.cluster.runtime().is_sim() {
                // A sim-world thread that is not a registered task
                // (service plumbing driving a rank body directly):
                // waiting out the poll on the wall clock would leave the
                // virtual clock frozen, making "timeouts" depend on host
                // speed. Charge the poll to the virtual clock instead and
                // re-check.
                self.cluster.runtime().advance(POLL);
                continue;
            }
            match self.rx.recv_timeout(POLL) {
                Ok(env) => {
                    if pred(&env) {
                        return Ok(env);
                    }
                    self.pending.borrow_mut().push(env);
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return Err(Fault::JobAborted),
            }
        }
    }
}

/// Launch `ranklist.len()` ranks on `cluster` and run `f` in each. Returns
/// the per-rank results in rank order, or the first fault if any rank
/// failed (MPI semantics: one failure fails the job).
///
/// Rank threads are real OS threads, so rank bodies run genuinely in
/// parallel (the HPL update is compute-bound in each rank).
pub fn run_on_cluster<T, F>(
    cluster: Arc<Cluster>,
    ranklist: &Ranklist,
    f: F,
) -> Result<Vec<T>, Fault>
where
    T: Send,
    F: Fn(&Ctx) -> Result<T, Fault> + Send + Sync,
{
    let n = ranklist.len();
    for r in 0..n {
        assert!(
            cluster.node_alive(ranklist.node_of(r)),
            "rank {r} placed on dead node {}; repair the ranklist first",
            ranklist.node_of(r)
        );
        assert!(
            !cluster.node_fenced(ranklist.node_of(r)),
            "rank {r} placed on fenced node {}; repair the ranklist first",
            ranklist.node_of(r)
        );
    }
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| channel::<Envelope>()).unzip();
    let txs = Arc::new(txs);
    let mut results: Vec<Option<Result<T, Fault>>> = (0..n).map(|_| None).collect();
    let nodes: Vec<NodeId> = (0..n).map(|r| ranklist.node_of(r)).collect();
    // fresh suspicion window for this launch (no-op when unarmed)
    cluster.begin_job(&nodes);
    let rt = Arc::clone(cluster.runtime());
    rt.begin_world(&nodes);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (rank, rx) in rxs.into_iter().enumerate() {
            let ctx = Ctx {
                world_rank: rank,
                nranks: n,
                node: ranklist.node_of(rank),
                generation: cluster.node_generation(ranklist.node_of(rank)),
                cluster: Arc::clone(&cluster),
                ranklist: ranklist.clone(),
                rx,
                txs: Arc::clone(&txs),
                pending: RefCell::new(Vec::new()),
                fail_counts: RefCell::new(HashMap::new()),
                next_comm_salt: Cell::new(1),
                coll_seqs: RefCell::new(HashMap::new()),
            };
            let fref = &f;
            let cl = Arc::clone(&cluster);
            let trt = Arc::clone(&rt);
            handles.push(scope.spawn(move || {
                // Register with the runtime; the guard deregisters even on
                // an unwinding panic so the sim scheduler never waits on a
                // dead thread.
                trt.task_enter(rank);
                let _task = TaskGuard { rt: &trt, rank };
                // This thread now shares the kernel worker budget with
                // the process's other live rank threads.
                let _share = RankThread::enter();
                // A panicking rank must not leave its peers blocked in
                // recv forever: flag the job aborted, then unwind.
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fref(&ctx)));
                match out {
                    Ok(res) => res,
                    Err(p) => {
                        cl.job_abort_for_panic();
                        std::panic::resume_unwind(p);
                    }
                }
            }));
        }
        // Lend the launching thread to the scheduler until every rank task
        // is done (no-op under the real runtime).
        rt.drive();
        let mut first_panic = None;
        for (rank, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(res) => results[rank] = Some(res),
                Err(p) => {
                    if first_panic.is_none() {
                        first_panic = Some(p);
                    }
                }
            }
        }
        if let Some(p) = first_panic {
            std::panic::resume_unwind(p);
        }
    });

    let mut out = Vec::with_capacity(n);
    let mut fault = None;
    for r in results {
        match r.expect("every rank joined") {
            Ok(v) => out.push(v),
            Err(e) => fault = Some(fault.unwrap_or(e)),
        }
    }
    match fault {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Deregisters a rank task from the runtime on scope exit, unwinding or
/// not.
struct TaskGuard<'a> {
    rt: &'a Arc<dyn Runtime>,
    rank: usize,
}

impl Drop for TaskGuard<'_> {
    fn drop(&mut self) {
        self.rt.task_exit(self.rank);
    }
}

/// Convenience: run `n` ranks on a throwaway cluster with one node per
/// rank (pure message-passing tests and examples that do not care about
/// placement).
pub fn run_local<T, F>(n: usize, f: F) -> Result<Vec<T>, Fault>
where
    T: Send,
    F: Fn(&Ctx) -> Result<T, Fault> + Send + Sync,
{
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(n, 0)));
    let ranklist = Ranklist::round_robin(n, n);
    run_on_cluster(cluster, &ranklist, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;
    use skt_cluster::FailurePlan;

    #[test]
    fn ranks_see_their_ids_and_nodes() {
        let out = run_local(4, |ctx| Ok((ctx.world_rank(), ctx.node(), ctx.nranks()))).unwrap();
        assert_eq!(out, vec![(0, 0, 4), (1, 1, 4), (2, 2, 4), (3, 3, 4)]);
    }

    #[test]
    fn ping_pong_between_two_ranks() {
        let out = run_local(2, |ctx| {
            let w = ctx.world();
            if ctx.world_rank() == 0 {
                w.send(1, 7, Payload::F64(vec![3.5]))?;
                Ok(w.recv(1, 8)?.into_f64()[0])
            } else {
                let v = w.recv(0, 7)?.into_f64()[0];
                w.send(0, 8, Payload::F64(vec![v * 2.0]))?;
                Ok(v)
            }
        })
        .unwrap();
        assert_eq!(out, vec![7.0, 3.5]);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let out = run_local(2, |ctx| {
            let w = ctx.world();
            if ctx.world_rank() == 0 {
                w.send(1, 1, Payload::I64(vec![10]))?;
                w.send(1, 2, Payload::I64(vec![20]))?;
                Ok(0)
            } else {
                // receive in reverse tag order
                let b = w.recv(0, 2)?.into_i64()[0];
                let a = w.recv(0, 1)?.into_i64()[0];
                Ok(b * 100 + a)
            }
        })
        .unwrap();
        assert_eq!(out[1], 2010);
    }

    #[test]
    fn message_sent_after_the_poll_budget_is_received() {
        let out = run_local(2, |ctx| {
            let w = ctx.world();
            if ctx.world_rank() == 0 {
                let t = Instant::now();
                w.send(1, 1, Payload::Empty)?;
                let v = w.recv(1, 3)?.into_i64()[0];
                // the peer slept 5 ms after our announcement: this
                // receive outlived its poll and slept in the timed wait
                assert!(t.elapsed() >= Duration::from_millis(5));
                Ok(v)
            } else {
                w.recv(0, 1)?;
                std::thread::sleep(Duration::from_millis(5));
                w.send(0, 3, Payload::I64(vec![42]))?;
                Ok(0)
            }
        })
        .unwrap();
        assert_eq!(out[0], 42);
    }

    #[test]
    fn out_of_order_tags_arriving_during_the_poll_are_matched() {
        let out = run_local(2, |ctx| {
            let w = ctx.world();
            w.barrier()?;
            if ctx.world_rank() == 0 {
                // blocked on tag 2 while tags 3 and 1 land first
                let b = w.recv(1, 2)?.into_i64()[0];
                let a = w.recv(1, 1)?.into_i64()[0];
                let c = w.recv(1, 3)?.into_i64()[0];
                Ok(b * 100 + a * 10 + c)
            } else {
                for tag in [3, 1, 2] {
                    w.send(0, tag, Payload::I64(vec![tag as i64]))?;
                }
                Ok(0)
            }
        })
        .unwrap();
        assert_eq!(out[0], 213);
    }

    /// A rank blocked on a peer whose node is killed returns that peer's
    /// `NodeDead` within a few [`POLL`] ticks of the kill, whether the
    /// kill lands while it polls or while it sleeps in the timed wait.
    /// The median of five trials is bounded, so one host scheduling
    /// hiccup (several ms on a loaded 2-vCPU host) cannot fail it.
    #[test]
    fn blocked_receive_names_a_peer_killed_mid_wait() {
        use std::sync::Mutex;
        for delay in [Duration::ZERO, Duration::from_millis(12)] {
            let mut lags: Vec<Duration> = (0..5)
                .map(|_| {
                    let killed_at = Mutex::new(None);
                    let returned_at = Mutex::new(None);
                    let res: Result<Vec<()>, Fault> = run_local(2, |ctx| {
                        if ctx.world_rank() == 0 {
                            let r = ctx.world().recv(1, 0);
                            *returned_at.lock().unwrap() = Some(Instant::now());
                            r.map(|_| ())
                        } else {
                            std::thread::sleep(delay);
                            *killed_at.lock().unwrap() = Some(Instant::now());
                            ctx.cluster().kill_node(ctx.node());
                            Err(Fault::NodeDead(ctx.node()))
                        }
                    });
                    assert!(
                        matches!(res, Err(Fault::NodeDead(1))),
                        "survivor must name the killed peer, got {res:?}"
                    );
                    let returned = returned_at.into_inner().unwrap().unwrap();
                    returned.saturating_duration_since(killed_at.into_inner().unwrap().unwrap())
                })
                .collect();
            lags.sort();
            assert!(
                lags[2] < 4 * POLL,
                "kill after {delay:?}: survivor lags {lags:?}"
            );
        }
    }

    #[test]
    fn failpoint_aborts_whole_job() {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 0)));
        cluster.arm_failure(FailurePlan::new("step", 3, 2));
        let ranklist = Ranklist::round_robin(4, 4);
        let res: Result<Vec<()>, Fault> = run_on_cluster(cluster.clone(), &ranklist, |ctx| {
            loop {
                ctx.failpoint("step")?;
                // ranks also talk so non-dying ranks block in recv
                let w = ctx.world();
                let peer = ctx.world_rank() ^ 1;
                w.send(peer, 0, Payload::Empty)?;
                w.recv(peer, 0)?;
            }
        });
        assert!(res.is_err());
        assert_eq!(cluster.dead_nodes(), vec![2]);
        assert!(cluster.shm(2).is_empty());
    }

    #[test]
    fn results_are_rank_ordered() {
        let out = run_local(8, |ctx| Ok(ctx.world_rank() * 10)).unwrap();
        assert_eq!(out, (0..8).map(|r| r * 10).collect::<Vec<_>>());
    }

    #[test]
    fn shm_persists_across_runs_on_same_cluster() {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(2, 0)));
        let ranklist = Ranklist::round_robin(2, 2);
        run_on_cluster(cluster.clone(), &ranklist, |ctx| {
            ctx.shm().get_or_create("state", || {
                skt_cluster::SegmentData::F64(vec![ctx.world_rank() as f64])
            });
            Ok(())
        })
        .unwrap();
        let out = run_on_cluster(cluster, &ranklist, |ctx| {
            let seg = ctx.shm().attach("state").expect("persisted");
            let v = seg.read().as_f64()[0];
            Ok(v)
        })
        .unwrap();
        assert_eq!(out, vec![0.0, 1.0]);
    }

    #[test]
    fn hung_node_is_declared_suspect_not_deadlocked() {
        use skt_cluster::{FaultPlan, GrayKind, SimRuntime};
        let cluster = Arc::new(Cluster::new_with_runtime(
            ClusterConfig::new(2, 0),
            SimRuntime::new(11),
        ));
        cluster.arm_failure(FaultPlan::gray("step", 2, 1, GrayKind::Hang));
        let ranklist = Ranklist::round_robin(2, 2);
        let res: Result<Vec<()>, Fault> = run_on_cluster(cluster.clone(), &ranklist, |ctx| loop {
            ctx.failpoint("step")?;
            let w = ctx.world();
            let peer = ctx.world_rank() ^ 1;
            w.send(peer, 0, Payload::Empty)?;
            w.recv(peer, 0)?;
        });
        assert!(
            matches!(res, Err(Fault::Suspect { node: 1, .. })),
            "peer must declare the hung node, got {res:?}"
        );
        assert!(cluster.node_alive(1), "suspect, not dead");
        assert!(cluster.node_hung(1), "still actually hung");
    }

    #[test]
    fn hang_that_heals_fast_completes_without_suspicion() {
        use skt_cluster::{FaultPlan, GrayKind, SimRuntime};
        let cluster = Arc::new(Cluster::new_with_runtime(
            ClusterConfig::new(2, 0),
            SimRuntime::new(5),
        ));
        // heals after 3 heartbeat intervals — under the default threshold
        // of 8 no peer can accumulate enough lag to declare
        cluster.arm_failure(
            FaultPlan::gray("step", 2, 1, GrayKind::Hang).heal_after(Duration::from_micros(600)),
        );
        let ranklist = Ranklist::round_robin(2, 2);
        let res = run_on_cluster(cluster.clone(), &ranklist, |ctx| {
            for i in 0..5 {
                ctx.failpoint("step")?;
                let w = ctx.world();
                let peer = ctx.world_rank() ^ 1;
                w.send(peer, 0, Payload::I64(vec![i]))?;
                w.recv(peer, 0)?;
            }
            Ok(ctx.world_rank())
        });
        assert_eq!(res.unwrap(), vec![0, 1], "healed before declaration");
        assert_eq!(cluster.suspected(), None);
        assert!(!cluster.node_hung(1));
    }

    #[test]
    fn fenced_mid_job_rank_gets_zombie_fault() {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(2, 0)));
        let ranklist = Ranklist::round_robin(2, 2);
        let res: Result<Vec<()>, Fault> = run_on_cluster(cluster.clone(), &ranklist, |ctx| {
            let w = ctx.world();
            if ctx.world_rank() == 0 {
                // fence the peer's node out from under it (what the
                // service does when it gives up on a suspect)
                ctx.cluster().fence_node(1);
                w.send(1, 0, Payload::Empty)?;
                Ok(())
            } else {
                w.recv(0, 0)?;
                // the zombie's own send must be rejected at the source
                w.send(0, 1, Payload::Empty)
            }
        });
        assert!(
            matches!(
                res,
                Err(Fault::Fenced {
                    node: 1,
                    generation: 1
                })
            ),
            "zombie send must be fenced, got {res:?}"
        );
    }

    #[test]
    #[should_panic(expected = "fenced node")]
    fn launching_on_fenced_node_is_rejected() {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(2, 0)));
        cluster.fence_node(1);
        let ranklist = Ranklist::round_robin(2, 2);
        let _ = run_on_cluster(cluster, &ranklist, |_| Ok(()));
    }

    #[test]
    #[should_panic(expected = "dead node")]
    fn launching_on_dead_node_is_rejected() {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(2, 0)));
        cluster.kill_node(1);
        cluster.reset_abort();
        let ranklist = Ranklist::round_robin(2, 2);
        let _ = run_on_cluster(cluster, &ranklist, |_| Ok(()));
    }
}
