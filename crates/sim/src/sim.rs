//! The deterministic simulation runtime.
//!
//! One OS thread still backs each rank, but only one runs at a time: a
//! task executes until its next yield point (probe, send, blocking
//! receive), hands the token back, and a seeded RNG picks the next
//! runnable task. The interleaving — and with it every race the protocol
//! could see — is therefore a pure function of the seed.
//!
//! ## Virtual time
//!
//! The clock advances by a fixed [`QUANTUM`] per scheduling step, plus
//! whatever modeled costs the stack charges through
//! [`Runtime::advance`] (network transfer per send, the daemon's modeled
//! detection latency). No duration anywhere in a simulated run comes
//! from the wall clock, which is what makes reports byte-identical
//! across runs.
//!
//! ## The per-step hook
//!
//! [`SimRuntime::on_step`] installs one callback that runs before every
//! pick, on the driving thread, with no task running and the scheduler
//! lock released. Between two picks every task sits at a yield point and
//! its next action is an abort check, so what the hook sees in shared
//! memory is the exact durable state a node loss at that instant leaves
//! behind. The hook may read any node's memory and may power a node off
//! through the cluster, the same door every other kill uses: that is how
//! a crash-state enumerator records every instant of one run, and how a
//! test kills a node live at a chosen step.

use crate::rng::SplitMix64;
use crate::runtime::Runtime;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Virtual time charged per scheduling step. Big enough that every
/// simulated duration is visibly nonzero, small enough that simulated
/// runs stay in the milliseconds.
pub const QUANTUM: Duration = Duration::from_micros(1);

thread_local! {
    /// The rank whose task the current thread is running, if any.
    static CURRENT_RANK: Cell<Option<usize>> = const { Cell::new(None) };
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskState {
    /// Thread not yet registered via `task_enter`.
    Spawned,
    /// Runnable, waiting for the token.
    Ready,
    /// Holds the token.
    Running,
    /// Blocked in a receive; needs `notify` to become runnable.
    Parked,
    /// Returned or unwound.
    Done,
}

struct Task {
    state: TaskState,
    /// Signalled when the scheduler hands this task the token.
    cv: Arc<Condvar>,
    node: usize,
    /// Label of the most recent yield — the deadlock report's best clue.
    last_yield: String,
}

struct Sched {
    rng: SplitMix64,
    tasks: Vec<Task>,
    steps: u64,
    /// The step the hook last ran before (it runs once per pick).
    hooked: u64,
    /// Set when the scheduler panics (deadlock): parked tasks must wake
    /// and bail out instead of waiting forever.
    poisoned: bool,
    /// Gray-fault stall policy: when every live task is parked, advance
    /// the clock by this step and wake them (bounded by
    /// [`STALL_WAKE_LIMIT`]) instead of panicking. `None` keeps the
    /// strict deadlock panic.
    stall_wake: Option<Duration>,
    /// Stall-wakes taken in the current world (reset by `begin_world`).
    stalls: u64,
}

/// The callback [`SimRuntime::on_step`] installs.
type StepHook = Box<dyn FnMut(u64) + Send>;

/// Upper bound on stall-wakes per world. A hung node's peers resolve the
/// stall via suspicion within a handful of heartbeat intervals; a genuine
/// deadlock that nothing can resolve hits this bound and still panics
/// with the task dump instead of spinning the virtual clock forever.
const STALL_WAKE_LIMIT: u64 = 100_000;

/// The deterministic cooperative scheduler. Construct with
/// [`SimRuntime::new`], hand to
/// `Cluster::new_with_runtime`, and run the world exactly as under real
/// threads — `run_on_cluster` routes spawning, receives, probes, and the
/// clock through here.
pub struct SimRuntime {
    sched: Mutex<Sched>,
    /// The per-step hook, outside the scheduler lock so it may take it.
    hook: Mutex<Option<StepHook>>,
    /// Signalled when a task gives the token back (or checks in, or
    /// exits): the driving thread is its only waiter.
    driver: Condvar,
    clock_ns: AtomicU64,
    seed: u64,
}

impl SimRuntime {
    /// A simulation scheduled by `seed`.
    pub fn new(seed: u64) -> Arc<Self> {
        Arc::new(SimRuntime {
            sched: Mutex::new(Sched {
                rng: SplitMix64::new(seed),
                tasks: Vec::new(),
                steps: 0,
                hooked: 0,
                poisoned: false,
                stall_wake: None,
                stalls: 0,
            }),
            hook: Mutex::new(None),
            driver: Condvar::new(),
            clock_ns: AtomicU64::new(0),
            seed,
        })
    }

    /// The seed this simulation runs under.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Scheduling steps taken so far.
    pub fn steps(&self) -> u64 {
        self.lock().steps
    }

    /// Run `hook(step)` before every pick from now on, replacing any
    /// previous hook; `step` is the 1-based number of the step about to
    /// be taken. It runs on the thread in [`Runtime::drive`], with no
    /// task running and the scheduler lock released, so it may read any
    /// node's shared memory and may kill a node (which wakes parked
    /// tasks through [`Runtime::notify`]). A hook that captures the
    /// cluster should hold it weakly: the cluster owns this runtime.
    pub fn on_step(&self, hook: impl FnMut(u64) + Send + 'static) {
        *self.hook.lock().expect("sim hook lock poisoned") = Some(Box::new(hook));
    }

    fn lock(&self) -> MutexGuard<'_, Sched> {
        self.sched.lock().expect("sim scheduler lock poisoned")
    }

    fn tick(&self) {
        self.clock_ns
            .fetch_add(QUANTUM.as_nanos() as u64, Ordering::SeqCst);
    }

    /// Block the calling task until the scheduler hands it the token.
    fn wait_for_token<'a>(
        &'a self,
        mut s: MutexGuard<'a, Sched>,
        rank: usize,
    ) -> MutexGuard<'a, Sched> {
        self.driver.notify_one();
        let cv = Arc::clone(&s.tasks[rank].cv);
        while s.tasks[rank].state != TaskState::Running {
            assert!(!s.poisoned, "sim scheduler poisoned (deadlock elsewhere)");
            s = cv.wait(s).expect("sim scheduler lock poisoned");
        }
        s
    }

    fn dump(s: &Sched) -> String {
        s.tasks
            .iter()
            .enumerate()
            .map(|(r, t)| {
                format!(
                    "  rank {r} (node {}): {:?}, last yield '{}'",
                    t.node, t.state, t.last_yield
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl Runtime for SimRuntime {
    fn is_sim(&self) -> bool {
        true
    }

    fn now(&self) -> Duration {
        Duration::from_nanos(self.clock_ns.load(Ordering::SeqCst))
    }

    fn advance(&self, d: Duration) {
        self.clock_ns.fetch_add(
            d.as_nanos().min(u128::from(u64::MAX)) as u64,
            Ordering::SeqCst,
        );
    }

    fn begin_world(&self, nodes: &[usize]) {
        let mut s = self.lock();
        assert!(
            s.tasks.iter().all(|t| t.state == TaskState::Done),
            "begin_world while a previous world still has live tasks"
        );
        s.tasks = nodes
            .iter()
            .map(|&node| Task {
                state: TaskState::Spawned,
                cv: Arc::new(Condvar::new()),
                node,
                last_yield: String::new(),
            })
            .collect();
        s.stalls = 0;
    }

    fn task_enter(&self, rank: usize) {
        CURRENT_RANK.with(|c| c.set(Some(rank)));
        let mut s = self.lock();
        assert_eq!(s.tasks[rank].state, TaskState::Spawned, "double task_enter");
        s.tasks[rank].state = TaskState::Ready;
        let _s = self.wait_for_token(s, rank);
    }

    fn task_exit(&self, rank: usize) {
        CURRENT_RANK.with(|c| c.set(None));
        let mut s = self.lock();
        s.tasks[rank].state = TaskState::Done;
        self.driver.notify_one();
    }

    fn drive(&self) {
        let mut s = self.lock();
        loop {
            if s.tasks.iter().all(|t| t.state == TaskState::Done) {
                return;
            }
            if s.tasks.iter().any(|t| t.state == TaskState::Running) {
                s = self.driver.wait(s).expect("sim scheduler lock poisoned");
                continue;
            }
            if s.tasks.iter().any(|t| t.state == TaskState::Spawned) {
                // don't pick until every thread has checked in: the set of
                // arrived tasks is timing-dependent, the full world is not
                s = self.driver.wait(s).expect("sim scheduler lock poisoned");
                continue;
            }
            let ready: Vec<usize> = s
                .tasks
                .iter()
                .enumerate()
                .filter(|(_, t)| t.state == TaskState::Ready)
                .map(|(r, _)| r)
                .collect();
            if ready.is_empty() {
                // Every live task is parked. Under a gray-fault stall
                // policy this is the hung-node case: let virtual time
                // pass and wake the waiters so they can poll suspicion.
                if let Some(step) = s.stall_wake {
                    if s.stalls < STALL_WAKE_LIMIT {
                        s.stalls += 1;
                        self.advance(step);
                        for t in &mut s.tasks {
                            if t.state == TaskState::Parked {
                                t.state = TaskState::Ready;
                            }
                        }
                        continue;
                    }
                }
                // nothing can wake them: a genuine deadlock
                s.poisoned = true;
                s.tasks.iter().for_each(|t| t.cv.notify_one());
                panic!(
                    "sim deadlock (seed {}): all tasks parked\n{}",
                    self.seed,
                    Self::dump(&s)
                );
            }
            if s.hooked == s.steps {
                // Before this pick: every task is at a yield point. The
                // hook may kill a node, which readies parked tasks, so
                // the ready set is taken again after it.
                s.hooked = s.steps + 1;
                let step = s.hooked;
                drop(s);
                if let Some(hook) = self.hook.lock().expect("sim hook lock poisoned").as_mut() {
                    hook(step);
                }
                s = self.lock();
                continue;
            }
            let pick = ready[s.rng.below(ready.len() as u64) as usize];
            s.tasks[pick].state = TaskState::Running;
            s.steps += 1;
            self.tick();
            s.tasks[pick].cv.notify_one();
        }
    }

    fn yield_now(&self, label: &str) {
        let Some(rank) = CURRENT_RANK.with(|c| c.get()) else {
            return;
        };
        let mut s = self.lock();
        s.tasks[rank].state = TaskState::Ready;
        s.tasks[rank].last_yield.clear();
        s.tasks[rank].last_yield.push_str(label);
        let _s = self.wait_for_token(s, rank);
    }

    fn park_blocked(&self) -> bool {
        let Some(rank) = CURRENT_RANK.with(|c| c.get()) else {
            return false;
        };
        let mut s = self.lock();
        s.tasks[rank].state = TaskState::Parked;
        s.tasks[rank].last_yield.clear();
        s.tasks[rank].last_yield.push_str("recv-park");
        let _s = self.wait_for_token(s, rank);
        true
    }

    fn set_stall_wake(&self, step: Option<Duration>) {
        self.lock().stall_wake = step;
    }

    fn notify(&self) {
        let mut s = self.lock();
        for t in &mut s.tasks {
            if t.state == TaskState::Parked {
                t.state = TaskState::Ready;
            }
        }
        self.driver.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive `n` tasks that yield `label` a few times each; returns the
    /// order in which (rank, yield-index) pairs were granted the token.
    fn run_world(seed: u64, n: usize, yields: usize) -> Vec<(usize, usize)> {
        let rt = SimRuntime::new(seed);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            rt.begin_world(&(0..n).collect::<Vec<_>>());
            for rank in 0..n {
                let rt = Arc::clone(&rt);
                let order = &order;
                scope.spawn(move || {
                    rt.task_enter(rank);
                    for i in 0..yields {
                        order.lock().unwrap().push((rank, i));
                        rt.yield_now("step");
                    }
                    rt.task_exit(rank);
                });
            }
            rt.drive();
        });
        order.into_inner().unwrap()
    }

    #[test]
    fn same_seed_same_interleaving() {
        assert_eq!(run_world(3, 4, 8), run_world(3, 4, 8));
    }

    #[test]
    fn different_seeds_interleave_differently() {
        let runs: Vec<_> = (0..16).map(|s| run_world(s, 4, 8)).collect();
        assert!(
            runs.windows(2).any(|w| w[0] != w[1]),
            "16 seeds, 4 tasks, 8 yields: some pair must differ"
        );
    }

    #[test]
    fn virtual_clock_advances_per_step_and_by_advance() {
        let rt = SimRuntime::new(0);
        assert_eq!(rt.now(), Duration::ZERO);
        rt.advance(Duration::from_millis(5));
        assert_eq!(rt.now(), Duration::from_millis(5));
        std::thread::scope(|scope| {
            rt.begin_world(&[0]);
            let r = Arc::clone(&rt);
            scope.spawn(move || {
                r.task_enter(0);
                r.yield_now("a");
                r.task_exit(0);
            });
            rt.drive();
        });
        // two grants (enter + one yield) -> two quanta on top
        assert_eq!(rt.now(), Duration::from_millis(5) + 2 * QUANTUM);
    }

    #[test]
    fn hook_runs_once_before_every_pick_with_no_task_running() {
        let rt = SimRuntime::new(9);
        let seen = Arc::new(Mutex::new(Vec::new()));
        {
            let (seen, weak) = (Arc::clone(&seen), Arc::downgrade(&rt));
            rt.on_step(move |step| {
                let rt = weak.upgrade().expect("runtime outlives its drive");
                let s = rt.lock(); // released by the scheduler: no deadlock
                assert!(s.tasks.iter().all(|t| t.state != TaskState::Running));
                seen.lock().unwrap().push((step, s.steps));
                drop(s);
                rt.notify(); // what a kill does: takes the lock again
            });
        }
        std::thread::scope(|scope| {
            rt.begin_world(&[0, 1]);
            for rank in 0..2 {
                let r = Arc::clone(&rt);
                scope.spawn(move || {
                    r.task_enter(rank);
                    for _ in 0..3 {
                        r.yield_now("step");
                    }
                    r.task_exit(rank);
                });
            }
            rt.drive();
        });
        let seen = seen.lock().unwrap().clone();
        assert_eq!(seen.len() as u64, rt.steps(), "one call per pick");
        for (i, (step, taken)) in seen.iter().enumerate() {
            assert_eq!(
                (*step, *taken),
                (i as u64 + 1, i as u64),
                "before step {step}"
            );
        }
    }

    #[test]
    fn parked_task_wakes_on_notify() {
        let rt = SimRuntime::new(5);
        let got = Mutex::new(None);
        std::thread::scope(|scope| {
            rt.begin_world(&[0, 1]);
            let r0 = Arc::clone(&rt);
            let got = &got;
            scope.spawn(move || {
                r0.task_enter(0);
                // park until rank 1 notifies
                assert!(r0.park_blocked());
                *got.lock().unwrap() = Some("woke");
                r0.task_exit(0);
            });
            let r1 = Arc::clone(&rt);
            scope.spawn(move || {
                r1.task_enter(1);
                r1.yield_now("spin");
                r1.notify();
                r1.task_exit(1);
            });
            rt.drive();
        });
        assert_eq!(got.into_inner().unwrap(), Some("woke"));
    }

    #[test]
    fn deadlock_panics_with_task_dump() {
        let err = std::panic::catch_unwind(|| {
            let rt = SimRuntime::new(0);
            std::thread::scope(|scope| {
                rt.begin_world(&[0]);
                let r = Arc::clone(&rt);
                scope.spawn(move || {
                    r.task_enter(0);
                    // park with nobody left to notify
                    let _ =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.park_blocked()));
                    r.task_exit(0);
                });
                rt.drive();
            });
        })
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "?".into());
        assert!(msg.contains("sim deadlock"), "{msg}");
    }

    #[test]
    fn stall_wake_advances_clock_instead_of_deadlocking() {
        let rt = SimRuntime::new(0);
        let step = Duration::from_micros(200);
        rt.set_stall_wake(Some(step));
        let woke = Mutex::new(0u32);
        std::thread::scope(|scope| {
            rt.begin_world(&[0]);
            let r = Arc::clone(&rt);
            let woke = &woke;
            scope.spawn(move || {
                r.task_enter(0);
                // park repeatedly with nobody to notify: each wake must
                // be a stall-wake that advanced the virtual clock
                for _ in 0..3 {
                    assert!(r.park_blocked());
                    *woke.lock().unwrap() += 1;
                }
                r.task_exit(0);
            });
            rt.drive();
        });
        assert_eq!(woke.into_inner().unwrap(), 3);
        assert!(
            rt.now() >= 3 * step,
            "stall-wakes advance time: {:?}",
            rt.now()
        );
    }
}
