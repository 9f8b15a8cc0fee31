//! The [`Runtime`] abstraction: where rank tasks get scheduled and where
//! time comes from.
//!
//! The rank world spawns one OS thread per rank. Under the default
//! [`RealRuntime`] those threads run genuinely in parallel and time is
//! the wall clock — today's behavior, untouched. Under
//! [`SimRuntime`](crate::SimRuntime) the same threads become cooperative
//! *tasks*: only one runs at a time, a seeded RNG picks which, and time
//! is a virtual clock advanced by the scheduler — so a whole
//! checkpoint/fail/recover cycle is a pure function of `(config, seed)`.
//!
//! Every hook has a no-op (or wall-clock) default so `RealRuntime` is the
//! trivial implementation and real-path overhead stays at one virtual
//! call per hook.

use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scheduling and time source for one cluster's rank world.
///
/// Implementations must be shareable across rank threads; all state is
/// behind `&self`. The contract for the task-side hooks
/// ([`Self::task_enter`] / [`Self::yield_now`] / [`Self::park_blocked`] /
/// [`Self::task_exit`]) is that they are called on the rank's own thread,
/// between [`Self::begin_world`] and the end of [`Self::drive`] on the
/// launching thread.
pub trait Runtime: Send + Sync {
    /// True for the deterministic simulation runtime.
    fn is_sim(&self) -> bool {
        false
    }

    /// Monotonic time since the runtime was created. Wall clock for the
    /// real runtime, the virtual clock under simulation.
    fn now(&self) -> Duration;

    /// Charge modeled time (network transfer, detection latency) to the
    /// clock. No-op in real time — modeled costs there are reported, not
    /// waited out — which keeps today's behavior.
    fn advance(&self, _d: Duration) {}

    /// Announce a world launch: `nodes[rank]` is the node hosting `rank`.
    /// Must be called on the launching thread before any task starts.
    fn begin_world(&self, _nodes: &[usize]) {}

    /// Register the calling thread as `rank`'s task. Under simulation
    /// this blocks until the scheduler grants the first time slice.
    fn task_enter(&self, _rank: usize) {}

    /// The task is done (normal return, fault, or unwinding panic).
    fn task_exit(&self, _rank: usize) {}

    /// Run the scheduler loop until every task of the current world is
    /// done. No-op in real time (the OS is the scheduler); under
    /// simulation the launching thread lends itself out here.
    fn drive(&self) {}

    /// Yield point, labeled (a probe label like `"ckpt-flush-b"`, or
    /// `"send"`) for the deadlock report. Under simulation the task gives
    /// up its slice and blocks until rescheduled; the caller's next
    /// action must be an abort check, so a node killed while the task
    /// was descheduled is noticed before anything else happens.
    fn yield_now(&self, _label: &str) {}

    /// A blocking receive found no message. Under simulation the task
    /// parks until [`Self::notify`] and this returns `true`; the real
    /// runtime returns `false`, and the caller, having polled its mailbox
    /// (yielding the core) for a short budget first, sleeps in a timed
    /// `recv_timeout` before it re-checks for aborts.
    fn park_blocked(&self) -> bool {
        false
    }

    /// Wake every parked task (a message was delivered, or the job
    /// aborted). Cheap no-op in real time.
    fn notify(&self) {}

    /// Configure the stall policy for gray faults: when every live task
    /// is parked and `Some(step)` is set, the simulation scheduler
    /// advances the virtual clock by `step` and wakes the parked tasks —
    /// modeling the passage of time a hung node imposes on its waiting
    /// peers — instead of declaring deadlock. `None` (the default)
    /// restores the strict deadlock panic. No-op in real time, where the
    /// OS clock never stalls.
    fn set_stall_wake(&self, _step: Option<Duration>) {}
}

/// Real threads, real time: the production runtime. Rank threads run
/// preemptively in parallel and every hook is a no-op.
pub struct RealRuntime {
    origin: Instant,
}

impl RealRuntime {
    /// A real-time runtime; `now()` counts from this call.
    pub fn new() -> Arc<Self> {
        Arc::new(RealRuntime {
            origin: Instant::now(),
        })
    }
}

impl Runtime for RealRuntime {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// A started clock bound to a [`Runtime`] — the `Instant::now()` of the
/// runtime world. Layers that report durations (phase spans, recovery,
/// HPL compute time) use this so their reports are wall-clock under the
/// real runtime and bit-for-bit reproducible under simulation.
#[derive(Clone)]
pub struct Stopwatch {
    rt: Arc<dyn Runtime>,
    t0: Duration,
}

impl Stopwatch {
    /// Start a stopwatch on `rt`'s clock.
    pub fn start(rt: &Arc<dyn Runtime>) -> Self {
        Stopwatch {
            rt: Arc::clone(rt),
            t0: rt.now(),
        }
    }

    /// Time elapsed since [`Self::start`].
    pub fn elapsed(&self) -> Duration {
        self.rt.now().saturating_sub(self.t0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_runtime_tracks_wall_time() {
        let rt = RealRuntime::new();
        let a = rt.now();
        std::thread::sleep(Duration::from_millis(2));
        assert!(rt.now() > a);
        assert!(!rt.is_sim());
    }

    #[test]
    fn real_hooks_are_inert() {
        let rt = RealRuntime::new();
        rt.begin_world(&[0, 1]);
        rt.task_enter(0);
        rt.yield_now("x");
        assert!(!rt.park_blocked());
        rt.notify();
        rt.set_stall_wake(Some(Duration::from_micros(100)));
        rt.advance(Duration::from_secs(5));
        rt.task_exit(0);
        rt.drive();
    }

    #[test]
    fn stopwatch_measures_on_the_runtime_clock() {
        let rt: Arc<dyn Runtime> = RealRuntime::new();
        let sw = Stopwatch::start(&rt);
        std::thread::sleep(Duration::from_millis(2));
        assert!(sw.elapsed() >= Duration::from_millis(2));
    }
}
