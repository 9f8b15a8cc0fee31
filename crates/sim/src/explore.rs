//! Interleaving exploration on top of [`SimRuntime`]: run the same
//! scenario under a range of seeds, each a different (but reproducible)
//! interleaving, and collect every outcome, so a test can assert the
//! invariants that must hold for *all* seeds. (Depth — a node lost at
//! every instant of one run — is [`SimRuntime::on_step`]'s job.)

use crate::sim::SimRuntime;
use std::ops::Range;
use std::sync::Arc;

/// Run `scenario` once per seed in `seeds`, each on a fresh
/// [`SimRuntime`], and collect `(seed, outcome)` pairs. Any failing seed
/// reproduces by rerunning that seed alone.
pub fn explore<T>(
    seeds: Range<u64>,
    mut scenario: impl FnMut(u64, Arc<SimRuntime>) -> T,
) -> Vec<(u64, T)> {
    seeds
        .map(|seed| {
            let rt = SimRuntime::new(seed);
            let out = scenario(seed, rt);
            (seed, out)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use std::sync::Mutex;

    /// A two-task scenario: each task yields at "work" three times;
    /// returns the interleaving trace.
    fn scenario(rt: Arc<SimRuntime>) -> Vec<usize> {
        let trace = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            rt.begin_world(&[0, 1]);
            for rank in 0..2usize {
                let rt = Arc::clone(&rt);
                let trace = &trace;
                scope.spawn(move || {
                    rt.task_enter(rank);
                    for _ in 0..3 {
                        trace.lock().unwrap().push(rank);
                        rt.yield_now("work");
                    }
                    rt.task_exit(rank);
                });
            }
            rt.drive();
        });
        trace.into_inner().unwrap()
    }

    #[test]
    fn explore_runs_every_seed_reproducibly() {
        let a = explore(0..8, |_, rt| scenario(rt));
        let b = explore(0..8, |_, rt| scenario(rt));
        assert_eq!(a.len(), 8);
        assert_eq!(a, b, "same seeds, same interleavings");
        assert!(
            a.iter().any(|(_, t)| t != &a[0].1),
            "8 seeds should produce more than one interleaving"
        );
    }
}
