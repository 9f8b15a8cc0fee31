//! Heartbeat-based gray-failure suspicion.
//!
//! Fail-stop detection (PRs 4–8) is trivial on this cluster: a dead node
//! sets the job-abort flag. Gray failures don't — a straggler, a hang, or
//! a degraded link stalls collectives while every liveness bit still
//! reads "up". This module is the detector: a per-node heartbeat/progress
//! monitor on the [`Runtime`](skt_sim::Runtime) clock producing a
//! phi-accrual-style *suspicion score* per node, in the spirit of the
//! FTHP-MPI heartbeat layer (PAPERS.md) but deterministic, so seeded runs
//! reach bit-identical verdicts.
//!
//! ## The score
//!
//! Two signals feed a node's score, both in whole heartbeat intervals:
//!
//! * **Liveness lag** — time since the node's heartbeat daemon last
//!   beat. Healthy (and merely slow) nodes beat on schedule, so their lag
//!   is ~0; a hung node's daemon freezes with it, so its lag grows
//!   without bound. This is the classic phi-accrual signal.
//! * **Step slowness** — an EWMA of the node's *excess* per-step time
//!   (self-reported progress beacons: the extra virtual time a straggler
//!   charges per probe, or the extra transfer time a degraded link
//!   charges per send). Healthy peers waiting on a straggler report zero
//!   excess, so the score stays attributed to the culprit — waiting on a
//!   gray node never makes an innocent node suspect.
//!
//! `score = max(lag, slowness)`, and a node is *declared* suspect when
//! its score exceeds [`HeartbeatConfig::threshold`]. Declaration is
//! first-writer-wins and sticky until the next launch: every rank of the
//! job then returns the same typed [`Fault::Suspect`](crate::Fault)
//! verdict, which bounds how long a collective can stall on a gray peer.
//!
//! The EWMA uses α = 1/4 in integer nanoseconds, so detection points are
//! exact integer arithmetic — invariant across scheduler seeds for
//! probe-anchored gray plans.

use crate::cluster::NodeId;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::time::Duration;

/// Heartbeat emission/evaluation parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Nominal heartbeat interval on the runtime clock. Also the unit
    /// the suspicion score is measured in.
    pub interval: Duration,
    /// Score (whole intervals) above which a node is declared suspect.
    /// The detection timeout is therefore bounded:
    /// ~`(threshold + 1) × interval` for a hang.
    pub threshold: u32,
}

impl Default for HeartbeatConfig {
    /// 200 µs interval, threshold 8: a hang is declared within ~2 ms of
    /// virtual time; slowdown factors ≤ 8 are tolerated.
    fn default() -> Self {
        HeartbeatConfig {
            interval: Duration::from_micros(200),
            threshold: 8,
        }
    }
}

/// A declared suspicion verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Suspicion {
    /// The suspect node.
    pub node: NodeId,
    /// Its score (whole intervals) at declaration time.
    pub score: u32,
}

/// What a management probe of a node reports (the service's
/// observe → probe step before deciding migration vs exoneration).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeVerdict {
    /// The node answers promptly and reports healthy.
    Responsive,
    /// The node answers but self-reports degradation (straggler or bad
    /// link); the label names the [`GrayKind`](crate::GrayKind).
    Degraded(&'static str),
    /// The node does not answer (hung or dead).
    Unresponsive,
}

/// The per-cluster suspicion monitor. All methods are cheap and
/// lock-scoped; the cluster only consults it when suspicion is armed.
///
/// It owns the *slowness* signal only. Whether (and since when) a node is
/// hung is the cluster's gray-fault state — a fact with one owner — and
/// the monitor is told it at scoring time.
pub struct SuspicionMonitor {
    cfg: Mutex<HeartbeatConfig>,
    /// Per-node EWMA of excess per-step time, nanoseconds.
    ewma_ns: Mutex<BTreeMap<NodeId, u64>>,
}

impl Default for SuspicionMonitor {
    fn default() -> Self {
        Self::new(HeartbeatConfig::default())
    }
}

impl SuspicionMonitor {
    /// A monitor with the given parameters.
    pub fn new(cfg: HeartbeatConfig) -> Self {
        SuspicionMonitor {
            cfg: Mutex::new(cfg),
            ewma_ns: Mutex::new(BTreeMap::new()),
        }
    }

    /// Current parameters.
    pub fn config(&self) -> HeartbeatConfig {
        *self.cfg.lock()
    }

    /// Replace the parameters (takes effect on the next evaluation).
    pub fn set_config(&self, cfg: HeartbeatConfig) {
        assert!(
            cfg.interval > Duration::ZERO,
            "heartbeat interval must be positive"
        );
        assert!(cfg.threshold >= 1, "suspicion threshold must be at least 1");
        *self.cfg.lock() = cfg;
    }

    /// Start a fresh observation window for `nodes` (a job launch):
    /// their slowness EWMAs reset to zero. A hang is untouched — it
    /// tracks the node, not the job, and lives in the cluster's
    /// gray-fault bookkeeping.
    pub fn reset(&self, nodes: &[NodeId]) {
        let mut ewma = self.ewma_ns.lock();
        for &n in nodes {
            ewma.insert(n, 0);
        }
    }

    /// Record one progress beacon of `node` carrying `excess` extra
    /// virtual time over the nominal step cost (zero for a healthy
    /// step). Folds into the slowness EWMA with α = 1/4.
    pub fn sample(&self, node: NodeId, excess: Duration) {
        let excess_ns = excess.as_nanos().min(u128::from(u64::MAX)) as u64;
        let mut ewma = self.ewma_ns.lock();
        let e = ewma.entry(node).or_default();
        *e = *e - *e / 4 + excess_ns / 4;
    }

    /// The node's suspicion score at `now`, in whole heartbeat
    /// intervals: `max(liveness lag, step slowness)`. `hung_since` is
    /// when the node's heartbeat daemon froze, if it is hung right now.
    pub fn score(&self, node: NodeId, hung_since: Option<Duration>, now: Duration) -> u32 {
        let interval_ns = self.config().interval.as_nanos().max(1) as u64;
        let lag = hung_since.map_or(0, |t| {
            let lag_ns = now.saturating_sub(t).as_nanos().min(u128::from(u64::MAX)) as u64;
            lag_ns / interval_ns
        });
        let slowness = self.ewma_ns.lock().get(&node).copied().unwrap_or(0) / interval_ns;
        lag.max(slowness).min(u64::from(u32::MAX)) as u32
    }

    /// The worst over-threshold node among `nodes` (each with its
    /// hang-start, see [`Self::score`]) at `now`, lowest id winning ties
    /// — the deterministic declaration candidate. `None` when every node
    /// scores at or below the threshold.
    pub fn worst(
        &self,
        nodes: impl IntoIterator<Item = (NodeId, Option<Duration>)>,
        now: Duration,
    ) -> Option<Suspicion> {
        let threshold = self.config().threshold;
        let mut verdict: Option<Suspicion> = None;
        for (n, hung_since) in nodes {
            let score = self.score(n, hung_since, now);
            if score > threshold && verdict.is_none_or(|v| score > v.score) {
                verdict = Some(Suspicion { node: n, score });
            }
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const I: Duration = Duration::from_micros(200);

    fn monitor() -> SuspicionMonitor {
        SuspicionMonitor::new(HeartbeatConfig {
            interval: I,
            threshold: 8,
        })
    }

    #[test]
    fn healthy_nodes_score_zero() {
        let m = monitor();
        m.reset(&[0, 1]);
        for _ in 0..10 {
            m.sample(0, Duration::ZERO);
            m.sample(1, Duration::ZERO);
        }
        assert_eq!(m.score(0, None, Duration::from_millis(50)), 0);
        assert_eq!(
            m.worst([(0, None), (1, None)], Duration::from_millis(50)),
            None
        );
    }

    #[test]
    fn hang_lag_grows_with_time() {
        let m = monitor();
        m.reset(&[0]);
        let since = Some(Duration::from_millis(1));
        assert_eq!(m.score(0, since, Duration::from_millis(1)), 0);
        // 9 intervals after the freeze the score crosses threshold 8
        assert_eq!(m.score(0, since, Duration::from_millis(1) + 9 * I), 9);
        let v = m
            .worst([(0, since)], Duration::from_millis(1) + 9 * I)
            .unwrap();
        assert_eq!(v, Suspicion { node: 0, score: 9 });
        assert_eq!(m.score(0, None, Duration::from_secs(1)), 0, "healed");
    }

    #[test]
    fn slowness_ewma_crosses_threshold_after_two_heavy_samples() {
        let m = monitor();
        m.reset(&[3]);
        // factor-32 straggler: each probe charges 32 intervals of excess
        m.sample(3, 32 * I);
        assert_eq!(
            m.score(3, None, Duration::ZERO),
            8,
            "one sample: at threshold"
        );
        assert_eq!(
            m.worst([(3, None)], Duration::ZERO),
            None,
            "not over it yet"
        );
        m.sample(3, 32 * I);
        assert!(m.score(3, None, Duration::ZERO) > 8, "two samples: over");
    }

    #[test]
    fn mild_slowness_is_tolerated_and_decays() {
        let m = monitor();
        m.reset(&[2]);
        for _ in 0..50 {
            m.sample(2, 4 * I); // factor-4 straggler, threshold 8
        }
        assert!(m.score(2, None, Duration::ZERO) <= 4);
        for _ in 0..20 {
            m.sample(2, Duration::ZERO); // healed: normal steps decay it
        }
        assert_eq!(m.score(2, None, Duration::ZERO), 0);
    }

    #[test]
    fn worst_prefers_higher_score_then_lower_id() {
        let m = monitor();
        m.reset(&[0, 1, 2]);
        let at = 20 * I;
        let frozen = Some(Duration::ZERO);
        // equal scores: lowest id wins
        let tied = [(0, None), (1, frozen), (2, frozen)];
        assert_eq!(m.worst(tied, at).unwrap().node, 1);
        // node 2 froze earlier, so it scores higher and wins
        let later = [(0, None), (1, Some(10 * I)), (2, frozen)];
        assert_eq!(m.worst(later, at).unwrap().node, 2);
    }

    #[test]
    fn reset_clears_slowness_and_a_hang_is_the_callers_to_keep() {
        let m = monitor();
        m.reset(&[0]);
        m.sample(0, 100 * I);
        m.reset(&[0]);
        assert_eq!(m.score(0, None, 20 * I), 0, "slowness does not survive");
        assert_eq!(
            m.score(0, Some(Duration::ZERO), 20 * I),
            20,
            "lag survives a relaunch: it is scored from the hang-start told"
        );
    }
}
