//! α-β network cost model.
//!
//! Local runs measure real wall time, but the paper's large-scale numbers
//! (Figure 13 encoding times on Tianhe-1A/2, Figure 10 cycle phases) depend
//! on interconnect characteristics we cannot reproduce on one machine. The
//! standard α-β model — a message of `n` bytes costs `α + n·β` — plus a
//! per-node port-sharing factor captures exactly the effect the paper
//! highlights: Tianhe-2 encodes *slower* than Tianhe-1A despite a faster
//! link because 24 processes share one port instead of 12 (§6.6).

use std::time::Duration;

/// Per-link α-β model with port sharing.
#[derive(Clone, Copy, Debug)]
pub struct NetModel {
    /// Message latency, seconds.
    pub alpha: f64,
    /// Point-to-point link bandwidth, bytes/second (per node port).
    pub bandwidth: f64,
    /// Processes sharing one network port on a node.
    pub procs_per_port: usize,
}

impl NetModel {
    /// Build a model; `bandwidth` is the node's P2P bandwidth as in the
    /// paper's Table 2. Every transfer-time formula divides by
    /// `bandwidth / procs_per_port`, so a parameter that would silently
    /// turn every modeled duration into `inf`/NaN panics here, once.
    pub fn new(alpha: f64, bandwidth: f64, procs_per_port: usize) -> Self {
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "net model: alpha must be finite and >= 0"
        );
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "net model: bandwidth must be finite and > 0"
        );
        assert!(
            procs_per_port >= 1,
            "net model: procs_per_port must be >= 1"
        );
        NetModel {
            alpha,
            bandwidth,
            procs_per_port,
        }
    }

    /// Effective per-process bandwidth once every process on the node is
    /// driving the port at the same time (the encoding phase does exactly
    /// that).
    pub fn per_process_bandwidth(&self) -> f64 {
        self.bandwidth / self.procs_per_port as f64
    }

    /// Time for one point-to-point message of `bytes`.
    pub fn p2p(&self, bytes: usize) -> Duration {
        Duration::from_secs_f64(self.alpha + bytes as f64 / self.per_process_bandwidth())
    }

    /// Modeled time for a `reduce` of `bytes` per process over a group of
    /// `n` processes using a binomial tree: `ceil(log2 n)` rounds, each
    /// moving the full payload.
    pub fn reduce_tree(&self, bytes: usize, n: usize) -> Duration {
        if n <= 1 {
            return Duration::ZERO;
        }
        let rounds = (n as f64).log2().ceil();
        Duration::from_secs_f64(rounds * (self.alpha + bytes as f64 / self.per_process_bandwidth()))
    }

    /// Modeled time for the paper's stripe-based group encoding: every
    /// process reduces one stripe of `stripe_bytes` from the `n-1` others
    /// (a reduce-scatter). With all stripes proceeding concurrently and
    /// each process both sending and receiving its share, the bytes on the
    /// busiest port are `(n-1) · stripe_bytes`, paid at per-process
    /// bandwidth, plus `n-1` message latencies.
    pub fn stripe_encode(&self, stripe_bytes: usize, n: usize) -> Duration {
        if n <= 1 {
            return Duration::ZERO;
        }
        let bytes = (n - 1) as f64 * stripe_bytes as f64;
        Duration::from_secs_f64((n - 1) as f64 * self.alpha + bytes / self.per_process_bandwidth())
    }

    /// Modeled time for naive root-gather encoding (everyone sends their
    /// whole buffer of `data_bytes` to one root): the root's port receives
    /// `(n-1) · data_bytes` — the single-node contention the stripe scheme
    /// avoids (§2.1).
    pub fn root_gather_encode(&self, data_bytes: usize, n: usize) -> Duration {
        if n <= 1 {
            return Duration::ZERO;
        }
        let bytes = (n - 1) as f64 * data_bytes as f64;
        Duration::from_secs_f64(self.alpha + bytes / self.per_process_bandwidth())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> NetModel {
        // ~7 GB/s port, 12 procs/port, 2 µs latency (Tianhe-1A-ish)
        NetModel::new(2e-6, 6.9e9, 12)
    }

    #[test]
    fn p2p_time_scales_with_bytes() {
        let m = model();
        let t1 = m.p2p(1 << 20).as_secs_f64();
        let t2 = m.p2p(1 << 21).as_secs_f64();
        assert!(t2 > t1 * 1.9 && t2 < t1 * 2.1);
    }

    #[test]
    fn port_sharing_slows_per_process_rate() {
        let fast = NetModel::new(1e-6, 7.1e9, 12);
        let slow = NetModel::new(1e-6, 7.1e9, 24);
        assert!(slow.p2p(1 << 24) > fast.p2p(1 << 24));
    }

    #[test]
    fn tianhe2_encodes_slower_despite_faster_link() {
        // The §6.6 observation: faster link, more sharing, slower encode.
        let th1a = NetModel::new(2e-6, 6.9e9, 12);
        let th2 = NetModel::new(2e-6, 7.1e9, 24);
        let stripe = 64 << 20;
        assert!(th2.stripe_encode(stripe, 16) > th1a.stripe_encode(stripe, 16));
    }

    #[test]
    fn stripe_beats_root_gather_for_equal_totals() {
        // total data M per process, group n: stripe = M/(n-1) per slot.
        let m = model();
        let n = 8;
        let data = 512 << 20;
        let stripe = data / (n - 1);
        assert!(
            m.stripe_encode(stripe, n) < m.root_gather_encode(data, n),
            "distributed parity must beat root-gather"
        );
    }

    #[test]
    fn encode_time_grows_slowly_with_group_size() {
        // Figure 13: per-process data fixed, larger groups encode only
        // slightly slower (stripes shrink as 1/(n-1) while rounds grow).
        let m = model();
        let data: usize = 1 << 30;
        let t4 = m.stripe_encode(data / 3, 4).as_secs_f64();
        let t16 = m.stripe_encode(data / 15, 16).as_secs_f64();
        let ratio = t16 / t4;
        assert!(
            ratio < 2.0,
            "group 16 should not be 2x slower than group 4 (ratio {ratio})"
        );
    }

    #[test]
    fn trivial_groups_cost_nothing() {
        let m = model();
        assert_eq!(m.reduce_tree(1024, 1), Duration::ZERO);
        assert_eq!(m.stripe_encode(1024, 1), Duration::ZERO);
        assert_eq!(m.root_gather_encode(1024, 0), Duration::ZERO);
    }

    #[test]
    fn new_accepts_a_zero_latency() {
        let m = NetModel::new(0.0, 1e9, 2);
        assert!(m.p2p(1 << 20).as_secs_f64().is_finite());
    }

    #[test]
    #[should_panic(expected = "alpha must be finite and >= 0")]
    fn new_rejects_a_negative_latency() {
        NetModel::new(-1e-6, 1e9, 1);
    }

    #[test]
    #[should_panic(expected = "alpha must be finite and >= 0")]
    fn new_rejects_a_nan_latency() {
        NetModel::new(f64::NAN, 1e9, 1);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be finite and > 0")]
    fn new_rejects_a_zero_bandwidth() {
        NetModel::new(1e-6, 0.0, 1);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be finite and > 0")]
    fn new_rejects_a_negative_bandwidth() {
        NetModel::new(1e-6, -5.0, 1);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be finite and > 0")]
    fn new_rejects_an_infinite_bandwidth() {
        NetModel::new(1e-6, f64::INFINITY, 1);
    }

    #[test]
    #[should_panic(expected = "procs_per_port must be >= 1")]
    fn new_rejects_an_empty_port() {
        NetModel::new(1e-6, 1e9, 0);
    }
}
