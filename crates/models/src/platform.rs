//! Platform constants (paper Table 2) for the two Tianhe systems and the
//! local testbed cluster, used by the modeled-time experiments (Figures
//! 10 and 13).

/// Node-level description of a platform.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Platform {
    /// Platform name.
    pub name: &'static str,
    /// Processor cores (= HPL processes) per node.
    pub cores_per_node: usize,
    /// Theoretical peak, GFLOPS per node.
    pub peak_gflops_per_node: f64,
    /// Memory per node, GiB.
    pub mem_gib_per_node: f64,
    /// Point-to-point network bandwidth per node port, GB/s.
    pub p2p_gbps: f64,
    /// Processes sharing one network port (paper §6.6: 12 on Tianhe-1A,
    /// 24 on Tianhe-2 — why Tianhe-2 encodes slower).
    pub procs_per_port: usize,
    /// Measured failure-detection latency of the job manager, seconds
    /// (§6.3: ~30 s on Tianhe-1A, ~63 s on Tianhe-2).
    pub detect_seconds: f64,
}

impl Platform {
    /// Memory per process, bytes.
    pub fn mem_per_process(&self) -> usize {
        (self.mem_gib_per_node * (1u64 << 30) as f64 / self.cores_per_node as f64) as usize
    }

    /// α-β network model with this platform's port sharing.
    pub fn net_model(&self) -> skt_cluster_free::NetModelParams {
        skt_cluster_free::NetModelParams {
            alpha: 2.0e-6,
            bandwidth: self.p2p_gbps * 1.0e9,
            procs_per_port: self.procs_per_port,
        }
    }
}

/// Plain-data network parameters, so this crate stays dependency-free;
/// `skt-cluster::NetModel::new` accepts these fields directly.
pub mod skt_cluster_free {
    /// α-β parameters plus port sharing.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct NetModelParams {
        /// Message latency, seconds.
        pub alpha: f64,
        /// Port bandwidth, bytes/second.
        pub bandwidth: f64,
        /// Processes sharing one port.
        pub procs_per_port: usize,
    }
}

/// Tianhe-1A node (Table 2): dual Xeon X5670, 140 GFLOPS, 48 GB, 6.9 GB/s.
pub const TIANHE_1A: Platform = Platform {
    name: "Tianhe-1A",
    cores_per_node: 12,
    peak_gflops_per_node: 140.0,
    mem_gib_per_node: 48.0,
    p2p_gbps: 6.9,
    procs_per_port: 12,
    detect_seconds: 30.0,
};

/// Tianhe-2 node (Table 2): dual Xeon E5-2692v2, 422 GFLOPS, 64 GB, 7.1 GB/s.
pub const TIANHE_2: Platform = Platform {
    name: "Tianhe-2",
    cores_per_node: 24,
    peak_gflops_per_node: 422.0,
    mem_gib_per_node: 64.0,
    p2p_gbps: 7.1,
    procs_per_port: 24,
    detect_seconds: 63.0,
};

/// The paper's local cluster (§6.1): 2× Xeon E5-2670 v3 (24 cores), 64 GB,
/// EDR InfiniBand (~12.5 GB/s).
pub const LOCAL_CLUSTER: Platform = Platform {
    name: "local-cluster",
    cores_per_node: 24,
    peak_gflops_per_node: 883.2, // 24 cores x 2.3 GHz x 16 flop/cycle
    mem_gib_per_node: 64.0,
    p2p_gbps: 12.5,
    procs_per_port: 24,
    detect_seconds: 5.0,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_memory_per_core_matches_paper() {
        // §6.1: "4GB/core vs. 2.4GB/core" — Tianhe-1A has more memory per
        // core than Tianhe-2.
        let t1a = TIANHE_1A.mem_per_process() as f64 / (1u64 << 30) as f64;
        let t2 = TIANHE_2.mem_per_process() as f64 / (1u64 << 30) as f64;
        assert!((t1a - 4.0).abs() < 0.01, "Tianhe-1A {t1a} GB/core");
        assert!((t2 - 2.67).abs() < 0.1, "Tianhe-2 {t2} GB/core");
        assert!(t1a > t2);
    }

    #[test]
    fn tianhe2_has_more_port_sharing() {
        assert_eq!(TIANHE_1A.procs_per_port, 12);
        assert_eq!(TIANHE_2.procs_per_port, 24);
        // effective per-process bandwidth is *lower* on Tianhe-2
        let bw1 = TIANHE_1A.p2p_gbps / TIANHE_1A.procs_per_port as f64;
        let bw2 = TIANHE_2.p2p_gbps / TIANHE_2.procs_per_port as f64;
        assert!(bw1 > bw2, "the §6.6 observation");
    }

    #[test]
    fn detection_latency_matches_section_6_3() {
        assert_eq!(TIANHE_2.detect_seconds, 63.0);
        assert_eq!(TIANHE_1A.detect_seconds, 30.0);
    }
}
