//! The metric registry: every name this benchmark prints, with its
//! unit, direction, regression bound and — for a layer metric — which
//! end-to-end number it should move, on which workload. `BENCHMARK.json`
//! carries the names, units, directions and bounds; its schema has no
//! room for the rest, which lives here and in the README.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: Option<f64>,
    /// Same value on every run of the same code and seed; `--selfcheck`
    /// fails if two runs differ at all.
    pub exact: bool,
    /// What is measured.
    pub what: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, what: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        exact: false,
        what,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
        what,
        moves,
    }
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
        what,
        moves,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports all three.
///
/// The bounds are what the build host allows: a 2-vCPU shared VM whose
/// run-to-run spread (IQR / median over ten 20 s runs) is 5-12 % in calm
/// periods and worse when a neighbour bursts, so a tighter gate would
/// flap.
pub const END_TO_END: [MetricDef; 3] = [
    e2e(
        "op_ms_p50",
        "ms",
        0.25,
        "median wall time of the workload's primary operation, timed around the public call: \
         make() on cycle_* (rank 0, entry barrier included), recover() with m ranks lost on \
         fail_recover_rs2, run_skt via run_on_cluster on hpl_skt, CheckpointService::run on \
         service_mix; over the operations during which the hypervisor stole at most 1 % of the \
         VM's CPU time (all of them when fewer than 10 such exist)",
    ),
    e2e(
        "setup_s",
        "s",
        0.25,
        "cluster build, SHM allocation, fill/generate and the warm-up operation, up to the first \
         timed operation; median of the run's set-ups (at least three)",
    ),
    e2e(
        "peak_rss_mib",
        "MiB",
        0.25,
        "VmHWM of the run: the memory the protected job really occupies",
    ),
];

/// One number per layer boundary, from the traced pass.
pub const PER_LAYER: [MetricDef; 66] = [
    // ---- host: the denominator of every `_of_memcpy` ----
    layer("host.memcpy_GBps", "GB/s", Higher, "copy_from_slice over 64 MiB buffers (16x the L2s), one thread: the ceiling", "denominator of every _of_memcpy ratio"),
    exact("host.nproc", "count", Higher, "available_parallelism", "context for every timing: 4 rank threads share this many CPUs"),
    exact("host.kernel_threads", "count", Higher, "KernelConfig::global().threads", "context: each rank may fan its kernels out this wide"),
    layer("host.steal_frac", "ratio", Lower, "CPU time the hypervisor took from the VM during the traced pass / (wall time x nproc)", "explains a slow run: every timing inflates with it"),
    // ---- encoding ----
    layer("encoding.copy_GBps", "GB/s", Higher, "kernels::copy, 64 MiB", "op_ms_p50 on cycle_xor (flush share)"),
    layer("encoding.xor_GBps", "GB/s", Higher, "kernels::xor_accumulate, 64 MiB", "op_ms_p50 on cycle_xor; none on cycle_rs2 beyond the reduce"),
    layer("encoding.gf_mac_GBps", "GB/s", Higher, "kernels::gf_mac, 64 MiB", "op_ms_p50 on cycle_rs2 and fail_recover_rs2; none on cycle_xor"),
    layer("encoding.crc32c_GBps", "GB/s", Higher, "crc32c_f64, 64 MiB", "op_ms_p50 on cycle_xor (flush share) and fail_recover_rs2 (verify)"),
    layer("encoding.bits_roundtrip_GBps", "GB/s", Higher, "bits_of + floats_of, 64 MiB: the payload conversion every reduce pays twice", "op_ms_p50 on cycle_* via the engine"),
    layer("encoding.codec_encode_GBps", "GB/s", Higher, "the contrib + xor_accumulate walk encode_parity makes for the whole group, workload codec and stripe length, one caller, no comm; group data bytes per second", "op_ms_p50 on cycle_rs2 first, cycle_xor second"),
    layer("encoding.codec_encode_of_kernel", "ratio", Higher, "codec_encode_GBps / xor_GBps (XOR) or gf_mac_GBps (RS): what the codec layer keeps of what the kernel below delivers", "the ROADMAP codec-gap item: must rise on cycle_rs2"),
    layer("encoding.dual_encode_GBps", "GB/s", Higher, "DualParity::encode_with at the workload stripe length: the bar Rs{2} must reach before dualparity.rs is deleted", "none; reference"),
    layer("encoding.codec_solve_GBps", "GB/s", Higher, "ErasureCodec::solve with e = m erasures; rebuilt bytes per second", "op_ms_p50 on fail_recover_rs2"),
    // ---- mps ----
    layer("mps.reduce_GBps", "GB/s", Higher, "stripe-sized U64 Comm::reduce(Xor), rotating root, 4 ranks; payload bytes per rank per second", "op_ms_p50 on cycle_*"),
    layer("mps.allreduce_GBps", "GB/s", Higher, "stripe-sized U64 Comm::allreduce(Xor)", "op_ms_p50 on fail_recover_rs2 (syndromes)"),
    layer("mps.barrier_us", "us", Lower, "Comm::barrier, 4 ranks", "core.make_other_ms"),
    layer("mps.launch_ms", "ms", Lower, "run_on_cluster of a no-op 4-rank job", "op_ms_p50 on service_mix (one launch per slice)"),
    exact("mps.collectives_per_make", "count", Lower, "Event::Collective count inside one rank-0 make span", "op_ms_p50 on cycle_*"),
    exact("mps.collective_bytes_per_make", "B", Lower, "payload bytes rank 0 contributed inside one make span", "op_ms_p50 on cycle_*"),
    layer("mps.collective_ms_per_make", "ms", Lower, "time rank 0 spent inside collectives per make (waiting for peers included)", "read with core.make_other_ms: ranks contend for 2 CPUs"),
    // ---- cluster ----
    layer("cluster.emit_idle_ns", "ns", Lower, "EventBus::emit with nobody subscribed: the one-relaxed-load claim", "bench.trace_overhead_frac"),
    layer("cluster.emit_observed_ns", "ns", Lower, "EventBus::emit into one Recorder", "bench.trace_overhead_frac"),
    // ---- core ----
    layer("core.encode_parity_GBps", "GB/s", Higher, "engine::encode_parity called directly, 4 ranks; group data bytes per second", "op_ms_p50 on cycle_rs2 first, cycle_xor second"),
    layer("core.encode_of_codec", "ratio", Higher, "encode_parity_GBps / encoding.codec_encode_GBps: what the engine + reduce keep of the codec below", "the ROADMAP layer-gap ratio for the engine"),
    layer("core.reconstruct_GBps", "GB/s", Higher, "engine::reconstruct_multi with m ranks lost; rebuilt bytes per second", "op_ms_p50 on fail_recover_rs2"),
    layer("core.scrub_ms", "ms", Lower, "Checkpointer::scrub on a clean group: the read-side CRC pass", "op_ms_p50 on fail_recover_rs2 (verify_sources shares it)"),
    layer("core.recover_case2_ms", "ms", Lower, "recover() after victims died at Phase::FlushB: roll-forward from (work, D), asserted WorkspaceAndChecksum", "none end-to-end today; the CASE 2 twin of fail_recover_rs2"),
    layer("core.make_encode_ms", "ms", Lower, "median CkptStats::encode", "op_ms_p50 on cycle_*"),
    layer("core.make_flush_ms", "ms", Lower, "median CkptStats::flush", "op_ms_p50 on cycle_xor (largest share there)"),
    layer("core.make_other_ms", "ms", Lower, "median of make - encode - flush: entry barrier, serialize, commits", "op_ms_p50 on cycle_*"),
    layer("core.make_GBps", "GB/s", Higher, "all ranks' workspace bytes / summed make wall time: mean-based, what a long run pays", "op_ms_p50 on cycle_*"),
    layer("core.flush_of_memcpy", "ratio", Higher, "(checkpoint + checksum bytes per rank / median flush) / host.memcpy_GBps", "op_ms_p50 on cycle_xor"),
    layer("core.make_of_memcpy", "ratio", Higher, "(checkpoint bytes per rank / median make) / host.memcpy_GBps", "op_ms_p50 on cycle_*"),
    layer("core.phase_a2_ms", "ms", Lower, "median ckpt-a2 phase span (serialize)", "core.make_other_ms"),
    layer("core.phase_encode_ms", "ms", Lower, "median ckpt-encode phase span", "op_ms_p50 on cycle_rs2"),
    layer("core.phase_flush_b_ms", "ms", Lower, "median ckpt-flush-b phase span", "op_ms_p50 on cycle_xor"),
    layer("core.phase_flush_c_ms", "ms", Lower, "median ckpt-flush-c phase span", "op_ms_p50 on cycle_xor"),
    exact("core.bytes_moved_per_make", "B", Lower, "Event::BytesMoved bytes inside the flush phases per rank-make", "op_ms_p50 on cycle_*: a fused CRC/copy must lower it"),
    layer("core.bytes_moved_per_protected_byte", "ratio", Lower, "bytes_moved_per_make / workspace bytes per rank", "op_ms_p50 on cycle_*"),
    layer("core.make_ms_p95", "ms", Lower, "p95 of make wall time (0 with fewer than 200 samples)", "tail diagnostic, not gated"),
    layer("core.recover_ms_p75", "ms", Lower, "p75 of recover wall time (0 with fewer than 40 samples)", "tail diagnostic, not gated"),
    exact("core.shm_bytes", "B", Lower, "Checkpointer::shm_bytes of one rank", "peak_rss_mib"),
    exact("core.avail_mem_frac", "ratio", Higher, "workspace bytes / Checkpointer::shm_bytes: the paper's headline (less space)", "peak_rss_mib"),
    // ---- hpl ----
    layer("hpl.compute_s", "s", Lower, "median HplOutput::compute_seconds of run_skt", "op_ms_p50 on hpl_skt"),
    layer("hpl.ckpt_s", "s", Lower, "median HplOutput::ckpt_seconds (3 checkpoints)", "op_ms_p50 on hpl_skt"),
    layer("hpl.encode_s", "s", Lower, "median HplOutput::encode_seconds", "hpl.ckpt_s"),
    layer("hpl.ckpt_share", "ratio", Lower, "ckpt_s / (compute_s + ckpt_s): the share a checkpoint-stack gain can reach on hpl_skt", "bounds every codec/engine gain on hpl_skt"),
    layer("hpl.gflops_compute", "GFLOPS", Higher, "median gflops_compute of run_skt", "op_ms_p50 on hpl_skt"),
    layer("hpl.gflops_plain", "GFLOPS", Higher, "median gflops_effective of run_plain at the same N", "hpl.efficiency"),
    layer("hpl.other_s", "s", Lower, "run_skt wall - compute - ckpt: SHM allocation, generate, recover probe, verify", "op_ms_p50 on hpl_skt"),
    layer("hpl.nockpt_ratio", "ratio", Higher, "gflops_effective(run_skt, ckpt_every = 0) / gflops_effective(run_plain): Fig. 11, the SHM-workspace cost without the checkpoint cost", "hpl.efficiency"),
    layer("hpl.efficiency", "ratio", Higher, "median over pairs of gflops_effective(run_skt) / gflops_effective(run_plain) at the same N: the cycle's cost in the paper's unit", "op_ms_p50 on hpl_skt"),
    // ---- linalg ----
    layer("linalg.dgemm_gflops", "GFLOPS", Higher, "blas3::dgemm at the trailing-update shape 1024 x 1024 x 32, one thread", "op_ms_p50 on hpl_skt (slightly service_mix); none on cycle_*, fail_recover_rs2"),
    layer("linalg.dgetrf_gflops", "GFLOPS", Higher, "lu::dgetrf at the panel shape 2304 x 32", "op_ms_p50 on hpl_skt"),
    // ---- ftsim ----
    exact("ftsim.slices", "count", Lower, "slices run by all tenants in one service run", "op_ms_p50 on service_mix"),
    exact("ftsim.launches", "count", Lower, "job launches in one service run", "op_ms_p50 on service_mix"),
    exact("ftsim.failures", "count", Lower, "failed attempts in one service run (1: the injected kill)", "op_ms_p50 on service_mix"),
    exact("ftsim.resizes", "count", Lower, "resize audits in one service run (2: shrink + grow)", "op_ms_p50 on service_mix"),
    layer("ftsim.slice_ms", "ms", Lower, "median makespan / slices", "op_ms_p50 on service_mix"),
    layer("ftsim.recover_cycle_ms", "ms", Lower, "median sum of the healed tenant's failure-cycle PhaseTimes", "op_ms_p50 on service_mix"),
    layer("ftsim.sched_overhead_frac", "ratio", Lower, "1 - (the three tenants' solo whole-job compute + checkpoint seconds) / makespan: slices, boundary checkpoints, launches, healing, resizes", "op_ms_p50 on service_mix only"),
    layer("ftsim.tenants_per_s", "1/s", Higher, "3 tenants / median makespan", "op_ms_p50 on service_mix"),
    layer("ftsim.makespan_ms_p95", "ms", Lower, "p95 of CheckpointService::run wall time (0 with fewer than 200 samples)", "tail diagnostic, not gated"),
    // ---- bench ----
    layer("bench.trace_overhead_frac", "ratio", Lower, "(traced p50 - untraced p50) / untraced p50 of the workload's primary operation", "should stay near 0: the number the trace-spine issue must hold"),
    // ---- sim ----
    exact("sim.steps", "count", Lower, "scheduler steps of one service_mix run under SimRuntime::new(seed)", "nothing end-to-end today; the parked event-driven runtime must move it"),
    layer("sim.step_us", "us", Lower, "wall time per SimRuntime step", "nothing end-to-end today"),
];

/// Heading of the metric table every mode prints.
pub fn table_header() -> String {
    format!(
        "{:<36} {:>16} {:<7} {:<7} {:>6} {:>8}",
        "metric", "value", "unit", "better", "bound", "samples"
    )
}

impl MetricDef {
    /// One row of the metric table.
    pub fn table_row(&self, value: f64, samples: &str) -> String {
        format!(
            "{:<36} {:>16.6} {:<7} {:<7} {:>6} {:>8}",
            self.name,
            value,
            self.unit,
            self.better.as_str(),
            self.bound.map_or("-".into(), |b| b.to_string()),
            samples
        )
    }
}

/// The definition of `name`, end-to-end or per-layer.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(m.name), "{} defined twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in &END_TO_END {
            let b = m.bound.expect("every end-to-end metric is gated");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        assert!(def("setup_s").is_some_and(|m| m.unit == "s" && m.better == Better::Lower));
    }
}
