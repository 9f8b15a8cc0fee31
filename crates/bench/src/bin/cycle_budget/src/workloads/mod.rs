//! The five workloads. Names are fixed: later issues cite them.
//!
//! Every workload is a closed loop of one client: the next operation
//! starts when the previous one returned. A *session* is one set-up
//! (cluster build, SHM allocation, fill, warm-up operation) followed by
//! timed operations until the budget is spent; a session without a
//! budget stops after the warm-up, which is how a run takes several
//! set-up samples.

pub mod cycle;
pub mod fail_recover;
pub mod hpl_skt;
pub mod service_mix;

use crate::host::Timed;
use crate::trace::Tracer;
use skt_cluster::{Cluster, Observer, ShmSegment};
use skt_core::CkptStats;
use skt_encoding::CodecSpec;
use skt_ftsim::ServiceReport;
use std::sync::Arc;
use std::time::Duration;

/// Ranks per world: the smallest group that admits `m = 2` with
/// non-degenerate stripes, on the `RealRuntime` path users run.
pub const RANKS: usize = 4;

/// Workspace per rank on the byte-moving workloads: 8 MiB, so the four
/// ranks' 32 MiB is 8x the two 2 MiB private L2s of the build host (its
/// 260 MiB L3 is host-shared and cannot be exceeded).
pub const A1_LEN: usize = 1 << 20;

/// A workload, by its fixed name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HplSkt,
    CycleXor,
    CycleRs2,
    FailRecoverRs2,
    ServiceMix,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::HplSkt,
        Workload::CycleXor,
        Workload::CycleRs2,
        Workload::FailRecoverRs2,
        Workload::ServiceMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HplSkt => "hpl_skt",
            Workload::CycleXor => "cycle_xor",
            Workload::CycleRs2 => "cycle_rs2",
            Workload::FailRecoverRs2 => "fail_recover_rs2",
            Workload::ServiceMix => "service_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What runs and why the workload exists (the `why` of
    /// `BENCHMARK.json`, with sizes).
    pub fn why(self) -> &'static str {
        match self {
            Workload::HplSkt => "4 ranks, N=2304 NB=32 SelfCkpt+XOR, 3 checkpoints per solve (10.6 MB/rank): linalg/hpl do most of the work, so a checkpoint-stack gain shows only in proportion to hpl.ckpt_share",
            Workload::CycleXor => "4 ranks, make() loop over 8 MiB/rank (32 MiB = 8x the 2x2 MiB L2s; 260 MiB shared L3) with paper-default XOR: copy/xor/crc/reduce/flush only; bypass for any GF/RS change (predicted: no change)",
            Workload::CycleRs2 => "same loop under Rs{m:2}: rs::contrib and GF-MAC dominate; where the codec-gap item must show, and where a gain bought by slowing XOR shows as a loss next door",
            Workload::FailRecoverRs2 => "4 ranks + spares, Rs{2}, 8 MiB/rank: make, kill 2 seeded victims, repair, timed recover(), bit-exact check; the read side (reconstruct, solve, CRC verify) beside the writes",
            Workload::ServiceMix => "CheckpointService on 9 nodes + 2 spares, 3 tenants (Xor, Dual, Rs{2}) N=256 NB=16, 3-panel RoundRobin slices, one healed kill, one shrink+grow: ftsim and mps launch do the work, kernels almost none",
        }
    }

    /// The codec, group size and workspace length the layer probes of a
    /// traced run are taken at.
    pub fn layer_ctx(self) -> LayerCtx {
        match self {
            Workload::HplSkt => LayerCtx {
                codec: CodecSpec::default(),
                group: RANKS,
                a1_len: hpl_skt::alloc_len(),
            },
            Workload::CycleXor => LayerCtx {
                codec: CodecSpec::default(),
                group: RANKS,
                a1_len: A1_LEN,
            },
            Workload::CycleRs2 | Workload::FailRecoverRs2 => LayerCtx {
                codec: CodecSpec::Rs { m: 2 },
                group: RANKS,
                a1_len: A1_LEN,
            },
            Workload::ServiceMix => LayerCtx {
                codec: CodecSpec::Rs { m: 2 },
                group: service_mix::SHARD,
                a1_len: service_mix::alloc_len(),
            },
        }
    }

    /// One set-up, then timed operations until `budget` is spent (none
    /// without a budget). With a tracer, its spans and the cluster's
    /// events are recorded; without one nobody subscribes to the bus.
    pub fn session(
        self,
        seed: u64,
        budget: Option<Duration>,
        tracer: Option<&Arc<Tracer>>,
        checks: &mut Checks,
    ) -> Session {
        match self {
            Workload::HplSkt => hpl_skt::session(seed, budget, tracer, checks),
            Workload::CycleXor => {
                cycle::session(CodecSpec::default(), seed, budget, tracer, checks)
            }
            Workload::CycleRs2 => {
                cycle::session(CodecSpec::Rs { m: 2 }, seed, budget, tracer, checks)
            }
            Workload::FailRecoverRs2 => fail_recover::session(seed, budget, tracer, checks),
            Workload::ServiceMix => service_mix::session(seed, budget, tracer, checks),
        }
    }
}

impl Session {
    /// Wall time of every timed operation, milliseconds.
    pub fn op_ms(&self) -> Vec<f64> {
        self.ops.iter().map(|t| t.ms).collect()
    }
}

/// Geometry the per-layer probes run at.
#[derive(Clone, Copy, Debug)]
pub struct LayerCtx {
    pub codec: CodecSpec,
    pub group: usize,
    pub a1_len: usize,
}

/// Correctness is part of the run: every verified output counts into
/// `attempted`, every wrong one into `failed`.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the human-readable report.
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }
}

/// What one session measured.
#[derive(Debug, Default)]
pub struct Session {
    /// Start of set-up to the first timed operation.
    pub setup_s: f64,
    /// Each timed primary operation.
    pub ops: Vec<Timed>,
    /// What rank 0's makes returned: the timed ones on `cycle_*`, the
    /// untimed ones on `fail_recover_rs2`.
    pub ckpt: Vec<CkptStats>,
    /// `hpl_skt`: one entry per repetition.
    pub hpl: Vec<hpl_skt::Rep>,
    /// `service_mix`: the report of each timed run.
    pub service: Vec<ServiceReport>,
}

/// The value of workspace element `i` of `rank` at `epoch`: cheap to
/// write, different in every element, rank and epoch, so a stale stripe
/// or a swapped rank cannot verify. Arbitrary bit patterns are fine: the
/// codecs work on bits and the checks compare bits.
#[inline]
pub fn pattern(seed: u64, rank: usize, epoch: u64, i: usize) -> f64 {
    let base = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((rank as u64) << 40)
        .wrapping_add(epoch.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    f64::from_bits(base ^ (i as u64).wrapping_mul(0x94D0_49BB_1331_11EB))
}

/// Rewrite the first `len` workspace elements with the epoch's pattern.
pub fn fill(seg: &ShmSegment, len: usize, seed: u64, rank: usize, epoch: u64) {
    let mut g = seg.write();
    for (i, v) in g.as_f64_mut()[..len].iter_mut().enumerate() {
        *v = pattern(seed, rank, epoch, i);
    }
}

/// Whether the first `len` elements of `seg` are bit-exactly the
/// epoch's pattern.
pub fn holds(seg: &ShmSegment, len: usize, seed: u64, rank: usize, epoch: u64) -> bool {
    let g = seg.read();
    let v = g.as_f64();
    v.len() >= len
        && v[..len]
            .iter()
            .enumerate()
            .all(|(i, x)| x.to_bits() == pattern(seed, rank, epoch, i).to_bits())
}

/// Subscribe the tracer to a cluster's bus (traced pass only: the
/// untraced pass leaves the bus idle).
pub fn observe(cluster: &Cluster, tracer: Option<&Arc<Tracer>>) {
    if let Some(t) = tracer {
        cluster
            .events()
            .subscribe(Arc::clone(t) as Arc<dyn Observer>);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skt_cluster::{SegmentData, ShmStore};

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(
                w.why().len() <= 200,
                "{}: {} chars",
                w.name(),
                w.why().len()
            );
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn pattern_tells_ranks_epochs_and_seeds_apart() {
        let (seg, _) = ShmStore::new().get_or_create("w", || SegmentData::F64(vec![0.0; 64]));
        fill(&seg, 48, 7, 2, 5);
        assert!(holds(&seg, 48, 7, 2, 5));
        assert!(!holds(&seg, 48, 7, 2, 6), "stale epoch must not verify");
        assert!(!holds(&seg, 48, 7, 3, 5), "swapped rank must not verify");
        assert!(!holds(&seg, 48, 8, 2, 5), "other seed must not verify");
        assert!(
            !holds(&seg, 65, 7, 2, 5),
            "truncated segment must not verify"
        );
        assert_eq!(seg.read().as_f64()[48], 0.0, "fill stays inside len");
    }
}
