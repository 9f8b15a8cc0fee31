#![warn(unused)]
#![allow(clippy::needless_range_loop)] // index loops over coupled arrays are the clearest form for BLAS-style kernels
//! # skt-hpl
//!
//! A from-scratch distributed High-Performance Linpack over the
//! [`skt_mps`] message-passing substrate, plus the fault-tolerant
//! variants the paper evaluates:
//!
//! * [`plain`] — the original HPL (generate → eliminate →
//!   back-substitute → verify, §5.1); no fault tolerance.
//! * [`skt`] — **SKT-HPL**: the matrix shard lives in the
//!   self-checkpoint workspace, checkpoints land at panel boundaries,
//!   and a permanent node loss is survived via group parity (§5).
//!   Running it with [`Method::Double`](skt_core::Method) reproduces the
//!   SCR-in-RAM baseline; with `Method::Single` the fragile
//!   single-checkpoint baseline.
//! * [`abft`] — ABFT-HPL: checksum-column algebra that tolerates data
//!   loss only while the runtime survives — it cannot outlive a real
//!   node power-off (Table 3's "NO").
//! * [`elim`]/[`dist`] — the shared elimination engine, the one solve
//!   loop every variant runs ([`solve`], over a [`Shard`] that says where
//!   the matrix lives and how it is kept), and the 1-D block-cyclic
//!   layout.
//! * [`calibrate`] — dgemm peak measurement, the "theoretical peak" of
//!   the virtual cluster for efficiency reporting.

pub mod abft;
pub mod calibrate;
pub mod dist;
pub mod elim;
pub mod plain;
pub mod skt;

/// Probe label fired once per completed elimination panel by every HPL
/// variant — the canonical place to arm a
/// [`FailurePlan`](skt_cluster::FailurePlan) that lands "during
/// computation".
pub const ITER_PROBE: &str = "hpl-iter";

pub use abft::{run_abft, AbftOutput};
pub use calibrate::{efficiency, peak_gflops};
pub use dist::BlockCyclic1D;
pub use elim::{
    back_substitute, generate, panel_step, solve, verify, Kept, Shard, Start, Verification,
};
pub use plain::{run_plain, HplConfig, HplOutput};
pub use skt::{
    install_relayout, run_skt, run_skt_sliced, SktConfig, SktOutput, SktPause, SktRun, A2_CAPACITY,
    RESIZE_PROBE,
};
