#![warn(unused)]
#![allow(clippy::needless_range_loop)] // index loops over coupled arrays are the clearest form for BLAS-style kernels
//! # skt-core
//!
//! The paper's contribution: **self-checkpoint**, an in-memory checkpoint
//! protocol that keeps one full checkpoint copy plus *two* parity
//! checksums instead of two full copies, so a single node failure is
//! recoverable at any instant — including while the checkpoint itself is
//! being updated — while nearly 50% of memory stays available to the
//! application.
//!
//! Modules:
//!
//! * [`memory`] — the available-memory arithmetic of §3.2 (Equations 2–4,
//!   Table 1) and problem-sizing helpers.
//! * [`group`] — group partitioning and node-distinct placement (§3.3).
//! * [`engine`] — the communication kernels shared by all protocols:
//!   stripe-parity encoding via group reduces and lost-rank
//!   reconstruction.
//! * [`protocol`] — the protocol layer: one table row and one `make`
//!   sequence per method (self-checkpoint plus the single- and
//!   double-checkpoint baselines, Figures 2–5), the typed
//!   [`Phase`] machine shared with failure injection and observation,
//!   the pure recovery [`protocol::planner`], and the [`Checkpointer`]
//!   front end.
//!
//! ## The protocol in one paragraph
//!
//! Each rank's workspace `A1` (plus a small mirrored state area `B2`)
//! lives in node-persistent shared memory. A checkpoint epoch `e` is:
//! serialize app state into `B2`; group-reduce the stripe parities of
//! `A1‖B2` into `X(e)` (`D` at odd epochs, `C` at even ones: never the
//! committed `P(e-1)`); barrier; *commit D*; copy `A1‖B2 → B`; barrier;
//! *commit BC*. At every instant one of `(A1‖B2, X(d))` and `(B, X(bc))`
//! is a committed, consistent pair, so up to `m` lost ranks per group can
//! be rebuilt, where `m` is the configured erasure codec's parity count
//! (`1` for the paper's XOR/SUM codes, `2` for the dual P+Q codec) — the failed
//! ranks' stripes are recomputed from the survivors and the parity, the
//! defining trick being that the application's own memory serves as the
//! checkpoint while `B` is being overwritten.

pub mod engine;
pub mod group;
pub mod memory;
pub mod protocol;

pub use engine::{encode_parity, reconstruct_multi};
pub use group::{group_color, resize_group_size, validate_node_distinct};
pub use memory::{available_fraction, max_workspace_len, MemoryBreakdown, Method};
pub use protocol::{
    Checkpointer, CkptConfig, CkptStats, HeaderState, OpAction, OpRecord, OpState, Phase,
    RecoverError, Recovery, RecoveryReport, RestoreSource, ScrubReport, COPY_PROBE,
    RECOVER_COMMIT_PROBE, RECOVER_PHASE_LABEL, RECOVER_PLAN_PROBE, RECOVER_REBUILD_PROBE,
    SCRUB_PROBE,
};
