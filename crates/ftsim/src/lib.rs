#![warn(unused)]
//! # skt-ftsim
//!
//! The fault-tolerance harness around SKT-HPL:
//!
//! * [`daemon`] — the master daemon of §5.2: launch the job, detect a
//!   failure (from the launcher's exit status), replace lost nodes with
//!   spares, rewrite the ranklist, and relaunch — the
//!   work-fail-detect-restart cycle of Figure 10, with per-phase timing.
//!   It is [`service`] run for one placed tenant, and returns that
//!   tenant's [`TenantReport`].
//! * [`service`] — the multi-tenant checkpoint service: many
//!   independent jobs sharded over one node pool, supervised by one
//!   event-driven daemon loop (dispatch, slices, a single failure
//!   ladder, the terminal audit) — the ReStore direction of the
//!   ROADMAP. Its other halves own their state in modules of their own:
//!   [`admission`] (registration, the wait list, activation), [`storm`]
//!   (armed and clock-scheduled fault plans) and [`resize`], over a
//!   crate-private ledger (disjoint shards, the FIFO admission queue,
//!   reservation-aware spare accounting, the deterministic event queue)
//!   that refuses in the service's own types ([`Refusal`],
//!   [`ResizeError`], [`AdmitError`]).
//! * [`report`] — what the supervisor reports, as pure data: attempt
//!   and suspicion records, Figure 10 phase times, the retry policy,
//!   per-tenant reports and their fingerprints.
//! * [`policy`] — slice-scheduling policies: a plain [`PolicySpec`]
//!   enum whose `next` picks from the FIFO ready set (sticky under
//!   `Batched`, the front under `RoundRobin`).
//! * [`resize`] — tenant elasticity between slices: each tenant's
//!   pending requests and audit, the attempt at a clean boundary
//!   (harvest the boundary checkpoint, re-install it under the new
//!   layout via a sequenced op, then — and only then — move the node
//!   accounting), and the typed [`ResizeError`].
//! * [`blcr`] — the BLCR baseline: the whole rank state kept on a
//!   (bandwidth-modeled) HDD/SSD block device in two alternating slots,
//!   with restart from disk (Table 3's `BLCR+HDD` / `BLCR+SSD` rows). It
//!   is a [`Shard`](skt_hpl::Shard) of the one HPL solve loop.
//! * [`table3`] — Table 3: one row function run once per
//!   method — size it to the memory its protocol leaves available, a
//!   clean run, a power-off, repair, a relaunch that must resume from
//!   the last checkpoint.
//!
//! The SCR-in-RAM baseline needs no module of its own: it is
//! [`skt_hpl::run_skt`] with [`Method::Double`](skt_core::Method), which
//! is exactly what SCR's in-memory level does (two buddy copies).

pub mod admission;
pub mod blcr;
pub mod daemon;
mod ledger;
pub mod policy;
pub mod report;
pub mod resize;
pub mod service;
pub mod storm;
pub mod table3;

pub use blcr::{run_blcr, BlcrConfig, BlcrStore};
pub use daemon::run_with_daemon;
pub use ledger::{Admission, AdmitError, TenantId};
pub use policy::PolicySpec;
pub use report::{
    AttemptRecord, CyclePhase, DaemonHistory, PhaseTimes, Refusal, RetryPolicy, ServiceReport,
    SuspicionOutcome, SuspicionRecord, TenantOutcome, TenantReport,
};
pub use resize::{ResizeAudit, ResizeError};
pub use service::{CheckpointService, ServiceConfig};
pub use storm::{StormPlan, TimedFault};
pub use table3::{run_table3, MethodRow, Table3Config};
