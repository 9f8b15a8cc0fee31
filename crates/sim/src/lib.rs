#![warn(unused)]
//! # skt-sim — deterministic simulation for the rank world
//!
//! The paper claims self-checkpoint survives a node failure at *any*
//! instant. Real threads only sample the instants the host scheduler
//! happens to produce; this crate makes "any instant" a finite, seeded,
//! replayable space.
//!
//! * [`Runtime`] — the scheduling/time seam the mps world, cluster
//!   failure injector, and ftsim daemon run on. [`RealRuntime`] is
//!   today's behavior (preemptive threads, wall clock, every hook a
//!   no-op). [`SimRuntime`] serializes the same rank threads into
//!   cooperative tasks under a seeded RNG and a virtual clock, so a
//!   whole checkpoint/fail/recover cycle is a pure function of
//!   `(config, seed)`.
//! * [`Stopwatch`] — duration measurement on the runtime's clock, used
//!   by every report-producing layer instead of `Instant::now()`.
//! * [`SimRuntime::on_step`] — one callback before every scheduling
//!   step, with every task at a yield point: it may read any node's
//!   shared memory (the durable state a loss at that instant leaves) and
//!   power a node off. A crash-state enumerator records one run through
//!   it; a test kills a node live at a chosen step through it.
//!
//! This crate sits below `skt-cluster` (which re-exports the types upper
//! layers need) and depends on nothing but std.

mod rng;
mod runtime;
mod sim;

pub use rng::SplitMix64;
pub use runtime::{RealRuntime, Runtime, Stopwatch};
pub use sim::{SimRuntime, QUANTUM};
