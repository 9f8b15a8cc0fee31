#![warn(unused)]
//! # skt-bench
//!
//! Benchmark harness for the Self-Checkpoint / SKT-HPL reproduction: one
//! binary per paper table/figure and ablation (see DESIGN.md §4), beside
//! the `cycle_budget` benchmark of record (its own package under
//! `src/bin/cycle_budget/`). Shared table-printing helpers live here.

pub mod table;

pub use table::Table;
