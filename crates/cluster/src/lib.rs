#![warn(unused)]
//! # skt-cluster
//!
//! The virtual cluster substrate underneath the Self-Checkpoint / SKT-HPL
//! reproduction. The paper runs on real HPC machines (Tianhe-1A/2, a local
//! Infiniband cluster); this crate provides a deterministic, in-process
//! stand-in with the properties the paper's protocol actually depends on:
//!
//! * **Nodes with persistent shared memory** ([`shm`]): a SHM segment
//!   survives the death of the *process* (thread) that created it — exactly
//!   Linux `shmget` semantics — but is wiped when its *node* fails (power
//!   off). Checkpoints of healthy nodes therefore outlive an aborted job.
//! * **Storage devices** ([`storage`]): bandwidth/latency-modeled HDD, SSD
//!   and ramfs block stores for the BLCR/SCR baselines of Table 3 (the
//!   baseline's driver owns them; a [`Cluster`] holds none).
//! * **A network model** ([`net`]): α-β (latency + inverse bandwidth) cost
//!   model with per-node port sharing, used to extrapolate encoding times
//!   to Tianhe-scale (Figure 13) without pretending the laptop is a
//!   supercomputer.
//! * **Failure injection** ([`failure`]): deterministic "do *what* to
//!   node X the n-th time it passes probe L" plans ([`FaultPlan`] =
//!   *when* × [`FaultAction`]: kill, silent bit flip, gray degradation),
//!   so the protocol's CASE 1 / CASE 2 failure windows (paper Figures
//!   2–5) can each be exercised exactly; [`Cluster::apply_fault`] is the
//!   one door every action goes through, fired, timed or immediate.
//! * **An observation bus** ([`events`]): upper layers (collectives, the
//!   checkpoint protocol, the BLCR baseline's storage transfers) emit
//!   typed [`events::Event`]s into the cluster-wide
//!   [`events::EventBus`]; harnesses subscribe [`events::Observer`]s to
//!   collect phase timings and recovery decisions without any layer
//!   keeping private timing state.
//! * **The cluster itself** ([`cluster`]): node inventory, spare pool,
//!   rank-to-node mapping (the `ranklist` of §5.2), and MPI-style
//!   whole-job abort on node failure.
//! * **A buffer pool** ([`pool`]): the cluster's one store of recycled
//!   `f64` buffers — a powered-off node's memory becomes a spare's
//!   segments, and the checkpoint engine's stripes come from and go back
//!   to it, so neither is page-faulted in afresh.

pub mod cluster;
pub mod events;
pub mod failure;
pub mod net;
pub mod pool;
pub mod shm;
pub mod storage;
pub mod suspicion;

pub use cluster::{Cluster, ClusterConfig, NodeId, Ranklist};
pub use events::{Event, EventBus, Observer, Recorder};
pub use failure::{segment_name, FailurePlan, Fault, FaultAction, FaultPlan, GrayKind, Region};
pub use net::NetModel;
pub use pool::BufferPool;
pub use shm::{SegmentData, ShmSegment, ShmStore};
pub use storage::{Device, DeviceKind};
pub use suspicion::{HeartbeatConfig, ProbeVerdict, Suspicion, SuspicionMonitor};
// The runtime seam lives in `skt-sim`; re-export it here so upper layers
// (mps, core, ftsim) reach it through their existing cluster dependency.
pub use skt_sim::{RealRuntime, Runtime, SimRuntime, SplitMix64, Stopwatch};
