//! The checkpoint protocol layer: **self-checkpoint** (the paper's
//! contribution, Figures 4–5) and the **single** / **double** checkpoint
//! baselines (Figures 2–3), behind one [`Checkpointer`] interface.
//!
//! ## Layout
//!
//! * [`phase`] — the typed [`Phase`] machine; phase labels are the shared
//!   identity for failure injection and observation events.
//! * [`header`] — the 32-byte commit header every method stores its
//!   commit markers in.
//! * [`ops`] — the sequenced-op layer: every durable mutation (header
//!   write, flush commit, parity fill, rebuild, scrub repair) is a
//!   detectable operation, run forward by [`ops::apply`] or replayed
//!   idempotently by [`ops::replay`]; either returns the
//!   [`ops::Committed`] token later commits demand as evidence.
//! * `table` — what each [`Method`] keeps, declared once: the regions it
//!   allocates, its `(commit word, data, parity)` pairs, which pair an
//!   epoch overwrites and which pair holds a target epoch. Segment
//!   allocation, the CRC-slot layout, `verify_integrity`, `scrub` and
//!   every restore read it.
//! * `checkpointer` — the [`Checkpointer`] front end: segment
//!   lifecycle, the collective `make`/`recover` entry points, shared
//!   mechanics.
//! * `methods` — the three methods' `make` sequences and their `restore`
//!   arms over one shared restore core: the only place (with the table
//!   and the planner's proposal rule) that branches on [`Method`].
//! * [`planner`] — group-consensus restore-source selection as pure,
//!   unit-testable functions of survivor headers.
//! * [`report`] — the [`RecoveryReport`] a successful recovery leaves
//!   behind (including the op-level audit trail).
//! * `regions` — the segment copy/fill plumbing, the per-stripe CRC32C
//!   witness table, the collective damage census, and parity rebuilds —
//!   mechanics reachable only through [`ops`] (lint-enforced via
//!   clippy's `disallowed-methods`).
//! * `scrub` — the collective CRC scrub-and-repair pass.
//!
//! ## Segments (all in node-persistent SHM, names scoped per rank)
//!
//! The erasure codec is pluggable ([`CodecSpec`]): the paper's
//! single-parity codes (`m = 1` parity stripe, the default) or the dual
//! P+Q code (`m = 2`, tolerating two lost members per group). Checksum
//! segments hold `m` stripes.
//!
//! | segment  | size (f64)        | role |
//! |----------|-------------------|------|
//! | `work`   | padded `A1 + B2`  | application workspace `A1` plus the mirrored small-state area `B2`; *is itself a checkpoint* while `B` is overwritten |
//! | `b`      | same as `work`    | checkpoint copy `B` (double method: `b0`,`b1`) |
//! | `c`      | `m` stripes       | checksum `C` (double: `c0`,`c1`); self method: `X(e)` at even epochs |
//! | `d`      | `m` stripes       | checksum `D`, self method only: `X(e)` at odd epochs |
//! | `header` | 40 bytes          | epochs + commit markers + header CRC |
//! | `crc`    | `6·(N-1)` u32     | per-stripe CRC32C table over the data segments |
//!
//! ## Commit discipline (self-checkpoint, epoch `e`)
//!
//! Epoch `e` encodes into `X(e)` — `D` for odd `e`, `C` for even `e` — never
//! over the committed `P(e-1)`, so the paper's final `D → C` copy is gone.
//!
//! 1. serialize app state into `B2` ([`Phase::Serialize`]);
//! 2. group-encode parity of `work` into `X(e)` ([`Phase::Encode`]);
//! 3. **barrier**, then mark `d_epoch = e` ([`Phase::CommitD`]);
//! 4. copy `work → B` ([`Phase::FlushB`]);
//! 5. **barrier**, then mark `bc_epoch = e` ([`Phase::Done`]).
//!
//! Each commit point is a sequenced op: the marker write is only
//! constructible from the [`ops::Committed`] token of the data op it
//! certifies, so the discipline above is enforced by the type system.
//! Recovery gathers every member's header, runs the pure
//! [`planner::plan_recovery`] consensus, agrees job-wide on the minimum
//! restorable epoch, and rebuilds the lost ranks (up to the codec's
//! parity count) from the pair the method's table row says holds it.
//! The invariant — one of `(work, X(d_epoch))` and `(B, X(bc_epoch))` is
//! always a committed, consistent pair — is checked at every crash state
//! of the integration tests' recordings against a reference model.

pub mod header;
pub mod ops;
pub mod phase;
pub mod planner;
pub mod report;

mod checkpointer;
mod methods;
mod regions;
mod scrub;
pub(crate) mod table;

pub use checkpointer::Checkpointer;
pub use header::{Header, HeaderState, HEADER_BYTES};
pub use ops::{OpAction, OpRecord, OpState};
pub use phase::Phase;
pub use planner::{GroupPlan, HeaderMaxima, SurvivorView};
pub use regions::{crc_table_bytes, COPY_PROBE};
pub use report::RecoveryReport;

use skt_encoding::CodecSpec;
use skt_mps::Fault;
use std::time::Duration;

use crate::memory::Method;

/// Phase label wrapped around the whole of [`Checkpointer::recover`]
/// (emitted as `Event::PhaseEnter`/`Event::PhaseExit`), so observers can
/// time a recovery and attribute its bytes the way they do a `make`'s
/// phases.
pub const RECOVER_PHASE_LABEL: &str = "recover";

/// Probe fired after the planner consensus, before the job-wide
/// agreement — kills here land between "the group knows its plan" and
/// "the job committed to it".
pub const RECOVER_PLAN_PROBE: &str = "recover-plan";

/// Probe fired on entry to (and exit from) every lost-rank parity
/// rebuild, so a second failure can be injected exactly around the
/// reconstruction collectives.
pub const RECOVER_REBUILD_PROBE: &str = "recover-rebuild";

/// Probe fired immediately before a restore path re-commits its header
/// words — kills here leave a fully rebuilt group whose markers still
/// describe the pre-failure state.
pub const RECOVER_COMMIT_PROBE: &str = "recover-commit";

/// Probe fired on entry to [`Checkpointer::scrub`].
pub const SCRUB_PROBE: &str = "ckpt-scrub";

/// Static configuration of a [`Checkpointer`].
#[derive(Clone, Debug)]
pub struct CkptConfig {
    /// Namespace for SHM segment names (one protected application).
    pub name: String,
    /// Which protocol to run.
    pub method: Method,
    /// Erasure codec (paper default: single XOR parity).
    pub codec: CodecSpec,
    /// Application workspace length in `f64` elements (`A1`).
    pub a1_len: usize,
    /// Capacity reserved for serialized small state (`A2`), bytes.
    pub a2_capacity: usize,
}

impl CkptConfig {
    /// Convenience constructor with the single-parity XOR codec.
    pub fn new(name: impl Into<String>, method: Method, a1_len: usize, a2_capacity: usize) -> Self {
        CkptConfig {
            name: name.into(),
            method,
            codec: CodecSpec::default(),
            a1_len,
            a2_capacity,
        }
    }

    /// Switch the erasure codec (parity count follows the codec).
    #[must_use]
    pub fn with_codec(mut self, codec: CodecSpec) -> Self {
        self.codec = codec;
        self
    }
}

/// Timing/size record of one checkpoint (feeds Figure 13 and Table 3).
#[derive(Clone, Copy, Debug)]
pub struct CkptStats {
    /// Epoch just committed.
    pub epoch: u64,
    /// Time spent in the parity encode (communication phase).
    pub encode: Duration,
    /// Time spent copying `work → B` (local memory phase).
    pub flush: Duration,
    /// Bytes of checkpoint data this rank protects (size of `B`).
    pub checkpoint_bytes: usize,
    /// Bytes of checksum this rank stores.
    pub checksum_bytes: usize,
}

/// What recovery found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Recovery {
    /// No checkpoint was ever committed — start from scratch.
    NoCheckpoint,
    /// State restored; the workspace segment holds epoch `epoch`'s data
    /// and `a2` is the application's serialized small state.
    Restored {
        /// Epoch the state corresponds to.
        epoch: u64,
        /// Serialized `A2` returned to the application.
        a2: Vec<u8>,
        /// Which consistent pair recovery used.
        source: RestoreSource,
    },
}

/// Which pair recovery restored from.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestoreSource {
    /// `(B, C)` / `(B, X(e))` — the committed checkpoint (CASE 1).
    CheckpointAndChecksum,
    /// `(work, X(e))` — the workspace acting as its own checkpoint (CASE 2;
    /// unique to the self-checkpoint method).
    WorkspaceAndChecksum,
}

impl RestoreSource {
    /// Stable name, used in `Event::RecoveryDecision` and reports.
    pub fn name(self) -> &'static str {
        match self {
            RestoreSource::CheckpointAndChecksum => "checkpoint+checksum",
            RestoreSource::WorkspaceAndChecksum => "workspace+checksum",
        }
    }
}

/// What a [`Checkpointer::scrub`] pass found and fixed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Committed `(checkpoint, checksum)` pairs whose CRC tables were
    /// checked group-wide: 1 once anything committed — the newest pair,
    /// the one `verify_integrity` checks; the double method's older pair
    /// is what the next make overwrites, and a make that died inside it
    /// left it torn — 0 before.
    pub pairs_checked: usize,
    /// Group ranks whose pair was CRC-damaged and erasure-rebuilt from
    /// the survivors' parity (at most the codec's parity count per pair).
    pub repaired: Vec<usize>,
    /// Whether this rank's commit header failed its CRC and was rebuilt
    /// from the group consensus.
    pub header_repaired: bool,
}

/// Recovery failure.
#[non_exhaustive]
#[derive(Debug)]
pub enum RecoverError {
    /// The runtime faulted (another node died during recovery).
    Fault(Fault),
    /// The protocol cannot recover (e.g. more members of one group lost
    /// than the codec has parity stripes, or the single-checkpoint
    /// method caught mid-update).
    Unrecoverable(String),
}

impl From<Fault> for RecoverError {
    fn from(f: Fault) -> Self {
        RecoverError::Fault(f)
    }
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Fault(e) => write!(f, "fault during recovery: {e}"),
            RecoverError::Unrecoverable(s) => write!(f, "unrecoverable: {s}"),
        }
    }
}

impl std::error::Error for RecoverError {}

#[cfg(test)]
mod tests;
