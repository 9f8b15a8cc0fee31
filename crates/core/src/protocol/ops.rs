//! Sequenced commit points: every mutation of durable checkpoint state
//! is a **detectable operation** in the Memento (PLDI 2023) sense.
//!
//! The protocol's crash consistency rests on a commit *order* (data
//! flush before header write, roll-forward from the consistent pair).
//! This module makes that order a property of the type system instead of
//! a convention spread over `make`/`recover`/`scrub`:
//!
//! * [`apply`] runs an op on the forward path, where the protocol
//!   executes in order, and records it `not-started:applied`.
//! * [`replay`] runs an op on a replay path (a restore, recovery of a
//!   recovery, scrub, a daemon relaunch): the op's
//!   [`SequencedOp::detect`] first classifies the post-crash state as
//!   [`OpState::NotStarted`] / [`OpState::InFlight`] /
//!   [`OpState::Done`]. A `Done` op is skipped, anything else is applied
//!   again (every op is idempotent), and the verdict lands in the audit
//!   trail, so a re-entered recovery both converges and *explains
//!   itself* ([`crate::protocol::RecoveryReport::ops`]).
//! * Both return a `#[must_use]` [`Committed`] token carrying the
//!   [`OpRecord`] audit entry. The token is the *evidence* later ops
//!   demand: `HeaderCommit::after` (crate-internal) will not construct a
//!   header-commit op without a committed predecessor, so "header write
//!   after data flush" cannot be reordered by a refactor without failing
//!   to compile.
//!
//! The clippy `disallowed-methods` gate (see `clippy.toml`) forbids the
//! raw mechanics (`header::write_word`, `copy_seg`, `fill_stripes`,
//! `rebuild_regions`, `update_region_crcs`) everywhere outside this
//! module, so the sequenced-op API is the *only* door to durable state.
#![allow(clippy::disallowed_methods)] // this module IS the allowed door

use super::checkpointer::Checkpointer;
use super::header::{self, Header, HeaderState, HeaderWord};
use skt_cluster::Region;
use skt_mps::Fault;

/// What [`SequencedOp::detect`] found in post-crash state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpState {
    /// No trace of the op: the previous attempt died before it, or this
    /// is the forward path. Apply it.
    NotStarted,
    /// The op was cut mid-flight (torn data, stale CRC witness, invalid
    /// header): its effects cannot be trusted. Re-apply — every op here
    /// is idempotent, so replaying over a partial effect is safe.
    InFlight,
    /// The op's effect is fully present and witnessed. Skip it.
    Done,
}

impl OpState {
    /// Stable lowercase name for reports and exports.
    pub fn name(self) -> &'static str {
        match self {
            OpState::NotStarted => "not-started",
            OpState::InFlight => "in-flight",
            OpState::Done => "done",
        }
    }
}

/// What [`apply`] or [`replay`] did about the op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpAction {
    /// Forward path: applied without a detect pass.
    Applied,
    /// Replay path: detect said the effect was missing or torn, so the
    /// op ran (again).
    Replayed,
    /// Replay path: detect said [`OpState::Done`], so the op did not run.
    Skipped,
}

impl OpAction {
    /// Stable lowercase name for reports and exports.
    pub fn name(self) -> &'static str {
        match self {
            OpAction::Applied => "applied",
            OpAction::Replayed => "replayed",
            OpAction::Skipped => "skipped",
        }
    }
}

/// One audit-trail entry: which op, what detect saw, what commit did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpRecord {
    /// The op's self-describing name (deterministic under simulation).
    pub op: String,
    /// Detect verdict ([`OpState::NotStarted`] on the forward path,
    /// which skips detection).
    pub detected: OpState,
    /// What the commit did.
    pub action: OpAction,
}

impl std::fmt::Display for OpRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}:{}",
            self.op,
            self.detected.name(),
            self.action.name()
        )
    }
}

/// A detectable, idempotently replayable mutation of durable state,
/// generic over the context it mutates: the [`Checkpointer`] for the
/// protocol's ops, their own contexts for the service's spare draw and
/// resize install (`skt-ftsim`).
pub trait SequencedOp<Ctx: ?Sized> {
    /// Deterministic self-description for the audit trail.
    fn name(&self) -> String;

    /// Classify the op's effect in (post-crash) `ctx` without mutating
    /// anything. Must be safe to call at any yield point.
    fn detect(&self, ctx: &Ctx) -> Result<OpState, Fault>;

    /// Perform the mutation. Must be idempotent: applying over a
    /// partial ([`OpState::InFlight`]) effect of a previous attempt
    /// yields the same final state as applying from scratch.
    fn apply(&self, ctx: &mut Ctx) -> Result<(), Fault>;
}

/// Proof that an op committed; carries the audit record and serves as
/// the evidence token later ops in the sequence demand.
#[must_use = "hold the committed token: it is the evidence the next op in the sequence requires"]
pub struct Committed {
    record: OpRecord,
}

impl Committed {
    fn new<Ctx: ?Sized>(op: &impl SequencedOp<Ctx>, detected: OpState, action: OpAction) -> Self {
        let record = OpRecord {
            op: op.name(),
            detected,
            action,
        };
        Committed { record }
    }

    /// The audit-trail entry this commit produced.
    pub fn record(&self) -> &OpRecord {
        &self.record
    }

    /// Unwrap into the audit-trail entry.
    pub fn into_record(self) -> OpRecord {
        self.record
    }
}

/// Forward path: apply `op` without a detect pass (the caller is
/// executing the protocol in order, not replaying after a crash).
pub fn apply<Ctx: ?Sized, Op: SequencedOp<Ctx>>(op: Op, ctx: &mut Ctx) -> Result<Committed, Fault> {
    op.apply(ctx)?;
    Ok(Committed::new(&op, OpState::NotStarted, OpAction::Applied))
}

/// Replay path: detect `op`'s effect in the post-crash `ctx`, then skip
/// an op already [`OpState::Done`] or apply it again.
pub fn replay<Ctx: ?Sized, Op: SequencedOp<Ctx>>(
    op: Op,
    ctx: &mut Ctx,
) -> Result<Committed, Fault> {
    let detected = op.detect(ctx)?;
    let action = if detected == OpState::Done {
        OpAction::Skipped
    } else {
        op.apply(ctx)?;
        OpAction::Replayed
    };
    Ok(Committed::new(&op, detected, action))
}

// ---------------------------------------------------------------------
// Concrete protocol ops (Ctx = Checkpointer)
// ---------------------------------------------------------------------

/// Write one commit-marker word into the CRC-sealed header.
///
/// Constructible only with evidence: [`HeaderCommit::after`] demands the
/// [`Committed`] token of the data op the marker certifies, so "header
/// write before data flush" is unrepresentable. The evidence-free
/// constructor [`HeaderCommit::attempt`] exists for the one marker that
/// deliberately certifies nothing — the single method's dirty attempt
/// word.
pub(crate) struct HeaderCommit {
    word: HeaderWord,
    epoch: u64,
}

impl HeaderCommit {
    /// A commit marker certifying `evidence`'s committed data.
    pub(crate) fn after(word: HeaderWord, epoch: u64, _evidence: &Committed) -> Self {
        HeaderCommit { word, epoch }
    }

    /// Chain further evidence (a marker certifying several flushes).
    /// Purely a type-level obligation: the token proves order, the op
    /// itself is unchanged.
    pub(crate) fn also_after(self, _evidence: &Committed) -> Self {
        self
    }

    /// The single method's dirty word: marks that an update *attempt*
    /// started, before any data moves. Certifies nothing by design.
    pub(crate) fn attempt(epoch: u64) -> Self {
        HeaderCommit {
            word: HeaderWord::Dirty,
            epoch,
        }
    }
}

impl<'c> SequencedOp<Checkpointer<'c>> for HeaderCommit {
    fn name(&self) -> String {
        format!("header:{:?}={}", self.word, self.epoch)
    }

    fn detect(&self, ck: &Checkpointer<'c>) -> Result<OpState, Fault> {
        Ok(match Header::classify(&ck.header) {
            // A valid header either already carries the word (the
            // previous attempt's write completed before the crash) or
            // provably does not.
            HeaderState::Valid(h) if h.words()[self.word as usize] == self.epoch => OpState::Done,
            HeaderState::Valid(_) => OpState::NotStarted,
            // A CRC-invalid header proves nothing — the write (or a
            // neighboring one) was torn. Re-apply re-seals it.
            HeaderState::Invalid(_) => OpState::InFlight,
        })
    }

    fn apply(&self, ck: &mut Checkpointer<'c>) -> Result<(), Fault> {
        header::write_word(&ck.header, self.word, self.epoch)
    }
}

/// Adopt the group-consensus header words (scrub's header repair).
pub(crate) struct HeaderAdopt {
    words: [u64; 4],
}

impl HeaderAdopt {
    pub(crate) fn new(words: [u64; 4]) -> Self {
        HeaderAdopt { words }
    }
}

impl<'c> SequencedOp<Checkpointer<'c>> for HeaderAdopt {
    fn name(&self) -> String {
        let w = self.words;
        format!("header:adopt[{} {} {} {}]", w[0], w[1], w[2], w[3])
    }

    fn detect(&self, ck: &Checkpointer<'c>) -> Result<OpState, Fault> {
        // Any CRC-valid header needs no adoption: commit words are only
        // written after group barriers, so a valid header lagging the
        // consensus MAX is legal mid-protocol state, not damage.
        Ok(match Header::classify(&ck.header) {
            HeaderState::Valid(_) => OpState::Done,
            HeaderState::Invalid(_) => OpState::InFlight,
        })
    }

    fn apply(&self, ck: &mut Checkpointer<'c>) -> Result<(), Fault> {
        for (word, val) in HeaderWord::ALL.into_iter().zip(self.words) {
            header::write_word(&ck.header, word, val)?;
        }
        Ok(())
    }
}

/// Zero every commit marker (abandon all checkpoint state).
pub(crate) struct MarkerReset;

impl<'c> SequencedOp<Checkpointer<'c>> for MarkerReset {
    fn name(&self) -> String {
        "header:reset".into()
    }

    fn detect(&self, ck: &Checkpointer<'c>) -> Result<OpState, Fault> {
        Ok(match Header::classify(&ck.header) {
            HeaderState::Valid(h) if h.words() == [0; 4] => OpState::Done,
            HeaderState::Valid(_) => OpState::NotStarted,
            HeaderState::Invalid(_) => OpState::InFlight,
        })
    }

    fn apply(&self, ck: &mut Checkpointer<'c>) -> Result<(), Fault> {
        for word in HeaderWord::ALL {
            header::write_word(&ck.header, word, 0)?;
        }
        Ok(())
    }
}

/// Commit a whole-segment copy `dst ← src` and `dst`'s stripe-CRC
/// witness in one no-yield data+CRC block. A witnessed source (a pair's
/// data region) hands its stored witness over and nothing is CRC'd, so
/// a source changed since its encode or rebuild lands in `dst`
/// detectably damaged rather than freshly witnessed; the double and
/// single methods' unwitnessed workspace is CRC'd at the destination.
pub(crate) struct FlushCommit {
    dst: Region,
    src: Region,
    label: &'static str,
}

impl FlushCommit {
    pub(crate) fn new(dst: Region, src: Region, label: &'static str) -> Self {
        FlushCommit { dst, src, label }
    }
}

impl<'c> SequencedOp<Checkpointer<'c>> for FlushCommit {
    fn name(&self) -> String {
        format!("flush:{}<-{}", self.dst, self.src)
    }

    fn detect(&self, ck: &Checkpointer<'c>) -> Result<OpState, Fault> {
        let (Some(dst), Some(src)) = (ck.region_seg(self.dst), ck.region_seg(self.src)) else {
            return Err(Fault::Protocol("flush: region not allocated by method"));
        };
        let same = {
            let d = dst.read();
            let s = src.read();
            let dv = d.try_as_f64()?;
            let sv = s.try_as_f64()?;
            dv.len() == sv.len() && dv.iter().zip(sv).all(|(a, b)| a.to_bits() == b.to_bits())
        };
        let witnessed = ck.region_crc_ok(self.dst)?;
        Ok(match (same, witnessed) {
            // Copy landed and the CRC witness agrees: fully committed.
            (true, true) => OpState::Done,
            // Witness agrees with *different* bytes: the old committed
            // image — the copy never started.
            (false, true) => OpState::NotStarted,
            // Witness disagrees with the data: torn copy or stale CRC.
            (_, false) => OpState::InFlight,
        })
    }

    fn apply(&self, ck: &mut Checkpointer<'c>) -> Result<(), Fault> {
        ck.copy_seg(self.dst, self.src, self.label)
    }
}

/// Commit freshly encoded parity — one stripe per role, as the reduces
/// delivered them — into a checksum segment plus the CRC witnesses of
/// every region the encode certifies (the self method's fill witnesses
/// `(work, X(e))` as a pair).
pub(crate) struct ParityCommit<'a> {
    dst: Region,
    stripes: &'a [Vec<f64>],
    crc: Vec<Region>,
}

impl<'a> ParityCommit<'a> {
    pub(crate) fn new(dst: Region, stripes: &'a [Vec<f64>], crc: &[Region]) -> Self {
        ParityCommit {
            dst,
            stripes,
            crc: crc.to_vec(),
        }
    }
}

impl<'c> SequencedOp<Checkpointer<'c>> for ParityCommit<'_> {
    fn name(&self) -> String {
        format!("parity:{}", self.dst)
    }

    /// Never consulted: `make` fills fresh parity every epoch and no
    /// restore replays a fill. Were one replayed, filling again is
    /// idempotent, so the answer is the one that always re-applies.
    fn detect(&self, _ck: &Checkpointer<'c>) -> Result<OpState, Fault> {
        Ok(OpState::InFlight)
    }

    fn apply(&self, ck: &mut Checkpointer<'c>) -> Result<(), Fault> {
        let Some(dst) = ck.region_seg(self.dst).cloned() else {
            return Err(Fault::Protocol("parity: region not allocated by method"));
        };
        // role `i`'s stripe is the segment's stripe `i`; the fill
        // witnesses them as they land, the other regions are re-read
        ck.fill_stripes(self.dst, &dst, self.stripes)?;
        let others: Vec<Region> = self
            .crc
            .iter()
            .copied()
            .filter(|&r| r != self.dst)
            .collect();
        ck.update_region_crcs(&others)
    }
}

/// Rebuild the lost/damaged ranks' `(data, parity)` pair from the
/// survivors' parity. Detect is structural: an empty erasure set (the
/// previous attempt's rebuild committed, so this attempt's
/// `verify_sources` found nothing damaged) is [`OpState::Done`]. Every
/// rebuild is replayed, so `apply` never sees an empty set.
pub(crate) struct RebuildOp {
    lost: Vec<usize>,
    data_r: Region,
    parity_r: Region,
}

impl RebuildOp {
    pub(crate) fn new(lost: Vec<usize>, data_r: Region, parity_r: Region) -> Self {
        RebuildOp {
            lost,
            data_r,
            parity_r,
        }
    }
}

impl<'c> SequencedOp<Checkpointer<'c>> for RebuildOp {
    fn name(&self) -> String {
        format!("rebuild:{}+{}{:?}", self.data_r, self.parity_r, self.lost)
    }

    fn detect(&self, _ck: &Checkpointer<'c>) -> Result<OpState, Fault> {
        Ok(if self.lost.is_empty() {
            OpState::Done
        } else {
            OpState::NotStarted
        })
    }

    fn apply(&self, ck: &mut Checkpointer<'c>) -> Result<(), Fault> {
        ck.rebuild_regions(&self.lost, self.data_r, self.parity_r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        value: u64,
        target: u64,
    }

    struct SetToTarget;

    impl SequencedOp<Counter> for SetToTarget {
        fn name(&self) -> String {
            "test:set".into()
        }
        fn detect(&self, c: &Counter) -> Result<OpState, Fault> {
            Ok(if c.value == c.target {
                OpState::Done
            } else {
                OpState::NotStarted
            })
        }
        fn apply(&self, c: &mut Counter) -> Result<(), Fault> {
            c.value = c.target;
            Ok(())
        }
    }

    #[test]
    fn forward_apply_always_applies() {
        let mut c = Counter {
            value: 5,
            target: 5,
        };
        let tok = apply(SetToTarget, &mut c).unwrap();
        assert_eq!(tok.record().action, OpAction::Applied);
        assert_eq!(tok.record().detected, OpState::NotStarted);
    }

    #[test]
    fn replay_skips_a_done_op_and_replays_a_missing_one() {
        let mut c = Counter {
            value: 5,
            target: 5,
        };
        let tok = replay(SetToTarget, &mut c).unwrap();
        assert_eq!(tok.record().detected, OpState::Done);
        assert_eq!(tok.record().action, OpAction::Skipped);

        let mut c = Counter {
            value: 0,
            target: 5,
        };
        let tok = replay(SetToTarget, &mut c).unwrap();
        assert_eq!(tok.record().detected, OpState::NotStarted);
        assert_eq!(tok.record().action, OpAction::Replayed);
        assert_eq!(c.value, 5);
    }

    #[test]
    fn record_display_is_compact_and_stable() {
        let r = OpRecord {
            op: "header:DEpoch=3".into(),
            detected: OpState::InFlight,
            action: OpAction::Replayed,
        };
        assert_eq!(r.to_string(), "header:DEpoch=3 in-flight:replayed");
    }
}
