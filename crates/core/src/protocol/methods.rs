//! The three methods' `make` sequences and their `restore` arms over one
//! shared restore core. Which regions, pairs and commit words a method
//! keeps is the table's business (`table`); this module only orders the
//! sequenced ops ([`super::ops`]) over them.
//!
//! * **self-checkpoint** (paper Figures 4–5): one checkpoint copy `B`, a
//!   committed checksum `C`, and a fresh checksum `D`, with the workspace
//!   itself doubling as a checkpoint while `B` is overwritten.
//! * **single** (Figure 2): one `(B, C)` updated **in place** — cheap,
//!   but a failure during the update leaves the only checkpoint torn (its
//!   documented flaw, flagged by the planner's torn-update detector).
//! * **double** (Figure 3): two `(B, C)` pairs alternating by epoch —
//!   fully fault tolerant, at the cost of most of the node's memory.

use super::ops::{self, Committed, FlushCommit, HeaderCommit, ParityCommit, RebuildOp};
use super::planner::HeaderMaxima;
use super::table::{Pair, BC, WORK_D};
use super::{Checkpointer, CkptStats, Phase, RecoverError, RestoreSource, RECOVER_COMMIT_PROBE};
use crate::memory::Method;
use skt_cluster::Region;
use skt_mps::Fault;

impl<'c> Checkpointer<'c> {
    /// Run the method's protocol phases for epoch `e` (the shared
    /// serialize step already happened). Leaves the commit markers
    /// describing a consistent state on success.
    pub(super) fn make_phases(&mut self, e: u64) -> Result<CkptStats, Fault> {
        match self.cfg.method {
            Method::SelfCkpt => self.make_self(e),
            Method::Single => self.make_single(e),
            Method::Double => self.make_copy_encode(e),
        }
    }

    fn make_self(&mut self, e: u64) -> Result<CkptStats, Fault> {
        // (2) encode parity of `work` into D. The parity fill CRCs the
        // fresh (work, D) pair in the same no-yield block: any rank past
        // the commit has matching data and witness.
        let t0 = self.clock();
        let sp = self.span(Phase::Encode, e);
        let parity = self.encode_of(WORK_D.data, Some(Phase::Encode.label()))?;
        let d_fill = self.seal(ops::prepare(ParityCommit::new(
            WORK_D.parity,
            &parity,
            &[WORK_D.data, WORK_D.parity],
        )))?;
        // (3) group-wide commit of D
        self.comm.barrier()?;
        sp.end();
        let encode = t0.elapsed();
        let _d = self.seal(ops::prepare(HeaderCommit::after(WORK_D.word, e, &d_fill)))?;
        self.probe(Phase::CommitD.label())?;
        // Cross-group gate: no group may start overwriting (B, C) until
        // *every* group has committed D@e — otherwise a failure could
        // force one group back to e-1 while another has already
        // destroyed its e-1 checkpoint.
        self.sync_barrier()?;

        // (4) flush: the old checkpoint is overwritten while `work`+D
        // stand in as the consistent pair.
        let t1 = self.clock();
        let flush_b = self.flush_phase(Phase::FlushB, e, BC.data, WORK_D.data)?;
        let flush_c = self.flush_phase(Phase::FlushC, e, BC.parity, WORK_D.parity)?;
        // (5) group-wide commit of (B, C)
        self.comm.barrier()?;
        let flush = t1.elapsed();
        let _bc = self.seal(ops::prepare(
            HeaderCommit::after(BC.word, e, &flush_b).also_after(&flush_c),
        ))?;
        Ok(self.stats(e, encode, flush))
    }

    /// One observed copy phase: `dst ← src` inside `phase`'s span, then
    /// the phase's failure probe.
    fn flush_phase(
        &mut self,
        phase: Phase,
        e: u64,
        dst: Region,
        src: Region,
    ) -> Result<Committed<FlushCommit>, Fault> {
        let sp = self.span(phase, e);
        let copied = self.seal(ops::prepare(FlushCommit::new(dst, src, phase.label())))?;
        sp.end();
        self.probe(phase.label())?;
        Ok(copied)
    }

    fn make_single(&mut self, e: u64) -> Result<CkptStats, Fault> {
        // Gate the update window: past this barrier every rank runs the
        // straight-line dirty-mark + copy with no intervening failpoint,
        // so "any rank reached CopyB" implies "every rank marked the
        // dirty word". Without it, recovery's torn-update verdict depends
        // on where the scheduler parked the survivors.
        self.comm.barrier()?;
        // Mark the attempt: if epoch `e` never commits anywhere, (B, C)
        // may be torn and recovery must give up — the method's documented
        // flaw (paper Figure 2, CASE 2). An evidence-free op by design:
        // the dirty word certifies nothing, it *announces*.
        let _mark = self.seal(ops::prepare(HeaderCommit::attempt(e)))?;
        self.make_copy_encode(e)
    }

    /// Copy the workspace into the checkpoint pair epoch `e` overwrites,
    /// encode its parity, commit the pair's word: the double method's
    /// whole `make` — the *older* pair is overwritten, the newer stays
    /// consistent — and, on its only pair, the single method's update.
    fn make_copy_encode(&mut self, e: u64) -> Result<CkptStats, Fault> {
        let pair = self.table.written_at(e);
        let t1 = self.clock();
        let copy = self.flush_phase(Phase::CopyB, e, pair.data, Region::Work)?;
        let flush = t1.elapsed();
        let t0 = self.clock();
        let sp = self.span(Phase::Encode, e);
        let parity = self.encode_of(pair.data, Some(Phase::Encode.label()))?;
        let encoded = self.seal(ops::prepare(ParityCommit::new(
            pair.parity,
            &parity,
            &[pair.parity],
        )))?;
        self.comm.barrier()?;
        sp.end();
        let encode = t0.elapsed();
        let _h = self.seal(ops::prepare(
            HeaderCommit::after(pair.word, e, &copy).also_after(&encoded),
        ))?;
        Ok(self.stats(e, encode, flush))
    }

    /// Restore the workspace to the job-wide agreed `target` epoch,
    /// rebuilding the `lost` ranks' state from parity if needed, and name
    /// the pair it came from. `seen` are the survivor-header maxima the
    /// planner derived the proposal from.
    pub(super) fn restore(
        &mut self,
        lost: &[usize],
        target: u64,
        seen: &HeaderMaxima,
    ) -> Result<RestoreSource, RecoverError> {
        match self.cfg.method {
            Method::Single => {
                // the only pair this method has
                let source = self.restore_checkpoint(lost, &BC, target)?;
                let _mark = self.seal_replay(HeaderCommit::attempt(target))?;
                Ok(source)
            }
            Method::Double => self.restore_checkpoint(lost, self.holding(target, seen), target),
            Method::SelfCkpt => {
                // `src` is mirrored onto the method's other pair, so both
                // hold `target` again.
                //
                // From (B, C): normal rollback to the committed
                // checkpoint (CASE 1) — also the cross-group case
                // "another group proposed e-1": the pre-flush sync gate
                // guarantees our (B, C)@e-1 is then still intact. The
                // copies restore the invariant that D mirrors C after a
                // rollback.
                //
                // From (work, D): encode of the target epoch committed
                // job-wide; the flush may be torn. The workspace itself
                // is the checkpoint (CASE 2). The app never regained
                // control after the encode, so the (work, D) CRCs written
                // there still witness the exact bytes being trusted. The
                // copies complete the interrupted flush so (B, C) is
                // consistent again.
                let src = self.holding(target, seen);
                let (dst, label, source) = match src.data {
                    Region::Work => (&BC, "recover-flush", RestoreSource::WorkspaceAndChecksum),
                    _ => (
                        &WORK_D,
                        "recover-restore",
                        RestoreSource::CheckpointAndChecksum,
                    ),
                };
                let (rebuilt, (to_data, to_parity)) = self.restore_core(lost, src, |ck| {
                    Ok((
                        ck.seal_replay(FlushCommit::new(dst.data, src.data, label))?,
                        ck.seal_replay(FlushCommit::new(dst.parity, src.parity, label))?,
                    ))
                })?;
                let _d = self.seal_replay(
                    HeaderCommit::after(WORK_D.word, target, &rebuilt).also_after(&to_parity),
                )?;
                let _bc = self.seal_replay(
                    HeaderCommit::after(BC.word, target, &to_data).also_after(&to_parity),
                )?;
                Ok(source)
            }
        }
    }

    /// The pair holding the agreed epoch. A pair commit implies the group
    /// barrier passed, so every survivor's data for that pair is
    /// complete; another pair may hold a torn write and is only ever
    /// trusted at its own committed epoch.
    fn holding(&self, target: u64, seen: &HeaderMaxima) -> &'static Pair {
        self.table.holding(target, seen).unwrap_or_else(|| {
            unreachable!("agreed epoch {target} is held by no pair ({seen:?}): invariant broken")
        })
    }

    /// Restore the workspace from checkpoint pair `src` and re-commit the
    /// pair's word: the single and double methods' whole restore.
    fn restore_checkpoint(
        &mut self,
        lost: &[usize],
        src: &Pair,
        target: u64,
    ) -> Result<RestoreSource, RecoverError> {
        let (rebuilt, to_work) = self.restore_core(lost, src, |ck| {
            ck.seal_replay(FlushCommit::new(Region::Work, src.data, "recover-restore"))
        })?;
        let _h =
            self.seal_replay(HeaderCommit::after(src.word, target, &to_work).also_after(&rebuilt))?;
        Ok(RestoreSource::CheckpointAndChecksum)
    }

    /// The restore core every method shares: CRC-verify the source pair
    /// before trusting it — silently corrupted survivors are downgraded
    /// to erasures and rebuilt alongside (or instead of) the lost ranks —
    /// then run the method's `copies` out of it, fire
    /// [`RECOVER_COMMIT_PROBE`] and pass the group barrier. What comes
    /// back are the evidence tokens the caller's header commits are built
    /// from. Every step is a replay-sequenced op, so a re-entered restore
    /// (recovery of a recovery) skips what already committed.
    fn restore_core<T>(
        &mut self,
        lost: &[usize],
        src: &Pair,
        copies: impl FnOnce(&mut Self) -> Result<T, Fault>,
    ) -> Result<(Committed<RebuildOp>, T), RecoverError> {
        let lost = self.verify_sources(lost, src)?;
        let rebuilt = self.seal_replay(RebuildOp::new(lost, src.data, src.parity))?;
        let copied = copies(self)?;
        self.probe(RECOVER_COMMIT_PROBE)?;
        self.comm.barrier()?;
        Ok((rebuilt, copied))
    }
}
