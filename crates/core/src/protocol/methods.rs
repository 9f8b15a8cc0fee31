//! The three methods' `make` sequences and their `restore` arms over one
//! shared restore core. Which regions, pairs and commit words a method
//! keeps is the table's business (`table`); this module only orders the
//! sequenced ops ([`super::ops`]) over them.
//!
//! * **self-checkpoint** (paper Figures 4–5): one checkpoint copy `B` and
//!   two checksum regions `C` and `D`, with the workspace itself doubling
//!   as a checkpoint while `B` is overwritten. Epoch `e` encodes into
//!   `X(e)` (the table's alternating parity region), so the committed
//!   checkpoint `(B, X(bc))` and the live pair `(work, X(d))` need no
//!   parity copy between them.
//! * **single** (Figure 2): one `(B, C)` updated **in place** — cheap,
//!   but a failure during the update leaves the only checkpoint torn (its
//!   documented flaw, flagged by the planner's torn-update detector).
//! * **double** (Figure 3): two `(B, C)` pairs alternating by epoch —
//!   fully fault tolerant, at the cost of most of the node's memory.

use super::checkpointer::Pass;
use super::ops::{Committed, FlushCommit, HeaderCommit, ParityCommit, RebuildOp};
use super::planner::HeaderMaxima;
use super::table::{Pair, BC, B_X, WORK_X};
use super::{Checkpointer, CkptStats, Phase, RecoverError, RestoreSource, RECOVER_COMMIT_PROBE};
use crate::engine::give_back;
use crate::memory::Method;
use skt_cluster::Region;
use skt_mps::Fault;
use std::time::Duration;

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
        // (2) encode parity of `work` into X(e), the region that does not
        // hold the committed checkpoint's P(e-1). The parity fill CRCs the
        // fresh (work, X(e)) pair in the same no-yield block: any rank past
        // the commit has matching data and witness.
        let t0 = self.clock();
        let sp = self.span(Phase::Encode, e);
        let x = WORK_X.parity(e);
        let parity = self.encode_of(WORK_X.data, Some(Phase::Encode.label()))?;
        let d_fill = self.seal(Pass::Make, ParityCommit::new(x, &parity, &[WORK_X.data, x]))?;
        self.comm.barrier()?;
        sp.end();
        let encode = t0.elapsed();
        let flush = self.commit_d_then_flush(e, &d_fill, Pass::Make)?;
        give_back(&self.comm, parity);
        Ok(self.stats(e, encode, flush))
    }

    /// CASE 2's commit order, shared by `make` and the roll-forward
    /// restore. With every member's `(work, X(e))@e` complete (the
    /// caller's barrier, `d_ready` its parity): (3) commit `D@e`; wait
    /// until every member has, since a failure before that could still
    /// force a rollback to `(B, X(e-1))@e-1`; only then (4) overwrite `B`
    /// from `work`, which stands in with `X(e)` as the consistent pair
    /// meanwhile, and (5) commit `(B, X(e))` group-wide. Returns the flush
    /// time.
    fn commit_d_then_flush(
        &mut self,
        e: u64,
        d_ready: &Committed,
        pass: Pass,
    ) -> Result<Duration, Fault> {
        let _d = self.seal(pass, HeaderCommit::after(WORK_X.word, e, d_ready))?;
        if pass == Pass::Make {
            self.probe(Phase::CommitD.label())?;
        }
        // The cross-group gate of `init_synced`: no group overwrites B
        // before every group committed D@e on every member. In a restore,
        // groups rolling back from (B, X(e-1)) meet it after their own
        // commits (`restore`); without it, a second loss of a group's
        // only D@e holder could make that group propose e-1 to one whose
        // B already holds e.
        self.sync_barrier()?;
        let t1 = self.clock();
        let flush_b = match pass {
            Pass::Make => self.flush_phase(Phase::FlushB, e, B_X.data, WORK_X.data)?,
            Pass::Replay => self.seal(
                Pass::Replay,
                FlushCommit::new(B_X.data, WORK_X.data, "recover-flush"),
            )?,
        };
        self.comm.barrier()?;
        let flush = t1.elapsed();
        let _bc = self.seal(
            pass,
            HeaderCommit::after(B_X.word, e, &flush_b).also_after(d_ready),
        )?;
        Ok(flush)
    }

    /// One observed copy phase: `dst ← src` inside `phase`'s span, then
    /// the phase's failure probe.
    fn flush_phase(
        &mut self,
        phase: Phase,
        e: u64,
        dst: Region,
        src: Region,
    ) -> Result<Committed, Fault> {
        let sp = self.span(phase, e);
        let copied = self.seal(Pass::Make, FlushCommit::new(dst, src, phase.label()))?;
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
        let _mark = self.seal(Pass::Make, HeaderCommit::attempt(e))?;
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
        let px = pair.parity(e);
        let encoded = self.seal(Pass::Make, ParityCommit::new(px, &parity, &[px]))?;
        self.comm.barrier()?;
        sp.end();
        let encode = t0.elapsed();
        let _h = self.seal(
            Pass::Make,
            HeaderCommit::after(pair.word, e, &copy).also_after(&encoded),
        )?;
        give_back(&self.comm, parity);
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
                let _mark = self.seal(Pass::Replay, HeaderCommit::attempt(target))?;
                Ok(source)
            }
            Method::Double => self.restore_checkpoint(lost, self.holding(target, seen), target),
            Method::SelfCkpt => {
                let src = self.holding(target, seen);
                if src.data == Region::Work {
                    // CASE 2: encode of the target epoch committed
                    // somewhere; the flush may be torn. The workspace is
                    // the checkpoint: the app never regained control
                    // after the encode, so the (work, X(target)) CRCs
                    // written there still witness the exact bytes
                    // trusted. Once the lost members' pair is rebuilt,
                    // finish the interrupted make in make's own order:
                    // D@target on every member before B is touched, so a
                    // second loss mid-flush still rolls forward.
                    let (rebuilt, ()) = self.restore_core(lost, src, target, |_| Ok(()))?;
                    self.commit_d_then_flush(target, &rebuilt, Pass::Replay)?;
                    return Ok(RestoreSource::WorkspaceAndChecksum);
                }
                // CASE 1: normal rollback to the committed checkpoint —
                // also the cross-group case "another group proposed e-1":
                // the pre-flush sync gate guarantees our (B, X(e-1)) is
                // then still intact, since epoch e encoded into X(e).
                // One copy makes (work, X(target)) consistent again; B
                // and X(target) are never written, so a second loss
                // mid-copy rolls back again.
                let (rebuilt, to_work) = self.restore_core(lost, src, target, |ck| {
                    ck.seal(
                        Pass::Replay,
                        FlushCommit::new(WORK_X.data, src.data, "recover-restore"),
                    )
                })?;
                let _d = self.seal(
                    Pass::Replay,
                    HeaderCommit::after(WORK_X.word, target, &to_work).also_after(&rebuilt),
                )?;
                let _bc = self.seal(
                    Pass::Replay,
                    HeaderCommit::after(B_X.word, target, &to_work).also_after(&rebuilt),
                )?;
                // meet the roll-forward groups at their cross-group gate
                // (`commit_d_then_flush`)
                if let Some(sync) = &self.sync {
                    sync.barrier()?;
                }
                Ok(RestoreSource::CheckpointAndChecksum)
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
        let (rebuilt, to_work) = self.restore_core(lost, src, target, |ck| {
            ck.seal(
                Pass::Replay,
                FlushCommit::new(Region::Work, src.data, "recover-restore"),
            )
        })?;
        let _h = self.seal(
            Pass::Replay,
            HeaderCommit::after(src.word, target, &to_work).also_after(&rebuilt),
        )?;
        Ok(RestoreSource::CheckpointAndChecksum)
    }

    /// The restore core every method shares: CRC-verify the source pair at
    /// `target` before trusting it — silently corrupted survivors are
    /// downgraded to erasures and rebuilt alongside (or instead of) the
    /// lost ranks — then run the method's `copies` out of it, fire
    /// [`RECOVER_COMMIT_PROBE`] and pass the group barrier. What comes
    /// back are the evidence tokens the caller's header commits are built
    /// from. Every step is a replay-sequenced op, so a re-entered restore
    /// (recovery of a recovery) skips what already committed.
    fn restore_core<T>(
        &mut self,
        lost: &[usize],
        src: &Pair,
        target: u64,
        copies: impl FnOnce(&mut Self) -> Result<T, Fault>,
    ) -> Result<(Committed, T), RecoverError> {
        let lost = self.verify_sources(lost, src, target)?;
        let rebuilt = self.seal(
            Pass::Replay,
            RebuildOp::new(lost, src.data, src.parity(target)),
        )?;
        let copied = copies(self)?;
        self.probe(RECOVER_COMMIT_PROBE)?;
        self.comm.barrier()?;
        Ok((rebuilt, copied))
    }
}
