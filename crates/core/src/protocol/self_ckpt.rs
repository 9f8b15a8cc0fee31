//! The paper's self-checkpoint protocol (Figures 4–5): one checkpoint
//! copy `B`, a committed checksum `C`, and a fresh checksum `D`, with the
//! workspace itself doubling as a checkpoint while `B` is overwritten.

use super::header::HeaderWord;
use super::ops::{self, FlushCommit, HeaderCommit, ParityCommit, RebuildOp};
use super::planner::{choose_self_source, HeaderMaxima};
use super::proto::Protocol;
use super::{
    Checkpointer, CkptStats, Phase, RecoverError, Recovery, RestoreSource, RECOVER_COMMIT_PROBE,
};
use crate::memory::Method;
use skt_cluster::Region;
use skt_mps::Fault;

pub(crate) struct SelfCkpt;

impl Protocol for SelfCkpt {
    fn method(&self) -> Method {
        Method::SelfCkpt
    }

    fn make_phases<'c>(&self, ck: &mut Checkpointer<'c>, e: u64) -> Result<CkptStats, Fault> {
        // (2) encode parity of `work` into D. The parity fill CRCs the
        // fresh (work, D) pair in the same no-yield block: any rank past
        // the commit has matching data and witness.
        let t0 = ck.clock();
        let sp = ck.span(Phase::Encode, e);
        let parity = ck.encode_of(&ck.work, Some(Phase::Encode.label()))?;
        let d_fill = ck.seal(ops::prepare(ParityCommit::new(
            Region::ChecksumD,
            &parity,
            &[Region::Work, Region::ChecksumD],
        )))?;
        // (3) group-wide commit of D
        ck.comm.barrier()?;
        sp.end();
        let encode = t0.elapsed();
        let _d = ck.seal(ops::prepare(HeaderCommit::after(
            HeaderWord::DEpoch,
            e,
            &d_fill,
        )))?;
        ck.phase_point(Phase::CommitD)?;
        // Cross-group gate: no group may start overwriting (B, C) until
        // *every* group has committed D@e — otherwise a failure could
        // force one group back to e-1 while another has already
        // destroyed its e-1 checkpoint.
        ck.sync_barrier()?;

        // (4) flush: the old checkpoint is overwritten while `work`+D
        // stand in as the consistent pair.
        let t1 = ck.clock();
        let sp = ck.span(Phase::FlushB, e);
        let flush_b = ck.seal(ops::prepare(FlushCommit::new(
            Region::CopyB,
            Region::Work,
            Phase::FlushB.label(),
        )))?;
        sp.end();
        ck.phase_point(Phase::FlushB)?;
        let sp = ck.span(Phase::FlushC, e);
        let flush_c = ck.seal(ops::prepare(FlushCommit::new(
            Region::ParityC,
            Region::ChecksumD,
            Phase::FlushC.label(),
        )))?;
        sp.end();
        ck.phase_point(Phase::FlushC)?;
        // (5) group-wide commit of (B, C)
        ck.comm.barrier()?;
        let flush = t1.elapsed();
        let _bc = ck.seal(ops::prepare(
            HeaderCommit::after(HeaderWord::BcEpoch, e, &flush_b).also_after(&flush_c),
        ))?;
        Ok(ck.stats(e, encode, flush))
    }

    fn restore<'c>(
        &self,
        ck: &mut Checkpointer<'c>,
        lost: &[usize],
        target: u64,
        maxima: &HeaderMaxima,
    ) -> Result<Recovery, RecoverError> {
        match choose_self_source(target, maxima) {
            Some(RestoreSource::CheckpointAndChecksum) => {
                // Normal rollback to the committed checkpoint (CASE 1) —
                // also the cross-group case "another group proposed e-1":
                // the pre-flush sync gate guarantees our (B, C)@e-1 is
                // then still intact. CRC-verify the source pair first:
                // silently corrupted survivors are downgraded to
                // erasures and rebuilt alongside (or instead of) the
                // lost ranks. Every step is a replay-sequenced op, so a
                // re-entered restore (recovery of a recovery) skips what
                // already committed.
                let lost = ck.verify_sources(lost, &[Region::CopyB, Region::ParityC])?;
                let rebuilt =
                    ck.seal_replay(RebuildOp::new(lost, Region::CopyB, Region::ParityC))?;
                let to_work = ck.seal_replay(FlushCommit::new(
                    Region::Work,
                    Region::CopyB,
                    "recover-restore",
                ))?;
                // restore the invariant: D mirrors C after a rollback
                let to_d = ck.seal_replay(FlushCommit::new(
                    Region::ChecksumD,
                    Region::ParityC,
                    "recover-restore",
                ))?;
                ck.probe(RECOVER_COMMIT_PROBE)?;
                ck.comm.barrier()?;
                let _d = ck.seal_replay(
                    HeaderCommit::after(HeaderWord::DEpoch, target, &to_d).also_after(&rebuilt),
                )?;
                let _bc =
                    ck.seal_replay(HeaderCommit::after(HeaderWord::BcEpoch, target, &to_work))?;
                ck.finish_restore(target, RestoreSource::CheckpointAndChecksum)
            }
            Some(RestoreSource::WorkspaceAndChecksum) => {
                // Encode of the target epoch committed job-wide; the flush
                // may be torn. The workspace itself is the checkpoint
                // (CASE 2). The app never regained control after the
                // encode, so the (work, D) CRCs written there still
                // witness the exact bytes being trusted.
                let lost = ck.verify_sources(lost, &[Region::Work, Region::ChecksumD])?;
                let rebuilt =
                    ck.seal_replay(RebuildOp::new(lost, Region::Work, Region::ChecksumD))?;
                // complete the interrupted flush so (B, C) is consistent
                // again
                let to_b = ck.seal_replay(FlushCommit::new(
                    Region::CopyB,
                    Region::Work,
                    "recover-flush",
                ))?;
                let to_c = ck.seal_replay(FlushCommit::new(
                    Region::ParityC,
                    Region::ChecksumD,
                    "recover-flush",
                ))?;
                ck.probe(RECOVER_COMMIT_PROBE)?;
                ck.comm.barrier()?;
                let _d =
                    ck.seal_replay(HeaderCommit::after(HeaderWord::DEpoch, target, &rebuilt))?;
                let _bc = ck.seal_replay(
                    HeaderCommit::after(HeaderWord::BcEpoch, target, &to_b).also_after(&to_c),
                )?;
                ck.finish_restore(target, RestoreSource::WorkspaceAndChecksum)
            }
            _ => unreachable!(
                "self-checkpoint: agreed epoch {target} matches neither d ({}) nor bc ({}) — protocol invariant broken",
                maxima.d, maxima.bc
            ),
        }
    }
}
