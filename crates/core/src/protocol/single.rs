//! The single-checkpoint baseline (paper Figure 2): one checkpoint copy
//! `B` plus one checksum `C`, updated **in place** — cheap, but a failure
//! during the update leaves the only checkpoint torn (its documented
//! flaw, flagged by the planner's torn-update detector).

use super::header::HeaderWord;
use super::ops::{self, FlushCommit, HeaderCommit, ParityCommit, RebuildOp};
use super::planner::HeaderMaxima;
use super::proto::Protocol;
use super::{
    Checkpointer, CkptStats, Phase, RecoverError, Recovery, RestoreSource, RECOVER_COMMIT_PROBE,
};
use crate::memory::Method;
use skt_cluster::Region;
use skt_mps::Fault;

pub(crate) struct Single;

impl Protocol for Single {
    fn method(&self) -> Method {
        Method::Single
    }

    fn make_phases<'c>(&self, ck: &mut Checkpointer<'c>, e: u64) -> Result<CkptStats, Fault> {
        // Gate the update window: past this barrier every rank runs the
        // straight-line dirty-mark + copy with no intervening failpoint,
        // so "any rank reached CopyB" implies "every rank marked the
        // dirty word". Without it, recovery's torn-update verdict depends
        // on where the scheduler parked the survivors.
        ck.comm.barrier()?;
        // Mark the attempt: if epoch `e` never commits anywhere, (B, C)
        // may be torn and recovery must give up — the method's documented
        // flaw (paper Figure 2, CASE 2). An evidence-free op by design:
        // the dirty word certifies nothing, it *announces*.
        let _mark = ck.seal(ops::prepare(HeaderCommit::attempt(e)))?;
        let t1 = ck.clock();
        let sp = ck.span(Phase::CopyB, e);
        let copy = ck.seal(ops::prepare(FlushCommit::new(
            Region::CopyB,
            Region::Work,
            Phase::CopyB.label(),
        )))?;
        sp.end();
        ck.phase_point(Phase::CopyB)?;
        let flush = t1.elapsed();
        let t0 = ck.clock();
        let sp = ck.span(Phase::Encode, e);
        let parity = ck.encode_of(&ck.b, Some(Phase::Encode.label()))?;
        let encoded = ck.seal(ops::prepare(ParityCommit::new(
            Region::ParityC,
            &parity,
            &[Region::ParityC],
        )))?;
        ck.comm.barrier()?;
        sp.end();
        let encode = t0.elapsed();
        let _bc = ck.seal(ops::prepare(
            HeaderCommit::after(HeaderWord::BcEpoch, e, &copy).also_after(&encoded),
        ))?;
        Ok(ck.stats(e, encode, flush))
    }

    fn restore<'c>(
        &self,
        ck: &mut Checkpointer<'c>,
        lost: &[usize],
        target: u64,
        _maxima: &HeaderMaxima,
    ) -> Result<Recovery, RecoverError> {
        // CRC-verify the only pair this method has before trusting it;
        // corrupt survivors join (or replace) the lost ranks as the
        // erasures to rebuild. Replay-sequenced: a re-entered restore
        // skips the steps that already committed.
        let lost = ck.verify_sources(lost, &[Region::CopyB, Region::ParityC])?;
        let rebuilt = ck.seal_replay(RebuildOp::new(lost, Region::CopyB, Region::ParityC))?;
        let to_work = ck.seal_replay(FlushCommit::new(
            Region::Work,
            Region::CopyB,
            "recover-restore",
        ))?;
        ck.probe(RECOVER_COMMIT_PROBE)?;
        ck.comm.barrier()?;
        let _bc = ck.seal_replay(
            HeaderCommit::after(HeaderWord::BcEpoch, target, &to_work).also_after(&rebuilt),
        )?;
        let _mark = ck.seal_replay(HeaderCommit::attempt(target))?;
        ck.finish_restore(target, RestoreSource::CheckpointAndChecksum)
    }
}
