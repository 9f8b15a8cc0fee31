//! The double-checkpoint baseline (paper Figure 3): two full checkpoint
//! copies plus two checksums, alternating by epoch parity — fully fault
//! tolerant, at the cost of most of the node's memory.

use super::header::{Header, HeaderWord};
use super::ops::{self, FlushCommit, HeaderCommit, ParityCommit, RebuildOp};
use super::planner::{choose_double_pair, HeaderMaxima, PairSlot};
use super::proto::Protocol;
use super::{
    Checkpointer, CkptStats, Phase, RecoverError, Recovery, RestoreSource, RECOVER_COMMIT_PROBE,
};
use crate::memory::Method;
use skt_cluster::{Region, ShmSegment};
use skt_mps::Fault;

pub(crate) struct Double;

impl Protocol for Double {
    fn method(&self) -> Method {
        Method::Double
    }

    fn initial_epoch(&self, h: &Header) -> u64 {
        h.bc_epoch.max(h.pair1_epoch)
    }

    fn make_phases<'c>(&self, ck: &mut Checkpointer<'c>, e: u64) -> Result<CkptStats, Fault> {
        // overwrite the *older* pair; the newer pair stays consistent.
        let (b_t, h_t, b_r, c_r) = if e.is_multiple_of(2) {
            (
                ck.b1.clone().expect("double method has pair 1"),
                HeaderWord::Pair1,
                Region::CopyB1,
                Region::ParityC1,
            )
        } else {
            (
                ck.b.clone(),
                HeaderWord::BcEpoch,
                Region::CopyB,
                Region::ParityC,
            )
        };
        let t1 = ck.clock();
        let sp = ck.span(Phase::CopyB, e);
        let copy = ck.seal(ops::prepare(FlushCommit::new(
            b_r,
            Region::Work,
            Phase::CopyB.label(),
        )))?;
        sp.end();
        ck.phase_point(Phase::CopyB)?;
        let flush = t1.elapsed();
        let t0 = ck.clock();
        let sp = ck.span(Phase::Encode, e);
        let parity = ck.encode_of(&b_t, Some(Phase::Encode.label()))?;
        let encoded = ck.seal(ops::prepare(ParityCommit::new(c_r, &parity, &[c_r])))?;
        ck.comm.barrier()?;
        sp.end();
        let encode = t0.elapsed();
        let _h = ck.seal(ops::prepare(
            HeaderCommit::after(h_t, e, &copy).also_after(&encoded),
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
        // Restore from the pair holding the agreed epoch. A pair commit
        // implies the group barrier passed, so every survivor's data for
        // that pair is complete; the other pair may hold a torn write and
        // is only ever trusted at its own committed epoch.
        let (h_t, b_r, c_r) = match choose_double_pair(target, maxima) {
            Some(PairSlot::Primary) => (HeaderWord::BcEpoch, Region::CopyB, Region::ParityC),
            Some(PairSlot::Secondary) => (HeaderWord::Pair1, Region::CopyB1, Region::ParityC1),
            None => unreachable!(
                "double-checkpoint: agreed epoch {target} not held by either pair ({}, {})",
                maxima.bc, maxima.pair1
            ),
        };
        // CRC-verify the chosen pair; corrupt survivors become the
        // erasures to rebuild. Replay-sequenced: a re-entered restore
        // skips the steps that already committed.
        let lost = ck.verify_sources(lost, &[b_r, c_r])?;
        let rebuilt = ck.seal_replay(RebuildOp::new(lost, b_r, c_r))?;
        let to_work = ck.seal_replay(FlushCommit::new(Region::Work, b_r, "recover-restore"))?;
        ck.probe(RECOVER_COMMIT_PROBE)?;
        ck.comm.barrier()?;
        let _h = ck.seal_replay(HeaderCommit::after(h_t, target, &to_work).also_after(&rebuilt))?;
        ck.finish_restore(target, RestoreSource::CheckpointAndChecksum)
    }

    fn verify_pair<'a>(&self, ck: &'a Checkpointer<'_>) -> (&'a ShmSegment, &'a ShmSegment) {
        // the pairs alternate by epoch parity; the off pair may legally
        // hold a torn write, so the check targets the current epoch's pair
        if ck.epoch.is_multiple_of(2) {
            (
                ck.b1.as_ref().expect("double method has pair 1"),
                ck.c1.as_ref().expect("double method has pair 1"),
            )
        } else {
            (&ck.b, &ck.c)
        }
    }
}
