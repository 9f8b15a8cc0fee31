//! The collective integrity scrub: verify the commit header and the
//! newest committed `(checkpoint, checksum)` pair against their stored CRCs,
//! and repair what the erasure codec can repair. Repairs are sequenced
//! ops ([`super::ops`]): a scrub re-entered after a crash detects which
//! repairs already committed and skips them.

use super::checkpointer::Pass;
use super::ops::{self, OpAction};
use super::planner::HeaderMaxima;
use super::{Checkpointer, RecoverError, ScrubReport, SCRUB_PROBE};

impl<'c> Checkpointer<'c> {
    /// Collective integrity *scrub*: verify the commit header and the
    /// **newest committed** `(checkpoint, checksum)` pair against their
    /// stored CRCs, and repair what the erasure codec can repair.
    ///
    /// * A CRC-corrupt header adopts the group-consensus commit words
    ///   (valid headers agree between makes — every word is written only
    ///   after a group barrier). The adoption is a replay-sequenced op:
    ///   a valid header detects as `Done` and is never rewritten.
    /// * Up to `m` (the codec's parity count) CRC-damaged members per
    ///   pair are downgraded to erasures and rebuilt bit-exactly from the
    ///   survivors' parity.
    /// * More than `m` damaged members of one pair exceed the code's
    ///   correction power: reported as [`RecoverError::Unrecoverable`],
    ///   never silently restored.
    ///
    /// Each pair's parity region is read at its consensus epoch: the self
    /// method's other checksum region (stale `P(e-1)`) is out of scope,
    /// and so is the live workspace: the application mutates it at will,
    /// so its CRCs are only meaningful on the recovery path, where
    /// `verify_sources` checks them.
    pub fn scrub(&mut self) -> Result<ScrubReport, RecoverError> {
        self.op_trail.clear();
        self.probe(SCRUB_PROBE)?;

        // 1. Headers: exchange them and take the group consensus (MAX
        // per word over valid headers).
        let views = self.gather_views(false)?;
        let any_valid = views.iter().any(|v| !v.fresh);
        let consensus = HeaderMaxima::over(&views);
        // A group with no valid header is beyond repair, but the error
        // exit must stay collective across sibling groups (see the
        // deferred verdict below): with all-zero consensus no pair is
        // checked, so the group simply falls through to it.
        let mut damage =
            (!any_valid).then(|| "scrub: every header in the group failed its CRC".to_string());
        let mut header_repaired = false;
        if any_valid {
            let adopted = self.seal(Pass::Replay, ops::HeaderAdopt::new(consensus.words()))?;
            header_repaired = adopted.record().action == OpAction::Replayed;
        }

        // 2. The newest committed pair — the one `verify_integrity`
        // checks. An older pair is the one the next make overwrites: a
        // make that died inside it left its members torn, and rebuilding
        // one from the survivors' mixed bytes would bless garbage under a
        // valid witness. Never-committed pairs are skipped: their
        // segments and CRC slots are both still zero-initialized, which
        // is not a checkpoint and must not be "verified" as one.
        let newest = (self.table.pairs.iter())
            .filter(|p| consensus.word(p.word) > 0)
            .max_by_key(|p| consensus.word(p.word));
        let mut repaired = Vec::new();
        if let Some(pair) = newest {
            let e = consensus.word(pair.word);
            let (bad, beyond_repair) = self.damage_census(&[], pair, e)?;
            if let Some(verdict) = beyond_repair {
                damage.get_or_insert(verdict);
            } else if !bad.is_empty() {
                repaired.extend_from_slice(&bad);
                let _rebuilt = self.seal(
                    Pass::Replay,
                    ops::RebuildOp::new(bad, pair.data, pair.parity(e)),
                )?;
            }
        }
        // Deferred job-wide verdict: every rank reduces once, so sibling
        // groups that finished their own (possibly repairing) pass exit
        // through the same path instead of hanging on a half-aborted job.
        self.job_verdict(damage)?;
        Ok(ScrubReport {
            pairs_checked: usize::from(newest.is_some()),
            repaired,
            header_repaired,
        })
    }
}
