//! Region plumbing shared by every protocol implementation: segment
//! copies/fills, the per-stripe CRC32C witness table, restore-source
//! verification, and parity rebuilds of damaged or lost members.
//!
//! Everything here is `impl Checkpointer` mechanics below the protocol
//! decisions in `mod.rs` — how bytes move and how damage is detected and
//! repaired, never *which* pair a method trusts. Since the codec layer
//! landed, repair capacity is the codec's parity count `m`: up to `m`
//! CRC-damaged or lost members per group are folded into the erasure set
//! and rebuilt from the survivors' parity.

use super::table::{slot, Pair, SLOTS};
use super::{Checkpointer, RecoverError, RECOVER_REBUILD_PROBE};
use crate::engine::{give_back, reconstruct_stripes};
use skt_cluster::{Event, Region, ShmSegment};
use skt_encoding::simd::{f64_bytes, f64_bytes_mut};
use skt_encoding::{copy_with_stripe_crcs, crc32c_f64, kernels, stripe_crcs, KernelConfig};
use skt_mps::{Fault, Payload};
use std::cell::Cell;

/// Probe label fired at the start of every protocol segment copy
/// (`copy_seg`). Gives the simulation a yield point *inside* each copy
/// window (`FlushB`, `CopyB`, and the restore copies), so a node can be
/// lost as a copy starts, not just at the phase-boundary probes.
pub const COPY_PROBE: &str = "ckpt-copy";

/// Size in bytes of the per-rank stripe-CRC table segment for an
/// `n`-member group: one LE CRC32C per stripe per region slot, in a
/// segment of `3·(n−1)` `f64` words read as bytes. With
/// [`HEADER_BYTES`](super::HEADER_BYTES) it is what a rank's SHM holds
/// beyond Table 1's regions.
pub fn crc_table_bytes(n: usize) -> usize {
    SLOTS * (n - 1) * 4
}

impl<'c> Checkpointer<'c> {
    /// Whole-segment copy `dst ← src` on the blocked multi-threaded
    /// kernel, with a [`Event::BytesMoved`] record. A copy produces no
    /// bytes, so when `src` carries a witness (it is a pair's data region,
    /// witnessed where its bytes were produced: the encode, a rebuild)
    /// the copy **carries it**: `src`'s stripe-CRC slots become `dst`'s
    /// and nothing is CRC'd. A source changed since its witness thus
    /// lands in `dst` detectably damaged instead of freshly blessed. The
    /// double and single methods' workspace carries none and is CRC'd at
    /// the destination ([`Self::fill_stripes`]). Bytes and witness move
    /// in one no-yield block after [`COPY_PROBE`]. An unallocated region
    /// or a wiped or resized segment is a [`Fault`], not a panic.
    pub(super) fn copy_seg(
        &self,
        dst_r: Region,
        src_r: Region,
        label: &'static str,
    ) -> Result<(), Fault> {
        let (Some(dst), Some(src)) = (self.region_seg(dst_r), self.region_seg(src_r)) else {
            return Err(Fault::Protocol("flush: region not allocated by method"));
        };
        self.comm.ctx().failpoint(COPY_PROBE)?;
        let s = src.read();
        let sv = s.as_f64();
        if self.table.witnessed(src_r) {
            let mut d = dst.write();
            let dv = d.as_f64_mut();
            if dv.len() != sv.len() {
                return Err(Fault::Protocol(
                    "segment wiped or resized under the protocol",
                ));
            }
            kernels::copy(dv, sv, KernelConfig::global());
            self.carry_crcs(dst_r, src_r)?;
        } else {
            // a gated mutator built on the gated fill: still one commit point
            #[allow(clippy::disallowed_methods)]
            self.fill_stripes(dst_r, dst, &[sv])?;
        }
        self.bus.emit(Event::BytesMoved {
            label,
            bytes: (sv.len() * 8) as u64,
        });
        Ok(())
    }

    /// Overwrite region `r`'s segment with the concatenation of `parts`
    /// (each a whole number of stripes, except that the last may end
    /// short) and store the stripe CRCs of what landed, in one pass:
    /// each cache block is CRC'd **at its destination** right after it
    /// is copied. This is how *produced* bytes — encoded parity, rebuilt
    /// stripes — get their witness; a copy of witnessed bytes carries the
    /// source's instead ([`Self::copy_seg`]). Pure local compute — **no
    /// yield points** — so the bytes and their witness commit together.
    /// The parts must cover the segment exactly: a wiped or resized
    /// segment (stale handle on a powered-off node) or a short part is a
    /// [`Fault`], not a panic, and nothing is written.
    pub(super) fn fill_stripes(
        &self,
        r: Region,
        seg: &ShmSegment,
        parts: &[impl AsRef<[f64]>],
    ) -> Result<(), Fault> {
        let stripe_len = self.layout.stripe_len();
        let mut crcs = Vec::new();
        {
            let mut g = seg.write();
            let mut rest: &mut [f64] = g.as_f64_mut();
            let total: usize = parts.iter().map(|p| p.as_ref().len()).sum();
            let inner = parts.split_last().map_or(parts, |(_, inner)| inner);
            if rest.len() != total || inner.iter().any(|p| p.as_ref().len() % stripe_len != 0) {
                return Err(Fault::Protocol(
                    "segment wiped or resized under the protocol",
                ));
            }
            for part in parts {
                let (dst, tail) = rest.split_at_mut(part.as_ref().len());
                crcs.extend(copy_with_stripe_crcs(
                    dst,
                    part.as_ref(),
                    stripe_len,
                    KernelConfig::global(),
                ));
                rest = tail;
            }
        }
        self.store_crcs(r, &crcs)
    }

    /// Rebuild the `lost` ranks' `(data, parity)` region pairs from the
    /// survivors. Collective; only the lost ranks' segments are written.
    /// [`RECOVER_REBUILD_PROBE`] fires around the reconstruction
    /// collectives so cascading failures can land mid-rebuild; each
    /// rebuilt rank's stripe CRCs are refreshed in the same no-yield
    /// block as the segment fills, so a kill at any yield point leaves
    /// every rank's CRC table consistent with its data.
    ///
    /// No region is copied: survivors lend their segments to
    /// [`reconstruct_stripes`] a stripe and a fold at a time, and the
    /// rebuilt stripes reach [`Self::fill_stripes`] as the solve and the
    /// ring delivered them. **Verify-at-lend:** the lost set was agreed
    /// from CRCs checked *before* these reads, and corruption landing
    /// since would poison every rebuilt stripe and then be handed a
    /// fresh witness below — damage the scrub could detect but never
    /// locate. So [`Self::lend_verified`] checks each stripe against its
    /// witness under the guard that lends it, and **one** agreement
    /// after the last read and before the first fill turns a mismatch
    /// anywhere into the same typed fault on every rank, nothing
    /// mutated: on retry the stale witness makes that rank an erasure.
    pub(super) fn rebuild_regions(
        &self,
        lost: &[usize],
        data_r: Region,
        parity_r: Region,
    ) -> Result<(), Fault> {
        let data_seg = self
            .region_seg(data_r)
            .cloned()
            .ok_or(Fault::Protocol("rebuild: region not allocated by method"))?;
        let parity_seg = self
            .region_seg(parity_r)
            .cloned()
            .ok_or(Fault::Protocol("rebuild: region not allocated by method"))?;
        self.probe(RECOVER_REBUILD_PROBE)?;
        let clean = Cell::new(true);
        let rebuilt = reconstruct_stripes(
            &self.comm,
            &self.layout,
            self.codec,
            lost,
            |k, fold| self.lend_verified(data_r, &data_seg, k, &clean, fold),
            |role, fold| self.lend_verified(parity_r, &parity_seg, role, &clean, fold),
        )?;
        if !self.gather_bad_ranks(clean.get())?.is_empty() {
            return Err(Fault::Protocol(
                "rebuild: a source region changed under reconstruction (stale CRC witness)",
            ));
        }
        // The one internal composition of gated mutators: the rebuild is
        // itself a sequenced op (`ops::RebuildOp`), and its fills + CRC
        // refresh form that op's single apply step.
        #[allow(clippy::disallowed_methods)]
        if let Some(stripes) = rebuilt {
            self.fill_stripes(data_r, &data_seg, &stripes.data)?;
            self.fill_stripes(parity_r, &parity_seg, &stripes.parity)?;
            give_back(&self.comm, stripes.into_buffers());
        }
        self.probe(RECOVER_REBUILD_PROBE)?;
        Ok(())
    }

    /// Lend stripe `k` of region `r`'s `seg` to `fold` under the
    /// segment's read guard — held for this call only, so never at a
    /// probe or across a send or receive — after checking it against
    /// its stored witness under that same guard. A mismatch clears
    /// `clean` and the stripe is lent all the same (the rings keep their
    /// shape). A wiped or resized segment is a [`Fault`], not a panic.
    fn lend_verified(
        &self,
        r: Region,
        seg: &ShmSegment,
        k: usize,
        clean: &Cell<bool>,
        fold: &mut dyn FnMut(&[f64]),
    ) -> Result<(), Fault> {
        let len = self.layout.stripe_len();
        let g = seg.read();
        let stripe = g
            .as_f64()
            .get(k * len..(k + 1) * len)
            .ok_or(Fault::Protocol(
                "segment wiped or resized under the protocol",
            ))?;
        if crc32c_f64(stripe, KernelConfig::global()) != self.stored_crc(r, k)? {
            clean.set(false);
        }
        fold(stripe);
        Ok(())
    }

    /// Byte range of a region's slots within the CRC table segment.
    pub(super) fn crc_slot_range(&self, r: Region) -> std::ops::Range<usize> {
        let idx = slot(r).expect("region has a CRC table slot");
        let per = (self.comm.size() - 1) * 4;
        idx * per..(idx + 1) * per
    }

    /// Store `crcs` as region `r`'s leading stripe witnesses.
    fn store_crcs(&self, r: Region, crcs: &[u32]) -> Result<(), Fault> {
        let range = self.crc_slot_range(r);
        let mut g = self.crc.write();
        let tbl = f64_bytes_mut(g.as_f64_mut())
            .get_mut(range)
            .and_then(|tbl| tbl.get_mut(..crcs.len() * 4))
            .ok_or(Fault::Protocol("crc table segment wiped or truncated"))?;
        for (slot, c) in tbl.chunks_exact_mut(4).zip(crcs) {
            slot.copy_from_slice(&c.to_le_bytes());
        }
        Ok(())
    }

    /// Store region `src`'s stripe witnesses as region `dst`'s: the CRC
    /// half of a copy ([`Self::copy_seg`]). Both are data regions, so the
    /// whole slot range moves.
    fn carry_crcs(&self, dst: Region, src: Region) -> Result<(), Fault> {
        let (to, from) = (self.crc_slot_range(dst), self.crc_slot_range(src));
        let mut g = self.crc.write();
        let tbl = f64_bytes_mut(g.as_f64_mut());
        if tbl.len() < to.end.max(from.end) {
            return Err(Fault::Protocol("crc table segment wiped or truncated"));
        }
        tbl.copy_within(from, to.start);
        Ok(())
    }

    /// Recompute and store the stripe CRCs of the given regions. Pure
    /// local compute — **no yield points** — so calling it right after a
    /// commit keeps the forward protocol's interleaving space unchanged.
    pub(crate) fn update_region_crcs(&self, regions: &[Region]) -> Result<(), Fault> {
        for &r in regions {
            let Some(seg) = self.region_seg(r) else {
                continue;
            };
            let stripe_len = self.layout.stripe_len();
            let crcs = stripe_crcs(seg.read().as_f64(), stripe_len, KernelConfig::global());
            self.store_crcs(r, &crcs)?;
        }
        Ok(())
    }

    /// Region `r`'s stored witness of its stripe `k`.
    fn stored_crc(&self, r: Region, k: usize) -> Result<u32, Fault> {
        let range = self.crc_slot_range(r);
        let g = self.crc.read();
        f64_bytes(g.as_f64())
            .get(range)
            .and_then(|tbl| tbl.get(k * 4..k * 4 + 4))
            .map(|w| u32::from_le_bytes(w.try_into().expect("a four-byte slot")))
            .ok_or(Fault::Protocol("crc table segment wiped or truncated"))
    }

    /// Whether a region's current bytes still match its stored stripe
    /// CRCs (local check; absent regions are vacuously clean). Stripes
    /// are CRC'd one at a time under one read guard, and the first
    /// mismatch answers: a fresh or damaged region costs one stripe, not
    /// the whole region.
    pub(crate) fn region_crc_ok(&self, r: Region) -> Result<bool, Fault> {
        let Some(seg) = self.region_seg(r) else {
            return Ok(true);
        };
        let g = seg.read();
        for (k, stripe) in g.as_f64().chunks(self.layout.stripe_len()).enumerate() {
            if crc32c_f64(stripe, KernelConfig::global()) != self.stored_crc(r, k)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Collective: allgather a per-rank ok flag and return the ranks
    /// that reported damage.
    pub(super) fn gather_bad_ranks(&self, my_ok: bool) -> Result<Vec<usize>, Fault> {
        Ok(self
            .comm
            .allgather(Payload::I64(vec![my_ok as i64]))?
            .into_iter()
            .map(Payload::into_i64)
            .enumerate()
            .filter(|(_, v)| v[0] == 0)
            .map(|(r, _)| r)
            .collect())
    }

    /// The group half of the damage census: collective CRC verification
    /// of `pair` at epoch `e` before anything trusts it. Already-`lost`
    /// ranks are damaged by definition; CRC-damaged survivors are *merged
    /// into the erasure set* — the returned ranks are what the parity
    /// rebuild must restore, which it does bit-exactly. More damaged
    /// members than the codec's parity count `m` exceed its correction
    /// power: the second value is then this group's typed verdict, to be
    /// handed to [`Self::job_verdict`].
    pub(super) fn damage_census(
        &self,
        lost: &[usize],
        pair: &Pair,
        e: u64,
    ) -> Result<(Vec<usize>, Option<String>), Fault> {
        let m = self.layout.parity_count();
        let sources = [pair.data, pair.parity(e)];
        let my_ok = !lost.contains(&self.comm.rank())
            && self.region_crc_ok(sources[0])?
            && self.region_crc_ok(sources[1])?;
        let bad = self.gather_bad_ranks(my_ok)?;
        let verdict = (bad.len() > m).then(|| {
            let limit = if m == 1 {
                "single parity can rebuild only one".to_string()
            } else {
                format!("the {} code can rebuild at most {m}", self.codec.name())
            };
            format!(
                "checkpoint integrity: ranks {bad:?} of a {}-member group hold damaged restore \
                 sources ({sources:?}); {limit}",
                self.comm.size(),
            )
        });
        Ok((bad, verdict))
    }

    /// The damage census of a restore source, verdict included: what
    /// every restore runs before it trusts `pair` at epoch `e`.
    pub(super) fn verify_sources(
        &self,
        lost: &[usize],
        pair: &Pair,
        e: u64,
    ) -> Result<Vec<usize>, RecoverError> {
        let (bad, damage) = self.damage_census(lost, pair, e)?;
        self.job_verdict(damage)?;
        Ok(bad)
    }

    /// The job half of the damage census: agree job-wide on whether any
    /// group is damaged beyond repair. An unrecoverable verdict kills no
    /// node, so if one group returned the error while its siblings
    /// proceeded into the next collectives, the job would split between
    /// the two paths and hang. One reduce makes the verdict collective;
    /// `damage` is this group's own verdict, if it has one.
    pub(super) fn job_verdict(&self, damage: Option<String>) -> Result<(), RecoverError> {
        let worst = self
            .agree_min(-(damage.is_some() as i64))
            .map_err(RecoverError::Fault)?;
        if worst == 0 {
            return Ok(());
        }
        Err(RecoverError::Unrecoverable(damage.unwrap_or_else(|| {
            "checkpoint integrity: a sibling group is damaged beyond the parity code's repair"
                .into()
        })))
    }
}
