//! The erasure-codec layer: one trait the whole checkpoint stack
//! programs against, and the two codecs behind it —
//!
//! * the GF(2^8) linear code of [`crate::rs`], which serves every
//!   XOR-wire spec ([`CodecSpec::Single`]`(`[`Code::Xor`]`)`,
//!   [`CodecSpec::Dual`], [`CodecSpec::Rs`]) through one
//!   `contribs_into` and one `solve_into`, differing only in the
//!   generator row;
//! * the paper's numeric [`Code::Sum`] single parity, a different
//!   algebra (float add, negate to cancel) with its own tiny codec.
//!
//! The protocol's encoding stays *distributed*: a slot's parities are
//! reductions over its data holders, one per parity role, carried round
//! the group by a ring reduce-scatter. A codec therefore only supplies
//! local math —
//!
//! * [`ErasureCodec::contribs_into`]: what a slot's first contributor
//!   starts the reductions with — its data stripe pre-scaled by each
//!   role's generator coefficient (so the combine itself stays a plain
//!   bitwise XOR), every requested role produced from one cache-blocked
//!   read of the stripe; or the contributions that *remove* a
//!   previously encoded stripe from the parity accumulations — recovery
//!   builds per-role syndromes this way;
//! * [`ErasureCodec::accumulate`]: what every later contributor does —
//!   the same contributions combined straight into the accumulators it
//!   was handed, the scale fused into the combine, again from one read
//!   of the stripe and with no contribution buffer in between;
//! * [`ErasureCodec::solve_into`]: the local solve turning
//!   surviving-role syndromes into the erased data stripes, or into the
//!   one a lost rank keeps ([`ErasureCodec::solve_at_into`]).
//!
//! The `_into` forms overwrite buffers the caller owns — in a cluster,
//! recycled ones from its buffer pool. [`ErasureCodec::contribs`],
//! [`ErasureCodec::contrib`] and [`ErasureCodec::solve`] are thin
//! allocating wrappers over them for callers without a pool.
//!
//! All buffer loops run on the chunked [`crate::kernels`] engine.
//! Configuration enters through [`CodecSpec`], the plain-data selector
//! carried by checkpoint configs.

use crate::code::Code;
use crate::kernels::{self, KernelConfig};
use crate::rs::{self, GfCodec};
use std::ops::Range;
use std::sync::OnceLock;

/// How a codec's reduce contributions travel and combine on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    /// Combine IEEE-754 bit patterns with bitwise XOR (`MPI_BXOR`).
    /// Exact and self-inverse.
    Bits,
    /// Combine numerically (`MPI_SUM` on `f64`). Recovery subtracts, so
    /// rebuilt values can differ by floating-point rounding. Addition
    /// does not reassociate: a slot's parity is folded in ring order
    /// from the slot's first contributor (rank `s + m`, then `s + m + 1`,
    /// … for slot `s`), a syndrome in the same order over the survivors
    /// with the parity stripe added last — unlike [`Wire::Bits`], whose
    /// result is the same bytes in any order.
    Floats,
}

/// An erasure code over the group's stripe/slot geometry.
///
/// `m = parity_count()` parity stripes per slot tolerate any `m`
/// erasures among one slot's codeword (its data stripes plus its parity
/// stripes). Implementations are stateless — geometry (the codeword
/// position `pos` and stripe length) comes in per call, which is what
/// lets one `&'static` instance serve every group size.
pub trait ErasureCodec: Sync + Send {
    /// Number of parity stripes per slot — the erasures per group this
    /// codec can repair.
    fn parity_count(&self) -> usize;

    /// Short human name (shows up in stats and bench labels).
    fn name(&self) -> &str;

    /// Wire representation of the reduce contributions.
    fn wire(&self) -> Wire;

    /// The contributions of the data stripe at codeword position `pos`
    /// to the parity roles `roles` of its slot, written over `outs` (one
    /// buffer per role in `roles` order, each as long as `stripe`), all
    /// produced from one cache-blocked read of `stripe`. Every element
    /// of every output is overwritten, so the outputs may be recycled
    /// buffers. With `cancel` they are the contributions that take the
    /// stripe back *out* of those roles (syndrome building during
    /// recovery); XOR is self-inverse, so for [`Wire::Bits`] codecs
    /// cancelling is re-contributing.
    fn contribs_into(
        &self,
        roles: &[usize],
        pos: usize,
        stripe: &[f64],
        cancel: bool,
        outs: &mut [&mut [f64]],
        cfg: KernelConfig,
    );

    /// [`ErasureCodec::contribs_into`] into fresh buffers, one per role
    /// in `roles` order.
    fn contribs(
        &self,
        roles: &[usize],
        pos: usize,
        stripe: &[f64],
        cancel: bool,
        cfg: KernelConfig,
    ) -> Vec<Vec<f64>> {
        let mut outs: Vec<Vec<f64>> = roles
            .iter()
            .map(|_| kernels::zeroed(stripe.len()))
            .collect();
        let mut bufs: Vec<&mut [f64]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
        self.contribs_into(roles, pos, stripe, cancel, &mut bufs, cfg);
        outs
    }

    /// Fold the contributions of the data stripe at codeword position
    /// `pos` into the in-flight accumulators of the parity roles
    /// `roles`: `accs[i]` becomes `accs[i]` combined (the wire's XOR or
    /// add) with what [`ErasureCodec::contribs`] would have returned for
    /// `roles[i]`, bit for bit — but every accumulator is updated in
    /// place from one cache-blocked read of `stripe`, and no
    /// contribution buffer is materialised. This is what a rank runs on
    /// the accumulators a ring reduce-scatter hands it.
    fn accumulate(
        &self,
        roles: &[usize],
        pos: usize,
        stripe: &[f64],
        cancel: bool,
        accs: &mut [&mut [f64]],
        cfg: KernelConfig,
    );

    /// The contribution of the data stripe at codeword position `pos`
    /// to parity role `role` of its slot.
    fn contrib(&self, role: usize, pos: usize, stripe: &[f64], cfg: KernelConfig) -> Vec<f64> {
        self.contribs(&[role], pos, stripe, false, cfg)
            .pop()
            .expect("one contribution per role")
    }

    /// Solve for the erased codeword positions `erased[rows]`, written
    /// over `outs` (one buffer per row, each as long as a syndrome;
    /// every element overwritten), given the syndromes of the surviving
    /// parity roles. A syndrome is the role's parity combined with the
    /// cancel-contributions of every *surviving* data stripe, so it
    /// equals the combination of the erased stripes' contributions
    /// alone. `erased` is the whole ascending erasure set, whichever
    /// rows are asked for: a lost rank rebuilds only its own
    /// ([`ErasureCodec::solve_at_into`]), and a codec whose solve costs a
    /// pass per rebuilt stripe skips the others.
    ///
    /// # Panics
    ///
    /// If `erased.len() > parity_count()` or the surviving roles cannot
    /// determine the erased stripes — callers rule that out from group
    /// membership before recovery.
    fn solve_into(
        &self,
        erased: &[usize],
        rows: Range<usize>,
        syndromes: &[(usize, Vec<f64>)],
        outs: &mut [&mut [f64]],
        cfg: KernelConfig,
    );

    /// [`ErasureCodec::solve_into`] for every erased position, into
    /// fresh buffers in `erased` order.
    fn solve(
        &self,
        erased: &[usize],
        syndromes: &[(usize, Vec<f64>)],
        cfg: KernelConfig,
    ) -> Vec<Vec<f64>> {
        let len = syndromes.first().map_or(0, |(_, s)| s.len());
        let mut outs: Vec<Vec<f64>> = erased.iter().map(|_| kernels::zeroed(len)).collect();
        let mut bufs: Vec<&mut [f64]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
        self.solve_into(erased, 0..erased.len(), syndromes, &mut bufs, cfg);
        outs
    }

    /// [`ErasureCodec::solve_into`] for the one erased position
    /// `erased[at]` — what a lost rank runs: of a slot's erased stripes
    /// it keeps only its own.
    fn solve_at_into(
        &self,
        erased: &[usize],
        at: usize,
        syndromes: &[(usize, Vec<f64>)],
        out: &mut [f64],
        cfg: KernelConfig,
    ) {
        assert!(
            at < erased.len(),
            "{}: no erased position {at}",
            self.name()
        );
        self.solve_into(erased, at..at + 1, syndromes, &mut [out], cfg);
    }
}

/// Which erasure codec a checkpoint uses — the plain-data selector
/// carried by `CkptConfig` / `SktConfig` and resolved once at init.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use = "a codec spec does nothing until resolved into a codec"]
pub enum CodecSpec {
    /// One parity stripe per slot (`m = 1`): the paper's XOR or SUM
    /// reduce. Tolerates one loss per group.
    Single(Code),
    /// RAID-6-style P+Q over GF(2^8) (`m = 2`). Tolerates any two
    /// losses per group; requires groups of at least 3.
    Dual,
    /// Generalized Reed–Solomon over GF(2^8) with `m` parity roles
    /// (Cauchy construction, see [`crate::rs`]). Tolerates any `m`
    /// losses per group; requires groups of at least `m + 1`.
    Rs {
        /// Parity stripes per slot — the erasures tolerated per group.
        m: usize,
    },
}

impl Default for CodecSpec {
    /// The paper's default: single parity via bitwise XOR.
    fn default() -> Self {
        CodecSpec::Single(Code::Xor)
    }
}

impl CodecSpec {
    /// Parity stripes per slot, `m`.
    #[must_use]
    pub fn parity_count(self) -> usize {
        self.resolve().parity_count()
    }

    /// The codec instance: one `'static` each, the RS family built on
    /// first use per distinct `m`.
    #[must_use]
    pub fn resolve(self) -> &'static dyn ErasureCodec {
        static RS: [OnceLock<GfCodec>; 128] = [const { OnceLock::new() }; 128];
        match self {
            CodecSpec::Single(Code::Xor) => &rs::XOR,
            CodecSpec::Single(Code::Sum) => &SumCodec,
            CodecSpec::Dual => &rs::DUAL,
            CodecSpec::Rs { m } => RS
                .get(m)
                .expect("RS over GF(2^8): parity count must stay below 128")
                .get_or_init(|| GfCodec::cauchy(m)),
        }
    }

    /// The codec's display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        self.resolve().name()
    }
}

/// `m = 1` over `MPI_SUM`: the paper's numeric single parity. Recovery
/// subtracts, so the rebuilt stripe is exact only up to rounding.
struct SumCodec;

impl ErasureCodec for SumCodec {
    fn parity_count(&self) -> usize {
        1
    }

    fn name(&self) -> &str {
        Code::Sum.name()
    }

    fn wire(&self) -> Wire {
        Wire::Floats
    }

    fn contribs_into(
        &self,
        roles: &[usize],
        _pos: usize,
        stripe: &[f64],
        cancel: bool,
        outs: &mut [&mut [f64]],
        cfg: KernelConfig,
    ) {
        assert_eq!(roles.len(), outs.len(), "one output per role");
        for (&role, out) in roles.iter().zip(outs) {
            assert_eq!(role, 0, "single parity has one role");
            if cancel {
                kernels::negate_into(out, stripe, cfg);
            } else {
                kernels::copy(out, stripe, cfg);
            }
        }
    }

    fn accumulate(
        &self,
        roles: &[usize],
        _pos: usize,
        stripe: &[f64],
        cancel: bool,
        accs: &mut [&mut [f64]],
        cfg: KernelConfig,
    ) {
        assert_eq!(roles.len(), accs.len(), "one accumulator per role");
        for (&role, acc) in roles.iter().zip(accs) {
            assert_eq!(role, 0, "single parity has one role");
            // `a - x` and `a + (-x)` round identically
            if cancel {
                kernels::sub_accumulate(acc, stripe, cfg);
            } else {
                kernels::sum_accumulate(acc, stripe, cfg);
            }
        }
    }

    fn solve_into(
        &self,
        erased: &[usize],
        rows: Range<usize>,
        syndromes: &[(usize, Vec<f64>)],
        outs: &mut [&mut [f64]],
        cfg: KernelConfig,
    ) {
        assert!(
            erased.len() <= 1,
            "SUM corrects at most 1 erasures, got {}",
            erased.len()
        );
        assert_eq!(rows.len(), outs.len(), "one output per row");
        if let [out] = outs {
            let (role, s) = syndromes
                .first()
                .expect("single parity: the parity role must survive");
            assert_eq!(*role, 0);
            kernels::copy(out, s, cfg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stripe(pos: usize, len: usize) -> Vec<f64> {
        (0..len)
            .map(|j| ((pos * 37 + j * 11) as f64).cos() * 512.0)
            .collect()
    }

    /// Combine contributions the way the wire does — the local stand-in
    /// for the distributed reduce.
    fn combine(wire: Wire, parts: &[Vec<f64>], len: usize) -> Vec<f64> {
        let mut acc = vec![0.0f64; len];
        for p in parts {
            match wire {
                Wire::Bits => kernels::xor_accumulate(&mut acc, p, KernelConfig::serial()),
                Wire::Floats => kernels::sum_accumulate(&mut acc, p, KernelConfig::serial()),
            }
        }
        acc
    }

    fn encode(codec: &dyn ErasureCodec, data: &[Vec<f64>], len: usize) -> Vec<Vec<f64>> {
        (0..codec.parity_count())
            .map(|role| {
                let parts: Vec<Vec<f64>> = data
                    .iter()
                    .enumerate()
                    .map(|(pos, d)| codec.contrib(role, pos, d, KernelConfig::serial()))
                    .collect();
                combine(codec.wire(), &parts, len)
            })
            .collect()
    }

    /// Erase `erased` data stripes (and no parity), rebuild through the
    /// syndrome path every layer above uses. The GF codec's round trips
    /// (every erasure subset × every surviving-role subset, per spec)
    /// live in `crate::rs`.
    fn rebuild(
        codec: &dyn ErasureCodec,
        data: &[Vec<f64>],
        parity: &[Vec<f64>],
        erased: &[usize],
        len: usize,
    ) -> Vec<Vec<f64>> {
        let cfg = KernelConfig::serial();
        let syndromes: Vec<(usize, Vec<f64>)> = (0..codec.parity_count())
            .map(|role| {
                let mut parts = vec![parity[role].clone()];
                for (pos, d) in data.iter().enumerate() {
                    if !erased.contains(&pos) {
                        parts.extend(codec.contribs(&[role], pos, d, true, cfg));
                    }
                }
                (role, combine(codec.wire(), &parts, len))
            })
            .collect();
        codec.solve(erased, &syndromes, cfg)
    }

    #[test]
    fn sum_codec_round_trips_one_erasure() {
        let codec = CodecSpec::Single(Code::Sum).resolve();
        assert_eq!(codec.wire(), Wire::Floats);
        let data: Vec<Vec<f64>> = (0..3).map(|p| stripe(p, 6)).collect();
        let parity = encode(codec, &data, 6);
        for x in 0..3 {
            let got = rebuild(codec, &data, &parity, &[x], 6);
            for (a, b) in got[0].iter().zip(&data[x]) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn dual_codec_matches_dualparity_reference() {
        // The distributed contrib/reduce formulation must produce the
        // exact P and Q of the direct DualParity encoder.
        let k = 6;
        let len = 13;
        let data: Vec<Vec<f64>> = (0..k).map(|p| stripe(p, len)).collect();
        let codec = CodecSpec::Dual.resolve();
        let parity = encode(codec, &data, len);
        let dp = crate::dualparity::DualParity::new(k, len);
        let refs: Vec<&[f64]> = data.iter().map(|s| s.as_slice()).collect();
        let (p, q) = dp.encode_with(&refs, KernelConfig::serial());
        assert!(parity[0]
            .iter()
            .zip(&p)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(parity[1]
            .iter()
            .zip(&q)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn spec_names_and_counts() {
        assert_eq!(CodecSpec::default(), CodecSpec::Single(Code::Xor));
        assert_eq!(CodecSpec::default().name(), "BXOR");
        assert_eq!(CodecSpec::Single(Code::Sum).name(), "SUM");
        assert_eq!(CodecSpec::Dual.name(), "P+Q");
        assert_eq!(CodecSpec::default().parity_count(), 1);
        assert_eq!(CodecSpec::Dual.parity_count(), 2);
    }

    #[test]
    #[should_panic(expected = "BXOR corrects at most 1 erasures")]
    fn single_codec_refuses_two_erasures() {
        let codec = CodecSpec::default().resolve();
        codec.solve(&[0, 1], &[(0, vec![0.0])], KernelConfig::serial());
    }
}
